"""CLI emitters against the reference per-cell writers in ``helpers``.

The CLI turns floats into text by one ``%`` over an array of them, encodes
a float column once per distinct bit pattern and a column of one repeated
cell once, and fills Q grid rows and blocks of JSON rows through row
templates, one ``%`` per block; these tests hold its text byte for byte to
the original ``csv.writer`` + per-cell formatting and ``json.dumps`` of
rounded dicts.
"""

import io
import math
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catvis.cli import RunConfig, _emit, _float_texts
from catvis.phase_space import QGrid

import helpers

HEADER = ("R", "nu", "count", "flag", "error", "abs_alpha0", "Zeta", "été",
          "50%", "{x}")

CELLS = [
    None, True, False, 0, -7, 12345678901234567890, np.int64(42), np.int32(-3),
    0.1, 2.0 / 3.0, np.float64(1.0 / 7.0), np.float32(0.1), -0.0, 0.0, 1e-300,
    1e20, 1234567890123.0, float("nan"), float("inf"), float("-inf"),
    np.float64("nan"), np.float64("-inf"),
    "a,b", 'say "hi"', "café ✓", "", "line\nbreak", "back\\slash",
]

ECHO = {
    "R_values": (0.05, 0.1, 1.0 / 3.0),
    "alpha0": 2.0,
    "cutoff_a": None,
    "brute_force": False,
    "n_theta": 16,
    "phi": np.float64(0.7),
}


def _rows():
    """Every cell value in every column, shifted by one per row."""
    width = len(HEADER)
    return [
        tuple(CELLS[(i + j) % len(CELLS)] for j in range(width))
        for i in range(len(CELLS))
    ]


def _pair(fmt, header, rows=(), grid=None, ref_rows=None, **kw):
    """(new emitter text, reference text) for one table."""
    cfg = RunConfig(subcommand="sweep", format=fmt)
    buf = io.StringIO()
    with redirect_stdout(buf):
        _emit(cfg, ECHO, header, rows, grid=grid, **kw)
    got = buf.getvalue()
    ref_rows = rows if ref_rows is None else ref_rows
    if fmt == "json":
        want = helpers.to_json(cfg, ECHO, header, ref_rows,
                               kw.get("diagnostics") or {})
    else:
        want = helpers.to_csv(cfg, ECHO, header, ref_rows,
                              kw.get("head_comments", ()),
                              kw.get("foot_comments", ()))
    return got, want


def assert_same_text(got, want):
    """Byte identity, reported as the first differing line (a full diff of
    megabyte texts takes pytest minutes)."""
    if got == want:
        return
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for i, (g, w) in enumerate(zip(got_lines, want_lines)):
        assert g == w, f"line {i} differs"
    assert len(got_lines) == len(want_lines)
    assert got == want  # line endings


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_hand_built_rows_match_reference(fmt):
    got, want = _pair(
        fmt, HEADER, _rows(),
        head_comments=["normalization: 1"], foot_comments=["fit: a=1"],
        diagnostics={"n_rows": 27, "fit": {"x": 1.0 / 3.0, "y": None}},
    )
    assert_same_text(got, want)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_single_row_of_each_cell(fmt):
    for cell in CELLS:
        got, want = _pair(fmt, ("value",), [(cell,)])
        assert got == want, repr(cell)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_empty_row_list(fmt):
    got, want = _pair(fmt, HEADER, [])
    assert got == want


def test_json_nonfinite_spelling():
    got, _ = _pair("json", ("v",), [(float("nan"),), (float("inf"),),
                                    (float("-inf"),)])
    assert '"v": NaN' in got
    assert '"v": Infinity' in got
    assert '"v": -Infinity' in got


# where ``.12g`` and ``repr`` switch between plain and exponent notation,
# and where 12-digit rounding carries a value across a switch
_SWITCHES = [1e-5, 1e-4, 1e12, 1e13, 1e14, 1e15, 1e16, 999999999999.5,
             9.999999999995e-05]

_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
                     5e-324, -5e-324, 2.2250738585072014e-308]),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),  # subnormal
    st.builds(lambda x, k, sign: sign * x * (1.0 + k * 2.0**-52),
              st.sampled_from(_SWITCHES), st.integers(-8, 8),
              st.sampled_from([1.0, -1.0])),
)


@settings(deadline=None, derandomize=True, max_examples=500)
@given(x=_FLOATS)
def test_percent_format_matches_format_spec(x):
    # Q grids fill row templates with ``%``; their text must be the cells'
    assert "%.12g" % x == f"{x:.12g}"


def _json_text(x) -> str:
    """A float's JSON cell as ``json.dumps`` writes it after rounding."""
    text = f"{x:.12g}"
    return {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(text) or repr(
        float(text))


@settings(deadline=None, derandomize=True, max_examples=500)
@given(xs=st.lists(_FLOATS, max_size=12))
def test_float_texts_match_per_value_formatting(xs):
    # JSON parses back only the texts its mask picks out; every other text
    # must already be the repr of the float it parses to
    values = np.array(xs, dtype=float)
    assert _float_texts(values, False) == [f"{x:.12g}" for x in xs]
    assert _float_texts(values, True) == [_json_text(x) for x in xs]


def test_float_texts_on_random_bit_patterns():
    # every exponent, NaN payloads and subnormals, integers up to 1e17 and
    # values next to each power of ten
    rng = np.random.default_rng(19)
    values = np.concatenate([
        rng.integers(0, 2**64, 20000, dtype=np.uint64).view(float),
        np.round(rng.uniform(-1e17, 1e17, 2000)),
        np.round(rng.uniform(-1e6, 1e6, 2000), 3),
        [s * 10.0**k * f for k in range(-330, 309) for s in (1, -1)
         for f in (1.0, 1.0 + 2**-52, 1.0 - 2**-53, 0.9999999999995)],
    ])
    assert _float_texts(values, False) == [f"{x:.12g}" for x in values.tolist()]
    assert _float_texts(values, True) == [_json_text(x) for x in values.tolist()]


_CELLS = st.one_of(
    _FLOATS,
    _FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.none(), st.booleans(), st.integers(), st.text(max_size=6),
)


@st.composite
def _tables(draw):
    """A header and rows whose columns repeat a few values each, drawn from
    built-in floats only or from every cell type, column by column."""
    width = draw(st.integers(1, 5))
    n_rows = draw(st.integers(0, 25))
    header = tuple(draw(st.lists(st.text(min_size=1, max_size=5),
                                 min_size=width, max_size=width, unique=True)))
    columns = []
    for _ in range(width):
        pool = draw(st.lists(draw(st.sampled_from([_FLOATS, _CELLS])),
                             min_size=1, max_size=6))
        columns.append(draw(st.lists(st.sampled_from(pool),
                                     min_size=n_rows, max_size=n_rows)))
    return header, list(zip(*columns))


@settings(deadline=None, derandomize=True, max_examples=200)
@given(table=_tables(), fmt=st.sampled_from(["csv", "json"]))
def test_generated_tables_match_reference(table, fmt):
    header, rows = table
    got, want = _pair(fmt, header, rows, diagnostics={"n_rows": len(rows)})
    assert got == want


# columns whose cells compare equal, or nearly, but print differently: a
# column counts as one repeated cell only when its cells share type and bits
_LOOKALIKES = [
    (True, 1, 1.0),
    (1, True, True),
    (1.0, 1, True, 1.0),
    (0.0, -0.0),
    (-0.0, 0.0, -0.0),
    (np.float32(0.1), 0.1),
    (0.1, np.float64(0.1)),
    (np.int64(1), 1, True),
    ("1", 1),
    (None, None, None),
    (math.nan, -math.nan, math.nan),
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("column", _LOOKALIKES, ids=repr)
def test_lookalike_cells_keep_their_own_text(column, fmt):
    rows = [(v, v, len(column) - i) for i, v in enumerate(column)]
    got, want = _pair(fmt, ("a", "b", "n"), rows)
    assert got == want


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_one_row_of_lookalikes(fmt):
    row = tuple(v for column in _LOOKALIKES for v in column)
    header = tuple(f"c{i}" for i in range(len(row)))
    got, want = _pair(fmt, header, [row])
    assert got == want


def _long_rows(n):
    """``n`` rows: a float column with repeats, signed zeros and NaN, a
    float column of distinct values, and a column of mixed cells."""
    repeat = [0.0, -0.0, 0.5, math.nan, 1e16, -math.inf]
    mixed = [None, 1.0, "x,y", np.float64(-0.0), 3, True]
    return [(repeat[i % 6], i / 7.0, mixed[i % 6]) for i in range(n)]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n", [0, 1023, 1024, 1025, 2049])
def test_rows_across_block_boundaries(n, fmt):
    got, want = _pair(fmt, ("a", "b", "c"), _long_rows(n))
    assert_same_text(got, want)


def _q_values(rng, shape):
    """Real part of a complex array, as the CLI takes it, with special cells:
    signed zeros, non-finite, subnormal and notation-switch values."""
    total = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    flat = total.reshape(-1)
    special = [0.0, -0.0, 1e-300, 1e20, math.nan, math.inf, -math.inf, 5e-324,
               999999999999.5, 9.999999999995e-05]
    flat[:len(special)] = special
    return total.real


GRIDS = [
    # 13 points per axis: the middle sample of a centered axis is 0.0
    QGrid(extent=1.3, spacing=0.2),
    QGrid(extent=1.3, spacing=0.2, center_a=0.3 - 0.7j, center_b=-1.1 + 0.45j),
    QGrid(extent=1.5, spacing=0.25, center_a=-0.25j, center_b=0.5),
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("mode", ["full", "marginal-a", "marginal-b"])
@pytest.mark.parametrize("grid", GRIDS, ids=["odd", "odd-shifted", "even-shifted"])
def test_q_grid_matches_reference(grid, mode, fmt):
    rng = np.random.default_rng(7)
    n = grid.points_per_axis
    if mode == "full":
        planes = (grid.plane("a"), grid.plane("b"))
        values = _q_values(rng, (n, n, n, n))
        header = ("re_alpha", "im_alpha", "re_beta", "im_beta", "q")
    else:
        plane = mode[-1]
        planes = (grid.plane(plane),)
        values = _q_values(rng, (n, n))
        name = "alpha" if plane == "a" else "beta"
        header = (f"re_{name}", f"im_{name}", "q")
    got, want = _pair(
        fmt, header, grid=(planes, values),
        ref_rows=helpers.q_grid_rows(planes, values),
        head_comments=["normalization: 0.999"],
        diagnostics={"normalization": 0.999, "points_per_axis": n},
    )
    assert_same_text(got, want)
    if fmt == "json":
        assert '"q": NaN' in got and '"q": Infinity' in got
        assert '"q": -Infinity' in got


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("header", [
    ("z_re", "z_im", "a%", "{b}", "m"),
    ("m", "a", "q%%", "{0}", "b"),
    ("z", "a", "m"),
    ("%s", "{}", "%"),
])
def test_q_grid_keys_in_any_order(header, fmt):
    # the outer point, the inner point and q sort into any order of the
    # template's fields, and keys may hold the templates' own markers
    grid = GRIDS[1]
    n = grid.points_per_axis
    rng = np.random.default_rng(3)
    if len(header) == 5:
        planes = (grid.plane("a"), grid.plane("b"))
        values = _q_values(rng, (n, n, n, n))
    else:
        planes = (grid.plane("b"),)
        values = _q_values(rng, (n, n))
    got, want = _pair(fmt, header, grid=(planes, values),
                      ref_rows=helpers.q_grid_rows(planes, values))
    assert_same_text(got, want)
