"""CLI emitters against the reference per-cell writers in ``helpers``.

Every table is written as byte matrices, a chunk of rows at a time: the
floats by a NumPy digit kernel (a sweep's once per distinct bit pattern,
text cells once per distinct value; a Q table's plane points once per
grid).  A column is a float64 array, a ``_Floats`` or a list of str or
None, as the CLI passes them.  These tests hold the text byte for byte to
the original ``csv.writer`` + per-cell formatting and ``json.dumps`` of
rounded dicts, and the kernel to ``"%.12g" %``.
"""

import io
import math
import warnings
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catvis import cli
from catvis._g12 import _SMALL, _mantissas, g12_chars
from catvis.cli import RunConfig, _emit, _float_texts
from catvis.experiment import _SWEEP_KEYS, _Floats, _sweep_columns, sweep
from catvis.phase_space import QGrid

import helpers

HEADER = ("R", "nu", "count", "flag", "error", "abs_alpha0", "Zeta", "été",
          "50%", "{x}")

FLOAT_CELLS = [
    0.1, 2.0 / 3.0, np.float64(1.0 / 7.0), -0.0, 0.0, 1e-300, 5e-324, 1e20,
    1234567890123.0, float("nan"), float("inf"), float("-inf"),
    np.float64("nan"), np.float64("-inf"),
]
TEXT_CELLS = [None, "a,b", 'say "hi"', "café ✓", "", "line\nbreak", "back\\slash"]
CELLS = FLOAT_CELLS + TEXT_CELLS

ECHO = {
    "R_values": (0.05, 0.1, 1.0 / 3.0),
    "alpha0": 2.0,
    "cutoff_a": None,
    "brute_force": False,
    "n_theta": 16,
    "phi": np.float64(0.7),
}


# per column of HEADER: a float array, floats with empty cells, or text
KINDS = "aft" * 3 + "a"


def _rows():
    """Every cell of its column's kind in every column, shifted by one per
    row."""
    pools = {"a": FLOAT_CELLS, "f": FLOAT_CELLS + [None], "t": TEXT_CELLS}
    return [
        tuple(pools[k][(i + j) % len(pools[k])] for j, k in enumerate(KINDS))
        for i in range(len(CELLS))
    ]


def _kinds(rows) -> str:
    """Each column's kind: ``a`` where every cell is a float, ``f`` where
    some are, else ``t``."""
    kinds = ""
    for cells in zip(*rows):
        floats = [isinstance(v, float) for v in cells]
        kinds += "a" if all(floats) else "f" if any(floats) else "t"
    return kinds


def _columns(rows, kinds):
    """The columns of ``rows`` as the CLI passes them, one per letter of
    ``kinds``: ``a`` a float64 array, ``f`` a :class:`_Floats` (empty where
    None), ``t`` a list of str or None."""
    columns = []
    for cells, kind in zip([list(c) for c in zip(*rows)] or [[]] * len(kinds), kinds):
        if kind == "t":
            columns.append(cells)
            continue
        values = np.array([0.0 if v is None else v for v in cells], dtype=float)
        empty = np.array([v is None for v in cells], dtype=bool)
        columns.append(values if kind == "a" else _Floats(values, empty))
    return columns


def _pair(fmt, header, rows=(), grid=None, ref_rows=None, columns=None, kinds=None,
          **kw):
    """(new emitter text, reference text) for one table; the emitter takes
    ``columns``, by default ``rows`` as columns of ``kinds`` (by default
    :func:`_kinds` of ``rows``)."""
    cfg = RunConfig(subcommand="sweep", format=fmt)
    if columns is None:
        columns = _columns(rows, _kinds(rows) if kinds is None else kinds)
    buf = io.StringIO()
    with redirect_stdout(buf):
        _emit(cfg, ECHO, header, columns, grid=grid, **kw)
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
        for kind in ["t", "f"] if cell is None else [None]:
            got, want = _pair(fmt, ("value",), [(cell,)], kinds=kind)
            assert got == want, (repr(cell), kind)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_empty_row_list(fmt):
    got, want = _pair(fmt, HEADER, [], kinds=KINDS)
    assert got == want


def test_json_nonfinite_spelling():
    got, _ = _pair("json", ("v",), [(float("nan"),), (float("inf"),),
                                    (float("-inf"),)], kinds="a")
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
    # the CLI makes float text with ``%``; it must be the cells' text
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


# the cells of each column kind (see _columns)
_KIND_CELLS = {
    "a": st.one_of(_FLOATS, _FLOATS.map(np.float64)),
    "f": st.one_of(_FLOATS, _FLOATS.map(np.float64), st.none()),
    "t": st.one_of(st.none(), st.text(max_size=6)),
}


@st.composite
def _tables(draw):
    """A header, the kinds of its columns and rows whose columns repeat a
    few values each of their kind."""
    width = draw(st.integers(1, 5))
    n_rows = draw(st.integers(0, 25))
    header = tuple(draw(st.lists(st.text(min_size=1, max_size=5),
                                 min_size=width, max_size=width, unique=True)))
    kinds = "".join(draw(st.lists(st.sampled_from("aft"), min_size=width,
                                  max_size=width)))
    columns = []
    for kind in kinds:
        pool = draw(st.lists(_KIND_CELLS[kind], min_size=1, max_size=6))
        columns.append(draw(st.lists(st.sampled_from(pool),
                                     min_size=n_rows, max_size=n_rows)))
    return header, kinds, list(zip(*columns))


@settings(deadline=None, derandomize=True, max_examples=200)
@given(table=_tables(), fmt=st.sampled_from(["csv", "json"]))
def test_generated_tables_match_reference(table, fmt):
    header, kinds, rows = table
    got, want = _pair(fmt, header, rows, kinds=kinds,
                      diagnostics={"n_rows": len(rows)})
    assert got == want


# columns whose cells compare equal, or nearly, but print differently:
# float cells share a text only when they share bits
_LOOKALIKES = [
    (0.0, -0.0),
    (-0.0, 0.0, -0.0),
    (0.1, np.float64(0.1)),
    ("1", "1.0"),
    (None, "", None),
    (None, None, None),
    (math.nan, -math.nan, math.nan),
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("column", _LOOKALIKES, ids=repr)
def test_lookalike_cells_keep_their_own_text(column, fmt):
    rows = [(v, v, float(len(column) - i)) for i, v in enumerate(column)]
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
    float column of distinct values, a float column with empty cells and a
    text column."""
    repeat = [0.0, -0.0, 0.5, math.nan, 1e16, -math.inf]
    empties = [None, 1.0, np.float64(-0.0), None, 3.0, 5e-324]
    text = [None, "x,y", 'say "hi"', "", None, "café"]
    return [(repeat[i % 6], i / 7.0, empties[i % 6], text[i % 6]) for i in range(n)]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n", [0, 1023, 1024, 1025, 2049])
def test_rows_across_block_boundaries(n, fmt):
    got, want = _pair(fmt, ("a", "b", "c", "d"), _long_rows(n), kinds="aaft")
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


def _kernel_texts(values):
    """Each value's text from :func:`g12_chars`: its row, NULs dropped.  The
    values repeat up to ``_SMALL``, below which each would take ``%``."""
    x = np.array(values, dtype=float)
    chars = g12_chars(np.resize(x, max(x.size, _SMALL)))[:x.size]
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in chars]


@pytest.mark.parametrize("size", [0, 1, 9, _SMALL - 1])
def test_small_inputs_take_percent(monkeypatch, size):
    # below _SMALL values g12_chars formats each with "%" and never builds
    # the kernel's tables
    monkeypatch.setattr("catvis._g12._tables", None)
    special = [0.0, -0.0, math.nan, -math.inf, 5e-324, 1e-310, 999999999999.5,
               9.999999999995e-05, 1e16, -1.5e-100, 0.1, 123456789012.0]
    x = np.resize(np.array(special), size)
    chars = g12_chars(x)
    assert chars.shape == (size, 40)
    assert [row.tobytes().replace(b"\0", b"").decode() for row in chars] == [
        "%.12g" % v for v in x.tolist()]


@settings(deadline=None, derandomize=True, max_examples=300)
@given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_kernel_matches_percent_on_bit_patterns(bits):
    values = np.array(bits, dtype=np.uint64).view(float)
    assert _kernel_texts(values) == ["%.12g" % x for x in values.tolist()]


def _powers_of_ten():
    """Every ``10**k`` from 1e-300 to 1e300 and its four nearest floats."""
    out = []
    for k in range(-300, 301):
        p = float(f"1e{k}")
        below, above = np.nextafter(p, 0.0), np.nextafter(p, math.inf)
        out += [p, below, above, np.nextafter(below, 0.0), np.nextafter(above, math.inf)]
    return out


_KERNEL_CASES = [
    999999999999.5, 9.999999999995e-05, 0.0, -0.0, 5e-324, -5e-324,
    2.2250738585072014e-308, 1e-310, -1e-320, math.inf, -math.inf, math.nan,
    -math.nan, -0.5, -123.456, -1e-5, 1e-100, 1.5e-100, -9.99999999999e-100,
    1e100, 1.23456789012e123, 1e-297, 1e300, 1.7976931348623157e308, 1e-99,
    0.0001, 0.00012, 1e11, 123456789012.0, 99999999999.5, 1e12, 0.1, 0.5,
]


def test_kernel_fixed_cases():
    values = _powers_of_ten() + _KERNEL_CASES + [-x for x in _KERNEL_CASES]
    assert _kernel_texts(values) == ["%.12g" % x for x in values]
    # the table writer splits the texts at each row's last byte, always NUL
    assert not g12_chars(np.array(values))[:, -1].any()
    # 4096 values in every form
    rng = np.random.default_rng(20)
    values = rng.standard_normal(4096) * 10.0 ** rng.integers(-120, 120, 4096)
    assert _kernel_texts(values) == ["%.12g" % x for x in values.tolist()]


def test_three_digit_exponents():
    texts = _kernel_texts([1.5e-100, -2e-250, 3.25e100, 1e-99, 9.87654321e-101])
    assert texts == ["1.5e-100", "-2e-250", "3.25e+100", "1e-99", "9.87654321e-101"]


def _certified(values):
    """Which values :func:`g12_chars` lays out from its own digits, the
    others going through ``%``; the texts are ``%``'s either way."""
    assert _kernel_texts(values) == ["%.12g" % x for x in values]
    return _mantissas(np.array(values, dtype=float))[2].tolist()


def test_near_ties_take_the_fallback():
    # the scaled mantissa y = |x| * 10**(11 - e) within 1e-3 of a tie, or
    # within 1 of the ends of [1e11, 1e12), is not certified
    near = [(123456789012 + f) * 10.0**k for f in (0.5, 0.4995, 0.5008)
            for k in (-20, -12, -6, 0)]
    ends = [100000000000.2, 999999999999.2, 999999999999.5, 1e-5, 1e11]
    special = [0.0, -0.0, math.inf, math.nan, 5e-324, 1e-298, 1e301]
    assert not any(_certified(near + ends + special))


def test_clear_of_ties_takes_the_kernel():
    clear = [(123456789012 + f) * 10.0**k for f in (0.0, 0.25, 0.498, 0.502)
             for k in (-20, -12, -6, 0)]
    assert all(_certified(clear + [0.5, 2e-297, 5e299, -2.5]))


def test_kernel_raises_no_floating_point_error():
    # no RuntimeWarning may reach stderr as a "catvis: warning:" line;
    # values near 1e-297 may meet the infinite power of ten 1e309
    rng = np.random.default_rng(21)
    values = [math.nan, math.inf, -math.inf, 0.0, 5e-324, 1e308, 1e301, 1e-297,
              *np.nextafter(1e-297, [0.0, 1.0]).tolist(), *_powers_of_ten(),
              *rng.integers(0, 2**64, 4096, dtype=np.uint64).view(float).tolist()]
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _kernel_texts(values) == ["%.12g" % x for x in values]


def _q_pair(fmt, planes, values, header):
    return _pair(fmt, header, grid=(planes, values),
                 ref_rows=helpers.q_grid_rows(planes, values))


# one or two planes, as CSV (the id is the mode alone) and as JSON
_Q_MODES = pytest.mark.parametrize("mode,fmt", [
    pytest.param(mode, fmt, id=mode if fmt == "csv" else f"{mode}-json")
    for fmt in ("csv", "json") for mode in ("full", "marginal")])


@_Q_MODES
def test_q_table_of_one_point(mode, fmt):
    plane = np.array([[-0.5 + 1.25j]])
    if mode == "full":
        planes, values = (plane, plane + 1.0), np.full((1, 1, 1, 1), 0.0625)
        header = ("re_alpha", "im_alpha", "re_beta", "im_beta", "q")
    else:
        planes, values, header = (plane,), np.full((1, 1), -1e-300), ("re", "im", "q")
    got, want = _q_pair(fmt, planes, values, header)
    assert_same_text(got, want)


@pytest.mark.parametrize("chunk", [1, 7, 40, 2048])
@_Q_MODES
def test_q_chunks_split_an_outer_block(monkeypatch, chunk, mode, fmt):
    # 4 x 4 points per plane: a 7 or 40-row chunk ends inside the 16 rows of
    # an outer point; the coordinates print in texts of unequal width
    monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk)
    rng = np.random.default_rng(chunk)
    plane = (np.array([-1.0, 0.0, 2.5, 10.75])[None, :]
             + 1j * np.array([-0.125, 0.0, 1.0, -30.0])[:, None])
    if mode == "full":
        planes, values = (plane, plane - 3.0), _q_values(rng, (4, 4, 4, 4))
        header = ("re_alpha", "im_alpha", "re_beta", "im_beta", "q")
    else:
        planes, values, header = (plane,), _q_values(rng, (4, 4)), ("re", "im", "q")
    got, want = _q_pair(fmt, planes, values, header)
    assert_same_text(got, want)


# q values whose JSON text is parsed back (zeros, integral, subnormal, 1e11
# to 1e16, non-finite) or is the 12-digit text itself
_Q = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                     math.nan, math.inf, -math.inf, 1e11, 1e15, 1e16, 3.0]),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
    st.floats(1e11, 1e16),
    st.integers(-10**6, 10**6).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)

# plane coordinates: integral, negative, signed zeros and fractions
_COORDS = st.one_of(st.integers(-9, 9).map(float),
                    st.sampled_from([-0.0, -2.5, 0.125]), st.floats(-50.0, 50.0))


@st.composite
def _q_grids(draw):
    """``(planes, values)``: one or two planes of 1 to 5 points per axis,
    their real and imaginary axes drawn from ``_COORDS``, and q values."""
    n = draw(st.integers(1, 5))
    planes = []
    for _ in range(draw(st.sampled_from([1, 2]))):
        z = np.zeros((n, n), dtype=complex)
        z.real[:] = draw(st.lists(_COORDS, min_size=n, max_size=n))
        z.imag[:] = np.array(draw(st.lists(_COORDS, min_size=n, max_size=n)))[:, None]
        planes.append(z)
    shape = (n,) * 2 * len(planes)
    q = draw(st.lists(_Q, min_size=math.prod(shape), max_size=math.prod(shape)))
    return tuple(planes), np.array(q).reshape(shape)


@settings(deadline=None, derandomize=True, max_examples=120)
@given(grid=_q_grids(), chunk=st.sampled_from([1, 7, 40, cli._CHUNK_ROWS]),
       fmt=st.sampled_from(["csv", "json"]))
def test_generated_q_grids_match_reference(grid, chunk, fmt):
    # chunks of 1, 7 and 40 rows end inside an outer point's block; 2048 rows
    # take the digit kernel past its 128-value threshold
    planes, values = grid
    header = (("re_alpha", "im_alpha", "re_beta", "im_beta", "q") if len(planes) == 2
              else ("re_beta", "im_beta", "q"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_CHUNK_ROWS", chunk)
        got, want = _q_pair(fmt, planes, values, header)
    assert_same_text(got, want)


# tables passed as columns, as the CLI passes them: float arrays, float
# columns with empty cells, and text columns such as sweep's ``error``

_COLUMN_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -3.0, 0.5, 1e11, 123456789012.0, 1e15, -1e16,
                     5e-324, -2.2250738585072014e-308, 1e-310, math.nan, math.inf,
                     -math.inf]),
    st.floats(1e11, 1e16),
    _FLOATS,
)

_ERRORS = st.one_of(
    st.none(),
    st.sampled_from(["a,b", 'say "hi"', 'x,"y"', "line\nbreak", "",
                     "cutoffs (41610, 4090) need 1.7e+08 amplitudes"]),
    st.text(max_size=8),
)


@st.composite
def _column_tables(draw):
    """``(header, columns, rows)``: columns of 1, 2, ``_CHUNK_ROWS`` or
    ``_CHUNK_ROWS + 1`` rows drawn from small pools, and the same table as
    rows of built-in cells for the reference writers."""
    n_rows = draw(st.sampled_from([1, 2, cli._CHUNK_ROWS, cli._CHUNK_ROWS + 1]))
    width = draw(st.integers(1, 4))
    header = tuple(draw(st.lists(st.text(min_size=1, max_size=5),
                                 min_size=width, max_size=width, unique=True)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns, cells = [], []
    for _ in range(width):
        kind = draw(st.sampled_from(["array", "floats", "errors"]))
        if kind == "errors":
            pool = draw(st.lists(_ERRORS, min_size=1, max_size=4))
            col = [pool[k] for k in rng.integers(0, len(pool), n_rows).tolist()]
            columns.append(col)
            cells.append(col)
            continue
        pool = np.array(draw(st.lists(_COLUMN_FLOATS, min_size=1, max_size=8)))
        values = pool[rng.integers(0, pool.size, n_rows)]
        share = draw(st.sampled_from([0.0, 0.3, 1.0])) if kind == "floats" else 0.0
        empty = rng.random(n_rows) < share
        columns.append(values if kind == "array" else _Floats(values, empty))
        cells.append([None if e else v
                      for v, e in zip(values.tolist(), empty.tolist())])
    return header, columns, list(zip(*cells))


@settings(deadline=None, derandomize=True, max_examples=80)
@given(table=_column_tables(), fmt=st.sampled_from(["csv", "json"]))
def test_columns_match_reference(table, fmt):
    header, columns, rows = table
    got, want = _pair(fmt, header, rows, columns=columns,
                      diagnostics={"n_rows": len(rows)})
    assert_same_text(got, want)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_text_cell_holding_nul_keeps_it(fmt):
    # the writer drops its NUL padding on writing, but not a NUL of a text
    rows = [("a\0b", 0.5), ("\0", None), ("", 1.0), ("\0,\0", -0.0)]
    got, want = _pair(fmt, ("error", "x"), rows)
    assert got == want
    assert ("a\0b" if fmt == "csv" else "a\\u0000b") in got


def test_sweep_is_the_transpose_of_its_columns():
    # invalid points, errors at valid points, empty route cells and -0.0
    axes = ([0.3, 1.0, 0.0], [2.0, 200.0, math.nan], [0.5, math.inf, -0.0, 4.0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for brute, fringe in [(False, False), (True, False), (True, True)]:
            *floats, error = _sweep_columns(*axes, brute, fringe, 16)
            rows = sweep(*axes, include_brute=brute, include_fringe=fringe)
            cells = [[None if e else v
                      for v, e in zip(c.values.tolist(), c.empty.tolist())]
                     for c in floats]
            want = zip(*cells, error)
            assert [repr(row) for row in rows] == [repr(row) for row in want]
            assert {type(v) for row in rows for v in row} <= {float, str, type(None)}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_columns_write_as_the_reference_writes_sweep_rows(fmt):
    # 2 700 rows, past one chunk, with R = 0 (integral cells) and the
    # invalid R = 1 (error rows)
    axes = ([0.0, 0.3, 1.0], np.linspace(0.5, 6.0, 30), np.linspace(0.0, 1.5, 30))
    got, want = _pair(fmt, _SWEEP_KEYS, sweep(*axes),
                      columns=_sweep_columns(*axes, False, False, 16))
    assert_same_text(got, want)
    assert got.count("reflectivity must lie in [0, 1)") == 900
