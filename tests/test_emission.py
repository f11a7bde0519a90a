"""CLI emitters against the reference per-cell writers in ``helpers``.

The CLI formats Q grids a plane point at a time and JSON rows from a
template; these tests hold its text byte for byte to the original
``csv.writer`` + per-cell formatting and ``json.dumps`` of rounded dicts.
"""

import io
from contextlib import redirect_stdout

import numpy as np
import pytest

from catvis.cli import RunConfig, _emit
from catvis.phase_space import QGrid

import helpers

HEADER = ("R", "nu", "count", "flag", "error", "abs_alpha0", "Zeta", "été")

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


def _q_values(rng, shape):
    """Real part of a complex array, as the CLI takes it, with special cells."""
    total = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    flat = total.reshape(-1)
    flat[:4] = [0.0, -0.0, 1e-300, 1e20]
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
