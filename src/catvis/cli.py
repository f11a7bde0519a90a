"""Command-line front end: parse a run configuration, drive the pipelines,
and emit deterministic CSV or JSON.

Every flag can also arrive through the environment as CATVIS_<FLAG> with
the flag name uppercased and dashes turned to underscores; explicit flags
win over the environment, which wins over built-in defaults.  Identical
configuration produces byte-identical output: floats are printed to 12
significant digits, row order is fixed, and nothing timestamped is emitted.
"""

import argparse
import csv
import io
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import __version__
from .experiment import (
    ExperimentParams,
    TruncationError,
    environment_overlap_oracle,
    fit_fringe,
    fock_brute_force_visibility,
    fringe_scan,
    sweep,
    _SWEEP_KEYS,
)
from .heisenberg import contrast_report
from .phase_space import (
    CoverageWarning,
    QGrid,
    _edge_ratio,
    beam_split_term,
    initial_cat_terms,
    q_full,
    q_marginal,
    visibility_analytic,
)

__all__ = ["RunConfig", "main"]

ENV_PREFIX = "CATVIS_"

_MAX_ROWS = 500_000

_DEFAULT_SWEEP_R = (0.05, 0.1, 0.2, 0.3, 0.5)
_DEFAULT_SWEEP_ALPHA0 = (0.5, 1.0, 2.0, 3.0)
_DEFAULT_SWEEP_PHI = (np.pi / 6.0, np.pi / 4.0, np.pi / 2.0)

# edge-to-peak ratio above which an emitted grid is flagged as too small;
# sized so the normalization header stays good to 1e-4
_EMIT_EDGE_RATIO = 1e-6


@dataclass(frozen=True)
class RunConfig:
    """Resolved configuration of one CLI invocation."""

    subcommand: str
    alpha0: float = 1.0
    alpha0_phase: float = 0.0
    phi: float = np.pi / 2.0
    r: float = 0.1
    theta: float = 0.0
    cutoff_a: int | None = None
    cutoff_b: int | None = None
    brute_force: bool = False
    include_fringe: bool = False
    n_theta: int = 16
    qmode: str = "marginal-a"
    stage: str = "after-bs"
    extent: float | None = None
    spacing: float | None = None
    r_values: tuple = _DEFAULT_SWEEP_R
    alpha0_values: tuple = _DEFAULT_SWEEP_ALPHA0
    phi_values: tuple = _DEFAULT_SWEEP_PHI
    format: str = "csv"
    output: str | None = None
    degrees: bool = False
    verbose: bool = False

    def __post_init__(self) -> None:
        if self.format not in ("csv", "json"):
            raise ValueError(f"unknown output format {self.format!r}")
        if self.qmode not in ("marginal-a", "marginal-b", "full"):
            raise ValueError(f"unknown qmode {self.qmode!r}")
        if self.stage not in ("initial", "after-bs"):
            raise ValueError(f"unknown stage {self.stage!r}")
        if self.alpha0 < 0.0:
            raise ValueError(
                "alpha0 is a magnitude; use --alpha0-phase for the phase"
            )
        if self.n_theta < 8:
            raise ValueError("n-theta must be at least 8")

    def to_params(self) -> ExperimentParams:
        label = self.alpha0 * complex(math.cos(self.alpha0_phase),
                                      math.sin(self.alpha0_phase))
        return ExperimentParams(
            alpha0=label,
            phi=self.phi,
            r=self.r,
            theta=self.theta,
            cutoff_a=self.cutoff_a,
            cutoff_b=self.cutoff_b,
        )


# ---------------------------------------------------------------------------
# configuration resolution: CLI flag, then environment, then default


def _env_name(dest: str) -> str:
    return ENV_PREFIX + dest.upper()


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _float_list(raw: str) -> tuple:
    vals = tuple(float(tok) for tok in raw.split(",") if tok.strip())
    if not vals:
        raise ValueError("empty list")
    return vals


def _from_env(dest, cast):
    raw = os.environ.get(_env_name(dest))
    if raw is None or raw == "":
        return None
    try:
        return cast(raw)
    except ValueError:
        raise ValueError(f"invalid value {raw!r} in {_env_name(dest)}") from None


def _resolve(ns, dest, cast, default):
    val = getattr(ns, dest, None)
    if val is None:
        val = _from_env(dest, cast)
    return default if val is None else val


def _resolve_angle(ns, dest, default, degrees: bool):
    """Degrees conversion applies to supplied values only, never defaults."""
    val = getattr(ns, dest, None)
    if val is None:
        val = _from_env(dest, float)
    if val is None:
        return default
    return math.radians(val) if degrees else float(val)


def _resolve_angle_list(ns, dest, default, degrees: bool):
    val = getattr(ns, dest, None)
    if val is None:
        val = _from_env(dest, str)
    if val is None:
        return default
    vals = _float_list(val)
    return tuple(math.radians(v) for v in vals) if degrees else vals


def resolve_config(ns: argparse.Namespace) -> RunConfig:
    degrees = bool(_resolve(ns, "degrees", _parse_bool, False))
    kw = {
        "subcommand": ns.subcommand,
        "degrees": degrees,
        "format": _resolve(ns, "format", str, "csv"),
        "output": _resolve(ns, "output", str, None),
        "verbose": bool(_resolve(ns, "verbose", _parse_bool, False)),
    }
    if ns.subcommand in ("visibility", "qfunction", "fringe"):
        kw["alpha0"] = float(_resolve(ns, "alpha0", float, 1.0))
        kw["alpha0_phase"] = _resolve_angle(ns, "alpha0_phase", 0.0, degrees)
        kw["phi"] = _resolve_angle(ns, "phi", np.pi / 2.0, degrees)
        kw["r"] = float(_resolve(ns, "R", float, 0.1))
        kw["theta"] = _resolve_angle(ns, "theta", 0.0, degrees)
    if ns.subcommand == "visibility":
        kw["brute_force"] = bool(_resolve(ns, "brute_force", _parse_bool, False))
        cutoff_a = _resolve(ns, "cutoff_a", int, None)
        cutoff_b = _resolve(ns, "cutoff_b", int, None)
        kw["cutoff_a"] = None if cutoff_a is None else int(cutoff_a)
        kw["cutoff_b"] = None if cutoff_b is None else int(cutoff_b)
    if ns.subcommand == "qfunction":
        kw["qmode"] = _resolve(ns, "qmode", str, "marginal-a")
        kw["stage"] = _resolve(ns, "stage", str, "after-bs")
        extent = _resolve(ns, "extent", float, None)
        spacing = _resolve(ns, "spacing", float, None)
        kw["extent"] = None if extent is None else float(extent)
        kw["spacing"] = None if spacing is None else float(spacing)
    if ns.subcommand in ("fringe", "sweep"):
        kw["n_theta"] = int(_resolve(ns, "n_theta", int, 16))
    if ns.subcommand == "sweep":
        kw["r_values"] = _resolve_angle_list(ns, "R_values", _DEFAULT_SWEEP_R, False)
        kw["alpha0_values"] = _resolve_angle_list(
            ns, "alpha0_values", _DEFAULT_SWEEP_ALPHA0, False
        )
        kw["phi_values"] = _resolve_angle_list(
            ns, "phi_values", _DEFAULT_SWEEP_PHI, degrees
        )
        kw["brute_force"] = bool(_resolve(ns, "brute_force", _parse_bool, False))
        kw["include_fringe"] = bool(_resolve(ns, "fringe", _parse_bool, False))
    return RunConfig(**kw)


# ---------------------------------------------------------------------------
# deterministic formatting
#
# Floats print to 12 significant digits: a CSV cell as ``f"{x:.12g}"``, a JSON
# value as the repr of the float that text parses to, which is what
# ``json.dumps`` writes after rounding.  A cell costs one lookup on its exact
# type; Q grids format each plane point once and, per row, only ``q``.


def _plain(v):
    """NumPy scalars and other int/float subclasses as their built-in value."""
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v)
    return v


def _cell_text(table, v) -> str:
    """Text of one cell through ``table``, keyed by exact type; types not in
    it go through :func:`_plain`, then fall back to ``table[object]``."""
    fmt = table.get(type(v))
    if fmt is None:
        v = _plain(v)
        fmt = table.get(type(v), table[object])
    return fmt(v)


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(x) -> str:
    text = f"{x:.12g}"
    return _JSON_NONFINITE.get(text) or repr(float(text))


_BOOL_TEXT = {True: "true", False: "false"}.__getitem__

_CSV_CELL = {
    float: "{:.12g}".format,
    int: str,
    str: str,
    bool: _BOOL_TEXT,
    type(None): lambda v: "",
    tuple: lambda v: ",".join([_cell_text(_CSV_CELL, x) for x in v]),
    object: str,
}

# row cells are scalars: json.dumps encodes str subclasses and raises
# TypeError on what JSON cannot hold, as it did on whole payloads
_JSON_CELL = {
    float: _json_float,
    int: int.__repr__,
    str: json.dumps,
    bool: _BOOL_TEXT,
    type(None): lambda v: "null",
    object: json.dumps,
}


def _echo_value(v) -> str:
    return "auto" if v is None else _cell_text(_CSV_CELL, v)


def _round_floats(obj):
    """Clamp every float to 12 significant digits for stable JSON."""
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, np.integer)):
        return obj if obj is None or isinstance(obj, bool) else int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.12g}")
    return obj


def _grid_blocks(planes, values, num):
    """Rows of a Q table on the Cartesian product of ``planes`` (one or two
    2-D arrays of complex sample points, row-major, the first plane
    outermost), one block per row of ``values`` at a time.

    Yields ``(head, tails, qs)``: ``head`` holds the ``num``-encoded
    ``(re, im)`` of the outer plane's point (empty for one plane), ``tails``
    those of the block's inner points and ``qs`` its Q values as floats.
    """
    cells = [
        list(zip(map(num, z.real.ravel().tolist()), map(num, z.imag.ravel().tolist())))
        for z in planes
    ]
    if len(cells) == 1:
        n = planes[0].shape[1]
        for i, qs in enumerate(values):
            yield (), cells[0][i * n:(i + 1) * n], qs.tolist()
    else:
        outer, inner = cells
        for head, qs in zip(outer, values.reshape(len(outer), len(inner))):
            yield head, inner, qs.tolist()


def _json_row_template(header) -> str:
    """``str.format`` template of one row object, keys sorted and indented
    as ``json.dumps(..., sort_keys=True, indent=2)`` lays it out in "rows";
    field ``i`` takes the encoded cell of ``header[i]``."""
    fields = ",\n".join(
        "      " + json.dumps(header[i]).replace("{", "{{").replace("}", "}}")
        + f": {{{i}}}"
        for i in sorted(range(len(header)), key=header.__getitem__)
    )
    return "    {{\n" + fields + "\n    }}"


def _to_csv(cfg, echo, header, rows, grid, head_comments, foot_comments):
    buf = io.StringIO()
    buf.write(f"# catvis {__version__}\n")
    buf.write(f"# command: {cfg.subcommand}\n")
    pairs = " ".join(f"{k}={_echo_value(echo[k])}" for k in sorted(echo))
    buf.write(f"# params: {pairs}\n")
    for line in head_comments:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    if grid is None:
        writer.writerows([[_cell_text(_CSV_CELL, v) for v in row] for row in rows])
    else:
        # numbers need no quoting, so the lines bypass the csv writer
        for head, tails, qs in _grid_blocks(*grid, "{:.12g}".format):
            prefix = "{},{},".format(*head) if head else ""
            buf.write("".join([f"{prefix}{x},{y},{q:.12g}\n"
                               for (x, y), q in zip(tails, qs)]))
    for line in foot_comments:
        buf.write(f"# {line}\n")
    return buf.getvalue()


def _to_json(cfg, echo, header, rows, grid, diagnostics):
    # json.dumps lays out the small dicts; "rows" sorts after both keys
    meta = {
        "diagnostics": dict(diagnostics, version=__version__),
        "params": dict(echo, command=cfg.subcommand),
    }
    text = json.dumps(_round_floats(meta), sort_keys=True, indent=2)
    buf = io.StringIO()
    buf.write(text[:-2] + ',\n  "rows": [')
    row = _json_row_template(header).format
    if grid is None:
        blocks = [[row(*[_cell_text(_JSON_CELL, v) for v in cells]) for cells in rows]]
    else:
        blocks = (
            [row(*head, *tail, _json_float(q)) for tail, q in zip(tails, qs)]
            for head, tails, qs in _grid_blocks(*grid, _json_float)
        )
    sep = "\n"
    for block in blocks:
        if block:
            buf.write(sep + ",\n".join(block))
            sep = ",\n"
    buf.write("]\n}\n" if sep == "\n" else "\n  ]\n}\n")
    return buf.getvalue()


def _emit(cfg, echo, header, rows=(), grid=None, head_comments=(),
          foot_comments=(), diagnostics=None):
    """Render a table as CSV or JSON text.  ``rows`` holds tuples of cells in
    ``header`` order; a Q table passes ``grid=(planes, values)`` instead (see
    :func:`_grid_blocks`), whose columns are each plane's re, im, then q."""
    if cfg.format == "json":
        return _to_json(cfg, echo, header, rows, grid, diagnostics or {})
    return _to_csv(cfg, echo, header, rows, grid, head_comments, foot_comments)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_visibility(cfg: RunConfig) -> str:
    params = cfg.to_params()
    report = contrast_report(params)
    nu_brute = fock_brute_force_visibility(params) if cfg.brute_force else None
    header = (
        "R", "abs_alpha0", "phi", "nu_analytic", "nu_oracle", "nu_brute",
        "T", "mean_ratio", "var_out",
    )
    row = (
        cfg.r,
        cfg.alpha0,
        cfg.phi,
        visibility_analytic(params),
        abs(environment_overlap_oracle(params)),
        nu_brute,
        report.t,
        report.mean_ratio,
        report.var_out,
    )
    echo = {
        "alpha0": cfg.alpha0,
        "alpha0_phase": cfg.alpha0_phase,
        "phi": cfg.phi,
        "R": cfg.r,
        "theta": cfg.theta,
        "cutoff_a": cfg.cutoff_a,
        "cutoff_b": cfg.cutoff_b,
        "brute_force": cfg.brute_force,
    }
    return _emit(cfg, echo, header, [row])


def _cmd_qfunction(cfg: RunConfig) -> str:
    params = cfg.to_params()
    full = cfg.qmode == "full"
    extent = cfg.extent if cfg.extent is not None else (3.0 if full else 6.0)
    spacing = cfg.spacing if cfg.spacing is not None else (0.5 if full else 0.1)
    grid = QGrid(extent=extent, spacing=spacing)
    n = grid.points_per_axis
    n_rows = n**4 if full else n**2
    if n_rows > _MAX_ROWS:
        raise ValueError(
            f"grid would emit {n_rows} rows (cap {_MAX_ROWS}); "
            "widen --spacing or shrink --extent"
        )
    terms = initial_cat_terms(params.alpha0, params.phi)
    if cfg.stage == "after-bs":
        bs = params.beam_splitter
        terms = [beam_split_term(t, bs) for t in terms]

    # marginals come out of the factorized per-term sums either way; they
    # also carry the coverage check for the full mode
    pts_a, marg_a = q_marginal(terms, grid, plane="a")
    pts_b, marg_b = q_marginal(terms, grid, plane="b")
    for label, marg in (("A", marg_a), ("B", marg_b)):
        if _edge_ratio(marg) > _EMIT_EDGE_RATIO:
            warnings.warn(
                f"plane {label} grid edge holds more than "
                f"{_EMIT_EDGE_RATIO:.0e} of the peak; widen --extent",
                CoverageWarning,
                stacklevel=2,
            )

    if full:
        # q_full rejects complex or negative values itself
        planes = (pts_a, pts_b)
        values = q_full(terms, pts_a[:, :, None, None], pts_b[None, None])
        normalization = float(values.sum()) * grid.cell * grid.cell
        header = ("re_alpha", "im_alpha", "re_beta", "im_beta", "q")
    else:
        plane = "a" if cfg.qmode == "marginal-a" else "b"
        pts, values = (pts_a, marg_a) if plane == "a" else (pts_b, marg_b)
        if float(values.min()) < -1e-12:
            raise ValueError(
                f"Q reached {float(values.min()):.3e}; term set does not "
                "describe a state"
            )
        planes = (pts,)
        normalization = float(values.sum()) * grid.cell
        name = "alpha" if plane == "a" else "beta"
        header = (f"re_{name}", f"im_{name}", "q")

    echo = {
        "alpha0": cfg.alpha0,
        "alpha0_phase": cfg.alpha0_phase,
        "phi": cfg.phi,
        "R": cfg.r,
        "qmode": cfg.qmode,
        "stage": cfg.stage,
        "extent": extent,
        "spacing": spacing,
    }
    head = [f"normalization: {normalization:.12g}"]
    diag = {"normalization": normalization, "points_per_axis": n}
    return _emit(cfg, echo, header, grid=(planes, values), head_comments=head,
                 diagnostics=diag)


def _cmd_fringe(cfg: RunConfig) -> str:
    params = cfg.to_params()
    scan = fringe_scan(params, n_theta=cfg.n_theta)
    fit = fit_fringe(scan)
    header = ("theta", "rate")
    rows = list(zip(scan.thetas.tolist(), scan.rates.tolist()))
    fit_fields = {
        "offset": fit.offset,
        "amplitude": fit.amplitude,
        "phase": fit.phase,
        "visibility": fit.visibility,
        "residual_rms": fit.residual_rms,
        "raw_visibility": fit.raw_visibility,
        "period": fit.period,
    }
    foot = [
        "fit: " + " ".join(f"{k}={float(v):.12g}" for k, v in fit_fields.items())
    ]
    echo = {
        "alpha0": cfg.alpha0,
        "alpha0_phase": cfg.alpha0_phase,
        "phi": cfg.phi,
        "R": cfg.r,
        "n_theta": cfg.n_theta,
    }
    return _emit(cfg, echo, header, rows, foot_comments=foot,
                 diagnostics={"fit": fit_fields})


def _cmd_sweep(cfg: RunConfig) -> str:
    table = sweep(
        cfg.r_values,
        cfg.alpha0_values,
        cfg.phi_values,
        include_brute=cfg.brute_force,
        include_fringe=cfg.include_fringe,
        n_theta=cfg.n_theta,
    )
    rows = [tuple(rec[k] for k in _SWEEP_KEYS) for rec in table]
    echo = {
        "R_values": cfg.r_values,
        "alpha0_values": cfg.alpha0_values,
        "phi_values": cfg.phi_values,
        "brute_force": cfg.brute_force,
        "fringe": cfg.include_fringe,
        "n_theta": cfg.n_theta,
    }
    return _emit(cfg, echo, _SWEEP_KEYS, rows,
                 diagnostics={"n_rows": len(rows)})


_COMMANDS = {
    "visibility": _cmd_visibility,
    "qfunction": _cmd_qfunction,
    "fringe": _cmd_fringe,
    "sweep": _cmd_sweep,
}


# ---------------------------------------------------------------------------
# parser and entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catvis",
        description="Interference visibility of a two-component cat after a "
        "weak beam-splitter tap, by several independent routes.",
    )
    parser.add_argument("--version", action="version",
                        version=f"catvis {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--format", choices=("csv", "json"), default=None,
                     help="output format (default csv)")
    out.add_argument("--output", metavar="PATH", default=None,
                     help="write to this file instead of stdout")
    out.add_argument("--degrees", action="store_const", const=True,
                     default=None,
                     help="supplied angles are degrees instead of radians")
    out.add_argument("-v", "--verbose", action="store_const", const=True,
                     default=None,
                     help="echo the resolved configuration to stderr")

    par = argparse.ArgumentParser(add_help=False)
    par.add_argument("--alpha0", type=float, default=None,
                     help="cat component magnitude |alpha0| (default 1)")
    par.add_argument("--alpha0-phase", type=float, default=None,
                     help="phase of alpha0; results depend only on |alpha0|")
    par.add_argument("--phi", type=float, default=None,
                     help="half-angle between the cat components (default pi/2)")
    par.add_argument("--R", type=float, default=None,
                     help="beam splitter reflectivity in [0, 1) (default 0.1)")
    par.add_argument("--theta", type=float, default=None,
                     help="readout phase of the final projection (default 0)")

    p = sub.add_parser("visibility", parents=[par, out],
                       help="one visibility and moment record")
    p.add_argument("--brute-force", action="store_const", const=True,
                   default=None,
                   help="add the truncated-Fock visibility column")
    p.add_argument("--cutoff-a", type=int, default=None,
                   help="Fock cutoff of the signal mode (default sized to fit)")
    p.add_argument("--cutoff-b", type=int, default=None,
                   help="Fock cutoff of the tap mode (default sized to fit)")

    p = sub.add_parser("qfunction", parents=[par, out],
                       help="phase-space distribution over a grid")
    p.add_argument("--qmode", choices=("marginal-a", "marginal-b", "full"),
                   default=None, help="which distribution to emit")
    p.add_argument("--stage", choices=("initial", "after-bs"), default=None,
                   help="before or after the splitter (default after-bs)")
    p.add_argument("--extent", type=float, default=None,
                   help="grid half-width (default 6, or 3 for full)")
    p.add_argument("--spacing", type=float, default=None,
                   help="grid step (default 0.1, or 0.5 for full)")

    p = sub.add_parser("fringe", parents=[par, out],
                       help="detection rate against readout phase, plus fit")
    p.add_argument("--n-theta", type=int, default=None,
                   help="number of readout phases over one period (default 16)")

    p = sub.add_parser("sweep", parents=[out],
                       help="visibility table over a parameter grid")
    p.add_argument("--R-values", default=None,
                   help="comma-separated reflectivities")
    p.add_argument("--alpha0-values", default=None,
                   help="comma-separated magnitudes")
    p.add_argument("--phi-values", default=None,
                   help="comma-separated component half-angles")
    p.add_argument("--brute-force", action="store_const", const=True,
                   default=None, help="add the truncated-Fock column")
    p.add_argument("--fringe", action="store_const", const=True, default=None,
                   help="add the fringe-fit column")
    p.add_argument("--n-theta", type=int, default=None,
                   help="scan points per fringe (default 16)")
    return parser


def _write_output(text: str, path) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _render_warning(message, category, filename, lineno, line=None) -> str:
    return f"catvis: warning: {message}\n"


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    # Warnings that reach Python's stock writer print as one catvis line;
    # only the formatter is swapped, so callers recording warnings with
    # ``warnings.catch_warnings(record=True)`` still record every one.
    formatwarning = warnings.formatwarning
    warnings.formatwarning = _render_warning
    try:
        cfg = resolve_config(ns)
        if cfg.verbose:
            fields = {
                k: getattr(cfg, k)
                for k in sorted(vars(cfg))
            }
            pairs = " ".join(f"{k}={_echo_value(v)}" for k, v in fields.items())
            print(f"catvis config: {pairs}", file=sys.stderr)
        text = _COMMANDS[cfg.subcommand](cfg)
        _write_output(text, cfg.output)
    except (ValueError, TruncationError) as exc:
        print(f"catvis: error: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = formatwarning
    return 0


if __name__ == "__main__":
    sys.exit(main())
