"""Command-line front end: parse a run configuration, drive the pipelines,
and emit deterministic CSV or JSON.

Every flag of the chosen subcommand can also arrive through the environment
as CATVIS_<FLAG> with the flag name uppercased and dashes turned to
underscores (variables of other subcommands' flags are not read); explicit
flags win over the environment, which wins over built-in defaults.  Identical
configuration produces byte-identical output: floats are printed to 12
significant digits, row order is fixed, and nothing timestamped is emitted.
"""

import argparse
import contextlib
import csv
import json
import math
import os
import re
import sys
import warnings
import dataclasses
import functools
from itertools import islice, starmap
from typing import NamedTuple

import numpy as np

from . import __version__
from .experiment import (
    ExperimentParams,
    fit_fringe,
    fock_brute_force_visibility,
    fringe_scan,
    sweep,
    _SWEEP_KEYS,
)
from .heisenberg import _closed_form_columns
from .phase_space import (
    CoverageWarning,
    QGrid,
    _edge_ratio,
    _marginal_values,
    _q_values,
    _term_profiles,
    beam_split_term,
    initial_cat_terms,
)

__all__ = ["RunConfig", "main"]

ENV_PREFIX = "CATVIS_"

_MAX_ROWS = 500_000

# edge-to-peak ratio above which an emitted grid is flagged as too small;
# sized so the normalization header stays good to 1e-4
_EMIT_EDGE_RATIO = 1e-6


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Resolved configuration of one CLI invocation."""

    subcommand: str
    alpha0: float = 1.0
    alpha0_phase: float = 0.0
    phi: float = np.pi / 2.0
    r: float = 0.1
    cutoff_a: int | None = None
    cutoff_b: int | None = None
    brute_force: bool = False
    include_fringe: bool = False
    n_theta: int = 16
    qmode: str = "marginal-a"
    stage: str = "after-bs"
    extent: float | None = None
    spacing: float | None = None
    r_values: tuple = (0.05, 0.1, 0.2, 0.3, 0.5)
    alpha0_values: tuple = (0.5, 1.0, 2.0, 3.0)
    phi_values: tuple = (np.pi / 6.0, np.pi / 4.0, np.pi / 2.0)
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
        if any(a < 0.0 for a in self.alpha0_values):
            raise ValueError("alpha0-values are magnitudes and cannot be negative")
        if self.n_theta < 8:
            raise ValueError("n-theta must be at least 8")

    def to_params(self) -> ExperimentParams:
        label = self.alpha0 * complex(math.cos(self.alpha0_phase),
                                      math.sin(self.alpha0_phase))
        return ExperimentParams(alpha0=label, phi=self.phi, r=self.r,
                                cutoff_a=self.cutoff_a, cutoff_b=self.cutoff_b)


# ---------------------------------------------------------------------------
# the flags: each row drives the parser, the environment and the echo


class _Flag(NamedTuple):
    """One command-line flag of the ``commands`` subcommands.

    ``kind`` is the argparse type of a plain value, or ``"switch"``,
    ``"angle"`` (a float that ``--degrees`` converts), ``"floats"`` or
    ``"angles"`` (comma-separated lists, read by :func:`_float_list`).
    ``field`` names the :class:`RunConfig` field where it is not the dest.
    ``echo`` is false for the output flags, which no ``params:`` record
    shows.
    """

    opts: tuple
    kind: object
    commands: tuple
    help: str
    field: str = ""
    choices: tuple | None = None
    metavar: str | None = None
    echo: bool = True

    @property
    def dest(self) -> str:
        return self.opts[-1].lstrip("-").replace("-", "_")

    @property
    def key(self) -> str:
        return self.field or self.dest

    @property
    def type(self):
        """How argparse and the environment read the value's text (a switch
        reads its variable with :func:`_parse_bool`)."""
        return {"angle": float, "floats": _float_list,
                "angles": _float_list}.get(self.kind, self.kind)


_POINT = ("visibility", "qfunction", "fringe")
_EVERY = _POINT + ("sweep",)

# in --help order: point flags, output flags, then the subcommands' own
_FLAGS = (
    _Flag(("--alpha0",), float, _POINT,
          "cat component magnitude |alpha0| (default 1)"),
    _Flag(("--alpha0-phase",), "angle", _POINT,
          "phase of alpha0; results depend only on |alpha0|"),
    _Flag(("--phi",), "angle", _POINT,
          "half-angle between the cat components (default pi/2)"),
    _Flag(("--R",), float, _POINT,
          "beam splitter reflectivity in [0, 1) (default 0.1)", field="r"),
    _Flag(("--format",), str, _EVERY, "output format (default csv)",
          choices=("csv", "json"), echo=False),
    _Flag(("--output",), str, _EVERY, "write to this file instead of stdout",
          metavar="PATH", echo=False),
    _Flag(("--degrees",), "switch", _EVERY,
          "supplied angles are degrees instead of radians", echo=False),
    _Flag(("-v", "--verbose"), "switch", _EVERY,
          "echo the resolved configuration to stderr", echo=False),
    _Flag(("--R-values",), "floats", ("sweep",),
          "comma-separated reflectivities", field="r_values"),
    _Flag(("--alpha0-values",), "floats", ("sweep",),
          "comma-separated magnitudes"),
    _Flag(("--phi-values",), "angles", ("sweep",),
          "comma-separated component half-angles"),
    _Flag(("--brute-force",), "switch", ("visibility", "sweep"),
          "add the truncated-Fock visibility column"),
    _Flag(("--fringe",), "switch", ("sweep",), "add the fringe-fit column",
          field="include_fringe"),
    _Flag(("--cutoff-a",), int, ("visibility",),
          "Fock cutoff of the signal mode (default sized to fit)"),
    _Flag(("--cutoff-b",), int, ("visibility",),
          "Fock cutoff of the tap mode (default sized to fit)"),
    _Flag(("--qmode",), str, ("qfunction",), "which distribution to emit",
          choices=("marginal-a", "marginal-b", "full")),
    _Flag(("--stage",), str, ("qfunction",),
          "before or after the splitter (default after-bs)",
          choices=("initial", "after-bs")),
    _Flag(("--extent",), float, ("qfunction",),
          "grid half-width (default max(6, 1.25 alpha0 + 3.5), or 5 for "
          "full)"),
    _Flag(("--spacing",), float, ("qfunction",),
          "grid step (default 0.1, or 0.5 for full)"),
    _Flag(("--n-theta",), int, ("fringe", "sweep"),
          "number of readout phases over one period (default 16)"),
)


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _float_list(raw: str) -> tuple:
    try:
        vals = tuple(float(tok) for tok in raw.split(",") if tok.strip())
    except ValueError:
        vals = ()
    if not vals:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of numbers: {raw!r}")
    return vals


_TO_RADIANS = {
    "angle": math.radians,
    "angles": lambda vals: tuple(map(math.radians, vals)),
}


def _supplied(ns, flag):
    """The flag's value, else its ``CATVIS_<DEST>`` variable's, else None."""
    val = getattr(ns, flag.dest)
    if val is not None:
        return val
    name = ENV_PREFIX + flag.dest.upper()
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return None
    try:
        val = _parse_bool(raw) if flag.kind == "switch" else flag.type(raw)
        if flag.choices is not None and val not in flag.choices:
            raise ValueError
    except (ValueError, argparse.ArgumentTypeError):
        raise ValueError(f"invalid value {raw!r} in {name}") from None
    return val


def resolve_config(ns: argparse.Namespace) -> RunConfig:
    """Each flag of ``ns.subcommand`` from the command line, then the
    environment, then the :class:`RunConfig` default.  ``--degrees``
    converts supplied angles only, never defaults."""
    kw = {}
    for flag in _FLAGS:
        if ns.subcommand in flag.commands:
            val = _supplied(ns, flag)
            if val is not None:
                kw[flag.key] = val
    if kw.get("degrees"):
        for flag in _FLAGS:
            if flag.kind in _TO_RADIANS and flag.key in kw:
                kw[flag.key] = _TO_RADIANS[flag.kind](kw[flag.key])
    return RunConfig(ns.subcommand, **kw)


def _echo(cfg: RunConfig, **resolved) -> dict:
    """The ``params:`` record of ``cfg``'s subcommand, keyed by flag dest;
    ``resolved`` gives values the command worked out in place of defaults."""
    return {
        flag.dest: getattr(cfg, flag.key)
        for flag in _FLAGS
        if flag.echo and cfg.subcommand in flag.commands
    } | resolved


# ---------------------------------------------------------------------------
# deterministic formatting
#
# Floats print to 12 significant digits: a CSV cell as ``f"{x:.12g}"``, a JSON
# value as the repr of the float that text parses to, which is what
# ``json.dumps`` writes after rounding.  A cell costs one lookup on its exact
# type, a float column one format per distinct value, and a Q grid block one
# ``%`` on row templates that hold its plane points' text (see _grid_blocks).


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
    if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.12g}")
    return obj


def _grid_blocks(planes, values, num, line):
    """Rows of a Q table on the Cartesian product of ``planes`` (one or two
    2-D arrays of complex sample points, row-major, the first plane
    outermost), one block per row of ``values`` at a time.

    Yields ``(head, lines, qs)``: ``head`` holds the ``num``-encoded
    ``(re, im)`` of the outer plane's point (empty for one plane), ``lines``
    ``line(re, im)`` of the block's inner points, made once per grid, and
    ``qs`` its Q values as a tuple of floats (``"%.12g" % q`` is ``f"{q:.12g}"``).
    """
    cells = [
        list(zip(map(num, z.real.ravel().tolist()), map(num, z.imag.ravel().tolist())))
        for z in planes
    ]
    lines = [line(*c) for c in cells[-1]]
    if len(cells) == 1:
        n = planes[0].shape[1]
        for i, qs in enumerate(values):
            yield (), lines[i * n:(i + 1) * n], tuple(qs.tolist())
    else:
        for head, qs in zip(cells[0], values.reshape(len(cells[0]), -1)):
            yield head, lines, tuple(qs.tolist())


_BLOCK_ROWS = 1024  # JSON rows joined and written at a time


def _column_texts(rows, table) -> list:
    """Each column of ``rows`` as a list of cell texts through ``table``.  A
    column of built-in floats only is encoded once per distinct bit pattern
    (by value, 0.0 and -0.0 would merge), any other column cell by cell."""
    cols = []
    for col in zip(*rows):
        if set(map(type, col)) == {float}:
            bits, where = np.unique(np.array(col).view(np.int64), return_inverse=True)
            texts = [table[float](x) for x in bits.view(float).tolist()]
            cols.append([texts[i] for i in where.tolist()])
        else:
            cols.append([_cell_text(table, v) for v in col])
    return cols


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


def _to_csv(buf, cfg, echo, header, rows, grid, head_comments, foot_comments):
    buf.write(f"# catvis {__version__}\n")
    buf.write(f"# command: {cfg.subcommand}\n")
    pairs = " ".join(f"{k}={_echo_value(echo[k])}" for k in sorted(echo))
    buf.write(f"# params: {pairs}\n")
    for line in head_comments:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    if grid is None:
        writer.writerows(zip(*_column_texts(rows, _CSV_CELL)))
    else:
        # numbers need no quoting, so the lines bypass the csv writer
        for head, lines, qs in _grid_blocks(*grid, "{:.12g}".format,
                                            "{},{},%.12g\n".format):
            prefix = "{},{},".format(*head) if head else ""
            buf.write(prefix.join(["", *lines]) % qs)
    for line in foot_comments:
        buf.write(f"# {line}\n")


def _to_json(buf, cfg, echo, header, rows, grid, diagnostics):
    # json.dumps lays out the small dicts; "rows" sorts after both keys
    meta = {
        "diagnostics": dict(diagnostics, version=__version__),
        "params": dict(echo, command=cfg.subcommand),
    }
    text = json.dumps(_round_floats(meta), sort_keys=True, indent=2)
    buf.write(text[:-2] + ',\n  "rows": [')
    row = _json_row_template(header).format
    if grid is None:
        cells = zip(*_column_texts(rows, _JSON_CELL))
        blocks = iter(lambda: ",\n".join(starmap(row, islice(cells, _BLOCK_ROWS))), "")
    else:
        blocks = (",\n".join([row(*head, *tail, "%s") for tail in tails])
                  % tuple(map(_json_float, qs))
                  for head, tails, qs in _grid_blocks(*grid, _json_float, lambda *c: c))
    sep = "\n"
    for block in blocks:
        buf.write(sep + block)
        sep = ",\n"
    buf.write("]\n}\n" if sep == "\n" else "\n  ]\n}\n")


def _emit(cfg, echo, header, rows=(), grid=None, head_comments=(),
          foot_comments=(), diagnostics=None):
    """Write a table as CSV or JSON to ``cfg.output``, or to stdout, as it
    renders; call it once the table is computed, since it creates the file.
    ``rows`` holds tuples of cells in ``header`` order; a Q table passes
    ``grid=(planes, values)`` instead (see :func:`_grid_blocks`), whose
    columns are each plane's re, im, then q."""
    if cfg.output is None:
        out = contextlib.nullcontext(sys.stdout)
    else:
        try:
            out = open(cfg.output, "w", newline="")
        except OSError as exc:
            raise ValueError(
                f"cannot write output file {cfg.output!r}: {exc.strerror}"
            ) from None
    with out as fh:
        if cfg.format == "json":
            _to_json(fh, cfg, echo, header, rows, grid, diagnostics or {})
        else:
            _to_csv(fh, cfg, echo, header, rows, grid, head_comments,
                    foot_comments)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_visibility(cfg: RunConfig) -> None:
    params = cfg.to_params()
    nu, oracle, t, var_out = map(float, _closed_form_columns(
        params.r, params.alpha0, params.phi))
    nu_brute = fock_brute_force_visibility(params) if cfg.brute_force else None
    header = tuple(k for k in _SWEEP_KEYS if k not in ("nu_fringe", "error"))
    row = (cfg.r, cfg.alpha0, cfg.phi, nu, oracle, nu_brute, t, t, var_out)
    _emit(cfg, _echo(cfg), header, [row])


def _cmd_qfunction(cfg: RunConfig) -> None:
    params = cfg.to_params()
    full = cfg.qmode == "full"
    # the marginals' default half-width follows the cat's lobes out past 6
    default_extent = 5.0 if full else max(6.0, 1.25 * cfg.alpha0 + 3.5)
    extent = cfg.extent if cfg.extent is not None else default_extent
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

    # one pass over the terms gives both marginals, which carry the coverage
    # check for every mode, and the plane profiles of the full table
    pts_a, pts_b = grid.plane("a"), grid.plane("b")
    profiles = _term_profiles(terms, pts_a, pts_b)
    marg_a, marg_b = _marginal_values(profiles, grid)
    for label, marg in (("A", marg_a), ("B", marg_b)):
        if _edge_ratio(marg) > _EMIT_EDGE_RATIO:
            warnings.warn(f"plane {label} grid edge holds more than "
                          f"{_EMIT_EDGE_RATIO:.0e} of the peak; widen --extent",
                          CoverageWarning, stacklevel=2)

    if full:
        # q_full's values on the A plane broadcast against the B plane
        planes = (pts_a, pts_b)
        values = _q_values([(w, ga[:, :, None, None], gb) for w, ga, gb in profiles])
        normalization = float(values.sum()) * grid.cell * grid.cell
        header = ("re_alpha", "im_alpha", "re_beta", "im_beta", "q")
    else:
        pts, values, name = ((pts_a, marg_a, "alpha") if cfg.qmode == "marginal-a"
                             else (pts_b, marg_b, "beta"))
        planes = (pts,)
        normalization = float(values.sum()) * grid.cell
        header = (f"re_{name}", f"im_{name}", "q")

    head = [f"normalization: {normalization:.12g}"]
    diag = {"normalization": normalization, "points_per_axis": n}
    _emit(cfg, _echo(cfg, extent=extent, spacing=spacing), header,
          grid=(planes, values), head_comments=head, diagnostics=diag)


def _cmd_fringe(cfg: RunConfig) -> None:
    params = cfg.to_params()
    scan = fringe_scan(params, n_theta=cfg.n_theta)
    fit = fit_fringe(scan)
    header = ("theta", "rate")
    rows = list(zip(scan.thetas.tolist(), scan.rates.tolist()))
    fit_fields = dataclasses.asdict(fit)
    foot = [
        "fit: " + " ".join(f"{k}={float(v):.12g}" for k, v in fit_fields.items())
    ]
    _emit(cfg, _echo(cfg), header, rows, foot_comments=foot,
          diagnostics={"fit": fit_fields})


def _cmd_sweep(cfg: RunConfig) -> None:
    rows = sweep(cfg.r_values, cfg.alpha0_values, cfg.phi_values,
                 include_brute=cfg.brute_force, include_fringe=cfg.include_fringe,
                 n_theta=cfg.n_theta)
    _emit(cfg, _echo(cfg), _SWEEP_KEYS, rows, diagnostics={"n_rows": len(rows)})


_COMMANDS = {
    "visibility": _cmd_visibility,
    "qfunction": _cmd_qfunction,
    "fringe": _cmd_fringe,
    "sweep": _cmd_sweep,
}


# ---------------------------------------------------------------------------
# parser and entry point


@functools.cache  # built on first use, then shared by every main() call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catvis",
        description="Interference visibility of a two-component cat after a "
        "weak beam-splitter tap, by several independent routes.",
    )
    parser.add_argument("--version", action="version",
                        version=f"catvis {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    summaries = {
        "visibility": "one visibility and moment record",
        "qfunction": "phase-space distribution over a grid",
        "fringe": "detection rate against readout phase, plus fit",
        "sweep": "visibility table over a parameter grid",
    }
    for name, summary in summaries.items():
        p = sub.add_parser(name, help=summary)
        # a "-" then a digit, "-." then a digit, or "-inf" or "-nan" in any
        # case starts a value, so that "-1e-3", "-0.5,0.5" and "-inf" parse
        # as "-1" and "-.5" do
        p._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)
        for flag in _FLAGS:
            if name not in flag.commands:
                continue
            if flag.kind == "switch":
                kw = {"action": "store_const", "const": True}
            else:
                kw = {"type": flag.type, "choices": flag.choices,
                      "metavar": flag.metavar}
            p.add_argument(*flag.opts, default=None, help=flag.help, **kw)
    return parser


def _render_warning(message, category, filename, lineno, line=None) -> str:
    return f"catvis: warning: {message}\n"


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    # Warnings that reach Python's stock writer print as one catvis line;
    # only the formatter is swapped, so callers recording warnings with
    # ``warnings.catch_warnings(record=True)`` still record every one.
    # Entering ``catch_warnings`` resets Python's once-per-location registry,
    # so each call prints its warnings whatever earlier calls printed.
    formatwarning = warnings.formatwarning
    warnings.formatwarning = _render_warning
    try:
        with warnings.catch_warnings():
            cfg = resolve_config(ns)
            if cfg.verbose:
                pairs = " ".join(f"{k}={_echo_value(getattr(cfg, k))}"
                                 for k in sorted(vars(cfg)))
                print(f"catvis config: {pairs}", file=sys.stderr)
            _COMMANDS[cfg.subcommand](cfg)
            sys.stdout.flush()
    except ValueError as exc:
        print(f"catvis: error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # a reader closed stdout early: per the SIGPIPE note in Python's
        # ``signal`` docs, stdout goes to devnull so the exit flush succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    finally:
        warnings.formatwarning = formatwarning
    return 0


if __name__ == "__main__":
    sys.exit(main())
