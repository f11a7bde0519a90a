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
import io
import json
import math
import os
import re
import sys
import warnings
import dataclasses
import functools
from typing import NamedTuple

import numpy as np

from . import __version__
from .experiment import (
    ExperimentParams,
    fit_fringe,
    fock_brute_force_visibility,
    fringe_scan,
    _Floats,
    _sweep_columns,
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
# rows made into bytes at a time, in every table; at 4096 the glibc heap of a
# process repeating bench qfull fragmented, its peak RSS 3 MB up in half the
# runs
_CHUNK_ROWS = 2048

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
        if self.n_theta > _MAX_ROWS:
            raise ValueError(f"n-theta must be at most {_MAX_ROWS}")

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
# Floats print to 12 significant digits: as CSV ``"%.12g" % x``, as JSON the
# repr of the float that text parses to, which is what ``json.dumps`` writes
# after rounding.  _float_texts makes either by one ``%`` over a sequence: a
# Q plane's points.  Every other float of a table goes through
# _g12.g12_chars, which makes the same text in NumPy and which only the
# writers import; a table's other cells are text.  _table_rows lays out
# every table's rows as byte matrices, a chunk at a time.

_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_reparsed(x) -> np.ndarray:
    """Which floats of the array ``x`` JSON writes as the repr of the float
    their text parses to, not as the text (see :func:`_float_texts`)."""
    with np.errstate(invalid="ignore"):  # inf - inf
        return ~(np.abs(x - np.rint(x)) > np.maximum(1e-11 * np.abs(x), 2.3e-308))


def _float_texts(values, as_json: bool) -> list:
    """Texts of a sequence of floats, from one ``"%.12g"`` template ``%``.  A
    decimal of at most 12 digits in the normal range is its own shortest
    repr, so JSON parses back only the integral (``1.0``), non-finite and
    subnormal texts and those with an exponent from 12 to 15 (``1e+12`` is
    ``1000000000000.0``): values within 1e-11 of an integer, relative, or
    below 2.3e-308, which a mask picks out."""
    x = np.asarray(values, dtype=float)
    texts = ("%.12g\n" * x.size % tuple(x.tolist())).split("\n")[:-1]
    if as_json:
        for i in np.flatnonzero(_json_reparsed(x)).tolist():
            texts[i] = _JSON_NONFINITE.get(texts[i]) or repr(float(texts[i]))
    return texts


def _cell_text(v) -> str:
    """Text of a ``params:`` or comment value: a float to 12 digits, a bool
    as ``true`` or ``false``, a tuple's items joined by commas."""
    if isinstance(v, float):
        return "%.12g" % v
    if type(v) is bool:
        return "true" if v else "false"
    if type(v) is tuple:
        return ",".join(map(_cell_text, v))
    return str(v)


def _pairs(record) -> str:
    """``key=value`` for each entry of ``record``, sorted; None is ``auto``."""
    return " ".join(f"{k}={'auto' if v is None else _cell_text(v)}"
                    for k, v in sorted(record.items()))


def _round_floats(obj):
    """Clamp every float to 12 significant digits for stable JSON."""
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return float(f"{obj:.12g}") if isinstance(obj, float) else obj


def _float_chars(x, as_json: bool) -> np.ndarray:
    """``g12_chars(x)``, whose JSON rows picked by :func:`_json_reparsed`
    hold :func:`_float_texts`' text instead (at most 24 bytes: the rows
    keep their last byte NUL)."""
    from ._g12 import g12_chars  # in the writers only: the CLI skips its compile
    chars = g12_chars(x)
    if as_json:
        picked = np.flatnonzero(_json_reparsed(x))
        texts = np.array(_float_texts(x[picked], True), f"S{chars.shape[1]}")
        chars[picked] = texts.view(np.uint8).reshape(-1, chars.shape[1])
    return chars


def _cell_bytes(v, as_json: bool, width: int) -> bytes:
    """UTF-8 text of a text cell, a str or None (empty); as CSV, quoted as
    ``csv.writer`` quotes it in a row of ``width`` cells (it quotes a row's
    one empty cell, so a one-cell row of it writes ``""``)."""
    if as_json:
        return json.dumps(v).encode()
    out, row = io.StringIO(), [v] + [""] * (width > 1)
    csv.writer(out, lineterminator="\n").writerow(row)
    return out.getvalue()[:-len(row)].encode()  # less the row end: "\n" or ",\n"


# maps the stand-in of a NUL inside a text back to NUL: no UTF-8 text holds 0xFF
_UNMASK_NUL = bytes(range(255)) + b"\0"


def _cell_texts(columns, as_json: bool) -> tuple:
    """``(n, texts)`` of a table's ``columns`` (see :func:`_emit`): the row
    count, and the chunk function of :func:`_table_rows`, one ``take`` from
    the texts of the distinct cells: the floats' by one ``g12_chars`` call
    over their distinct bit patterns, the text cells' once per value, a NUL
    inside a text standing in as 0xFF (see ``_UNMASK_NUL``)."""
    from ._g12 import _SMALL  # in the writers only (see _float_chars)
    n = len(columns[0].values if isinstance(columns[0], _Floats) else columns[0])
    values = np.zeros((len(columns), n))
    text = np.zeros(values.shape, dtype=bool)  # where a cell is not a float
    index = np.zeros(values.shape, dtype=np.intp)  # of each cell's text
    texts = {None: 0}  # the text cells' values, to the index of their text
    for j, col in enumerate(columns):
        if isinstance(col, _Floats):
            values[j], text[j] = col.values, col.empty
        elif isinstance(col, np.ndarray):
            values[j] = col
        elif col and col.count(col[0]) == n:  # one text: sweep's error, mostly
            text[j], index[j] = True, texts.setdefault(col[0], len(texts))
        else:
            text[j], index[j] = True, [texts.setdefault(v, len(texts)) for v in col]
    x = values[~text]
    if x.size < _SMALL:  # g12_chars takes "%" for each: sorting gains nothing
        index[~text] = np.arange(x.size)
    else:  # the distinct bit patterns, and which each cell has
        x, index[~text] = np.unique(x.view(np.int64), return_inverse=True)
        x = x.view(float)
    index[text] += x.size
    # the float texts, NULs dropped (each ends in a NUL, made "\n" to split
    # on), then the text cells' texts
    chars = _float_chars(x, as_json)
    chars[:, -1] = ord("\n")
    parts = chars.tobytes().translate(None, b"\0").split(b"\n")[:-1]
    parts += [_cell_bytes(v, as_json, len(columns)).replace(b"\0", b"\xff")
              for v in texts]
    table = np.array(parts, dtype="S")

    def chunk(r0, c):
        cells = table.take(index[:, r0:r0 + c]).view(np.uint8)
        return list(cells.reshape(len(columns), c, -1))
    return n, chunk


def _q_columns(planes, values, as_json: bool) -> tuple:
    """``(n, texts)`` of the Q table on the Cartesian product of ``planes``
    (one or two 2-D arrays of complex sample points, row-major, the first
    plane outermost) whose q values are ``values``, as :func:`_cell_texts`
    gives them.  Each plane's ``re`` and ``im`` texts are encoded once per
    grid; a chunk takes its rows' outer and inner points by ``divmod``, and
    encodes their q.  As CSV a point is one slot, ``re,im``."""
    points = []  # per plane, each slot's texts by point
    for z in planes:
        re, im = (_float_texts(p.ravel(), as_json) for p in (z.real, z.imag))
        slots = [re, im] if as_json else [[f"{a},{b}" for a, b in zip(re, im)]]
        points.append([np.array(t, "S").view(np.uint8).reshape(z.size, -1)
                       for t in slots])
    q = values.ravel()

    def chunk(r0, c):
        # the outer and inner point of each row, or the one plane's point
        at = np.divmod(np.arange(r0, r0 + c), planes[-1].size)[2 - len(planes):]
        return [t.take(k, 0) for slots, k in zip(points, at) for t in slots] + [
            _float_chars(q[r0:r0 + c], as_json)]
    return q.size, chunk


def _table_rows(buf, n, segments, end, texts) -> None:
    """Write ``n`` rows, ``_CHUNK_ROWS`` at a time: in each, before each
    slot its fixed segment from ``segments`` (CSV ``,``; JSON the line of
    its key), then the row end ``end``, less a trailing comma in the last
    row (JSON separates its row objects).  ``texts(r0, c)`` returns per slot
    a uint8 matrix of the NUL-padded texts of rows ``r0`` to ``r0 + c``.

    Each chunk is laid out in one byte matrix, allocated once with the
    segments and the row end in place, and written with its NULs dropped
    (and 0xFF made NUL, see ``_UNMASK_NUL``).  Segments past the last slot
    go unused: a CSV Q point is one ``re,im`` slot for two columns.
    """
    if not n:
        return
    slots = texts(0, min(n, _CHUNK_ROWS))
    row, at = b"", []  # one row with its slots blank, and where they start
    for s, t in zip(segments, slots):
        row += s.encode()
        at.append(len(row))
        row += bytes(t.shape[1])
    m = np.tile(np.frombuffer(row + end.encode(), np.uint8), (len(slots[0]), 1))
    views = [m[:, a:a + t.shape[1]] for a, t in zip(at, slots)]
    for r0 in range(0, n, _CHUNK_ROWS):
        c = min(n - r0, _CHUNK_ROWS)
        for view, t in zip(views, slots if r0 == 0 else texts(r0, c)):
            view[:c] = t
        if r0 + c == n and end.endswith(","):
            m[c - 1, -1] = 0
        buf.write(m[:c].tobytes().translate(_UNMASK_NUL, b"\0").decode())


def _to_csv(buf, cfg, echo, header, n, texts, head_comments, foot_comments):
    for line in (f"catvis {__version__}", f"command: {cfg.subcommand}",
                 f"params: {_pairs(echo)}", *head_comments):
        buf.write(f"# {line}\n")
    csv.writer(buf, lineterminator="\n").writerow(header)
    _table_rows(buf, n, ["", *[","] * (len(header) - 1)], "\n", texts)
    for line in foot_comments:
        buf.write(f"# {line}\n")


def _to_json(buf, cfg, echo, header, n, texts, diagnostics):
    # json.dumps lays out the small dicts; "rows" sorts after both keys
    meta = {
        "diagnostics": dict(diagnostics, version=__version__),
        "params": dict(echo, command=cfg.subcommand),
    }
    text = json.dumps(_round_floats(meta), sort_keys=True, indent=2)
    buf.write(text[:-2] + ',\n  "rows": [')
    # each row object lays out its keys sorted, as json.dumps(sort_keys=True)
    order = sorted(range(len(header)), key=header.__getitem__)
    keys = [json.dumps(header[j]) for j in order]
    segments = ["\n    {\n      " + keys[0] + ": ",
                *[",\n      " + key + ": " for key in keys[1:]]]
    _table_rows(buf, n, segments, "\n    },",
                lambda r0, c: [*map(texts(r0, c).__getitem__, order)])
    buf.write("\n  ]\n}\n" if n else "]\n}\n")


def _emit(cfg, echo, header, columns=(), grid=None, head_comments=(),
          foot_comments=(), diagnostics=None):
    """Write a table as CSV or JSON to ``cfg.output``, or to stdout, as it
    renders; call it once the table is computed, since it creates the file.
    ``columns`` holds one column per ``header`` entry, each a float64 array,
    a :class:`_Floats` (empty where ``empty``) or a list of str or None
    (empty); a Q table passes ``grid=(planes, values)`` instead (see
    :func:`_q_columns`), whose columns are each plane's re, im, then q."""
    as_json = cfg.format == "json"
    n, texts = (_cell_texts(columns, as_json) if grid is None
                else _q_columns(*grid, as_json))
    out = (contextlib.nullcontext(sys.stdout) if cfg.output is None
           else open(cfg.output, "w", newline=""))
    with out as fh:
        if as_json:
            _to_json(fh, cfg, echo, header, n, texts, diagnostics or {})
        else:
            _to_csv(fh, cfg, echo, header, n, texts, head_comments,
                    foot_comments)


# ---------------------------------------------------------------------------
# subcommands


def _check_rows(n_rows: int, advice: str) -> None:
    """Refuse a grid of more than ``_MAX_ROWS`` rows before it is built."""
    if n_rows > _MAX_ROWS:
        raise ValueError(f"grid would emit {n_rows} rows (cap {_MAX_ROWS}); {advice}")


def _cmd_visibility(cfg: RunConfig) -> None:
    params = cfg.to_params()
    nu, oracle, t, var_out = map(float, _closed_form_columns(
        params.r, params.alpha0, params.phi))
    nu_brute = fock_brute_force_visibility(params) if cfg.brute_force else None
    header = tuple(k for k in _SWEEP_KEYS if k not in ("nu_fringe", "error"))
    row = (cfg.r, cfg.alpha0, cfg.phi, nu, oracle, nu_brute, t, t, var_out)
    _emit(cfg, _echo(cfg), header,
          [[cell] if cell is None else np.array([cell]) for cell in row])


def _cmd_qfunction(cfg: RunConfig) -> None:
    params = cfg.to_params()
    full = cfg.qmode == "full"
    # the marginals' default half-width follows the cat's lobes out past 6
    default_extent = 5.0 if full else max(6.0, 1.25 * cfg.alpha0 + 3.5)
    extent = cfg.extent if cfg.extent is not None else default_extent
    spacing = cfg.spacing if cfg.spacing is not None else (0.5 if full else 0.1)
    grid = QGrid(extent=extent, spacing=spacing)
    n = grid.points_per_axis
    _check_rows(n**4 if full else n**2, "widen --spacing or shrink --extent")
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
        ratio = _edge_ratio(marg)
        if ratio > _EMIT_EDGE_RATIO:
            what = ("samples all underflow" if ratio == math.inf else
                    f"edge holds more than {_EMIT_EDGE_RATIO:.0e} of the peak")
            warnings.warn(f"plane {label} grid {what}; widen --extent",
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

    head = [f"normalization: {_cell_text(normalization)}"]
    diag = {"normalization": normalization, "points_per_axis": n}
    _emit(cfg, _echo(cfg, extent=extent, spacing=spacing), header,
          grid=(planes, values), head_comments=head, diagnostics=diag)


def _cmd_fringe(cfg: RunConfig) -> None:
    params = cfg.to_params()
    scan = fringe_scan(params, n_theta=cfg.n_theta)
    fit = fit_fringe(scan)
    header = ("theta", "rate")
    fit_fields = dataclasses.asdict(fit)
    foot = ["fit: " + " ".join(f"{k}={_cell_text(v)}" for k, v in fit_fields.items())]
    _emit(cfg, _echo(cfg), header, [scan.thetas, scan.rates], foot_comments=foot,
          diagnostics={"fit": fit_fields})


def _cmd_sweep(cfg: RunConfig) -> None:
    _check_rows(len(cfg.r_values) * len(cfg.alpha0_values) * len(cfg.phi_values),
                "shorten --R-values, --alpha0-values or --phi-values")
    columns = _sweep_columns(cfg.r_values, cfg.alpha0_values, cfg.phi_values,
                             cfg.brute_force, cfg.include_fringe, cfg.n_theta)
    _emit(cfg, _echo(cfg), _SWEEP_KEYS, columns,
          diagnostics={"n_rows": len(columns[-1])})


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
                print(f"catvis config: {_pairs(vars(cfg))}", file=sys.stderr)
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
    except OSError as exc:
        # the output could not be opened or written (a full disk, say)
        if cfg.output is None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            target = "to stdout"
        else:
            target = f"output file {cfg.output!r}"
        print(f"catvis: error: cannot write {target}: {exc.strerror}",
              file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = formatwarning
    return 0


if __name__ == "__main__":
    sys.exit(main())
