"""End-to-end interferometer pipelines and their cross-checks.

One parameter set drives four independent readings of the same fringe
visibility:

* closed form, ``exp(-2 r^2 sin^2(phi) |alpha0|^2)``;
* the overlap of the two reflected-port environments, a one-line oracle;
* phase-space quadrature of the post-selected Q function;
* brute-force truncated Fock propagation through the splitter.

plus the fringe-scan route that recovers it the way a measurement would,
by fitting detection rate against the readout phase theta.  ``sweep`` runs
the routes and their checks as array passes; every cell equals its
one-point function bit for bit.  The quadrature and fringe routes centre
each plane's grid midway between its labels, where the edge-to-peak ratio
is one constant of the default grid (see
``phase_space._post_selected_integrals``), so they take no coverage check.
"""

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .fock import (
    _MAX_FOCK_ALPHA0,
    _cat_components,
    _coherent_rows,
    _require_fock_alpha,
    _require_states,
    coherent_overlap,
    default_cutoff,
)
from .heisenberg import _closed_form_columns, _environment_overlap
from .operators import (
    BeamSplitter,
    TruncationError,
    _require_leak,
    _sector_magnitudes,
    _split_rows,
)
from .phase_space import _post_selected_integrals

__all__ = [
    "ExperimentParams",
    "OverlapWarning",
    "FringeScan",
    "FringeFit",
    "fringe_scan",
    "fit_fringe",
    "environment_overlap_oracle",
    "q_integral_visibility",
    "fock_brute_force_visibility",
    "sweep",
]


class OverlapWarning(UserWarning):
    """The two cat components overlap appreciably; branches are not disjoint."""


# largest |alpha0| accepted; every closed-form column is finite up to here,
# and the tests hold the oracle to 1e-6 of the closed form at this bound
_MAX_ALPHA0 = 1e8


@dataclass(frozen=True)
class ExperimentParams:
    """Everything one run of the interferometer needs.

    alpha0 may carry a phase; closed-form results depend on it only through
    |alpha0|.  The readout phase theta is not a parameter: the fringe scan
    applies it exactly to integrals taken at theta = 0.  The cutoffs are
    optional overrides for the Fock route; ``None`` means size-to-fit.
    """

    alpha0: complex
    phi: float
    r: float
    cutoff_a: int | None = None
    cutoff_b: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha0", complex(self.alpha0))
        object.__setattr__(self, "phi", float(self.phi))
        object.__setattr__(self, "r", float(self.r))
        if not np.isfinite(self.phi):
            raise ValueError("phi must be finite")
        if not np.isfinite(self.alpha0):
            raise ValueError("alpha0 must be finite")
        if not np.abs(self.alpha0) <= _MAX_ALPHA0:
            raise ValueError(f"|alpha0| must be at most {_MAX_ALPHA0:g}")
        BeamSplitter(self.r)  # validates the reflectivity range
        for name in ("cutoff_a", "cutoff_b"):
            val = getattr(self, name)
            if val is not None:
                val = int(val)
                if val < 1:
                    raise ValueError(f"{name} must be a positive integer")
                object.__setattr__(self, name, val)

    @property
    def beam_splitter(self) -> BeamSplitter:
        return BeamSplitter(self.r)

    @property
    def resolved_cutoff_a(self) -> int:
        if self.cutoff_a is not None:
            return self.cutoff_a
        return default_cutoff(abs(self.alpha0))

    @property
    def resolved_cutoff_b(self) -> int:
        if self.cutoff_b is not None:
            return self.cutoff_b
        return default_cutoff(self.r * abs(self.alpha0))


# |<+|->| from which the cat's branches count as not disjoint
_OVERLAP_WARN = 1e-3


def _components_overlap(alpha0, phi, margin=0.0):
    """|<+|->| of the cat, and whether it reaches ``_OVERLAP_WARN (1 - margin)``."""
    ov = abs(coherent_overlap(*_cat_components(alpha0, phi)))
    return ov, ov >= _OVERLAP_WARN * (1.0 - margin)


def _warn_if_components_overlap(alpha0, phi, stacklevel: int = 3) -> None:
    ov, overlaps = _components_overlap(alpha0, phi)
    if overlaps:
        warnings.warn(
            f"cat components overlap at |<+|->| = {ov:.3e}; the interfering "
            "branches are not mutually orthogonal, so visibility readings "
            "mix component distinguishability with environment overlap",
            OverlapWarning, stacklevel=stacklevel)


def environment_overlap_oracle(params: ExperimentParams) -> complex:
    """Overlap of the two reflected-port coherent states, exactly.

    The transmitted-port labels of the two branches coincide after the
    readout rotation, so the interference contrast is carried entirely by
    the reflected port: visibility is the magnitude of this overlap and the
    fringe offset phase is its argument, ``r^2 |alpha0|^2 sin(2 phi)``.
    Independent of every truncation and grid choice.
    """
    return complex(_environment_overlap(params.r, params.alpha0, params.phi))


def _point_integrals(params: ExperimentParams) -> np.ndarray:
    """The post-selected integrals ``(4, 1)`` of one parameter set, after its
    overlap warning (raised at the caller's caller)."""
    _warn_if_components_overlap(params.alpha0, params.phi, stacklevel=4)
    return _post_selected_integrals(
        np.array([params.alpha0]), np.array([params.phi]), np.array([params.r]))


def q_integral_visibility(params: ExperimentParams) -> float:
    """Visibility from phase-space quadrature of the post-selected terms.

    The fringe in theta has max/min rates ``(sum of diagonal integrals)/4
    times (1 +/- nu)``, so nu is twice the off-diagonal integral's magnitude
    over the diagonal total.  Numerical content: three factorized midpoint
    quadratures (both diagonal terms share one), products of 1-D sums.
    """
    vals = _point_integrals(params)[:, 0]
    diag = vals[0].real + vals[3].real
    return float(2.0 * abs(vals[1]) / diag)


@dataclass(frozen=True)
class FringeScan:
    """Detection rates against readout phase, ready for fitting.

    Rates are clamped at zero when quadrature noise leaves them within
    1e-9 of it on the scale of the scan; anything more negative raises.
    """

    thetas: np.ndarray
    rates: np.ndarray

    def __post_init__(self) -> None:
        thetas = np.asarray(self.thetas, dtype=float)
        rates = np.array(self.rates, dtype=float)
        if thetas.ndim != 1 or thetas.shape != rates.shape or thetas.size == 0:
            raise ValueError("thetas and rates must be matching 1-D arrays")
        if not (np.all(np.isfinite(thetas)) and np.all(np.isfinite(rates))):
            raise ValueError("scan values must be finite")
        if _rates_refused(rates):
            raise ValueError(f"detection rate reached {float(rates.min()):.3e}; "
                             "the term set or grid is inconsistent")
        np.clip(rates, 0.0, None, out=rates)
        thetas = thetas.copy()
        thetas.setflags(write=False)
        rates.setflags(write=False)
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "rates", rates)


@dataclass(frozen=True)
class FringeFit:
    """Least-squares record of one fringe: rate = offset + amplitude cos(theta - phase).

    ``phase`` is NaN when ``amplitude <= residual_rms``: a fitted cosine no
    larger than the misfit has no phase to report.  Above that cut the phase
    still carries noise of order ``residual_rms / amplitude`` radians, up to
    about one radian just past it, so it is a rough value until the
    amplitude is many times the residual.
    """

    offset: float
    amplitude: float
    phase: float
    visibility: float
    residual_rms: float
    raw_visibility: float
    period: float


def _rates_refused(rates: np.ndarray):
    """Whether each scan (last axis) holds a rate not finite or below ``-1e-9``
    of the scan's scale (at least 1), which :class:`FringeScan` refuses."""
    floor = -1e-9 * np.maximum(1.0, rates.max(axis=-1, initial=0.0))
    return ~np.isfinite(rates).all(axis=-1) | (rates.min(axis=-1) < floor)


def _complex_residue(total: np.ndarray):
    """Whether each summed fringe (last axis) has an imaginary residue out of
    line with rounding, which :func:`_scan_of` refuses."""
    scale = np.max(np.abs(total), axis=-1)
    return (scale > 0.0) & (np.max(np.abs(total.imag), axis=-1) > 1e-9 * scale)


def _scan_of(thetas: np.ndarray, total: np.ndarray) -> FringeScan:
    if _complex_residue(total):
        raise ValueError("fringe rates came out complex; term set is inconsistent")
    return FringeScan(thetas=thetas, rates=0.25 * total.real)


def _scan_thetas(n_theta: int) -> np.ndarray:
    if n_theta < 8:
        raise ValueError("n_theta must be at least 8 to resolve the fringe")
    return np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)


def _fringe_phases(thetas: np.ndarray) -> list:
    """``e^{i w_k theta}`` of each post-selected term ``k``, with ``w_k`` +1
    for a ket side from the ``-`` component and -1 for a bra side from it."""
    unit, ket, bra = (np.exp(1j * w * thetas) for w in (0, 1, -1))
    return [unit, bra, ket, unit]


def _fringe_totals(vals: np.ndarray, phases: list) -> np.ndarray:
    """The fringe ``sum_k I_k e^{i w_k theta}`` of the post-selected integrals
    ``vals`` ``(4, P)``, points on rows and :func:`_fringe_phases` on columns."""
    total = np.zeros((vals.shape[1], phases[0].size), dtype=complex)
    term = np.empty_like(total)
    for val, phase in zip(vals, phases):
        total += np.multiply(val[:, None], phase, out=term)
    return total


def _fit_coefficients(pinv: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Least-squares ``(offset, cos, sin)`` of each row of ``rates``: for each
    coefficient a product and a row sum, where a matrix product would round a
    row differently with the number of rows."""
    return np.stack([np.sum(rates * row, axis=-1) for row in pinv], axis=-1)


def _offset_refused(coef: np.ndarray):
    """Whether each fit's offset ``coef[..., 0]``, which must be positive, is not."""
    return coef[..., 0] <= 0.0


def fringe_scan(params: ExperimentParams, n_theta: int = 16) -> FringeScan:
    """Detection rate at ``n_theta`` readout phases covering one full fringe.

    The theta dependence enters only through the post-selection weights, as
    pure phases on the four term integrals, so the grid work is done once at
    theta = 0 and the scan assembly is exact in theta.  Rates carry the 1/4
    from the two projector halves applied to ket and bra.
    """
    thetas = _scan_thetas(n_theta)
    return _scan_of(thetas, _fringe_totals(_point_integrals(params),
                                           _fringe_phases(thetas))[0])


def fit_fringe(scan: FringeScan) -> FringeFit:
    """Fit offset + amplitude cos(theta - phase) and report the visibility.

    Linear least squares on the basis (1, cos, sin); requires at least four
    points spanning at least 7/8 of the fringe period 2 pi.  ``period`` is
    the dominant discrete-frequency period of the rates (diagnostic only,
    NaN for nonuniform scans); ``raw_visibility`` is the plain
    (max - min)/(max + min) of the sampled rates.
    """
    thetas, rates = scan.thetas, scan.rates
    if thetas.size < 4:
        raise ValueError("need at least 4 scan points to fit a fringe")
    span = float(thetas.max() - thetas.min())
    if span < 0.875 * 2.0 * np.pi:
        raise ValueError("scan must span at least 7/8 of the fringe period")
    design = _design(thetas)
    (coef,) = _fit_coefficients(np.linalg.pinv(design), rates[None])
    if _offset_refused(coef):
        raise ValueError("fitted fringe offset is not positive; cannot form visibility")
    a, p, q = map(float, coef)
    amplitude = float(np.hypot(p, q))
    resid = rates - design @ coef
    residual_rms = float(np.sqrt(np.mean(resid * resid)))
    phase = float(np.arctan2(q, p)) if amplitude > residual_rms else float("nan")
    peak, trough = float(rates.max()), float(rates.min())
    raw = (peak - trough) / (peak + trough) if peak + trough > 0.0 else float("nan")
    return FringeFit(
        offset=a,
        amplitude=amplitude,
        phase=phase,
        visibility=amplitude / a,
        residual_rms=residual_rms,
        raw_visibility=raw,
        period=_dominant_period(thetas, rates),
    )


def _design(thetas: np.ndarray) -> np.ndarray:
    return np.column_stack([np.ones_like(thetas), np.cos(thetas), np.sin(thetas)])


def _dominant_period(thetas: np.ndarray, rates: np.ndarray) -> float:
    steps = np.diff(thetas)
    if steps.size == 0 or float(np.max(np.abs(steps - steps[0]))) > 1e-9:
        return float("nan")
    spectrum = np.abs(np.fft.rfft(rates - rates.mean()))
    if spectrum.size < 2 or not spectrum[1:].any():
        return float("nan")
    k = int(np.argmax(spectrum[1:])) + 1
    window = float(steps[0]) * thetas.size
    return window / k


# mass past cutoff_a, bounded, that the brute force accepts in mode A's
# truncated coherent vectors
_TAIL_TOL = 1e-12

# largest cutoff_a * cutoff_b the brute force allocates: a two-mode array of
# 2**24 complex128 amplitudes takes 268 MB
_MAX_AMPLITUDES = 2**24


def _require_fock_start(params: ExperimentParams) -> tuple[int, int]:
    """Refuse, before anything is allocated, cutoffs past ``_MAX_AMPLITUDES``,
    then ``|alpha0|`` past ``_MAX_FOCK_ALPHA0``; else the cutoffs."""
    na, nb, a = params.resolved_cutoff_a, params.resolved_cutoff_b, abs(params.alpha0)
    if na * nb > _MAX_AMPLITUDES:
        raise ValueError(f"cutoffs ({na}, {nb}) need {na * nb:.3g} amplitudes; the "
                         f"cap is {_MAX_AMPLITUDES} ({16e-6 * _MAX_AMPLITUDES:.0f} MB)")
    _require_fock_alpha(a)
    return na, nb


def _tail_bound(last_sq: float, x: float, cutoff: int) -> float:
    """Bound on the mass ``sum_{n >= cutoff} |a_n|^2`` that truncating
    ``|alpha>``, ``x = |alpha|^2``, to ``cutoff`` levels discards, given
    ``last_sq = |a_{cutoff-1}|^2``: the first term ``t0 = last_sq x / cutoff``
    over ``1 - q``, since each later term is at most ``q = x / (cutoff + 1)``
    times the one before.  Infinite when ``q >= 1``."""
    q = x / (cutoff + 1)
    return last_sq * x / cutoff / (1.0 - q) if q < 1.0 else math.inf


def _tail_cutoff(x: float, tried: int) -> int:
    """The smallest cutoff above ``tried`` whose ``_tail_bound`` on the
    Poisson weights of ``|alpha>``, ``x = |alpha|^2``, is below ``_TAIL_TOL``.
    Where the bound is finite it falls with the cutoff, so a doubling search
    and a bisection find it."""
    def passes(c: int) -> bool:
        last = math.exp(-x + (c - 1) * math.log(x) - math.lgamma(c)) if x else 0.0
        return _tail_bound(last, x, c) < _TAIL_TOL

    lo = max(tried + 1, math.floor(x))  # the bound is finite from floor(x) on
    step = 1
    while not passes(lo + step - 1):
        lo, step = lo + step, 2 * step
    hi = lo + step - 1  # passes; everything below lo fails
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if passes(mid) else (mid + 1, hi)
    return hi


def _require_tail(vector: np.ndarray, alpha: complex) -> None:
    """Refuse ``vector``, mode A's truncated ``|alpha>``, with
    :class:`TruncationError` when the bound ``_tail_bound`` on the mass past
    its last level reaches ``_TAIL_TOL``; the retry advice is the smallest
    cutoff whose bound meets it."""
    x, cutoff = abs(alpha) ** 2, vector.size
    # a state holds mass at most 1, so 1 bounds what it discards too
    mass = min(_tail_bound(abs(vector[-1]) ** 2, x, cutoff), 1.0)
    if mass >= _TAIL_TOL:
        raise TruncationError(
            f"cutoff {cutoff} leaves tail mass up to {mass:.3e} >= {_TAIL_TOL:.1e} "
            f"for |alpha| = {abs(alpha):.3g}; retry with cutoff >= "
            f"{_tail_cutoff(x, cutoff)}"
        )


class _FockInputs(NamedTuple):
    """Route 5's R-free half at ``P`` points, two rows a point (``+``, ``-``)."""

    vectors: np.ndarray  # (2P, na) truncated coherent vectors
    in_sq: list  # the vectors' squared norms
    turns: np.ndarray  # (2P, na) readout rotations
    tails: list  # each row's tail refusal, or None

    def points(self, start: int, stop: int) -> "_FockInputs":
        rows = slice(2 * start, 2 * stop)
        return _FockInputs(*(field[rows] for field in self))


def _brute_force_inputs(alpha0: np.ndarray, phi: np.ndarray, na: int) -> _FockInputs:
    """Route 5's input half at the points ``(alpha0, phi)`` (1-D arrays) on
    ``na`` levels, which every splitter shares: both branches of every point
    by one cumulative product.  Each step acts on each row alone, so a slice
    of points is, bit for bit, what the slice alone would build."""
    plus, minus = _cat_components(alpha0, phi)
    labels = np.stack([plus, minus], axis=1).ravel()
    # the labels reduce phi exactly, but the rotation's phi * n rounds: past
    # pi it turns by the reduced angle, which keeps phi's bits up to pi
    turn = phi
    if max(map(abs, phi.tolist())) > math.pi:
        turn = np.where(np.abs(phi) > np.pi, np.angle(np.exp(1j * phi)), phi)
    readouts = np.stack([-turn, turn], axis=1).ravel()
    vectors = _coherent_rows(labels, na)
    in_sq = [float(np.vdot(v, v).real) for v in vectors]
    tails = []
    for vector, label in zip(vectors, labels.tolist()):
        try:
            tails.append(_require_tail(vector, label))
        except TruncationError as exc:
            tails.append(exc)
    turns = np.exp(1j * readouts[:, None] * np.arange(na))
    return _FockInputs(vectors, in_sq, turns, tails)


def _brute_force_block(bs: BeamSplitter, magnitudes: np.ndarray,
                       inputs: _FockInputs) -> list:
    """Route 5's splitter half: each point of ``inputs`` through ``bs``, whose
    sector map on the cutoffs is ``magnitudes`` (:func:`_sector_magnitudes`),
    to its visibility or the ``ValueError`` its checks raise, checked in the
    one-point order.  All rows cross in one product with the map and turn in
    place; each branch's norm, leakage and overlap come from its own slice,
    and the state contract is checked once on the stack; where it fails,
    each point is judged alone."""
    vectors, in_sq = inputs.vectors, inputs.in_sq
    branches = _split_rows(vectors, magnitudes)
    out_sq = [float(np.vdot(b, b).real) for b in branches]
    branches *= inputs.turns[:, :, None]
    norm_sq = [float(np.vdot(b, b).real) for b in branches]
    try:
        _require_states(vectors, in_sq)
        _require_states(branches, norm_sq)
    except ValueError as exc:
        if len(in_sq) == 2:
            return [exc]
        # a point's verdict must not depend on its neighbours: judge each alone
        return [verdict for i in range(len(in_sq) // 2) for verdict in
                _brute_force_block(bs, magnitudes, inputs.points(i, i + 1))]
    verdicts = []
    for p in range(0, len(in_sq), 2):
        try:
            for b in (p, p + 1):
                if inputs.tails[b] is not None:
                    raise inputs.tails[b]
                _require_leak(bs, vectors[b], magnitudes.shape[1],
                              abs(out_sq[b] - in_sq[b]))
            denom = math.sqrt(norm_sq[p]) * math.sqrt(norm_sq[p + 1])
            if denom <= 0.0:
                raise ValueError("branch states have zero norm")
            overlap = complex(np.vdot(branches[p + 1], branches[p]))
            verdicts.append(float(abs(overlap) / denom))
        except ValueError as exc:
            verdicts.append(exc)
    return verdicts


def fock_brute_force_visibility(params: ExperimentParams) -> float:
    """Visibility by truncated Fock propagation, no coherent-label shortcuts.

    Each cat component crosses the splitter as an explicit two-mode array,
    picks up its readout rotation, and the interference contrast is the
    overlap of the two branches over their norms.  Raises
    :class:`TruncationError` when a bound on the mass that ``cutoff_a``
    discards from a component reaches 1e-12, or when the splitter leaks
    past ``cutoff_b`` (mode A cannot leak: the splitter never adds photons
    to it), and ``ValueError``, before allocating, past ``_MAX_AMPLITUDES`` or
    past ``|alpha0| = _MAX_FOCK_ALPHA0``.
    """
    na, nb = _require_fock_start(params)
    _warn_if_components_overlap(params.alpha0, params.phi)
    bs = params.beam_splitter
    inputs = _brute_force_inputs(np.array([params.alpha0]), np.array([params.phi]), na)
    (outcome,) = _brute_force_block(bs, _sector_magnitudes(bs, na, nb), inputs)
    if isinstance(outcome, ValueError):
        raise outcome
    return outcome


# points per array pass of the fringe route in a sweep, fewer past
# _FRINGE_SAMPLES fringe samples: 16 keep the bench routes sweep at 38.2 MB
# peak RSS, and a default 60-row sweep at n_theta 500000 (one point a pass)
# peaks at 108 MB, where 8 points a pass with no such cap took 302 MB
_FRINGE_BLOCK, _FRINGE_SAMPLES = 16, 4096

# points per input build and per splitter pass of the Fock route in a sweep,
# and stacked amplitudes a pass past one point: at 2**14 (256 kB) the bench
# routes sweep's peak RSS was 0.25 MB above the point-by-point route's, at
# 2**15 about 0.5 MB
_FOCK_BLOCK_POINTS, _FOCK_BLOCK_AMPLITUDES = 8, 2**14


def _fringe_rows(alpha0, phi, r, thetas: np.ndarray) -> list:
    """Route 4 at each point of the 1-D arrays: its visibility, or the
    ``ValueError`` its checks raise.  One array pass per ``_FRINGE_BLOCK``
    points, or per ``_FRINGE_SAMPLES // n_theta`` (at least one) if fewer;
    only points its checks' predicates refuse run the checks."""
    pinv, phases, outcomes = np.linalg.pinv(_design(thetas)), _fringe_phases(thetas), []
    size = min(_FRINGE_BLOCK, max(1, _FRINGE_SAMPLES // thetas.size))
    for start in range(0, r.size, size):
        block = slice(start, start + size)
        total = _fringe_totals(
            _post_selected_integrals(alpha0[block], phi[block], r[block]), phases)
        rates = 0.25 * total.real
        coef = _fit_coefficients(pinv, np.clip(rates, 0.0, None))
        bad = _complex_residue(total) | _rates_refused(rates) | _offset_refused(coef)
        a = np.where(bad, 1.0, coef[:, 0])  # no refused offset is divided by
        outcomes += (np.hypot(coef[:, 1], coef[:, 2]) / a).tolist()
        for k in np.flatnonzero(bad).tolist():
            try:
                outcomes[start + k] = fit_fringe(_scan_of(thetas, total[k])).visibility
            except ValueError as exc:
                outcomes[start + k] = exc
    return outcomes


def _brute_force_rows(r, alpha0, phi) -> list:
    """Route 5 at each sweep point of the 1-D arrays (``alpha0`` real), in row
    order: the outcome of ``_brute_force_block``, or ``None`` where
    ``_require_fock_start`` refuses and nothing is built.  Runs of consecutive
    points with one R and |alpha0|, and so one pair of cutoffs, go
    |alpha0|-major: the runs with the same |alpha0| and phis share one
    :func:`_brute_force_inputs` per chunk of ``_FOCK_BLOCK_POINTS`` points,
    and on each chunk every run builds one sector map and passes row slices
    of the inputs through it, of at most ``_FOCK_BLOCK_AMPLITUDES`` stacked
    amplitudes past one point."""
    # grouped by bit pattern, so a run's shared R and |alpha0| are exactly
    # each point's own, signed zeros included
    bits = np.stack([r, alpha0]).view(np.int64)
    starts = np.flatnonzero(
        np.r_[r.size > 0, (bits[:, 1:] != bits[:, :-1]).any(axis=0)]).tolist()
    groups, outcomes = {}, [None] * r.size
    for start, stop in zip(starts, [*starts[1:], r.size]):
        params = ExperimentParams(alpha0=alpha0[start], phi=phi[start], r=r[start])
        try:
            na, nb = _require_fock_start(params)
        except ValueError:
            continue
        groups.setdefault((bits[1, start], phi[start:stop].tobytes()), []).append(
            (start, stop, na, params.beam_splitter, nb))
    for runs in groups.values():
        base, stop, na = runs[0][:3]  # na depends on |alpha0| alone
        for first in range(base, stop, _FOCK_BLOCK_POINTS):
            chunk = slice(first, min(first + _FOCK_BLOCK_POINTS, stop))
            inputs = _brute_force_inputs(alpha0[chunk], phi[chunk], na)
            for start, _, _, bs, nb in runs:
                magnitudes = _sector_magnitudes(bs, na, nb)
                size = min(_FOCK_BLOCK_POINTS,
                           max(1, _FOCK_BLOCK_AMPLITUDES // (2 * na * nb)))
                for sub in range(first, chunk.stop, size):
                    last = min(sub + size, chunk.stop)
                    outcomes[start - base + sub:start - base + last] = _brute_force_block(
                        bs, magnitudes, inputs.points(sub - first, last - first))
    return outcomes


_SWEEP_KEYS = ("R", "abs_alpha0", "phi", "nu_analytic", "nu_oracle", "nu_brute",
               "nu_fringe", "T", "mean_ratio", "var_out", "error")


class _Floats(NamedTuple):
    """A float column: ``values`` (float64), its cells empty where ``empty``."""

    values: np.ndarray
    empty: np.ndarray


def _sweep_columns(r_values, abs_alpha0_values, phi_values, include_brute,
                   include_fringe, n_theta) -> list:
    """:func:`sweep`'s table as its columns: a :class:`_Floats` per float
    column, then ``error``, a list of str or None.  Only invalid or refused
    points replay the one-point checks, in row order, and points whose
    overlap may warn run the routes' warnings alone."""
    axes = (np.asarray(v, dtype=float)
            for v in (r_values, abs_alpha0_values, phi_values))
    r, a0, phi = (g.ravel() for g in np.meshgrid(*axes, indexing="ij"))
    # exactly the points ExperimentParams accepts
    valid = np.isfinite(phi) & (np.abs(a0) <= _MAX_ALPHA0) & (r >= 0.0) & (r < 1.0)
    closed = np.zeros((4, r.size))
    closed[:, valid] = _closed_form_columns(r[valid], a0[valid], phi[valid])
    routes, routed = np.zeros((2, r.size)), np.zeros((2, r.size), dtype=bool)
    at, replay = np.flatnonzero(valid), ~valid
    brute = _brute_force_rows(r[at], a0[at], phi[at]) if include_brute else None
    fringe = (_fringe_rows(a0[at], phi[at], r[at], _scan_thetas(n_theta))
              if include_fringe else None)
    for k, got in enumerate((brute, fringe)):  # nu_brute, nu_fringe
        if got is not None:
            ok = np.array([type(v) is float for v in got], dtype=bool)
            routes[k, at[ok]] = [v for v in got if type(v) is float]
            routed[k, at[ok]], replay[at[~ok]] = True, True
    if include_brute or include_fringe:
        # rounding moves |<+|->| by about |alpha0|^2 eps: the scalar check decides there
        margin = 64.0 * np.finfo(float).eps * (1.0 + a0[at] ** 2)
        replay[at] |= _components_overlap(a0[at], phi[at], margin)[1]
    error = [None] * r.size
    for i, j, ri, ai, phii in zip(*(x[replay].tolist() for x in (
            np.arange(r.size), np.cumsum(valid) - 1, r, a0, phi))):
        try:  # an invalid point raises here, as a point past the Fock start does
            if not valid[i] or include_brute and brute[j] is None:
                _require_fock_start(ExperimentParams(alpha0=ai, phi=phii, r=ri))
            if include_brute:  # fock_brute_force_visibility's checks, in its order
                _warn_if_components_overlap(ai, phii, stacklevel=2)
                if isinstance(brute[j], ValueError):
                    raise brute[j]
        except ValueError as exc:
            error[i] = str(exc)
            if not valid[i]:
                continue
        if include_fringe:  # fringe_scan's warning; route 5's refusal comes first
            _warn_if_components_overlap(ai, phii, stacklevel=2)
            if isinstance(fringe[j], ValueError):
                error[i] = error[i] or str(fringe[j])
    filled = np.zeros(r.size, dtype=bool)
    nu, oracle, t, var_out = (_Floats(c, ~valid) for c in closed)
    return [_Floats(r, filled), _Floats(a0, filled), _Floats(phi, filled), nu, oracle,
            *map(_Floats, routes, ~routed), t, t, var_out, error]


def sweep(
    r_values: Sequence[float],
    abs_alpha0_values: Sequence[float],
    phi_values: Sequence[float],
    include_brute: bool = False,
    include_fringe: bool = False,
    n_theta: int = 16,
) -> list[tuple]:
    """Visibility and moment table over a parameter grid, one tuple of cells
    per row in ``_SWEEP_KEYS`` order, each cell a float, a str or None.

    Loop order: r outermost, then |alpha0|, then phi.  Each route runs as
    array passes (see :func:`_sweep_columns`), each cell, refusal and warning
    as its one-point function gives it, bit for bit, in row order.  A row
    that fails keeps its parameters and carries the first refusal in
    ``error``; a refusal of the Fock route leaves the fringe route's cell.
    A negative |alpha0|, or an ``n_theta`` below 8 with the fringe, raises ValueError.
    """
    if any(a < 0.0 for a in abs_alpha0_values):
        raise ValueError("abs_alpha0_values are magnitudes and cannot be negative")
    *floats, error = _sweep_columns(r_values, abs_alpha0_values, phi_values,
                                    include_brute, include_fringe, n_theta)
    cells = [[None if e else v for v, e in zip(c.values.tolist(), c.empty.tolist())]
             if c.empty.any() else c.values.tolist() for c in floats]
    return list(zip(*cells, error))
