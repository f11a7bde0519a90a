"""Mode transformations on both tracks: truncated Fock arrays and coherent labels.

Conventions
-----------
The beam splitter has real reflectivity ``r`` and transmissivity ``t`` with
``r^2 + t^2 = 1``.  Reflection carries the factor i, so a coherent input
``|alpha>_A`` with vacuum in B leaves as ``|t alpha>_A (x) |i r alpha>_B``.
On the number basis the unitary takes one of two paths.  With vacuum in
mode B it is the closed binomial map over photon-number sectors

    U |n, 0> = sum_k sqrt(C(n, k)) t^(n-k) (i r)^k |n-k, k>,

exact to rounding; amplitude that would land at ``k >= cutoff_b`` is
dropped.  A general two-mode input goes through the factored form

    exp(i (r/t) a b+) . t^(n_a - n_b) . exp(i (r/t) a+ b)

read right to left.  Both exchange generators conserve total photon number,
so each power series terminates on the truncated array; amplitude pushed
past a cutoff is dropped.  On either path the loss surfaces as a norm
change, and one leakage threshold, 1e-10 of squared norm, judges it: the
splitter warns above it and the brute-force route refuses above it.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .fock import CoherentLabel, ModeState, TruncationWarning, _NORM_SLACK

__all__ = [
    "BeamSplitter",
    "TwoModeState",
    "bs_label_pair_map",
    "bs_fock_apply",
    "phase_shift_fock_a",
    "interference_reduced_a",
]


@dataclass(frozen=True)
class BeamSplitter:
    """Lossless two-mode coupler with real reflectivity ``r`` in [0, 1).

    The transmissivity ``t = sqrt(1 - r^2)`` is derived, never passed, so
    ``r^2 + t^2 = 1`` and ``t > 0`` keep the factored form above well
    defined.
    """

    r: float
    t: float = field(init=False)

    def __post_init__(self) -> None:
        r = float(self.r)
        if not 0.0 <= r < 1.0:
            raise ValueError("reflectivity must lie in [0, 1)")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "t", math.sqrt(1.0 - r * r))


@dataclass(frozen=True)
class TwoModeState:
    """Joint state of modes A (rows) and B (columns): ``amplitudes[n_a, n_b]``.

    Same immutability and norm contract as :class:`ModeState`.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex, copy=True)
        if amps.ndim != 2 or amps.size == 0:
            raise ValueError("amplitudes must be a non-empty 2-D array")
        if not np.all(np.isfinite(amps.view(float))):
            raise ValueError("amplitudes must be finite")
        n2 = float(np.vdot(amps, amps).real)
        if n2 > 1.0 + _NORM_SLACK:
            raise ValueError(
                f"squared norm {n2:.6g} exceeds 1; states are at most unit norm"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def cutoff_a(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def cutoff_b(self) -> int:
        return self.amplitudes.shape[1]

    @property
    def squared_norm(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    @property
    def norm(self) -> float:
        return math.sqrt(self.squared_norm)

    def inner(self, other: "TwoModeState") -> complex:
        if other.amplitudes.shape != self.amplitudes.shape:
            raise ValueError("states must share cutoffs")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    @classmethod
    def from_product(cls, mode_a: ModeState, mode_b: ModeState) -> "TwoModeState":
        return cls(np.outer(mode_a.amplitudes, mode_b.amplitudes))


def bs_label_pair_map(
    bs: BeamSplitter, alpha: CoherentLabel, beta: CoherentLabel
) -> tuple[complex, complex]:
    """Coherent-product label map ``(t a + i r b, i r a + t b)``.

    Passive linear optics sends coherent products to coherent products; with
    vacuum in B (``beta = 0``) the labels leave as ``(t alpha, i r alpha)``.
    """
    alpha = complex(alpha)
    beta = complex(beta)
    return (bs.t * alpha + 1j * bs.r * beta, 1j * bs.r * alpha + bs.t * beta)


def _exchange_series(amps: np.ndarray, coupling: complex, raise_a: bool) -> np.ndarray:
    """Apply ``exp(coupling * a+ b)`` (raise_a) or ``exp(coupling * a b+)``.

    Straight power series; each application moves one photon between the
    modes, so the series is finite on the truncated array.  Amplitude that
    would land past either cutoff is dropped silently here; the caller audits
    the composite norm.
    """
    na, nb = amps.shape
    sa = np.sqrt(np.arange(na))
    sb = np.sqrt(np.arange(nb))
    total = amps.astype(complex, copy=True)
    term = total.copy()
    for j in range(1, na + nb + 1):
        nxt = np.zeros_like(term)
        if raise_a:
            # (a+ b psi)[m, k] = sqrt(m) sqrt(k+1) psi[m-1, k+1]
            nxt[1:, : nb - 1] = term[: na - 1, 1:] * sa[1:, None] * sb[None, 1:]
        else:
            # (a b+ psi)[m, k] = sqrt(m+1) sqrt(k) psi[m+1, k-1]
            nxt[: na - 1, 1:] = term[1:, : nb - 1] * sa[1:, None] * sb[None, 1:]
        term = nxt * (coupling / j)
        tnorm = float(np.vdot(term, term).real)
        if tnorm == 0.0:
            break
        total += term
        # relative to the running total, whose norm can be far below 1
        # after the diagonal factor t^(n_a - n_b)
        if tnorm < 1e-34 * float(np.vdot(total, total).real):
            break
    return total


# squared norm the splitter may lose past the cutoffs; the brute force
# refuses at the same threshold
_LEAK_TOL = 1e-10


def _sector_window(column: np.ndarray, nb: int) -> np.ndarray:
    """``[m, k] = column[m + k]`` for ``m < column.size, k < nb``, zero past
    the end: on the vacuum-port path, output ``|m, k>`` is fed by input
    ``|m + k, 0>`` alone."""
    padded = np.concatenate([column, np.zeros(nb - 1, dtype=column.dtype)])
    return padded[np.add.outer(np.arange(column.size), np.arange(nb))]


def _sector_magnitudes(bs: BeamSplitter, na: int, nb: int) -> np.ndarray:
    """``|<m, k| U |m+k, 0>| = sqrt(C(m+k, k)) t^m r^k`` for ``m < na, k < nb``.

    A cumulative product down each column from ``r^k`` at ``m = 0`` with step
    ``t sqrt((m+k)/m)``.  Every partial product is itself a coefficient of
    magnitude at most 1, so nothing overflows, and no factorial or log-gamma
    rounding enters.
    """
    m = np.arange(1, na)[:, None]
    steps = np.empty((na, nb))
    steps[0] = bs.r ** np.arange(nb)
    steps[1:] = bs.t * np.sqrt((m + np.arange(nb)) / m)
    return np.cumprod(steps, axis=0, out=steps)


def _sector_cutoff_b(bs: BeamSplitter, column: np.ndarray) -> int:
    """Smallest ``cutoff_b`` at which the vacuum-port path drops at most
    ``_LEAK_TOL`` of squared norm from input ``column (x) |0>``: the binomial
    tail ``sum_n |column_n|^2 P(k >= cutoff_b | n)``."""
    na = column.size
    weights = _sector_magnitudes(bs, na, na) ** 2
    weights *= _sector_window(np.abs(column) ** 2, na)
    tail = np.cumsum(weights.sum(axis=0)[::-1])[::-1]  # mass at k >= index
    return int(np.count_nonzero(tail > _LEAK_TOL))


def bs_fock_apply(bs: BeamSplitter, state: TwoModeState) -> TwoModeState:
    """Run a two-mode Fock state through the beam splitter's unitary.

    With vacuum in mode B (``amplitudes[:, 1:]`` all zero) it takes the
    binomial sector map: column ``k`` of the output is the input shifted down
    by ``k`` rows times ``sqrt(C(n, k)) t^(n-k) (i r)^k``.  Mode A never gains
    photons there, so only ``cutoff_b`` can leak.  Any other input goes
    through the factored exchange series, exact (to rounding) on every
    fixed-total-photon sector that fits inside both cutoffs.

    Amplitude pushed past a cutoff is dropped: a norm change beyond the
    leakage threshold 1e-10 emits :class:`TruncationWarning`, and a norm
    blown past 1 raises, since the series path's diagonal factor can amplify stranded
    high-occupancy amplitudes.
    """
    amps = state.amplitudes
    na, nb = amps.shape
    if not amps[:, 1:].any():
        i_to_k = np.array([1, 1j, -1, -1j])[np.arange(nb) % 4]
        out = _sector_magnitudes(bs, na, nb) * i_to_k
        out *= _sector_window(amps[:, 0], nb)
    else:
        coupling = 1j * bs.r / bs.t
        out = _exchange_series(amps, coupling, raise_a=True)
        out *= bs.t ** (np.arange(na)[:, None] - np.arange(nb)[None, :])
        out = _exchange_series(out, coupling, raise_a=False)
    in2 = state.squared_norm
    out2 = float(np.vdot(out, out).real)
    if out2 > 1.0 + _NORM_SLACK:
        raise ValueError(
            f"truncation during beam-splitter application inflated the squared "
            f"norm to {out2:.6g}; raise the cutoffs (see default_cutoff)"
        )
    if abs(out2 - in2) > _LEAK_TOL:
        warnings.warn(
            f"beam splitter leaked {abs(out2 - in2):.3e} of squared norm past "
            f"the cutoffs ({na}, {nb})",
            TruncationWarning,
            stacklevel=2,
        )
    return TwoModeState(out)


def phase_shift_fock_a(state: TwoModeState, chi: float) -> TwoModeState:
    """Phase shifter acting on mode A of a two-mode state."""
    ns = np.arange(state.cutoff_a)
    return TwoModeState(state.amplitudes * np.exp(1j * chi * ns)[:, None])


def interference_reduced_a(ket: TwoModeState, bra: TwoModeState) -> np.ndarray:
    """Mode-B trace of the cross term ``|ket><bra|``, an operator on mode A.

    With ``bra = ket`` this is the reduced density matrix of mode A.
    """
    if ket.amplitudes.shape != bra.amplitudes.shape:
        raise ValueError("states must share cutoffs")
    return ket.amplitudes @ bra.amplitudes.conj().T
