"""Mode transformations on both tracks: truncated Fock arrays and coherent labels.

Conventions
-----------
The beam splitter has real reflectivity ``r`` and transmissivity ``t`` with
``r^2 + t^2 = 1``.  Reflection carries the factor i, so a coherent input
``|alpha>_A`` with vacuum in B leaves as ``|t alpha>_A (x) |i r alpha>_B``.
On the number basis the splitter takes mode A's state with vacuum in B,
the one input the pipeline sends, and applies the closed binomial map over
photon-number sectors

    U |n, 0> = sum_k sqrt(C(n, k)) t^(n-k) (i r)^k |n-k, k>,

exact to rounding.  Amplitude that would land at ``k >= cutoff_b`` is
dropped and surfaces as a norm loss; one leakage threshold, 1e-10 of
squared norm, judges it, and the splitter refuses above it with
:class:`TruncationError`.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .fock import CoherentLabel, ModeState, _FockState

__all__ = [
    "TruncationError",
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
    ``r^2 + t^2 = 1`` holds by construction.
    """

    r: float
    t: float = field(init=False)

    def __post_init__(self) -> None:
        r = float(self.r)
        if not 0.0 <= r < 1.0:
            raise ValueError("reflectivity must lie in [0, 1)")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "t", math.sqrt(1.0 - r * r))


class TwoModeState(_FockState):
    """Joint state of modes A (rows) and B (columns): ``amplitudes[n_a, n_b]``.

    Same immutability and norm contract as :class:`ModeState`.
    """

    ndim = 2

    @property
    def cutoff_a(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def cutoff_b(self) -> int:
        return self.amplitudes.shape[1]

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


class TruncationError(ValueError):
    """A truncated Fock computation lost more probability than allowed."""


# squared norm the splitter may lose past cutoff_b before it refuses
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


def bs_fock_apply(bs: BeamSplitter, state: ModeState, cutoff_b: int) -> TwoModeState:
    """Run ``state (x) |0>`` through the beam splitter's unitary, mode B on
    ``cutoff_b`` levels.

    Column ``k`` of the output is ``state`` shifted down by ``k`` rows times
    ``sqrt(C(n, k)) t^(n-k) (i r)^k``.  Mode A never gains photons, so only
    ``cutoff_b`` can leak: a squared-norm loss above the leakage threshold
    1e-10 raises :class:`TruncationError`, naming the smallest ``cutoff_b``
    whose binomial tail meets the threshold.
    """
    if cutoff_b < 1:
        raise ValueError("cutoff_b must be positive")
    amps = state.amplitudes
    na = amps.size
    i_to_k = np.array([1, 1j, -1, -1j])[np.arange(cutoff_b) % 4]
    out = _sector_magnitudes(bs, na, cutoff_b) * i_to_k
    out *= _sector_window(amps, cutoff_b)
    leak = abs(float(np.vdot(out, out).real) - state.squared_norm)
    if leak > _LEAK_TOL:
        raise TruncationError(
            f"splitter propagation leaked {leak:.3e} probability at "
            f"cutoffs ({na}, {cutoff_b}); retry with cutoff_b >= "
            f"{_sector_cutoff_b(bs, amps)}"
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
