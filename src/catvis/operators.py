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


def _sector_window(columns: np.ndarray, nb: int) -> np.ndarray:
    """``[..., m, k] = columns[..., m + k]`` for ``m < columns.shape[-1], k <
    nb``, zero past the end, as a strided view of one zero-padded copy: on
    the vacuum-port path, output ``|m, k>`` is fed by input ``|m + k, 0>``
    alone.  The view comes from the ndarray constructor, since NumPy's
    ``as_strided`` (behind ``sliding_window_view``) keeps about 1 MB of
    interface records alive for the life of the process."""
    *lead, na = columns.shape
    padded = np.zeros((*lead, na + nb - 1), dtype=columns.dtype)
    padded[..., :na] = columns
    step = padded.itemsize
    return np.ndarray((*lead, na, nb), padded.dtype, buffer=padded,
                      strides=(*padded.strides[:-1], step, step))


def _sector_magnitudes(bs: BeamSplitter, na: int, nb: int) -> np.ndarray:
    """``|<m, k| U |m+k, 0>| = sqrt(C(m+k, k)) t^m r^k`` for ``m < na, k < nb``.

    A cumulative product down each column from ``r^k`` at ``m = 0`` with step
    ``t sqrt((m+k)/m)``.  Every partial product is itself a coefficient of
    magnitude at most 1, so nothing overflows, and no factorial or log-gamma
    rounding enters.
    """
    m = np.arange(1.0, na)[:, None]
    steps = np.empty((na, nb))
    steps[0] = bs.r ** np.arange(nb)
    # in place, on floats: no temporary of the map's size, no integer cast
    rest = steps[1:]
    np.add(m, np.arange(float(nb)), out=rest)
    rest /= m
    np.sqrt(rest, out=rest)
    rest *= bs.t
    return np.cumprod(steps, axis=0, out=steps)


def _split_rows(bs: BeamSplitter, rows: np.ndarray, nb: int) -> np.ndarray:
    """Each row of ``rows`` ``(P, na)``, mode A with vacuum in B, after the
    splitter: ``(P, na, nb)``, a contiguous two-mode array per row, by one
    sector map ``<m, k| U |m+k, 0> = sqrt(C(m+k, k)) t^m (i r)^k`` times the
    rows' windows."""
    i_to_k = np.array([1, 1j, -1, -1j])[np.arange(nb) % 4]
    # i^k only swaps and negates parts, so the magnitudes can come last
    out = _sector_window(rows, nb) * i_to_k
    out *= _sector_magnitudes(bs, rows.shape[-1], nb)
    return out


def _sector_cutoff_b(bs: BeamSplitter, column: np.ndarray) -> int:
    """Smallest ``cutoff_b`` at which the vacuum-port path drops at most
    ``_LEAK_TOL`` of squared norm from input ``column (x) |0>``: the binomial
    tail ``sum_n |column_n|^2 P(k >= cutoff_b | n)``."""
    na = column.size
    weights = _sector_magnitudes(bs, na, na) ** 2
    weights *= _sector_window(np.abs(column) ** 2, na)
    tail = np.cumsum(weights.sum(axis=0)[::-1])[::-1]  # mass at k >= index
    return int(np.count_nonzero(tail > _LEAK_TOL))


def _require_leak(bs: BeamSplitter, column: np.ndarray, cutoff_b: int,
                  leak: float) -> None:
    """Refuse the splitter's output for input ``column (x) |0>`` with
    :class:`TruncationError` when it lost ``leak`` of squared norm, above the
    leakage threshold, naming the smallest sufficient ``cutoff_b``."""
    if leak > _LEAK_TOL:
        raise TruncationError(
            f"splitter propagation leaked {leak:.3e} probability at "
            f"cutoffs ({column.size}, {cutoff_b}); retry with cutoff_b >= "
            f"{_sector_cutoff_b(bs, column)}"
        )


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
    (out,) = _split_rows(bs, amps[None], cutoff_b)
    leak = abs(float(np.vdot(out, out).real) - state.squared_norm)
    _require_leak(bs, amps, cutoff_b, leak)
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
