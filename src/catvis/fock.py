"""Truncated Fock-space representations of coherent and cat states.

Single-mode states are complex amplitude vectors over photon number,
``amplitudes[n] = <n|psi>`` for ``n = 0 .. cutoff-1``.  Sub-normalized
vectors are legitimate states here: post-selected branches carry norm < 1
and nothing in this package renormalizes behind the caller's back.

Coherent amplitudes use the multiplicative recurrence
``a[n] = a[n-1] * (alpha / sqrt(n))``, one cumulative product, so no
factorial is ever formed and the generation stays stable far past n = 170
where n! overflows a float.

The exact label algebra ``<alpha|beta> = exp(-|alpha|^2/2 - |beta|^2/2 +
conj(alpha) * beta)`` lives alongside the truncated vectors.  The two tracks
are independent implementations; the test suite holds them together.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModeState",
    "default_cutoff",
    "coherent_fock",
    "coherent_overlap",
    "cat_norm_constant",
    "cat_fock",
]

# A coherent state enters the analytic track purely through its complex label.
CoherentLabel = complex

_NORM_SLACK = 1e-12


def default_cutoff(alpha: CoherentLabel) -> int:
    """Cutoff that keeps the Poisson tail of ``|alpha>`` below ~1e-12.

    Mean photon number plus eight standard deviations plus headroom:
    ``ceil(|alpha|^2 + 8 |alpha| + 10)``.
    """
    a = abs(alpha)
    return math.ceil(a * a + 8.0 * a + 10.0)


def _require_states(amps: np.ndarray, squared_norms) -> None:
    """The state contract on one amplitude array or a stack of them: every
    amplitude finite, every squared norm in ``squared_norms`` at most
    ``1 + 1e-12``.  A squared norm is finite when its amplitudes are, so
    the amplitudes are scanned only when one is not."""
    n2 = float(np.max(squared_norms))
    if not math.isfinite(n2) and not np.all(np.isfinite(amps.view(float))):
        raise ValueError("amplitudes must be finite")
    if n2 > 1.0 + _NORM_SLACK:
        raise ValueError(
            f"squared norm {n2:.6g} exceeds 1; states are at most unit norm"
        )


@dataclass(frozen=True)
class _FockState:
    """A truncated photon-number amplitude array of ``ndim`` modes.

    Instances are immutable (the array is marked read-only) so they can be
    shared freely across threads; every operation returns a new state.
    Squared norm must land in [0, 1 + 1e-12]; values below 1 are meaningful
    (post-selected branches), values above are a bug in the caller.
    """

    amplitudes: np.ndarray
    ndim = 0  # set by each subclass

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex, copy=True)
        if amps.ndim != self.ndim or amps.size == 0:
            raise ValueError(f"amplitudes must be a non-empty {self.ndim}-D array")
        _require_states(amps, [np.vdot(amps, amps).real])
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def squared_norm(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    @property
    def norm(self) -> float:
        return math.sqrt(self.squared_norm)

    def inner(self, other: "_FockState") -> complex:
        """``<self|other>`` on common cutoffs."""
        if other.amplitudes.shape != self.amplitudes.shape:
            raise ValueError("states must share cutoffs")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


class ModeState(_FockState):
    """One bosonic mode: ``amplitudes[n] = <n|psi>``."""

    ndim = 1

    @property
    def cutoff(self) -> int:
        return self.amplitudes.size


def coherent_fock(alpha: CoherentLabel, cutoff: int | None = None) -> ModeState:
    """Truncated coherent state ``exp(-|alpha|^2/2) sum alpha^n/sqrt(n!) |n>``
    on ``cutoff`` levels (default ``default_cutoff(alpha)``).

    Nothing here judges the cutoff: the norm deficit is exactly the
    discarded tail mass, and the brute-force route applies its own tail
    guard to the states it builds.
    """
    if cutoff is None:
        cutoff = default_cutoff(alpha)
    if cutoff < 1:
        raise ValueError("cutoff must be positive")
    return ModeState(_coherent_rows(np.array([complex(alpha)]), cutoff)[0])


def _coherent_rows(labels: np.ndarray, cutoff: int) -> np.ndarray:
    """Truncated coherent vectors of the 1-D complex ``labels``, one row each:
    one cumulative product along each row of
    ``[exp(-|alpha|^2/2), alpha/sqrt(1), alpha/sqrt(2), ...]``."""
    steps = np.empty((labels.size, cutoff), dtype=complex)
    steps[:, 0] = np.exp(-0.5 * np.square(np.abs(labels)))
    steps[:, 1:] = labels[:, None] / np.sqrt(np.arange(1, cutoff))
    return np.cumprod(steps, axis=1, out=steps)


def coherent_overlap(alpha, beta):
    """Exact coherent overlap ``<alpha|beta>``.

    ``exp(-|alpha|^2/2 - |beta|^2/2 + conj(alpha) * beta)``; accepts scalars
    or numpy arrays (broadcasting), which is what makes the phase-space grid
    sums cheap.  Note ``|<alpha|beta>|^2 = exp(-|alpha - beta|^2)``.
    """
    alpha = np.asarray(alpha, dtype=complex)
    beta = np.asarray(beta, dtype=complex)
    # np.square, not ``** 2``, which NumPy takes by ``pow`` on a scalar but
    # multiplies on an array: a scalar equals an array element bit for bit
    out = np.exp(
        -0.5 * (np.square(np.abs(alpha)) + np.square(np.abs(beta)))
        + np.conjugate(alpha) * beta
    )
    if out.ndim == 0:
        return complex(out)
    return out


def _cat_components(alpha0, phi):
    """The cat's two coherent labels ``(e^{i phi} alpha0, e^{-i phi} alpha0)``,
    on scalars or broadcast arrays."""
    return np.exp(1j * phi) * alpha0, np.exp(-1j * phi) * alpha0


def cat_norm_constant(alpha0: CoherentLabel, phi: float) -> float:
    """Normalization of ``c (|e^{i phi} alpha0> + |e^{-i phi} alpha0>)``, on
    scalars or broadcast arrays.

    ``c = [2 + 2 Re <e^{i phi} alpha0|e^{-i phi} alpha0>]^(-1/2)``; tends to
    1/2 for indistinguishable components and to 1/sqrt(2) for orthogonal ones.
    """
    plus, minus = _cat_components(alpha0, phi)
    bracket = 2.0 + 2.0 * coherent_overlap(plus, minus).real
    return bracket ** -0.5


def cat_fock(
    alpha0: CoherentLabel, phi: float, cutoff: int | None = None
) -> ModeState:
    """Truncated cat ``c (|e^{i phi} alpha0> + |e^{-i phi} alpha0>)``.

    The two coherent components are generated on a common cutoff (default:
    ``default_cutoff(alpha0)``) and summed with :func:`cat_norm_constant`.
    No renormalization happens here, so the truncated norm sits slightly
    below 1 by exactly the discarded tail mass.
    """
    if cutoff is None:
        cutoff = default_cutoff(alpha0)
    plus, minus = (
        coherent_fock(label, cutoff)
        for label in _cat_components(alpha0, phi)
    )
    norm_const = cat_norm_constant(alpha0, phi)
    return ModeState(norm_const * (plus.amplitudes + minus.amplitudes))
