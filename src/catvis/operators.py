"""Mode transformations on both tracks: truncated Fock arrays and coherent labels.

Conventions
-----------
The beam splitter has real reflectivity ``r`` and transmissivity ``t`` with
``r^2 + t^2 = 1``.  Reflection carries the factor i, so a coherent input
``|alpha>_A`` with vacuum in B leaves as ``|t alpha>_A (x) |i r alpha>_B``.
On the number basis the unitary is applied in its factored form

    exp(i (r/t) a b+) . t^(n_a - n_b) . exp(i (r/t) a+ b)

read right to left.  Both exchange generators conserve total photon number,
so each power series terminates on the truncated array; amplitude pushed
past a cutoff is dropped and surfaces as a norm change.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fock import CoherentLabel, ModeState, TruncationWarning, _NORM_SLACK

__all__ = [
    "BeamSplitter",
    "TwoModeState",
    "bs_coherent_map",
    "bs_label_pair_map",
    "bs_fock_apply",
    "phase_shift_label",
    "phase_shift_fock",
    "phase_shift_fock_a",
    "interference_reduced_a",
]


@dataclass(frozen=True)
class BeamSplitter:
    """Lossless two-mode coupler with real ``(r, t)``, ``r^2 + t^2 = 1``.

    ``t`` is filled in as ``sqrt(1 - r^2)`` when omitted.  ``r`` lives in
    [0, 1) so that ``t > 0`` and the factored form above stays well defined.
    """

    r: float
    t: float | None = None

    def __post_init__(self) -> None:
        r = float(self.r)
        t = math.sqrt(max(0.0, 1.0 - r * r)) if self.t is None else float(self.t)
        if not 0.0 <= r < 1.0:
            raise ValueError("reflectivity must lie in [0, 1)")
        if not 0.0 < t <= 1.0:
            raise ValueError("transmissivity must lie in (0, 1]")
        if abs(r * r + t * t - 1.0) > 1e-12:
            raise ValueError("r^2 + t^2 must equal 1 within 1e-12")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "t", t)


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


def bs_coherent_map(bs: BeamSplitter, alpha: CoherentLabel) -> tuple[complex, complex]:
    """Coherent label map for ``|alpha>_A (x) |0>_B``: ``(t alpha, i r alpha)``."""
    alpha = complex(alpha)
    return (bs.t * alpha, 1j * bs.r * alpha)


def bs_label_pair_map(
    bs: BeamSplitter, alpha: CoherentLabel, beta: CoherentLabel
) -> tuple[complex, complex]:
    """General coherent-product label map ``(t a + i r b, i r a + t b)``.

    Passive linear optics sends coherent products to coherent products; this
    is the two-input version of :func:`bs_coherent_map`.
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


def bs_fock_apply(
    bs: BeamSplitter, state: TwoModeState, leak_tol: float = 1e-10
) -> TwoModeState:
    """Run a two-mode Fock state through the beam splitter's factored unitary.

    Exact (to rounding) on every fixed-total-photon sector that fits inside
    both cutoffs.  When the exchange series pushes amplitude past a cutoff
    the result is no longer unitary: a norm change beyond ``leak_tol`` emits
    :class:`TruncationWarning`, and a norm blown past 1 raises, since the
    intermediate diagonal factor can amplify stranded high-occupancy
    amplitudes.
    """
    amps = state.amplitudes
    coupling = 1j * bs.r / bs.t
    out = _exchange_series(amps, coupling, raise_a=True)
    na = np.arange(out.shape[0])
    nb = np.arange(out.shape[1])
    out = out * bs.t ** (na[:, None] - nb[None, :])
    out = _exchange_series(out, coupling, raise_a=False)
    in2 = state.squared_norm
    out2 = float(np.vdot(out, out).real)
    if out2 > 1.0 + _NORM_SLACK:
        raise ValueError(
            f"truncation during beam-splitter application inflated the squared "
            f"norm to {out2:.6g}; raise the cutoffs (see default_cutoff)"
        )
    if abs(out2 - in2) > leak_tol:
        warnings.warn(
            f"beam splitter leaked {abs(out2 - in2):.3e} of squared norm past "
            f"the cutoffs ({out.shape[0]}, {out.shape[1]})",
            TruncationWarning,
            stacklevel=2,
        )
    return TwoModeState(out)


def phase_shift_label(alpha: CoherentLabel, chi: float) -> complex:
    """Phase shifter on a coherent label: ``alpha -> e^{i chi} alpha``."""
    return complex(np.exp(1j * chi) * alpha)


def phase_shift_fock(state: ModeState, chi: float) -> ModeState:
    """Diagonal phase ``e^{i chi n}`` on the number basis."""
    ns = np.arange(state.cutoff)
    return ModeState(state.amplitudes * np.exp(1j * chi * ns))


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
