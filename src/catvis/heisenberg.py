"""Quadrature-moment bookkeeping through the beam splitter.

The splitter mixes the signal quadrature with vacuum entering the other
port, so every output moment is a polynomial in the input moments, the
transmission t, and the vacuum variance 1/4.  For small reflectivity the
output moments are barely distinguishable from the input ones, which is the
whole point this package quantifies: those moments stay put while the
interference visibility of a cat collapses.

Quadratures follow ``x = (a + a+)/2``, giving the vacuum variance 1/4.
"""

from dataclasses import dataclass

import numpy as np

from .fock import _cat_components, cat_norm_constant, coherent_overlap
from .operators import BeamSplitter
from .phase_space import visibility_closed_form

__all__ = [
    "QuadratureStats",
    "output_quadrature_stats",
    "cat_quadrature_stats",
    "ContrastReport",
    "contrast_report",
]

_VACUUM_VAR = 0.25


@dataclass(frozen=True)
class QuadratureStats:
    """Mean and variance of x."""

    mean_x: float
    var_x: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "mean_x", float(self.mean_x))
        object.__setattr__(self, "var_x", float(self.var_x))
        if self.var_x < 0.0:
            raise ValueError("variance must be nonnegative")


def output_quadrature_stats(stats: QuadratureStats, bs: BeamSplitter) -> QuadratureStats:
    """Moments of the transmitted mode's x given the input's, vacuum in port B.

    x_out = t x_in + r x_vac with the two terms independent, the vacuum term
    zero-mean Gaussian of variance r^2/4, so

        mean' = t mean        var' = t^2 var + r^2/4
    """
    t, r = bs.t, bs.r
    mean = t * stats.mean_x
    var = t * t * stats.var_x + r * r * _VACUUM_VAR
    return QuadratureStats(mean_x=mean, var_x=var)


def _overlap_x_moments(u: complex, v: complex) -> np.ndarray:
    """``<u| x^k |v> / <u|v>`` for k = 0, 1, 2, x = (a + a dagger)/2.

    In the displaced frame x is s/2 + (vacuum quadrature) with
    s = conj(u) + v, and vacuum matrix elements of the centered quadrature
    reproduce standard normal moments scaled by 1/2.  So the ratio is the
    Gaussian moment E[((s + Z)/2)^k] with Z standard normal: 1, s/2 and
    (s^2 + 1)/4.
    """
    s = np.conjugate(u) + v
    return np.array([1.0, s / 2.0, (s * s + 1.0) / 4.0], dtype=complex)


def cat_quadrature_stats(alpha0: complex, phi: float) -> QuadratureStats:
    """Exact x moments of the normalized two-component cat, no truncation.

    Sums <u| x^k |v> over the four outer products of the components
    u, v in {e^{i phi} alpha0, e^{-i phi} alpha0}, each weighted by the
    squared normalization constant times <u|v>.  Closed form in alpha0 and
    phi; the tests hold it against moments of the truncated Fock state.
    """
    alpha0 = complex(alpha0)
    cn2 = cat_norm_constant(alpha0, phi) ** 2
    comps = _cat_components(alpha0, phi)
    raw = np.zeros(3, dtype=complex)
    for u in comps:
        for v in comps:
            raw += cn2 * coherent_overlap(u, v) * _overlap_x_moments(u, v)
    # trace term is 1 by construction; only rounding in exponents of size
    # |alpha0|^2 can move it
    if abs(raw[0] - 1.0) > 1e-9:
        raise ValueError("cat moment normalization failed; inconsistent inputs")
    if float(np.max(np.abs(raw.imag))) > 1e-10 * max(1.0, float(np.max(np.abs(raw)))):
        raise ValueError("cat x moments came out complex; inconsistent inputs")
    m = raw.real / raw.real[0]
    mean = m[1]
    return QuadratureStats(mean_x=mean, var_x=m[2] - mean * mean)


@dataclass(frozen=True)
class ContrastReport:
    """The two sides of the small-reflectivity contrast, side by side.

    ``mean_ratio`` (= t) is how much every quadrature mean shrinks: for
    r = 0.1 that is a half-percent change.  ``visibility`` is the closed-form
    fringe visibility of the cat after the same splitter, which for a large
    cat is already negligible at that r.  Moment bookkeeping sees almost
    nothing happen; the interference record sees the superposition destroyed.
    """

    t: float
    mean_ratio: float
    var_out: float
    visibility: float


def contrast_report(params) -> ContrastReport:
    """Build the moments-versus-visibility contrast for one parameter set."""
    bs = params.beam_splitter
    stats_in = cat_quadrature_stats(params.alpha0, params.phi)
    stats_out = output_quadrature_stats(stats_in, bs)
    return ContrastReport(
        t=bs.t,
        mean_ratio=bs.t,
        var_out=stats_out.var_x,
        visibility=visibility_closed_form(params.r, abs(params.alpha0), params.phi),
    )
