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
    """Mean, variance, and optional central moments 3 and 4 of x."""

    mean_x: float
    var_x: float
    central_m3: float | None = None
    central_m4: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "mean_x", float(self.mean_x))
        object.__setattr__(self, "var_x", float(self.var_x))
        if self.var_x < 0.0:
            raise ValueError("variance must be nonnegative")
        for name in ("central_m3", "central_m4"):
            val = getattr(self, name)
            if val is not None:
                object.__setattr__(self, name, float(val))


def output_quadrature_stats(stats: QuadratureStats, bs: BeamSplitter) -> QuadratureStats:
    """Moments of the transmitted mode's x given the input's, vacuum in port B.

    x_out = t x_in + r x_vac with the two terms independent, the vacuum term
    zero-mean Gaussian of variance r^2/4.  Central moments therefore combine
    by the independent-sum rule:

        mean' = t mean        var' = t^2 var + r^2/4
        m3'   = t^3 m3        m4'  = t^4 m4 + 6 t^2 var (r^2/4) + 3 (r^2/4)^2

    (the vacuum's own fourth central moment is 3 (r^2/4)^2).  Orders 3 and 4
    pass through as None when the input does not carry them.
    """
    t, r = bs.t, bs.r
    noise = r * r * _VACUUM_VAR
    mean = t * stats.mean_x
    var = t * t * stats.var_x + noise
    m3 = None if stats.central_m3 is None else t**3 * stats.central_m3
    m4 = None
    if stats.central_m4 is not None:
        m4 = t**4 * stats.central_m4 + 6.0 * t * t * stats.var_x * noise + 3.0 * noise * noise
    return QuadratureStats(mean_x=mean, var_x=var, central_m3=m3, central_m4=m4)


def _overlap_x_moments(u: complex, v: complex, order: int) -> np.ndarray:
    """``<u| x^k |v> / <u|v>`` for k = 0..order, x = (a + a dagger)/2.

    In the displaced frame x is s/2 + (vacuum quadrature) with
    s = conj(u) + v, and vacuum matrix elements of the centered quadrature
    reproduce standard normal moments scaled by 1/2.  So the ratio is the
    Gaussian moment E[((s + Z)/2)^k] with Z standard normal, i.e. h_k(s)/2^k
    with h_1 = s, h_2 = s^2 + 1, h_3 = s^3 + 3 s, h_4 = s^4 + 6 s^2 + 3.
    """
    if order > 4:
        raise ValueError("orders above 4 are not tabulated")
    s = np.conjugate(u) + v
    h = [1.0, s, s * s + 1.0, s**3 + 3.0 * s, s**4 + 6.0 * s * s + 3.0]
    return np.array([h[k] / 2.0**k for k in range(order + 1)], dtype=complex)


def cat_quadrature_stats(alpha0: complex, phi: float, order: int = 4) -> QuadratureStats:
    """Exact x moments of the normalized two-component cat, no truncation.

    Sums <u| x^k |v> over the four outer products of the components
    u, v in {e^{i phi} alpha0, e^{-i phi} alpha0}, each weighted by the
    squared normalization constant times <u|v>.  Closed form in alpha0 and
    phi; the tests hold it against moments of the truncated Fock state.
    """
    if order not in (2, 4):
        raise ValueError("order must be 2 or 4")
    alpha0 = complex(alpha0)
    cn2 = cat_norm_constant(alpha0, phi) ** 2
    comps = _cat_components(alpha0, phi)
    raw = np.zeros(order + 1, dtype=complex)
    for u in comps:
        for v in comps:
            raw += cn2 * coherent_overlap(u, v) * _overlap_x_moments(u, v, order)
    # trace term is 1 by construction; only rounding in exponents of size
    # |alpha0|^2 can move it
    if abs(raw[0] - 1.0) > 1e-9:
        raise ValueError("cat moment normalization failed; inconsistent inputs")
    if float(np.max(np.abs(raw.imag))) > 1e-10 * max(1.0, float(np.max(np.abs(raw)))):
        raise ValueError("cat x moments came out complex; inconsistent inputs")
    m = raw.real / raw.real[0]
    mean = m[1]
    var = m[2] - mean * mean
    if order == 2:
        return QuadratureStats(mean_x=mean, var_x=var)
    c3 = m[3] - 3.0 * mean * m[2] + 2.0 * mean**3
    c4 = m[4] - 4.0 * mean * m[3] + 6.0 * mean * mean * m[2] - 3.0 * mean**4
    return QuadratureStats(mean_x=mean, var_x=var, central_m3=c3, central_m4=c4)


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

    def as_dict(self) -> dict:
        return {
            "T": self.t,
            "mean_ratio": self.mean_ratio,
            "var_out": self.var_out,
            "visibility": self.visibility,
        }


def contrast_report(params) -> ContrastReport:
    """Build the moments-versus-visibility contrast for one parameter set."""
    from .phase_space import visibility_analytic

    bs = params.beam_splitter
    stats_in = cat_quadrature_stats(params.alpha0, params.phi, order=4)
    stats_out = output_quadrature_stats(stats_in, bs)
    return ContrastReport(
        t=bs.t,
        mean_ratio=bs.t,
        var_out=stats_out.var_x,
        visibility=visibility_analytic(params),
    )
