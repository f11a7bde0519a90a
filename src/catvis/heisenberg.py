"""Quadrature moments of the cat, before and after the beam splitter.

The splitter mixes the signal quadrature with vacuum entering the other
port: ``x_out = t x_in + r x_vac``, so the output mean is ``t`` times the
input mean and the output variance is ``t^2 var + r^2/4``.  For small
reflectivity the output moments are barely distinguishable from the input
ones, which is the whole point this package quantifies: those moments stay
put while the interference visibility of a cat collapses.

Quadratures follow ``x = (a + a+)/2``, giving the vacuum variance 1/4.
"""

from dataclasses import dataclass

import numpy as np

from .fock import _cat_components
from .phase_space import visibility_closed_form

__all__ = [
    "cat_quadrature_stats",
    "ContrastReport",
    "contrast_report",
]


def cat_quadrature_stats(alpha0, phi):
    """Exact ``(mean, variance)`` of x for the normalized two-component cat,
    on scalars or broadcast arrays.

    With components ``u, v = e^{+-i phi} alpha0`` the moments are taken about
    ``m = Re(alpha0) cos(phi)``, the components' mean real part, so nothing
    cancels.  The diagonal terms sit at ``m -+ d``, ``d = Im(alpha0)
    sin(phi)``, each with variance 1/4.  A cross term
    ``<u| (x - m)^k |v> / <u|v>`` is the Gaussian moment ``E[((s + Z)/2)^k]``,
    Z standard normal, with ``s = conj(u) + v - 2m = -i sigma`` and
    ``sigma = 2 Re(alpha0) sin(phi)``.  With ``ov = <u|v>`` and
    ``N^2 = 1 / (2 + 2 Re ov)`` that gives

        mean = m + N^2 sigma Im(ov)
        var  = 1/4 + N^2 (2 d^2 - sigma^2 Re(ov) / 2) - (mean - m)^2

    The tests hold it against moments of the truncated Fock state and
    against 50-digit arithmetic.
    """
    alpha0 = np.asarray(alpha0, dtype=complex)
    sin_phi = np.sin(phi)
    m = alpha0.real * np.cos(phi)
    d = alpha0.imag * sin_phi
    sigma = 2.0 * alpha0.real * sin_phi
    # ov = e^{x + iy}, from e^{-2i phi} - 1 = -2 sin^2(phi) - i sin(2 phi):
    # no cancellation at small phi, and the phase y, tens of radians where
    # ov still counts, takes the fewest roundings
    abs2 = alpha0.real * alpha0.real + alpha0.imag * alpha0.imag
    x = -2.0 * abs2 * sin_phi * sin_phi
    # 2 phi overflows from |phi| = 2^1023; only there does sin(2 phi) come
    # from 2 sin(phi) cos(phi), so every other point keeps its bits
    fits = np.abs(phi) < 2.0**1023
    sin_2phi = np.where(fits, np.sin(2.0 * np.where(fits, phi, 0.0)),
                        2.0 * sin_phi * np.cos(phi))
    y = -abs2 * sin_2phi
    re_ov, im_ov = np.exp(x) * np.cos(y), np.exp(x) * np.sin(y)
    # 1 + Re ov = 2 cos^2(y/2) + expm1(x) cos(y): where it nears 0 (cos y
    # near -1, x near 0) both terms are nonnegative
    n2 = 0.5 / (2.0 * np.square(np.cos(0.5 * y)) + np.expm1(x) * np.cos(y))
    shift = n2 * sigma * im_ov
    var = 0.25 + n2 * (2.0 * d * d - 0.5 * sigma * sigma * re_ov) - shift * shift
    return m + shift, var


def _environment_overlap(r, alpha0, phi):
    """The oracle ``<i r u-|i r u+>`` on scalars or broadcast arrays, with the
    exponent written as ``-|a - b|^2/2 + i Im(conj(a) b)``: the modulus comes
    from the labels' difference, so it keeps its accuracy at any |alpha0|.
    :func:`coherent_overlap`, which every Q profile keeps, errs there by
    several ulps of ``|r alpha0|^2`` as its exponent's terms cancel."""
    plus, minus = _cat_components(np.asarray(alpha0, dtype=complex), phi)
    a, b = 1j * r * minus, 1j * r * plus
    d = a - b
    return np.exp(-0.5 * (d.real * d.real + d.imag * d.imag)
                  + 1j * (a.real * b.imag - a.imag * b.real))


def _closed_form_columns(r, alpha0, phi):
    """``(nu_analytic, nu_oracle, T, var_out)`` of valid parameters on broadcast
    arrays, each by its own formula: the closed form, ``|<i r u-|i r u+>|``,
    ``t`` and ``t^2 var + r^2/4``; moduli by np.hypot, as abs() of a complex."""
    r, alpha0 = np.asarray(r, dtype=float), np.asarray(alpha0, dtype=complex)
    t = np.sqrt(1.0 - r * r)
    ov = _environment_overlap(r, alpha0, phi)
    _, var_x = cat_quadrature_stats(alpha0, phi)
    return (visibility_closed_form(r, np.hypot(alpha0.real, alpha0.imag), phi),
            np.hypot(ov.real, ov.imag), t,
            # vacuum enters port B with variance 1/4
            t * t * var_x + r * r * 0.25)


@dataclass(frozen=True)
class ContrastReport:
    """The two sides of the small-reflectivity contrast, side by side.

    ``mean_ratio`` (= t) is how much every quadrature mean shrinks: for
    r = 0.1 that is a half-percent change.  ``visibility`` is the closed-form
    fringe visibility of the cat after the same splitter, which for a large
    cat is already negligible at that r.  Moment bookkeeping sees almost
    nothing happen; the interference record sees the superposition destroyed.
    """

    mean_ratio: float
    var_out: float
    visibility: float


def contrast_report(params) -> ContrastReport:
    """Build the moments-versus-visibility contrast for one parameter set:
    the one-point case of the closed-form columns that ``sweep`` prints."""
    nu, _, t, var_out = map(float, _closed_form_columns(params.r, params.alpha0,
                                                        params.phi))
    return ContrastReport(mean_ratio=t, var_out=var_out, visibility=nu)
