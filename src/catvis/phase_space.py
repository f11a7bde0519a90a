"""Two-mode Husimi Q machinery over coherent outer-product terms.

Density operators built from superpositions of coherent states decompose
into a handful of terms ``w |u_a, u_b><v_a, v_b|`` with coherent labels on
both sides.  Everything here leans on that structure: the Q-function of one
term factors into an A-plane profile times a B-plane profile, and each
plane profile into a Gaussian in ``Re z`` times one in ``Im z``.  So the
double phase-space integral of a term is a product of 1-D midpoint sums
over the same grid, equal to the sum over every point of both planes, and
a 120 x 120 midpoint grid per plane resolves every case this package
visits.  Pointwise Q values (``q_full``, ``q_marginal``) reduce one pass
that evaluates each term's two plane profiles point by point.

``Q(alpha', beta') = <alpha'|<beta'| rho |beta'>|alpha'> / pi^2`` and
integrates to ``Tr(rho)`` with the plain Lebesgue measure ``d^2alpha' d^2beta'``.
"""

import math
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .fock import _cat_components, cat_norm_constant, coherent_overlap
from .operators import BeamSplitter, bs_label_pair_map

__all__ = [
    "CoverageWarning",
    "BranchTerm",
    "QGrid",
    "initial_cat_terms",
    "beam_split_term",
    "q_full",
    "q_marginal",
    "integrate_q_term",
    "visibility_closed_form",
]

class CoverageWarning(UserWarning):
    """The integration grid does not comfortably contain the integrand."""


@dataclass(frozen=True)
class BranchTerm:
    """One weighted coherent outer product ``weight |ket_a, ket_b><bra_a, bra_b|``.

    A term equal to its own adjoint (labels mirrored, weight real) is diagonal.
    """

    weight: complex
    ket_a: complex
    ket_b: complex
    bra_a: complex
    bra_b: complex

    def __post_init__(self) -> None:
        for name in ("weight", "ket_a", "ket_b", "bra_a", "bra_b"):
            object.__setattr__(self, name, complex(getattr(self, name)))

    def adjoint(self) -> "BranchTerm":
        return BranchTerm(
            weight=self.weight.conjugate(),
            ket_a=self.bra_a,
            ket_b=self.bra_b,
            bra_a=self.ket_a,
            bra_b=self.ket_b,
        )


@dataclass(frozen=True)
class QGrid:
    """Midpoint-rule discretization of one complex plane per mode.

    Samples sit at cell centers, ``(j + 1/2 - n/2) * spacing`` around each
    plane's center, so a plain sum times ``spacing^2`` is the plane integral.
    The default half-width 6 covers a unit-variance coherent profile to
    beyond 5 sigma on every case in this package.
    """

    extent: float = 6.0
    spacing: float = 0.1
    center_a: complex = 0j
    center_b: complex = 0j

    def __post_init__(self) -> None:
        object.__setattr__(self, "extent", float(self.extent))
        object.__setattr__(self, "spacing", float(self.spacing))
        object.__setattr__(self, "center_a", complex(self.center_a))
        object.__setattr__(self, "center_b", complex(self.center_b))
        if not self.spacing > 0.0:
            raise ValueError("spacing must be positive")
        if not math.isfinite(self.extent):
            raise ValueError("extent must be finite")
        if 2.0 * self.extent / self.spacing == math.inf:
            raise ValueError(f"extent {self.extent:g} over spacing {self.spacing:g} "
                             "holds too many points to count")
        # count the points: 6 * spacing may round above an extent of 6 spacings
        if self.extent < 0.0 or self.points_per_axis < 12:
            raise ValueError("extent must be at least 6 spacings")

    @property
    def points_per_axis(self) -> int:
        return int(round(2.0 * self.extent / self.spacing))

    @property
    def cell(self) -> float:
        return self.spacing * self.spacing

    def _offsets(self) -> np.ndarray:
        n = self.points_per_axis
        return (np.arange(n) + 0.5 - 0.5 * n) * self.spacing

    def plane(self, which: str) -> np.ndarray:
        """Complex sample points of plane ``"a"`` or ``"b"`` (2-D array)."""
        if which not in ("a", "b"):
            raise ValueError("plane must be 'a' or 'b'")
        center = self.center_a if which == "a" else self.center_b
        offs = self._offsets()
        return center + offs[:, None] + 1j * offs[None, :]

    @classmethod
    def for_term(cls, term: BranchTerm) -> "QGrid":
        """Default-sized grid centered between each plane's ket and bra
        labels."""
        return cls(
            center_a=0.5 * (term.ket_a + term.bra_a),
            center_b=0.5 * (term.ket_b + term.bra_b),
        )


def initial_cat_terms(alpha0: complex, phi: float) -> list[BranchTerm]:
    """The four outer-product terms of cat (x) vacuum, each weighted ``c^2``.

    Order is (+,+), (+,-), (-,+), (-,-) by (ket side, bra side) component.
    """
    cn2 = cat_norm_constant(alpha0, phi) ** 2
    comps = _cat_components(alpha0, phi)
    return [BranchTerm(weight=cn2, ket_a=ket, ket_b=0j, bra_a=bra, bra_b=0j)
            for ket in comps for bra in comps]


def beam_split_term(term: BranchTerm, bs: BeamSplitter) -> BranchTerm:
    """Push a coherent outer product through the beam splitter (label track)."""
    ket_a, ket_b = bs_label_pair_map(bs, term.ket_a, term.ket_b)
    bra_a, bra_b = bs_label_pair_map(bs, term.bra_a, term.bra_b)
    return replace(term, ket_a=ket_a, ket_b=ket_b, bra_a=bra_a, bra_b=bra_b)


def _plane_profile(z: np.ndarray, ket: complex, bra: complex) -> np.ndarray:
    return coherent_overlap(z, ket) * np.conjugate(coherent_overlap(z, bra))


def _require_hermitian_set(terms: Sequence[BranchTerm]) -> None:
    """Every term must have its adjoint in the set (diagonals are their own)."""
    unmatched = list(terms)

    def close(x: complex, y: complex) -> bool:
        return abs(x - y) <= 1e-9 * max(1.0, abs(x), abs(y))

    def matches(t: BranchTerm, adj: BranchTerm) -> bool:
        return all(close(getattr(t, k), getattr(adj, k))
                   for k in ("weight", "ket_a", "ket_b", "bra_a", "bra_b"))

    while unmatched:
        term = unmatched.pop()
        adj = term.adjoint()
        if matches(term, adj):
            continue
        for i, other in enumerate(unmatched):
            if matches(other, adj):
                unmatched.pop(i)
                break
        else:
            raise ValueError(
                "terms do not form a Hermitian set; an off-diagonal term is "
                "missing its adjoint"
            )


# how far below zero rounding may leave a Q value; a Husimi function of an
# actual state is never negative, so anything lower is a broken term set
_NEGATIVITY_TOL = 1e-12


def _state_values(total, what: str):
    """Real part of a summed Q (or marginal) ``total``, as a contiguous copy
    that does not keep ``total`` alive; raises if the imaginary residue is
    out of line with rounding, or if a value dips below ``-1e-12``."""
    total = np.asarray(total)
    scale = float(np.max(np.abs(total))) if total.size else 0.0
    if scale > 0.0 and float(np.max(np.abs(total.imag))) > 1e-10 * max(scale, 1e-30):
        raise ValueError(f"{what} came out complex; term set is inconsistent")
    values = total.real.copy()
    if values.size and float(np.min(values)) < -_NEGATIVITY_TOL:
        raise ValueError(
            f"{what} reached {float(np.min(values)):.3e} < -{_NEGATIVITY_TOL:.1e}; "
            "term set does not describe a state"
        )
    return values


def _term_profiles(terms: Sequence[BranchTerm], alpha_p, beta_p) -> list:
    """The one pointwise pass over a Hermitian set (raises on any other):
    each term's ``weight / pi^2`` and its A- and B-plane profiles."""
    _require_hermitian_set(terms)
    return [(t.weight / np.pi**2, _plane_profile(alpha_p, t.ket_a, t.bra_a),
             _plane_profile(beta_p, t.ket_b, t.bra_b)) for t in terms]


def _q_values(profiles):
    """Total Q of :func:`_term_profiles` output, each A-plane profile
    broadcast against its B-plane profile."""
    # einsum rounds the complex product as an outer product of the plane
    # profiles does; a plain ga * gb differs in the last bit in about half
    # the points, which would change printed full-Q grids
    terms = (w * np.einsum("...,...->...", ga, gb) for w, ga, gb in profiles)
    return _state_values(sum(terms), "Q")


def _marginal_values(profiles, grid: QGrid):
    """Both marginals from :func:`_term_profiles` output on ``grid``'s planes."""
    total_a = np.zeros((grid.points_per_axis,) * 2, dtype=complex)
    total_b = np.zeros_like(total_a)
    for w, ga, gb in profiles:
        total_a += w * ga * (gb.sum() * grid.cell)
        total_b += w * gb * (ga.sum() * grid.cell)
    return _state_values(total_a, "marginal"), _state_values(total_b, "marginal")


def q_full(terms: Sequence[BranchTerm], alpha_p, beta_p):
    """Total Q of a Hermitian term set at one or many phase-space points.

    Returns the real value(s); raises if the set is not Hermitian, if the
    imaginary residue is out of line with rounding, or if Q dips below
    ``-1e-12``.
    """
    values = _q_values(_term_profiles(terms, alpha_p, beta_p))
    if values.ndim == 0:
        return float(values)
    return values


def _edge_ratio(vals: np.ndarray) -> float:
    """Largest magnitude on the border of a 2-D sample array over its peak
    (``inf`` when all zero, an uncovered plane to :func:`_plane_edge_ratio`)."""
    mags = np.abs(vals)
    peak = float(mags.max())
    if peak <= 0.0:
        return math.inf
    edges = (mags[0], mags[-1], mags[:, 0], mags[:, -1])
    return max(float(m.max()) for m in edges) / peak


# edge-to-peak ratio of a plane's samples above which its grid is too small
_BOUNDARY_RATIO = 1e-10


def _check_boundary(ratio: float, which: str) -> None:
    if ratio > _BOUNDARY_RATIO:
        if math.isinf(ratio):
            what = "samples all underflow, so the grid misses the integrand"
        else:
            what = f"boundary holds {ratio:.2e} of the peak integrand"
        warnings.warn(
            f"plane {which} {what}; widen the grid extent",
            CoverageWarning,
            stacklevel=3,
        )


def _axis_factor(offsets: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """``exp(-(o + shift)^2) exp(-Im(shift)^2)`` at each offset ``o`` for each
    entry of the array ``shift``, on a new last axis.

    The square is completed on the real offset, so the exponent's real part
    is ``-(o + Re shift)^2`` and every sample has magnitude at most 1.
    """
    u = offsets + shift.real[..., None]
    return np.exp(-u * u - 2j * shift.imag[..., None] * u)


def _plane_factors(center, offsets: np.ndarray, ket, bra):
    """``<z|ket> conj(<z|bra>)`` at ``z = center + x + iy``, ``x`` and ``y`` in
    ``offsets``, as ``scale fx[x] fy[y]`` for each entry of the broadcast
    arrays: returns ``(scale, fx, fy)``, the factors on a new last axis.

    With ``s = ket + conj(bra)`` and ``t = i(conj(bra) - ket)`` the profile is
    exactly ``<bra|ket> exp(-(x - s/2)^2) exp(-(y - t/2)^2)``.  Each factor is
    scaled to peak magnitude at most 1; the scales ``exp(|ket - bra|^2 / 4)``
    join ``<bra|ket>`` in ``scale``, of magnitude ``exp(-|ket - bra|^2 / 4)``.
    """
    center, ket, bra = (np.asarray(v, dtype=complex) for v in (center, ket, bra))
    s = ket + bra.conj()
    t = 1j * (bra.conj() - ket)
    d = ket - bra
    scale = np.exp(-0.25 * (d.real * d.real + d.imag * d.imag)
                   + 1j * (bra.real * ket.imag - bra.imag * ket.real))
    return (scale, _axis_factor(offsets, center.real - 0.5 * s),
            _axis_factor(offsets, center.imag - 0.5 * t))


def _plane_edge_ratio(center, offsets: np.ndarray, ket, bra):
    """Edge-to-peak ratio of one plane's samples of ``<z|ket> conj(<z|bra>)``,
    for each entry of the broadcast arrays; ``inf`` where all underflow."""
    _, fx, fy = _plane_factors(center, offsets, ket, bra)
    # |profile| is |scale| |fx_j| |fy_l|, so its border maximum and its peak
    # come from the two factors' end and peak magnitudes
    mx, my = np.abs(fx), np.abs(fy)
    peak_x, peak_y = mx.max(axis=-1), my.max(axis=-1)
    peak = peak_x * peak_y
    edge = np.maximum(np.maximum(mx[..., 0], mx[..., -1]) * peak_y,
                      peak_x * np.maximum(my[..., 0], my[..., -1]))
    # a plane whose every sample underflows holds none of the integrand's
    # support: report it as uncovered rather than as a clean edge
    return np.divide(edge, peak, out=np.full(peak.shape, math.inf), where=peak > 0.0)


def _integrate_terms(weight, kets, bras, centers, offsets: np.ndarray, cell: float):
    """Integrals of the terms ``weight |kets><bras|`` at ``offsets`` around
    ``centers`` (plane A, then plane B, on the first axis); each ``n x n``
    plane sum is exactly the product of its two factors' ``n``-point sums."""
    scale, fx, fy = _plane_factors(centers, offsets, kets, bras)
    sums = scale * fx.sum(axis=-1) * fy.sum(axis=-1)
    return (weight / np.pi**2) * (sums[0] * cell) * (sums[1] * cell)


def _post_selected_planes(alpha0, phi, r):
    """``(kets, bras, centers)``, each ``(2, 4, P)`` (plane, term, point), of
    the cat terms (+,+), (+,-), (-,+), (-,-) through the splitter and
    post-selected at readout phase theta = 0, at the points of the 1-D
    arrays.  Post-selection keeps, on a side descending from
    ``u_s = e^{i s phi} alpha0``, the branch whose readout rotation
    ``e^{-i s phi}`` cancels the component phase: its A label is
    ``t u_s e^{-i s phi}`` and its B label ``i r u_s``.  Any other theta
    only multiplies the (+,-) term by ``e^{-i theta}`` and the (-,+) term by
    ``e^{i theta}``.  Each plane is centred midway between its labels, where
    :meth:`QGrid.for_term` places it."""
    comps = np.stack(_cat_components(alpha0, phi))
    rot = np.exp(-1j * np.array([[1.0], [-1.0]]) * phi)
    by_sign = np.stack([rot * (np.sqrt(1.0 - r * r) * comps), 1j * r * comps])
    kets, bras = by_sign[:, [0, 0, 1, 1]], by_sign[:, [0, 1, 0, 1]]
    return kets, bras, 0.5 * (kets + bras)


def _post_selected_integrals(alpha0, phi, r):
    """Integrals ``(4, P)`` of the post-selected terms, each weighted ``c^2``,
    on ``QGrid()``'s offsets around :func:`_post_selected_planes`' centres.

    They take no coverage check.  Centred midway between its labels, a
    plane's profile has magnitude ``exp(-x^2 - y^2)`` times a constant at
    offset ``x + iy``, so every plane at every point has the same edge ratio,
    set by ``QGrid()``'s extent and spacing alone; the tests pin it below
    ``_BOUNDARY_RATIO``.  Only the cross terms (+,-) and (-,+) are taken
    point by point: the diagonal terms' shifts and phase are exact zeros, so
    their planes are all the origin Gaussian, and one integral on zero labels
    gives both, bit for bit.
    """
    grid, weight = QGrid(), cat_norm_constant(alpha0, phi) ** 2
    cross_labels = [v[:, 1:3] for v in _post_selected_planes(alpha0, phi, r)]
    cross, diag = (_integrate_terms(weight, *labels, grid._offsets(), grid.cell)
                   for labels in (cross_labels, [np.zeros((2, 1, 1))] * 3))
    return np.concatenate([diag, cross, diag])


def integrate_q_term(term: BranchTerm, grid: QGrid | None = None) -> complex:
    """Phase-space integral of one term's Q by factorized midpoint quadrature.

    The term's Q factors exactly into plane profiles, and each plane
    profile into a Gaussian in ``Re z`` times one in ``Im z``, so the
    integral is a product of 1-D midpoint sums over the same grid: each
    ``n x n`` plane sum is exactly the product of two ``n``-point sums.
    With no grid given, each plane is centered between its ket and bra
    labels.  Warns when boundary samples exceed 1e-10 of the peak, or when
    every sample of a plane underflows (under-covered support); the exact
    value of the integral is ``w <bra_a|ket_a> <bra_b|ket_b>``, which the
    tests hold this quadrature against.
    """
    if grid is None:
        grid = QGrid.for_term(term)
    kets, bras = [term.ket_a, term.ket_b], [term.bra_a, term.bra_b]
    centers, offsets = [grid.center_a, grid.center_b], grid._offsets()
    ratio_a, ratio_b = _plane_edge_ratio(centers, offsets, kets, bras)
    _check_boundary(ratio_a, "A")
    _check_boundary(ratio_b, "B")
    return complex(_integrate_terms(term.weight, kets, bras, centers, offsets,
                                    grid.cell))


def q_marginal(
    terms: Sequence[BranchTerm], grid: QGrid
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Marginal Q of each mode, the other plane integrated out term by term.

    Returns ``((points_a, values_a), (points_b, values_b))``: each plane's
    complex samples and the real marginal on them, from one pass over the
    terms.  Each integrates to 1 (times the trace) with weight
    ``spacing^2``.  Raises as :func:`q_full` does on a set that is not
    Hermitian, or on a marginal that comes out complex or negative.
    """
    za, zb = grid.plane("a"), grid.plane("b")
    values_a, values_b = _marginal_values(_term_profiles(terms, za, zb), grid)
    return (za, values_a), (zb, values_b)


def visibility_closed_form(r, abs_alpha0, phi):
    """``exp(-2 r^2 sin^2(phi) |alpha0|^2)``, array friendly.

    No range validation: r enters squared, so the formula is even in r, and
    the phase of alpha0 drops out entirely.
    """
    r = np.asarray(r, dtype=float)
    abs_alpha0 = np.asarray(abs_alpha0, dtype=float)
    # np.square, as in coherent_overlap: a scalar equals an array element
    out = np.exp(-2.0 * r**2 * np.square(np.sin(phi)) * abs_alpha0**2)
    if out.ndim == 0:
        return float(out)
    return out
