"""Coherent outer-product terms, Q evaluation, and grid quadrature."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catvis import (
    BeamSplitter,
    BranchTerm,
    CoverageWarning,
    ExperimentParams,
    QGrid,
    beam_split_term,
    cat_norm_constant,
    coherent_overlap,
    contrast_report,
    initial_cat_terms,
    integrate_q_term,
    q_full,
    q_marginal,
    visibility_closed_form,
)
from catvis import phase_space
from catvis.phase_space import (
    _BOUNDARY_RATIO,
    _edge_ratio,
    _plane_edge_ratio,
    _plane_profile,
    _post_selected_integrals,
    _post_selected_planes,
    _q_values,
    _term_profiles,
)

from helpers import (
    CAT_TAGS,
    CROSS,
    coherent_product_term,
    integrate_q_term_2d,
    post_selected_integrals_four_terms,
    post_selected_terms,
    postselect_term,
    q_full_grid,
    q_term,
    q_values_sum,
)

INV_PI_SQ = 0.10132118364233778  # 1/pi^2

# closed-form visibilities, frozen from independent evaluation of
# exp(-2 r^2 sin^2(phi) |alpha0|^2)
FROZEN_VISIBILITY = [
    # (r, abs_alpha0, phi, value)
    (0.5, 1.0, np.pi / 2, 0.6065306597126334),   # exp(-1/2)
    (0.1, 20.0, np.pi / 2, 3.354626279025118e-4),  # exp(-8)
    (0.3, 2.0, np.pi / 4, 0.6976763260710304),   # exp(-0.36)
    (0.2, 2.0, np.pi / 4, 0.8521437889662113),   # exp(-0.16)
    (0.1, 1.0, np.pi / 2, 0.9801986733067553),   # exp(-0.02)
    (0.5, 3.0, np.pi / 2, 0.011108996538242306),  # exp(-4.5)
]


class TestBranchTerm:
    def test_adjoint_involution(self):
        term = BranchTerm(1 + 2j, 0.5, 1j, -0.3, 0.7j)
        adj = term.adjoint()
        assert adj.weight == (1 - 2j)
        assert (adj.ket_a, adj.ket_b) == (term.bra_a, term.bra_b)
        back = adj.adjoint()
        assert back == term


class TestQGrid:
    def test_midpoint_layout(self):
        grid = QGrid(extent=2.0, spacing=0.25, center_a=1.0 + 1.0j)
        assert grid.points_per_axis == 16
        plane = grid.plane("a")
        assert plane.shape == (16, 16)
        # midpoint samples average exactly to the center
        assert np.mean(plane) == pytest.approx(1.0 + 1.0j)
        assert grid.cell == pytest.approx(0.0625)

    def test_requires_minimum_resolution(self):
        with pytest.raises(ValueError):
            QGrid(extent=1.0, spacing=0.25)

    @pytest.mark.parametrize("extent,spacing,points", [
        (0.6, 0.1, 12), (0.3, 0.05, 12), (1.2, 0.2, 12), (0.5, 0.1, 10)])
    def test_judges_the_width_by_the_points_it_lays_out(self, extent, spacing, points):
        # 6 * spacing rounds above each extent, though the first three lay
        # out exactly 12 points an axis
        assert 6.0 * spacing > extent
        if points < 12:
            with pytest.raises(ValueError, match="^extent must be at least 6 spacings$"):
                QGrid(extent=extent, spacing=spacing)
        else:
            assert QGrid(extent=extent, spacing=spacing).points_per_axis == points

    @pytest.mark.parametrize("extent", [math.inf, -math.inf, math.nan])
    def test_refuses_a_non_finite_extent(self, extent):
        with pytest.raises(ValueError, match="^extent must be finite$"):
            QGrid(extent=extent)

    @pytest.mark.parametrize("extent,spacing", [(1e300, 1e-10), (1e308, 0.5)])
    def test_refuses_a_point_count_that_overflows(self, extent, spacing):
        with pytest.raises(ValueError, match="holds too many points to count$"):
            QGrid(extent=extent, spacing=spacing)
        assert QGrid(extent=1e300, spacing=1e-7).points_per_axis == round(2e300 / 1e-7)

    def test_unknown_plane(self):
        with pytest.raises(ValueError):
            QGrid().plane("c")

    def test_for_term_centers_between_labels(self):
        term = BranchTerm(1.0, 2.0, 1j, 0.0, 3j)
        grid = QGrid.for_term(term)
        assert grid.center_a == pytest.approx(1.0)
        assert grid.center_b == pytest.approx(2.0j)


def test_initial_cat_terms_structure():
    alpha0, phi = 1.5, np.pi / 3
    terms = initial_cat_terms(alpha0, phi)
    assert len(terms) == len(CAT_TAGS)
    cn2 = cat_norm_constant(alpha0, phi) ** 2
    comp = {"+": alpha0 * np.exp(1j * phi), "-": alpha0 * np.exp(-1j * phi)}
    for t, (sk, sb) in zip(terms, CAT_TAGS):
        assert t.weight == pytest.approx(cn2)
        assert t.ket_a == pytest.approx(comp[sk])
        assert t.bra_a == pytest.approx(comp[sb])
        assert t.ket_b == 0j and t.bra_b == 0j


def test_beam_split_term_moves_labels():
    bs = BeamSplitter(0.6)
    term = coherent_product_term(2.0, 0.5j)
    out = beam_split_term(term, bs)
    assert out.ket_a == pytest.approx(0.8 * 2.0 + 0.6j * 0.5j)
    assert out.ket_b == pytest.approx(0.6j * 2.0 + 0.8 * 0.5j)
    assert out.weight == term.weight


def test_postselect_term_readout_rule():
    alpha0, phi, theta = 1.2, 0.7, 0.9
    bs = BeamSplitter(0.4)
    terms = [beam_split_term(t, bs) for t in initial_cat_terms(alpha0, phi)]
    by_tag = {tag: postselect_term(t, tag, theta, phi)
              for t, tag in zip(terms, CAT_TAGS)}
    cn2 = cat_norm_constant(alpha0, phi) ** 2

    cross = by_tag[("+", "-")]
    # the readout rotation undoes the component phase on the transmitted side
    assert cross.ket_a == pytest.approx(bs.t * alpha0)
    assert cross.bra_a == pytest.approx(bs.t * alpha0)
    assert cross.weight == pytest.approx(cn2 * np.exp(-1j * theta))
    assert by_tag[("-", "+")].weight == pytest.approx(cn2 * np.exp(1j * theta))
    assert by_tag[("+", "+")].weight == pytest.approx(cn2)
    # reflected-side labels keep their component phases
    assert cross.ket_b == pytest.approx(1j * bs.r * alpha0 * np.exp(1j * phi))
    assert cross.bra_b == pytest.approx(1j * bs.r * alpha0 * np.exp(-1j * phi))


def _selected_at(params, theta):
    """Post-selected terms at readout phase ``theta``."""
    return [
        postselect_term(beam_split_term(t, params.beam_splitter), tag, theta,
                        params.phi)
        for t, tag in zip(initial_cat_terms(params.alpha0, params.phi), CAT_TAGS)
    ]


def test_post_selected_terms_are_taken_at_theta_zero():
    params = ExperimentParams(alpha0=1.5, phi=np.pi / 4, r=0.3)
    assert post_selected_terms(params) == _selected_at(params, 0.0)


def test_q_term_equals_generic_branch_q():
    params = ExperimentParams(alpha0=1.5, phi=np.pi / 4, r=0.3)
    rng = np.random.default_rng(21)
    pts_a = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    pts_b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    for tag, term in zip(CAT_TAGS, _selected_at(params, 0.6)):
        got = q_term(term, tag, pts_a, pts_b, params)
        want = ((term.weight / np.pi**2) * _plane_profile(pts_a, term.ket_a, term.bra_a)
                * _plane_profile(pts_b, term.ket_b, term.bra_b))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


def test_interference_q_matches_reconstructed_closed_form():
    # (c^2 e^{-i theta}/pi^2) exp(-|a0|^2-|a'|^2-|b'|^2)
    #   exp(t(conj(a') a0 + conj(a0) a'))
    #   exp(i r e^{i phi}(conj(b') a0 - conj(a0) b'))
    rng = np.random.default_rng(22)
    params = ExperimentParams(alpha0=1.1 * np.exp(0.5j), phi=0.8, r=0.35)
    theta = 1.3
    term = _selected_at(params, theta)[CROSS]
    a0 = params.alpha0
    t, r, phi = params.beam_splitter.t, params.r, params.phi
    cn2 = cat_norm_constant(params.alpha0, params.phi) ** 2
    for _ in range(12):
        ap = complex(*rng.standard_normal(2))
        bp = complex(*rng.standard_normal(2))
        want = (
            (cn2 * np.exp(-1j * theta) / np.pi**2)
            * np.exp(-(abs(a0) ** 2 + abs(ap) ** 2 + abs(bp) ** 2))
            * np.exp(t * (np.conjugate(ap) * a0 + np.conjugate(a0) * ap))
            * np.exp(
                1j * r * np.exp(1j * phi)
                * (np.conjugate(bp) * a0 - np.conjugate(a0) * bp)
            )
        )
        got = q_term(term, ("+", "-"), ap, bp, params)
        assert got == pytest.approx(want, rel=1e-12)


def test_q_full_vacuum_peak():
    terms = [coherent_product_term(0.0, 0.0)]
    assert q_full(terms, 0.0, 0.0) == pytest.approx(INV_PI_SQ, rel=1e-12)


def _summed_q(monkeypatch, profiles):
    """The complex total :func:`_q_values` hands its final check."""
    seen = []
    monkeypatch.setattr(phase_space, "_state_values",
                        lambda total, what: seen.append(total))
    _q_values(profiles)
    return np.asarray(seen[0])


def _same_bits(got, want):
    # as int64 pairs: -0.0 and 0.0 differ, and 0-d arrays take a view at 1-d
    return np.array_equal(np.atleast_1d(got).view(np.int64),
                          np.atleast_1d(want).view(np.int64))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", [5, 12])
def test_q_values_sum_in_place_to_the_bits_of_sum(monkeypatch, seed, n):
    # a random Hermitian set in random order, diagonal terms and off-diagonal
    # pairs of complex weight, on an A plane broadcast against a B plane: at
    # n 12 each term's 331,776 bytes are past the 256 KiB from which NumPy
    # computes w * einsum(...) in the einsum's own array
    rng = np.random.default_rng(seed)

    def label():
        return complex(*rng.normal(0.0, 1.5, 2))

    terms = [coherent_product_term(label(), label(), weight=rng.uniform(0.1, 2.0))
             for _ in range(rng.integers(1, 4))]
    for _ in range(rng.integers(1, 4)):
        off = BranchTerm(complex(*rng.normal(size=2)), label(), label(), label(), label())
        terms += [off, off.adjoint()]
    terms = [terms[i] for i in rng.permutation(len(terms))]
    za, zb = (complex(*rng.normal(size=2)) + rng.normal(0.0, 2.0, (n, n))
              + 1j * rng.normal(0.0, 2.0, (n, n)) for _ in range(2))
    profiles = _term_profiles(terms, za[:, :, None, None], zb)
    got = _summed_q(monkeypatch, profiles)
    assert got.shape == (n,) * 4
    assert _same_bits(got, q_values_sum(profiles))


def test_q_values_turn_an_underflowing_negative_zero_positive(monkeypatch):
    # an off-diagonal pair 20 from a small grid: its profiles' products
    # underflow to signed zeros, and a -0.0 real part of both terms would
    # survive their sum but for sum()'s 0 + the first term
    off = BranchTerm(-0.8 + 0.6j, 20j, -20.0 + 1j, 19.0 - 5j, 3.0 + 19j)
    plane = QGrid(extent=1.5, spacing=0.25).plane("a")
    profiles = _term_profiles([off, off.adjoint()], plane[:, :, None, None], plane)
    want = q_values_sum(profiles)
    (w0, ga0, gb0), (w1, ga1, gb1) = profiles
    no_start = (w0 * np.einsum("...,...->...", ga0, gb0)
                + w1 * np.einsum("...,...->...", ga1, gb1))
    negative_zero = (no_start.real == 0.0) & np.signbit(no_start.real)
    assert np.any(negative_zero) and not np.any(np.signbit(want.real[negative_zero]))
    assert _same_bits(_summed_q(monkeypatch, profiles), want)


@pytest.mark.parametrize("point", [(0.0, 0.0), (0.3 - 0.2j, -1.1 + 0.4j)])
def test_q_values_at_one_point(monkeypatch, point):
    # at one point einsum returns a scalar, not an array
    terms = [beam_split_term(t, BeamSplitter(0.3))
             for t in initial_cat_terms(1.2 * np.exp(0.5j), 0.7)]
    profiles = _term_profiles(terms, *point)
    got = _summed_q(monkeypatch, profiles)
    assert got.shape == ()
    assert _same_bits(got, q_values_sum(profiles))
    monkeypatch.undo()
    assert type(q_full(terms, *point)) is float


@pytest.mark.parametrize("evaluate", [
    lambda terms: q_full(terms, 0.0, 0.0),
    lambda terms: q_marginal(terms, QGrid(extent=3.0, spacing=0.5)),
], ids=["q_full", "q_marginal"])
def test_q_full_rejects_non_hermitian_sets(evaluate):
    lone = BranchTerm(1.0, 1.0, 0.0, -1.0, 0.0)
    with pytest.raises(ValueError, match="Hermitian"):
        evaluate([lone])
    # a set holding an off-diagonal term's adjoint twice leaves one unmatched
    off = BranchTerm(0.5j, 1.0, 0.0, -1.0, 0.0)
    with pytest.raises(ValueError, match="Hermitian"):
        evaluate([off, off.adjoint(), off.adjoint()])


def test_q_full_accepts_hermitian_pair():
    off = BranchTerm(0.5j, 1.0, 0.0, -1.0, 0.0)
    vals = q_full(
        [coherent_product_term(1.0), coherent_product_term(-1.0), off, off.adjoint()],
        np.linspace(-2, 2, 9)[:, None] + 0j,
        0.0,
    )
    assert vals.shape == (9, 1)


@pytest.mark.parametrize("stage", ["initial", "after-bs"])
@pytest.mark.parametrize(
    "grid",
    [
        QGrid(extent=3.0, spacing=0.5),
        QGrid(extent=3.25, spacing=0.5),
        QGrid(extent=3.0, spacing=0.5, center_a=0.4 - 0.3j, center_b=-0.2 + 0.5j),
    ],
    ids=["even", "odd", "shifted"],
)
def test_q_full_on_broadcast_planes_matches_the_grid_oracle(stage, grid):
    # the CLI's full-Q table is q_full on an A plane broadcast against a B
    # plane; its printed digits need the oracle's exact bits
    params = ExperimentParams(alpha0=1.3 * np.exp(0.4j), phi=0.9, r=0.35)
    terms = initial_cat_terms(params.alpha0, params.phi)
    if stage == "after-bs":
        terms = [beam_split_term(t, params.beam_splitter) for t in terms]
    za, zb = grid.plane("a"), grid.plane("b")
    got = q_full(terms, za[:, :, None, None], zb[None, None])
    want = q_full_grid(terms, (za, zb))
    assert got.shape == (grid.points_per_axis,) * 4
    assert np.array_equal(got, want)
    # its own array: a view of the complex total would keep twice the memory
    # alive while the CLI writes the table
    assert got.base is None and got.flags.c_contiguous


def test_integrate_q_term_reproduces_trace_identity():
    # the grid sum must land on w <bra_a|ket_a><bra_b|ket_b>
    rng = np.random.default_rng(23)
    for _ in range(8):
        labels = rng.standard_normal(8) * 0.8
        term = BranchTerm(
            complex(*rng.standard_normal(2)),
            complex(labels[0], labels[1]),
            complex(labels[2], labels[3]),
            complex(labels[4], labels[5]),
            complex(labels[6], labels[7]),
        )
        got = integrate_q_term(term)
        want = (
            term.weight
            * coherent_overlap(term.bra_a, term.ket_a)
            * coherent_overlap(term.bra_b, term.ket_b)
        )
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_integrate_q_term_warns_on_poor_coverage():
    term = coherent_product_term(4.5)
    grid = QGrid()  # centered at the origin, extent 6
    with pytest.warns(CoverageWarning):
        integrate_q_term(term, grid)


@pytest.mark.parametrize(
    "term",
    [coherent_product_term(0.0), BranchTerm(0.5j, 1.0, 0.0, -1.0, 0.0)],
    ids=["diagonal", "off-diagonal"],
)
def test_integrate_q_term_warns_when_a_plane_underflows(term):
    # every A-plane sample underflows to 0, so there is no peak to compare
    # the edge with; the plane must count as uncovered, not as clean
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = integrate_q_term(term, QGrid(center_a=50.0))
    assert got == 0
    assert [(w.category, str(w.message)) for w in caught] == [
        (
            CoverageWarning,
            "plane A samples all underflow, so the grid misses the "
            "integrand; widen the grid extent",
        )
    ]


def _random_term(rng, diagonal):
    ket_a, ket_b, bra_a, bra_b = (
        complex(*(1.5 * rng.standard_normal(2))) for _ in range(4)
    )
    weight = complex(*rng.standard_normal(2))
    if diagonal:
        return BranchTerm(abs(weight), ket_a, ket_b, ket_a, ket_b)
    return BranchTerm(weight, ket_a, ket_b, bra_a, bra_b)


def _shifted_grid(term, rng):
    grid = QGrid.for_term(term)
    return replace(
        grid,
        center_a=grid.center_a + complex(*rng.standard_normal(2)),
        center_b=grid.center_b + complex(*rng.standard_normal(2)),
    )


# name -> grid for a term; None lets integrate_q_term center its own
PLANE_GRIDS = {
    "default": lambda term, rng: None,
    "shifted-even": _shifted_grid,
    "shifted-odd": lambda term, rng: replace(
        _shifted_grid(term, rng), extent=6.05
    ),
    "custom-odd": lambda term, rng: QGrid(extent=6.05, spacing=0.1),
    "custom-even": lambda term, rng: QGrid(
        extent=4.0, spacing=0.25, center_a=0.5 - 0.25j, center_b=-0.3j
    ),
    "tight-odd": lambda term, rng: QGrid(
        extent=2.1, spacing=0.2, center_a=term.ket_a, center_b=term.bra_b
    ),
    "tight-even": lambda term, rng: QGrid(extent=1.5, spacing=0.25),
    # every plane-A sample underflows: no peak, so the plane is uncovered
    "underflow-even": lambda term, rng: QGrid(center_a=50.0),
}


def _recorded(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = fn(*args)
    return value, [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize(
    "diagonal", [True, False], ids=["diagonal", "off-diagonal"]
)
@pytest.mark.parametrize("kind", list(PLANE_GRIDS))
def test_factored_plane_sums_match_the_2d_sums(kind, diagonal):
    rng = np.random.default_rng(list(PLANE_GRIDS).index(kind) * 2 + diagonal)
    warned = 0
    for _ in range(12):
        term = _random_term(rng, diagonal)
        grid = PLANE_GRIDS[kind](term, rng)
        got, got_warnings = _recorded(integrate_q_term, term, grid)
        want, want_warnings = _recorded(integrate_q_term_2d, term, grid)
        assert abs(got - want) <= 1e-13 * abs(term.weight)
        assert got_warnings == want_warnings
        warned += bool(want_warnings)
    if kind.startswith(("tight", "underflow")):
        assert warned  # the comparison covered the warning text too


@pytest.mark.parametrize("kind", list(PLANE_GRIDS))
def test_factored_edge_ratio_matches_the_2d_profile(kind):
    rng = np.random.default_rng(40 + list(PLANE_GRIDS).index(kind))
    for _ in range(12):
        term = _random_term(rng, diagonal=False)
        grid = PLANE_GRIDS[kind](term, rng) or QGrid.for_term(term)
        assert grid.points_per_axis % 2 == (1 if "odd" in kind else 0)
        for which, ket, bra, center in (
            ("a", term.ket_a, term.bra_a, grid.center_a),
            ("b", term.ket_b, term.bra_b, grid.center_b),
        ):
            ratio = _plane_edge_ratio(center, grid._offsets(), ket, bra)
            want = _edge_ratio(_plane_profile(grid.plane(which), ket, bra))
            assert ratio == pytest.approx(want, rel=1e-12, abs=0.0)
            assert math.isinf(want) == (kind.startswith("underflow") and which == "a")


# the edge-to-peak ratio of a plane centred midway between its labels on
# QGrid()'s offsets, where the profile's magnitude is exp(-x^2) exp(-y^2)
# times a constant
_AXIS_MAGNITUDE = np.exp(-QGrid()._offsets() ** 2)
_CENTRED_PLANE_RATIO = (max(_AXIS_MAGNITUDE[0], _AXIS_MAGNITUDE[-1])
                        / _AXIS_MAGNITUDE.max())


@settings(deadline=None, derandomize=True, max_examples=200)
@given(
    r=st.floats(0.0, 0.99),
    abs_alpha0=st.floats(0.0, 1e8),
    alpha0_phase=st.floats(-math.pi, math.pi),
    phi=st.floats(allow_nan=False, allow_infinity=False),
)
def test_post_selected_planes_have_one_constant_edge_ratio(r, abs_alpha0,
                                                           alpha0_phase, phi):
    # routes 3 and 4 take no coverage check: every plane of every term, at
    # any point of the domain, has the one edge ratio of QGrid()'s offsets,
    # and that ratio is below the boundary threshold
    alpha0 = abs_alpha0 * complex(math.cos(alpha0_phase), math.sin(alpha0_phase))
    kets, bras, centers = _post_selected_planes(
        np.array([alpha0]), np.array([phi]), np.array([r]))
    ratios = _plane_edge_ratio(centers, QGrid()._offsets(), kets, bras)
    assert ratios.shape == (2, 4, 1)
    np.testing.assert_allclose(ratios, _CENTRED_PLANE_RATIO, rtol=1e-12, atol=0.0)
    assert _CENTRED_PLANE_RATIO < _BOUNDARY_RATIO


def test_post_selected_planes_sit_where_for_term_places_them():
    params = ExperimentParams(alpha0=1.7 * np.exp(0.3j), phi=0.8, r=0.4)
    kets, bras, centers = (
        v[..., 0] for v in _post_selected_planes(
            np.array([params.alpha0]), np.array([params.phi]), np.array([params.r])))
    for i, term in enumerate(post_selected_terms(params)):
        grid = QGrid.for_term(term)
        np.testing.assert_allclose(kets[:, i], [term.ket_a, term.ket_b], rtol=1e-15)
        np.testing.assert_allclose(bras[:, i], [term.bra_a, term.bra_b], rtol=1e-15)
        np.testing.assert_allclose(centers[:, i], [grid.center_a, grid.center_b],
                                   rtol=1e-15)


def test_post_selected_integrals_take_the_diagonal_terms_once_bit_for_bit():
    # the diagonal terms' shifts and phase are exact zeros, so one integral
    # on zero labels is each point's own integral, bit for bit: over complex
    # alpha0, alpha0 = 0, R = 0, |alpha0| up to 1e8 and |phi| up to 20, in
    # passes of 1 to 500 points
    rng = np.random.default_rng(20)
    n = 20_000
    mag = np.concatenate([rng.uniform(0.0, 6.0, n // 2),
                          10.0 ** rng.uniform(-3.0, 8.0, n // 2)])
    mag[::50] = 0.0
    alpha0 = mag * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
    alpha0[1::7] = alpha0[1::7].real
    phi = rng.uniform(-20.0, 20.0, n)
    phi[::13] = 0.0
    r = rng.uniform(0.0, 0.99, n)
    r[::11] = 0.0
    start = 0
    for size in [1, 2, 3, 8, 16, 17, *[500] * 40]:
        block = slice(start, start + size)
        start += size
        got = _post_selected_integrals(alpha0[block], phi[block], r[block])
        want = post_selected_integrals_four_terms(alpha0[block], phi[block], r[block])
        assert got.shape == want.shape == (4, min(size, n - block.start))
        assert got.tobytes() == want.tobytes()
    assert start >= n


def test_integrate_q_full_unit_trace():
    # the full Q integrates term by term
    for build in (
        [coherent_product_term(0.0)],
        [coherent_product_term(1.0 - 0.5j, 0.3)],
        initial_cat_terms(2.0, np.pi / 3),
    ):
        total = sum(integrate_q_term(t) for t in build)
        assert total == pytest.approx(1.0, abs=1e-6)


def test_q_marginal_normalization_and_positivity():
    terms = initial_cat_terms(1.5, np.pi / 2)
    grid = QGrid()
    for pts, vals in q_marginal(terms, grid):
        assert pts.shape == vals.shape
        assert float(vals.min()) >= -1e-12
        assert float(vals.sum()) * grid.cell == pytest.approx(1.0, abs=1e-6)


def test_q_marginal_planes_are_q_full_summed_over_the_other_plane():
    bs = BeamSplitter(0.5)
    terms = [beam_split_term(t, bs) for t in initial_cat_terms(1.5, 0.7)]
    grid = QGrid(extent=4.0, spacing=0.25)
    (pts_a, marg_a), (pts_b, marg_b) = q_marginal(terms, grid)
    full = q_full(terms, pts_a[:, :, None, None], pts_b[None, None])
    for marg, axes in ((marg_a, (2, 3)), (marg_b, (0, 1))):
        want = full.sum(axis=axes) * grid.cell
        np.testing.assert_allclose(marg, want, rtol=1e-12,
                                   atol=1e-12 * float(want.max()))


def test_q_marginal_lobes_sit_at_component_labels():
    alpha0, phi = 2.0, np.pi / 2
    terms = initial_cat_terms(alpha0, phi)
    grid = QGrid()
    (pts, vals), _ = q_marginal(terms, grid)
    upper = vals * (pts.imag > 0)
    lower = vals * (pts.imag < 0)
    for half, center in ((upper, 2.0j), (lower, -2.0j)):
        peak = pts.flat[int(np.argmax(half))]
        assert abs(peak - center) <= grid.spacing * math.sqrt(2.0) + 1e-12


@pytest.mark.parametrize("r,alpha0,phi,value", FROZEN_VISIBILITY)
def test_visibility_closed_form_frozen_values(r, alpha0, phi, value):
    assert visibility_closed_form(r, alpha0, phi) == pytest.approx(value, rel=1e-12)


def test_visibility_closed_form_edge_cases():
    assert visibility_closed_form(0.0, 3.0, 1.0) == 1.0
    assert visibility_closed_form(0.4, 2.0, 0.0) == 1.0
    out = visibility_closed_form(np.array([0.1, 0.2]), 1.0, np.pi / 2)
    assert out.shape == (2,)
    # even in r: a sign flip cannot matter
    assert visibility_closed_form(-0.3, 2.0, 1.0) == visibility_closed_form(
        0.3, 2.0, 1.0
    )


def test_visibility_analytic_ignores_alpha0_phase():
    base = contrast_report(ExperimentParams(alpha0=2.0, phi=0.9, r=0.25))
    spun = contrast_report(
        ExperimentParams(alpha0=2.0 * np.exp(1.1j), phi=0.9, r=0.25)
    )
    assert spun.visibility == pytest.approx(base.visibility, rel=1e-15)


def test_interference_integral_magnitude_example():
    # |integral of the (+,-) term| / c^2 equals the closed form; the phase
    # of alpha0 must not matter
    params = ExperimentParams(alpha0=2.0j, phi=np.pi / 4, r=0.3)
    term = post_selected_terms(params)[CROSS]
    cn2 = cat_norm_constant(params.alpha0, params.phi) ** 2
    got = abs(integrate_q_term(term)) / cn2
    assert got == pytest.approx(0.6976763260710304, abs=2e-4)


def test_zero_reflectivity_keeps_full_interference():
    # nothing reaches the second output port, so no which-path record exists
    params = ExperimentParams(alpha0=1.2, phi=0.6, r=0.0)
    term = post_selected_terms(params)[CROSS]
    got = integrate_q_term(term)
    cn2 = cat_norm_constant(params.alpha0, params.phi) ** 2
    assert got == pytest.approx(cn2, rel=1e-9)
