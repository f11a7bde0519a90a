"""Moment propagation checked against direct Fock-space computation."""

import math
import warnings

import numpy as np
import pytest

from catvis import (
    BeamSplitter,
    ContrastReport,
    ExperimentParams,
    QuadratureStats,
    TwoModeState,
    bs_fock_apply,
    cat_fock,
    cat_quadrature_stats,
    contrast_report,
    interference_reduced_a,
    output_quadrature_stats,
    vacuum_fock,
)
from helpers import x_moments


def central_from_raw(raw):
    m1, m2, m3, m4 = raw
    var = m2 - m1 * m1
    c3 = m3 - 3 * m1 * m2 + 2 * m1**3
    c4 = m4 - 4 * m1 * m3 + 6 * m1 * m1 * m2 - 3 * m1**4
    return m1, var, c3, c4


class TestQuadratureStats:
    def test_rejects_negative_variance(self):
        with pytest.raises(ValueError, match="variance"):
            QuadratureStats(mean_x=0.0, var_x=-0.1)

    def test_optional_orders_default_to_none(self):
        stats = QuadratureStats(mean_x=1.0, var_x=0.5)
        assert stats.central_m3 is None and stats.central_m4 is None


class TestOutputStats:
    def test_zero_reflectivity_is_identity(self):
        stats = QuadratureStats(0.7, 0.3, central_m3=-0.05, central_m4=0.4)
        out = output_quadrature_stats(stats, BeamSplitter(0.0))
        assert out == stats

    def test_vacuum_is_a_fixed_point(self):
        vac = QuadratureStats(0.0, 0.25, central_m3=0.0, central_m4=3.0 / 16.0)
        for r in (0.1, 0.5, 0.9):
            out = output_quadrature_stats(vac, BeamSplitter(r))
            assert out.var_x == pytest.approx(0.25, rel=1e-14)
            assert out.central_m4 == pytest.approx(3.0 / 16.0, rel=1e-14)
            assert out.mean_x == 0.0 and out.central_m3 == 0.0

    def test_hand_computed_example(self):
        stats = QuadratureStats(0.5, 0.4, central_m3=0.1, central_m4=0.3)
        out = output_quadrature_stats(stats, BeamSplitter(0.6, 0.8))
        assert out.mean_x == pytest.approx(0.4)
        assert out.var_x == pytest.approx(0.346)
        assert out.central_m3 == pytest.approx(0.8**3 * 0.1)
        assert out.central_m4 == pytest.approx(
            0.8**4 * 0.3 + 6 * 0.64 * 0.4 * 0.09 + 3 * 0.09**2
        )

    def test_none_moments_stay_none(self):
        out = output_quadrature_stats(QuadratureStats(0.5, 0.4), BeamSplitter(0.3))
        assert out.central_m3 is None and out.central_m4 is None


class TestCatStats:
    @pytest.mark.parametrize("alpha0", [0.8, 1.5 + 0.7j, 2.0])
    @pytest.mark.parametrize("phi", [np.pi / 6, np.pi / 4, np.pi / 2])
    def test_matches_fock_quadratures(self, alpha0, phi):
        stats = cat_quadrature_stats(alpha0, phi, order=4)
        state = cat_fock(alpha0, phi)
        m1, var, c3, c4 = central_from_raw(x_moments(state.amplitudes, order=4))
        assert stats.mean_x == pytest.approx(m1, abs=1e-9)
        assert stats.var_x == pytest.approx(var, abs=1e-9)
        assert stats.central_m3 == pytest.approx(c3, abs=1e-9)
        assert stats.central_m4 == pytest.approx(c4, abs=1e-9)

    def test_order_two_skips_higher_moments(self):
        stats = cat_quadrature_stats(1.0, np.pi / 3, order=2)
        assert stats.central_m3 is None and stats.central_m4 is None

    @pytest.mark.parametrize("order", [3, 5])
    def test_unsupported_order(self, order):
        with pytest.raises(ValueError, match="order"):
            cat_quadrature_stats(1.0, 0.5, order=order)

    def test_odd_quadrature_cat_is_centered(self):
        # components at +-i|alpha0| project to x = 0
        stats = cat_quadrature_stats(1.7, np.pi / 2)
        assert stats.mean_x == pytest.approx(0.0, abs=1e-14)
        assert stats.central_m3 == pytest.approx(0.0, abs=1e-13)


def test_propagated_moments_match_fock_pipeline():
    # send the cat through the splitter in Fock space, trace out port B,
    # and compare the reduced-state moments with the propagation formulas
    alpha0, phi, r = 1.2, np.pi / 4, 0.4
    bs = BeamSplitter(r)
    state = TwoModeState.from_product(cat_fock(alpha0, phi), vacuum_fock(18))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = bs_fock_apply(bs, state)
    rho = interference_reduced_a(out, out)
    m1, var, c3, c4 = central_from_raw(x_moments(rho, order=4))

    want = output_quadrature_stats(cat_quadrature_stats(alpha0, phi, order=4), bs)
    assert want.mean_x == pytest.approx(m1, abs=1e-8)
    assert want.var_x == pytest.approx(var, abs=1e-8)
    assert want.central_m3 == pytest.approx(c3, abs=1e-8)
    assert want.central_m4 == pytest.approx(c4, abs=1e-8)


class TestContrastReport:
    def test_as_dict_keys(self):
        rep = ContrastReport(t=0.9, mean_ratio=0.9, var_out=0.25, visibility=0.5)
        assert rep.as_dict() == {
            "T": 0.9,
            "mean_ratio": 0.9,
            "var_out": 0.25,
            "visibility": 0.5,
        }

    def test_weak_tap_on_large_cat(self):
        # the moment ledger moves half a percent; the visibility drops to e^-8
        params = ExperimentParams(alpha0=20.0, phi=np.pi / 2, r=0.1)
        rep = contrast_report(params)
        assert rep.mean_ratio == pytest.approx(math.sqrt(0.99), rel=1e-15)
        assert rep.t == rep.mean_ratio
        assert rep.var_out == pytest.approx(0.25, rel=1e-12)
        assert rep.visibility == pytest.approx(math.exp(-8.0), rel=1e-12)
