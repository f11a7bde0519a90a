"""Moment propagation checked against direct Fock-space computation."""

import math
import warnings

import numpy as np
import pytest

from catvis import (
    BeamSplitter,
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
from helpers import x_mean_var


class TestQuadratureStats:
    def test_rejects_negative_variance(self):
        with pytest.raises(ValueError, match="variance"):
            QuadratureStats(mean_x=0.0, var_x=-0.1)


class TestOutputStats:
    def test_zero_reflectivity_is_identity(self):
        stats = QuadratureStats(0.7, 0.3)
        out = output_quadrature_stats(stats, BeamSplitter(0.0))
        assert out == stats

    def test_vacuum_is_a_fixed_point(self):
        vac = QuadratureStats(0.0, 0.25)
        for r in (0.1, 0.5, 0.9):
            out = output_quadrature_stats(vac, BeamSplitter(r))
            assert out.var_x == pytest.approx(0.25, rel=1e-14)
            assert out.mean_x == 0.0

    def test_hand_computed_example(self):
        stats = QuadratureStats(0.5, 0.4)
        out = output_quadrature_stats(stats, BeamSplitter(0.6))
        assert out.mean_x == pytest.approx(0.4)
        assert out.var_x == pytest.approx(0.346)


class TestCatStats:
    @pytest.mark.parametrize("alpha0", [0.8, 1.5 + 0.7j, 2.0])
    @pytest.mark.parametrize("phi", [np.pi / 6, np.pi / 4, np.pi / 2])
    def test_matches_fock_quadratures(self, alpha0, phi):
        stats = cat_quadrature_stats(alpha0, phi)
        m1, var = x_mean_var(cat_fock(alpha0, phi).amplitudes)
        assert stats.mean_x == pytest.approx(m1, abs=1e-9)
        assert stats.var_x == pytest.approx(var, abs=1e-9)

    def test_odd_quadrature_cat_is_centered(self):
        # components at +-i|alpha0| project to x = 0
        stats = cat_quadrature_stats(1.7, np.pi / 2)
        assert stats.mean_x == pytest.approx(0.0, abs=1e-14)


def test_propagated_moments_match_fock_pipeline():
    # send the cat through the splitter in Fock space, trace out port B,
    # and compare the reduced-state moments with the propagation formulas
    alpha0, phi, r = 1.2, np.pi / 4, 0.4
    bs = BeamSplitter(r)
    state = TwoModeState.from_product(cat_fock(alpha0, phi), vacuum_fock(18))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = bs_fock_apply(bs, state)
    m1, var = x_mean_var(interference_reduced_a(out, out))

    want = output_quadrature_stats(cat_quadrature_stats(alpha0, phi), bs)
    assert want.mean_x == pytest.approx(m1, abs=1e-8)
    assert want.var_x == pytest.approx(var, abs=1e-8)


class TestContrastReport:
    def test_weak_tap_on_large_cat(self):
        # the moment ledger moves half a percent; the visibility drops to e^-8
        params = ExperimentParams(alpha0=20.0, phi=np.pi / 2, r=0.1)
        rep = contrast_report(params)
        assert rep.mean_ratio == pytest.approx(math.sqrt(0.99), rel=1e-15)
        assert rep.t == rep.mean_ratio
        assert rep.var_out == pytest.approx(0.25, rel=1e-12)
        assert rep.visibility == pytest.approx(math.exp(-8.0), rel=1e-12)
