"""Quadrature moments checked against direct Fock-space computation and
against 50-digit arithmetic."""

import cmath
import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from catvis import (
    BeamSplitter,
    ExperimentParams,
    bs_fock_apply,
    cat_fock,
    cat_quadrature_stats,
    contrast_report,
    environment_overlap_oracle,
    interference_reduced_a,
)
from catvis.experiment import sweep
from catvis.heisenberg import _closed_form_columns
from helpers import x_mean_var


class TestOutputStats:
    def test_zero_reflectivity_is_identity(self):
        for alpha0, phi in ((0.7, 0.3), (2.0 + 1.5j, 1.1), (20.0, 0.01)):
            _, var_x = cat_quadrature_stats(alpha0, phi)
            rep = contrast_report(ExperimentParams(alpha0=alpha0, phi=phi, r=0.0))
            assert rep.var_out == var_x

    def test_vacuum_is_a_fixed_point(self):
        for r in (0.0, 0.1, 0.5, 0.9, 0.99):
            rep = contrast_report(ExperimentParams(alpha0=0.0, phi=0.7, r=r))
            assert rep.var_out == pytest.approx(0.25, abs=1e-16)

    def test_hand_computed_example(self):
        # the even cat along the p axis is squeezed in x:
        # var_x = 1/4 - |alpha0|^2 / (e^{2 |alpha0|^2} + 1), so at |alpha0| = 1
        # and r = 0.6, var_out = 0.64 var_x + 0.36/4
        rep = contrast_report(ExperimentParams(alpha0=1.0, phi=np.pi / 2, r=0.6))
        var_x = 0.25 - 1.0 / (math.exp(2.0) + 1.0)
        assert rep.mean_ratio == pytest.approx(0.8, rel=1e-15)
        assert rep.var_out == pytest.approx(0.64 * var_x + 0.09, rel=1e-14)


def _exact_moments(alpha0: complex, phi: float):
    """Mean and variance of x for the cat, summed over the four outer
    products with raw (uncentered) moments at 50 digits."""
    with mpmath.workdps(50):
        a = mpmath.mpc(alpha0.real, alpha0.imag)
        comps = (a * mpmath.exp(1j * mpmath.mpf(phi)),
                 a * mpmath.exp(-1j * mpmath.mpf(phi)))

        def overlap(u, v):
            return mpmath.exp(-abs(u) ** 2 / 2 - abs(v) ** 2 / 2 + mpmath.conj(u) * v)

        n2 = 1 / (2 + 2 * mpmath.re(overlap(*comps)))
        m1 = m2 = 0
        for u in comps:
            for v in comps:
                s = mpmath.conj(u) + v
                m1 += n2 * overlap(u, v) * s / 2
                m2 += n2 * overlap(u, v) * (s * s + 1) / 4
        return mpmath.re(m1), mpmath.re(m2) - mpmath.re(m1) ** 2


@settings(deadline=None, derandomize=True, max_examples=300)
@given(
    abs_alpha0=st.floats(0.0, 20.0),
    arg=st.floats(-math.pi, math.pi),
    phi=st.floats(0.0, math.pi / 2, exclude_min=True),
    r=st.floats(0.0, 0.99),
)
def test_moments_match_fifty_digit_arithmetic(abs_alpha0, arg, phi, r):
    alpha0 = abs_alpha0 * cmath.exp(1j * arg)
    mean_x, _ = cat_quadrature_stats(alpha0, phi)
    rep = contrast_report(ExperimentParams(alpha0=alpha0, phi=phi, r=r))
    want_mean, want_var = _exact_moments(alpha0, phi)
    with mpmath.workdps(50):
        want_var_out = (1 - mpmath.mpf(r) ** 2) * want_var + mpmath.mpf(r) ** 2 / 4
        assert abs(rep.var_out - want_var_out) <= 1e-14 * want_var_out
        assert abs(mean_x - want_mean) <= 1e-14 * max(1.0, abs(mean_x))


@settings(deadline=None, derandomize=True, max_examples=300)
@given(
    abs_alpha0=st.one_of(st.just(1e8), st.floats(1e7, 1e8), st.floats(0.0, 1e8)),
    arg=st.floats(-math.pi, math.pi),
    phi=st.one_of(st.floats(0.0, 1e-3), st.floats(-1e300, 1e300)),
    r=st.floats(0.0, 1.0, exclude_max=True),
)
def test_closed_form_columns_stay_finite_up_to_the_alpha0_bound(abs_alpha0, arg,
                                                               phi, r):
    # ExperimentParams refuses |alpha0| past 1e8 so that no column of an
    # accepted point overflows or goes invalid
    alpha0 = abs_alpha0 * cmath.exp(1j * arg)
    assume(np.abs(alpha0) <= 1e8)
    params = ExperimentParams(alpha0=alpha0, phi=phi, r=r)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        cols = _closed_form_columns(params.r, params.alpha0, params.phi)
    assert all(math.isfinite(c) for c in cols)


@pytest.mark.parametrize("phi", [2.0**1023, -(2.0**1023), sys.float_info.max,
                                 -sys.float_info.max])
def test_moments_stay_finite_where_two_phi_overflows(phi):
    # 2 phi overflows here, so sin(2 phi) comes from 2 sin(phi) cos(phi)
    alpha0, r = 1.5 + 0.5j, 0.3
    with np.errstate(over="raise", invalid="raise"):
        mean_x, var_x = cat_quadrature_stats(alpha0, phi)
        cols = _closed_form_columns(r, alpha0, phi)
    want_mean, want_var = _exact_moments(alpha0, phi)
    assert abs(mean_x - want_mean) <= 1e-14 * max(1.0, abs(mean_x))
    assert abs(var_x - want_var) <= 1e-14 * want_var
    assert all(math.isfinite(c) for c in cols)
    assert cols[3] == contrast_report(ExperimentParams(alpha0, phi, r)).var_out


@pytest.mark.parametrize("r", [0.5, 0.86, 0.99])
@pytest.mark.parametrize("phi", [1e-300, 1e-10, 1e-6])
@pytest.mark.parametrize("abs_alpha0", [4e4, 1e6, 1e8])
def test_oracle_keeps_its_contract_at_large_alpha0(r, phi, abs_alpha0):
    # -(|a|^2 + |b|^2)/2 + conj(a) b cancels to -|a - b|^2/2 with an error of
    # several ulps of |r alpha0|^2, which drifted past 1e-6 from |alpha0| ~ 4e4
    ((*_, nu, oracle, _, _, _, _, _, error),) = sweep([r], [abs_alpha0], [phi])
    assert error is None
    assert abs(oracle - nu) <= 1e-6
    params = ExperimentParams(alpha0=abs_alpha0, phi=phi, r=r)
    assert abs(environment_overlap_oracle(params)) == oracle


class TestCatStats:
    @pytest.mark.parametrize("alpha0", [0.8, 1.5 + 0.7j, 2.0])
    @pytest.mark.parametrize("phi", [np.pi / 6, np.pi / 4, np.pi / 2])
    def test_matches_fock_quadratures(self, alpha0, phi):
        mean_x, var_x = cat_quadrature_stats(alpha0, phi)
        m1, var = x_mean_var(cat_fock(alpha0, phi).amplitudes)
        assert mean_x == pytest.approx(m1, abs=1e-9)
        assert var_x == pytest.approx(var, abs=1e-9)

    def test_odd_quadrature_cat_is_centered(self):
        # components at +-i|alpha0| project to x = 0
        mean_x, _ = cat_quadrature_stats(1.7, np.pi / 2)
        assert mean_x == pytest.approx(0.0, abs=1e-14)


def test_propagated_moments_match_fock_pipeline():
    # send the cat through the splitter in Fock space, trace out port B,
    # and compare the reduced-state moments with the propagation formulas
    alpha0, phi, r = 1.2, np.pi / 4, 0.4
    bs = BeamSplitter(r)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = bs_fock_apply(bs, cat_fock(alpha0, phi), 18)
    m1, var = x_mean_var(interference_reduced_a(out, out))

    # the output mean is t times the input mean
    mean_x, _ = cat_quadrature_stats(alpha0, phi)
    rep = contrast_report(ExperimentParams(alpha0=alpha0, phi=phi, r=r))
    assert rep.mean_ratio * mean_x == pytest.approx(m1, abs=1e-8)
    assert rep.var_out == pytest.approx(var, abs=1e-8)


class TestContrastReport:
    def test_weak_tap_on_large_cat(self):
        # the moment ledger moves half a percent; the visibility drops to e^-8
        params = ExperimentParams(alpha0=20.0, phi=np.pi / 2, r=0.1)
        rep = contrast_report(params)
        assert rep.mean_ratio == pytest.approx(math.sqrt(0.99), rel=1e-15)
        assert rep.var_out == pytest.approx(0.25, rel=1e-12)
        assert rep.visibility == pytest.approx(math.exp(-8.0), rel=1e-12)
