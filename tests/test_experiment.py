"""End-to-end visibility routes and their mutual agreement."""

import cmath
import contextlib
import io
import math
import sys
import warnings
from dataclasses import replace
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catvis import (
    CoverageWarning,
    ExperimentParams,
    FringeScan,
    OverlapWarning,
    QGrid,
    TruncationError,
    bs_fock_apply,
    cat_norm_constant,
    coherent_fock,
    contrast_report,
    environment_overlap_oracle,
    fit_fringe,
    fock_brute_force_visibility,
    fringe_scan,
    integrate_q_term,
    q_integral_visibility,
    sweep,
    visibility_closed_form,
)
from catvis import cli, experiment
from catvis.cli import main
from catvis.experiment import _FOCK_BLOCK_POINTS, _FRINGE_BLOCK, _SWEEP_KEYS
from catvis.fock import _coherent_rows, default_cutoff
from catvis.operators import BeamSplitter, _sector_magnitudes, _split_rows
from helpers import post_selected_terms, stock_showwarning, sweep_columns_per_row

TWO_PI = 2.0 * math.pi


class TestExperimentParams:
    def test_derived_quantities(self):
        params = ExperimentParams(alpha0=2.0, phi=0.7, r=0.6)
        assert params.beam_splitter.t == pytest.approx(0.8)

    def test_default_cutoffs_track_the_split_amplitudes(self):
        params = ExperimentParams(alpha0=3.0, phi=0.5, r=0.5)
        assert params.resolved_cutoff_a == default_cutoff(3.0)
        assert params.resolved_cutoff_b == default_cutoff(1.5)
        explicit = ExperimentParams(alpha0=3.0, phi=0.5, r=0.5, cutoff_b=40)
        assert explicit.resolved_cutoff_b == 40

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"r": 1.5},
            {"r": -0.1},
            {"alpha0": float("nan")},
            {"phi": float("inf")},
            {"cutoff_a": 0},
        ],
    )
    def test_rejects_bad_inputs(self, kwargs):
        base = {"alpha0": 1.0, "phi": 0.5, "r": 0.1}
        base.update(kwargs)
        with pytest.raises(ValueError):
            ExperimentParams(**base)


class TestOracle:
    def test_magnitude_is_the_closed_form(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            r = rng.uniform(0.0, 0.9)
            a0 = rng.uniform(0.2, 3.0)
            spin = np.exp(1j * rng.uniform(0.0, TWO_PI))
            phi = rng.uniform(0.0, np.pi)
            params = ExperimentParams(alpha0=a0 * spin, phi=phi, r=r)
            omega = environment_overlap_oracle(params)
            assert abs(omega) == pytest.approx(
                visibility_closed_form(r, a0, phi), rel=1e-14
            )
            delta = r * r * a0 * a0 * math.sin(2.0 * phi)
            assert abs(np.angle(omega * np.exp(-1j * delta))) < 1e-9

    def test_zero_reflectivity_gives_unity(self):
        params = ExperimentParams(alpha0=5.0, phi=1.0, r=0.0)
        assert environment_overlap_oracle(params) == pytest.approx(1.0 + 0.0j)


class TestQIntegralRoute:
    def test_example_point(self):
        params = ExperimentParams(alpha0=2.0, phi=np.pi / 4, r=0.3)
        with pytest.warns(OverlapWarning):
            nu = q_integral_visibility(params)
        assert nu == pytest.approx(0.6976763260710304, abs=2e-4)

    def test_large_components_do_not_warn(self):
        params = ExperimentParams(alpha0=3.0, phi=np.pi / 2, r=0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", OverlapWarning)
            nu = q_integral_visibility(params)
        assert nu == pytest.approx(
            visibility_closed_form(params.r, abs(params.alpha0), params.phi), abs=2e-4
        )

    def test_off_support_grid_warns_that_both_planes_underflow(self):
        params = ExperimentParams(alpha0=3.0, phi=np.pi / 2, r=0.2)
        grid = QGrid(center_a=50.0 + 0.0j, center_b=50.0 + 0.0j)
        for term in post_selected_terms(params):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert integrate_q_term(term, grid) == 0
            assert [(w.category, str(w.message)) for w in caught] == [
                (CoverageWarning, f"plane {p} samples all underflow, so the "
                 "grid misses the integrand; widen the grid extent")
                for p in "AB"
            ]


class TestDomainCorner:
    # |alpha0| = 20 at phi = pi/2 puts the B-plane labels of the interference
    # term 2 R |alpha0| apart, the widest split the advertised domain allows;
    # overflow or NaN anywhere in the quadrature routes must raise here.
    # Underflow in the Gaussian tails is expected and left alone.
    @pytest.mark.parametrize("r", [0.1, 0.99])
    def test_quadrature_routes_neither_overflow_nor_go_invalid(self, r):
        params = ExperimentParams(alpha0=20.0, phi=np.pi / 2, r=r)
        want = visibility_closed_form(params.r, abs(params.alpha0), params.phi)
        with np.errstate(over="raise", invalid="raise"):
            fit = fit_fringe(fringe_scan(params))
            nu_q = q_integral_visibility(params)
        assert abs(fit.visibility - want) <= 2e-4
        assert abs(nu_q - want) <= 2e-4


class TestFringeScan:
    def test_uniform_theta_coverage(self):
        params = ExperimentParams(alpha0=3.0, phi=np.pi / 2, r=0.3)
        scan = fringe_scan(params, n_theta=16)
        assert scan.thetas.size == 16
        np.testing.assert_allclose(
            scan.thetas, np.linspace(0.0, TWO_PI, 16, endpoint=False)
        )
        assert float(scan.rates.min()) >= 0.0

    def test_too_few_points(self):
        params = ExperimentParams(alpha0=3.0, phi=np.pi / 2, r=0.3)
        with pytest.raises(ValueError, match="n_theta"):
            fringe_scan(params, n_theta=7)

    def test_small_cat_warns_about_component_overlap(self):
        params = ExperimentParams(alpha0=0.5, phi=np.pi / 2, r=0.3)
        with pytest.warns(OverlapWarning):
            fringe_scan(params)

    def test_well_separated_cat_is_silent(self):
        params = ExperimentParams(alpha0=3.0, phi=np.pi / 2, r=0.3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fringe_scan(params)
        assert not caught

    def test_tiny_negative_rates_clip_to_zero(self):
        scan = FringeScan(
            thetas=np.array([0.0, 1.0, 2.0]),
            rates=np.array([1.0, -1e-12, 0.5]),
        )
        assert scan.rates[1] == 0.0

    def test_large_negative_rates_raise(self):
        with pytest.raises(ValueError, match="rate"):
            FringeScan(thetas=np.array([0.0, 1.0]), rates=np.array([1.0, -1.0]))

    @pytest.mark.parametrize(
        "thetas,rates",
        [
            (np.zeros((2, 2)), np.zeros((2, 2))),
            (np.array([0.0, 1.0]), np.array([0.0])),
            (np.array([0.0, float("nan")]), np.array([0.0, 0.0])),
        ],
    )
    def test_rejects_malformed_scans(self, thetas, rates):
        with pytest.raises(ValueError):
            FringeScan(thetas=thetas, rates=rates)


class TestFringeFit:
    def test_recovers_synthetic_parameters(self):
        thetas = np.linspace(0.0, TWO_PI, 32, endpoint=False)
        rates = 0.4 + 0.1 * np.cos(thetas - 0.3)
        fit = fit_fringe(FringeScan(thetas=thetas, rates=rates))
        assert fit.offset == pytest.approx(0.4, rel=1e-12)
        assert fit.amplitude == pytest.approx(0.1, rel=1e-12)
        assert fit.phase == pytest.approx(0.3, rel=1e-10)
        assert fit.visibility == pytest.approx(0.25, rel=1e-12)
        assert fit.residual_rms < 1e-14
        assert fit.raw_visibility <= fit.visibility + 1e-12
        assert fit.period == pytest.approx(TWO_PI, rel=1e-12)

    def test_double_frequency_shows_in_period(self):
        thetas = np.linspace(0.0, TWO_PI, 32, endpoint=False)
        rates = 0.4 + 0.1 * np.cos(2.0 * (thetas - 0.1))
        fit = fit_fringe(FringeScan(thetas=thetas, rates=rates))
        assert fit.period == pytest.approx(math.pi, rel=1e-12)
        assert fit.amplitude < 1e-12

    def test_nonuniform_scan_has_no_period(self):
        frac = np.linspace(0.0, 1.0, 17)
        thetas = TWO_PI * frac * frac
        rates = 0.4 + 0.1 * np.cos(thetas)
        fit = fit_fringe(FringeScan(thetas=thetas, rates=rates))
        assert fit.visibility == pytest.approx(0.25, rel=1e-9)
        assert math.isnan(fit.period)

    def test_short_span_rejected(self):
        thetas = np.linspace(0.0, math.pi, 16)
        rates = 0.4 + 0.1 * np.cos(thetas)
        with pytest.raises(ValueError, match="span"):
            fit_fringe(FringeScan(thetas=thetas, rates=rates))

    def test_dark_scan_rejected(self):
        thetas = np.linspace(0.0, TWO_PI, 16, endpoint=False)
        with pytest.raises(ValueError, match="offset"):
            fit_fringe(FringeScan(thetas=thetas, rates=np.zeros(16)))


class TestFringePhysics:
    def test_fit_matches_the_closed_form_fringe(self):
        params = ExperimentParams(alpha0=1.5, phi=np.pi / 4, r=0.3)
        with pytest.warns(OverlapWarning):
            scan = fringe_scan(params, n_theta=32)
        fit = fit_fringe(scan)
        cn2 = cat_norm_constant(params.alpha0, params.phi) ** 2
        nu = visibility_closed_form(params.r, abs(params.alpha0), params.phi)
        delta = 0.09 * 2.25 * math.sin(np.pi / 2)
        assert fit.offset == pytest.approx(0.5 * cn2, rel=1e-9)
        assert fit.phase == pytest.approx(delta, abs=1e-9)
        assert fit.amplitude == pytest.approx(0.5 * cn2 * nu, rel=1e-6)
        assert fit.visibility == pytest.approx(nu, abs=2e-4)
        assert fit.residual_rms < 1e-8 * fit.amplitude

    def test_phase_is_nan_when_the_fringe_is_below_its_misfit(self):
        # visibility 2.3e-16: the fitted cosine is rounding noise, smaller
        # than the residual, so it carries no phase
        params = ExperimentParams(alpha0=5.4286, phi=1.5149, r=0.7802)
        fit = fit_fringe(fringe_scan(params))
        assert fit.amplitude <= fit.residual_rms
        assert math.isnan(fit.phase)
        # visibility 7.7e-16, just past the cut: a phase is reported, off the
        # oracle's argument by no more than residual / amplitude
        near = replace(params, alpha0=5.35)
        fit = fit_fringe(fringe_scan(near))
        assert 1.0 < fit.amplitude / fit.residual_rms < 3.0
        want = cmath.phase(environment_overlap_oracle(near))
        assert abs(fit.phase - want) <= fit.residual_rms / fit.amplitude
        # visibility 3.7e-9 still resolves: the phase is the oracle's argument
        params = replace(params, alpha0=4.0)
        fit = fit_fringe(fringe_scan(params))
        assert fit.amplitude > fit.residual_rms
        want = cmath.phase(environment_overlap_oracle(params))
        assert fit.phase == pytest.approx(want, abs=1e-6)

    def test_symmetric_fringe_for_odd_cat(self):
        # sin(2 phi) = 0 at phi = pi/2, so the fringe has no offset phase
        params = ExperimentParams(alpha0=3.0, phi=np.pi / 2, r=0.3)
        rates = fringe_scan(params, n_theta=16).rates
        np.testing.assert_allclose(rates[1:], rates[1:][::-1], rtol=1e-10)


class TestBruteForce:
    def test_zero_reflectivity(self):
        params = ExperimentParams(alpha0=3.0, phi=np.pi / 2, r=0.0)
        assert fock_brute_force_visibility(params) == pytest.approx(1.0, abs=1e-10)

    def test_half_reflectivity_unit_cat(self):
        params = ExperimentParams(
            alpha0=1j, phi=np.pi / 2, r=0.5, cutoff_a=30, cutoff_b=20
        )
        with pytest.warns(OverlapWarning):
            nu = fock_brute_force_visibility(params)
        assert nu == pytest.approx(math.exp(-0.5), abs=1e-6)

    def test_rotated_cat_amplitude(self):
        params = ExperimentParams(
            alpha0=2.0 * np.exp(1j * np.pi / 3), phi=np.pi / 4, r=0.2
        )
        with pytest.warns(OverlapWarning):
            nu = fock_brute_force_visibility(params)
        assert nu == pytest.approx(math.exp(-0.16), abs=1e-6)

    def test_matches_oracle_when_components_are_separated(self):
        params = ExperimentParams(alpha0=3.0, phi=np.pi / 2, r=0.4)
        with warnings.catch_warnings():
            warnings.simplefilter("error", OverlapWarning)
            nu = fock_brute_force_visibility(params)
        assert nu == pytest.approx(abs(environment_overlap_oracle(params)), abs=1e-8)

    def test_large_cat_runs_at_default_cutoffs(self):
        # the headline point: default cutoffs (570, 30) discard at most
        # 7e-16 of each component, and explicit (650, 40) agree
        params = ExperimentParams(alpha0=20.0, phi=np.pi / 2, r=0.1)
        assert (params.resolved_cutoff_a, params.resolved_cutoff_b) == (570, 30)
        nu = fock_brute_force_visibility(params)
        assert nu == pytest.approx(math.exp(-8.0), rel=1e-11)
        forced = replace(params, cutoff_a=650, cutoff_b=40)
        assert fock_brute_force_visibility(forced) == pytest.approx(nu, rel=1e-11)

    @pytest.mark.parametrize("r,cutoff_b", [(0.95, 187), (0.99, 198)])
    def test_high_reflectivity_large_cat(self, r, cutoff_b):
        # points where the retired exchange-series splitter once ended early
        # on its subnormal intermediate state and leaked everything
        params = ExperimentParams(
            alpha0=10.0, phi=0.7, r=r, cutoff_a=240, cutoff_b=cutoff_b
        )
        nu = fock_brute_force_visibility(params)
        assert nu == pytest.approx(visibility_closed_form(r, 10.0, 0.7), abs=1e-12)

    def test_starved_cutoff_raises_with_retry_advice(self):
        params = ExperimentParams(alpha0=2.0, phi=np.pi / 4, r=0.5, cutoff_b=4)
        with pytest.warns(OverlapWarning):
            with pytest.raises(TruncationError, match=r"retry with cutoff_b >= 13$"):
                fock_brute_force_visibility(params)

    def test_refuses_every_leak_above_the_threshold(self):
        # at cutoff_b 12 each branch leaks 8.3e-10, above the one leakage
        # threshold 1e-10; the splitter's refusal reaches the caller as is
        params = ExperimentParams(alpha0=2.0, phi=np.pi / 4, r=0.5, cutoff_b=12)
        mode = coherent_fock(np.exp(1j * params.phi) * params.alpha0,
                             cutoff=params.resolved_cutoff_a)
        message = (r"^splitter propagation leaked 8\.316e-10 probability at "
                   r"cutoffs \(30, 12\); retry with cutoff_b >= 13$")
        with pytest.raises(TruncationError, match=message):
            bs_fock_apply(params.beam_splitter, mode, 12)
        with pytest.warns(OverlapWarning):
            with pytest.raises(TruncationError, match=message):
                fock_brute_force_visibility(params)

    @pytest.mark.parametrize("kwargs", [
        dict(alpha0=5.0, phi=1.0, r=0.3, cutoff_a=60),  # tail guard
        dict(alpha0=2.0, phi=np.pi / 4, r=0.5, cutoff_b=4),  # splitter leak
    ])
    def test_both_refusals_are_truncation_errors(self, kwargs):
        # one exception type, and a ValueError, so callers catch ValueError
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OverlapWarning)
            with pytest.raises(TruncationError) as exc:
                fock_brute_force_visibility(ExperimentParams(**kwargs))
        assert isinstance(exc.value, ValueError)

    @pytest.mark.parametrize("alpha0,r,cutoff_b", [
        (2.0, 0.5, 4), (2.0, 0.5, 11), (6.0, 0.9, 10), (12.0, 0.3, 8),
    ])
    def test_suggested_cutoff_b_is_the_smallest_that_succeeds(
        self, alpha0, r, cutoff_b
    ):
        # mode A never gains photons, so the advice names cutoff_b alone
        params = ExperimentParams(
            alpha0=alpha0, phi=np.pi / 4, r=r, cutoff_b=cutoff_b,
            cutoff_a=math.ceil(alpha0 * alpha0 + 12 * alpha0 + 20),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OverlapWarning)
            with pytest.raises(TruncationError) as exc:
                fock_brute_force_visibility(params)
            need = int(str(exc.value).rsplit(">= ", 1)[1])
            assert "cutoff_a" not in str(exc.value).split("retry")[1]
            with pytest.raises(TruncationError):
                fock_brute_force_visibility(replace(params, cutoff_b=need - 1))
            nu = fock_brute_force_visibility(replace(params, cutoff_b=need))
        assert nu == pytest.approx(
            visibility_closed_form(r, alpha0, np.pi / 4), abs=1e-6
        )


class TestBruteForceAmplitudeCap:
    # 2**24 amplitudes, the largest cutoff_a * cutoff_b the brute force holds
    CAP = "the cap is 16777216 (268 MB)"

    class Allocated(Exception):
        pass

    @pytest.fixture
    def no_allocation(self, monkeypatch):
        """Fail the first amplitude array the brute-force kernel would build."""
        def refuse(*args, **kwargs):
            raise self.Allocated
        monkeypatch.setattr("catvis.experiment._coherent_rows", refuse)

    @pytest.mark.parametrize("cutoff_a,cutoff_b", [
        (2**12 + 1, 2**12), (2**24 + 1, 1), (1, 2**24 + 1), (10**9, 10**9),
    ])
    def test_refused_before_allocating(self, no_allocation, cutoff_a, cutoff_b):
        params = ExperimentParams(alpha0=3.0, phi=0.9, r=0.3,
                                  cutoff_a=cutoff_a, cutoff_b=cutoff_b)
        with pytest.raises(ValueError) as exc:
            fock_brute_force_visibility(params)
        assert not isinstance(exc.value, TruncationError)
        assert str(exc.value) == (
            f"cutoffs ({cutoff_a}, {cutoff_b}) need {cutoff_a * cutoff_b:.3g} "
            f"amplitudes; {self.CAP}")

    @pytest.mark.parametrize("cutoff_a,cutoff_b", [(2**12, 2**12), (2**24, 1)])
    def test_cap_itself_is_allowed(self, no_allocation, cutoff_a, cutoff_b):
        params = ExperimentParams(alpha0=3.0, phi=0.9, r=0.3,
                                  cutoff_a=cutoff_a, cutoff_b=cutoff_b)
        with pytest.raises(self.Allocated):
            fock_brute_force_visibility(params)

    @pytest.mark.parametrize("alpha0", [1e4, 1e8])
    def test_default_cutoffs_of_a_huge_cat(self, no_allocation, alpha0):
        params = ExperimentParams(alpha0=alpha0, phi=0.9, r=0.3)
        na, nb = default_cutoff(alpha0), default_cutoff(0.3 * alpha0)
        with pytest.raises(ValueError, match=rf"^cutoffs \({na}, {nb}\) need "):
            fock_brute_force_visibility(params)

    def test_sweep_row_carries_the_refusal(self):
        rows = _records(sweep([0.3], [3.0, 1e8], [np.pi / 2], include_brute=True))
        assert rows[0]["error"] is None and rows[0]["nu_brute"] is not None
        assert rows[1]["error"].endswith(self.CAP)
        assert rows[1]["nu_brute"] is None
        assert rows[1]["nu_analytic"] == visibility_closed_form(0.3, 1e8, np.pi / 2)


class TestBruteForceStart:
    # exp(-|alpha0|^2/2), where every coherent vector starts, is a normal
    # float up to |alpha0| = 37.6403
    START = "the largest at which the Fock route can start"

    def test_bound_is_where_the_vacuum_amplitude_stays_normal(self):
        bound = experiment._MAX_FOCK_ALPHA0
        assert math.exp(-0.5 * bound * bound) >= sys.float_info.min
        limit = math.sqrt(-2.0 * math.log(sys.float_info.min))
        assert 0.0 < limit - bound < 1e-3

    @pytest.mark.parametrize("alpha0", [37.65, 38.0, 40.0, 40.0j])
    def test_refused_before_allocating(self, monkeypatch, alpha0):
        def refuse(*args, **kwargs):
            raise AssertionError("built a coherent vector")
        monkeypatch.setattr("catvis.experiment._coherent_rows", refuse)
        params = ExperimentParams(alpha0=alpha0, phi=1.0, r=0.1)
        with pytest.raises(ValueError) as exc:
            fock_brute_force_visibility(params)
        assert not isinstance(exc.value, TruncationError)
        assert self.START in str(exc.value)
        assert str(exc.value).startswith(f"|alpha0| = {abs(alpha0):.6g} is past 37.64")

    def test_bound_itself_runs(self):
        params = ExperimentParams(alpha0=37.64, phi=1.0, r=0.1)
        assert fock_brute_force_visibility(params) == pytest.approx(
            visibility_closed_form(0.1, 37.64, 1.0), abs=1e-12)

    def test_sweep_rows_on_both_sides(self):
        rows = _records(sweep([0.1], [37.64, 37.65, 40.0], [1.0], include_brute=True))
        assert rows[0]["error"] is None and rows[0]["nu_brute"] is not None
        for row in rows[1:]:
            assert self.START in row["error"] and row["nu_brute"] is None
            assert row["nu_analytic"] == visibility_closed_form(0.1, row["abs_alpha0"], 1.0)


@settings(deadline=None)
@given(
    r=st.floats(0.0, 0.99),
    a=st.floats(0.0, 20.0),
    phi=st.floats(0.0, math.pi / 2, exclude_min=True),
)
def test_brute_force_matches_the_closed_form_over_the_domain(r, a, phi):
    # explicit cutoffs above the defaults; the five-route test below holds
    # the defaults
    params = ExperimentParams(
        alpha0=a, phi=phi, r=r, cutoff_a=math.ceil(a * a + 12 * a + 20),
        cutoff_b=default_cutoff(r * a) + 10,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OverlapWarning)
        nu = fock_brute_force_visibility(params)
    assert abs(nu - visibility_closed_form(r, a, phi)) <= 1e-13


def _records(rows):
    """Sweep rows, tuples of cells, as dicts keyed through ``_SWEEP_KEYS``."""
    assert all(type(row) is tuple and len(row) == len(_SWEEP_KEYS) for row in rows)
    return [dict(zip(_SWEEP_KEYS, row)) for row in rows]


class TestSweep:
    def test_grid_order_and_columns(self):
        rows = _records(sweep([0.1, 0.2], [1.0, 2.0], [np.pi / 6, np.pi / 2]))
        assert len(rows) == 8
        coords = [(row["R"], row["abs_alpha0"], row["phi"]) for row in rows]
        assert coords == sorted(coords)
        for row in rows:
            assert tuple(row) == _SWEEP_KEYS == (
                "R",
                "abs_alpha0",
                "phi",
                "nu_analytic",
                "nu_oracle",
                "nu_brute",
                "nu_fringe",
                "T",
                "mean_ratio",
                "var_out",
                "error",
            )
            assert row["error"] is None
            assert row["nu_brute"] is None and row["nu_fringe"] is None
            assert row["nu_analytic"] == pytest.approx(
                visibility_closed_form(row["R"], row["abs_alpha0"], row["phi"]),
                rel=1e-14,
            )
            assert row["nu_oracle"] == pytest.approx(row["nu_analytic"], rel=1e-12)
            assert row["T"] == pytest.approx(math.sqrt(1.0 - row["R"] ** 2))
            assert row["mean_ratio"] == row["T"]

    def test_bad_row_is_recorded_not_raised(self):
        rows = _records(sweep([1.5], [1.0], [np.pi / 2]))
        assert len(rows) == 1
        assert rows[0]["error"] is not None
        assert rows[0]["nu_analytic"] is None
        assert rows[0]["R"] == 1.5

    def test_brute_force_refusal_is_recorded_in_its_row(self):
        # the amplitude cap refuses this point at default cutoffs; the row
        # keeps the closed-form cells and route 4's, which holds its contract
        # here, and leaves the brute-force cell empty
        rows = _records(
            sweep([0.3], [200.0], [1.0], include_brute=True, include_fringe=True))
        row = rows[0]
        assert row["error"] == (
            "cutoffs (41610, 4090) need 1.7e+08 amplitudes; the cap is 16777216 "
            "(268 MB)"
        )
        assert row["nu_brute"] is None
        params = ExperimentParams(alpha0=200.0, phi=1.0, r=0.3)
        assert row["nu_fringe"] == fit_fringe(fringe_scan(params)).visibility
        assert row["nu_analytic"] == pytest.approx(
            visibility_closed_form(0.3, 200.0, 1.0), rel=1e-14
        )
        assert row["nu_oracle"] == pytest.approx(row["nu_analytic"], rel=1e-12)
        assert row["T"] == row["mean_ratio"] == pytest.approx(math.sqrt(0.91))
        report = contrast_report(ExperimentParams(alpha0=200.0, phi=1.0, r=0.3))
        assert row["var_out"] == report.var_out

    def test_optional_routes_fill_their_columns(self):
        rows = _records(
            sweep([0.3], [3.0], [np.pi / 2], include_brute=True, include_fringe=True))
        row = rows[0]
        assert row["nu_brute"] == pytest.approx(row["nu_analytic"], abs=1e-6)
        assert row["nu_fringe"] == pytest.approx(row["nu_analytic"], abs=2e-4)

    def test_log_visibility_is_linear_in_squared_reflectivity(self):
        r_values = [0.05, 0.1, 0.2, 0.3, 0.5]
        rows = _records(sweep(r_values, [2.0], [np.pi / 4]))
        x = np.array([row["R"] ** 2 for row in rows])
        y = np.array([-math.log(row["nu_oracle"]) for row in rows])
        slope, intercept = np.polyfit(x, y, 1)
        assert slope == pytest.approx(2.0 * 4.0 * math.sin(np.pi / 4) ** 2, rel=1e-10)
        assert abs(intercept) < 1e-10
        assert float(np.max(np.abs(y - (slope * x + intercept)))) < 1e-10


def _scalar_cells(row):
    """The closed-form cells of ``row`` from the per-point functions."""
    params = ExperimentParams(alpha0=row["abs_alpha0"], phi=row["phi"], r=row["R"])
    report = contrast_report(params)
    return (
        visibility_closed_form(params.r, row["abs_alpha0"], params.phi),
        abs(environment_overlap_oracle(params)),
        report.mean_ratio,
        report.var_out,
    )


@settings(deadline=None, derandomize=True, max_examples=100)
@given(
    r=st.lists(st.floats(0.0, 0.99), min_size=1, max_size=6),
    a=st.lists(st.floats(0.0, 20.0), min_size=1, max_size=6),
    phi=st.lists(st.floats(0.0, math.pi / 2, exclude_min=True), min_size=1,
                 max_size=6),
)
def test_sweep_cells_equal_the_per_point_functions_bit_for_bit(r, a, phi):
    for row in _records(sweep(r, a, phi)):
        assert row["error"] is None
        assert (row["nu_analytic"], row["nu_oracle"], row["T"], row["var_out"]) \
            == _scalar_cells(row)
        assert row["mean_ratio"] == row["T"]


@pytest.mark.parametrize("shape", [(20, 20, 20), (2, 2, 3000)])
def test_dense_sweep_grid_equals_the_per_point_functions_bit_for_bit(shape):
    # a NumPy scalar and an array element can round differently (``** 2`` is
    # ``pow`` on one, a product on the other) for about one value in a
    # thousand, which only this many distinct points and angles reliably show
    rng = np.random.default_rng(13)
    n_r, n_a, n_phi = shape
    rows = _records(sweep(rng.uniform(0.0, 0.99, n_r), rng.uniform(0.0, 20.0, n_a),
                          rng.uniform(1e-9, math.pi / 2, n_phi)))
    got = [(row["nu_analytic"], row["nu_oracle"], row["T"], row["var_out"])
           for row in rows]
    assert got == [_scalar_cells(row) for row in rows]


class TestSweepValidation:
    @pytest.mark.parametrize("r,a,phi,message", [
        (1.0, 2.0, 0.5, "reflectivity must lie in [0, 1)"),
        (-0.1, 2.0, 0.5, "reflectivity must lie in [0, 1)"),
        (math.nan, 2.0, 0.5, "reflectivity must lie in [0, 1)"),
        (0.3, math.inf, 0.5, "alpha0 must be finite"),
        (0.3, math.nan, 0.5, "alpha0 must be finite"),
        (0.3, math.nextafter(1e8, math.inf), 0.5, "|alpha0| must be at most 1e+08"),
        (0.3, -1e200, 0.5, "|alpha0| must be at most 1e+08"),
        (0.3, 2.0, math.nan, "phi must be finite"),
        (0.3, 2.0, -math.inf, "phi must be finite"),
        (math.nan, math.nan, math.nan, "phi must be finite"),
    ])
    def test_invalid_point_carries_the_validation_message(self, r, a, phi, message):
        with pytest.raises(ValueError) as exc:
            ExperimentParams(alpha0=a, phi=phi, r=r)
        assert str(exc.value) == message
        if a < 0.0:  # a label of phase pi; a sweep takes magnitudes only
            with pytest.raises(ValueError, match="cannot be negative"):
                sweep([r], [a], [phi], include_brute=True, include_fringe=True)
            return
        (row,) = _records(sweep([r], [a], [phi], include_brute=True,
                                include_fringe=True))
        assert row["error"] == message
        assert all(row[k] is None for k in _SWEEP_KEYS[3:-1])
        for key, want in zip(("R", "abs_alpha0", "phi"), (r, a, phi)):
            assert row[key] == want or (math.isnan(row[key]) and math.isnan(want))

    def test_invalid_rows_leave_the_valid_rows_of_the_grid_alone(self):
        rows = _records(sweep([0.3, 1.0, 0.6], [2.0, math.inf], [math.nan, 0.5, 1.1]))
        assert len(rows) == 18
        for row in rows:
            valid = row["R"] < 1.0 and math.isfinite(row["abs_alpha0"]) \
                and math.isfinite(row["phi"])
            assert (row["error"] is None) == valid
            if valid:
                assert (row["nu_analytic"], row["nu_oracle"], row["T"],
                        row["var_out"]) == _scalar_cells(row)


def _per_point_routes(params, n_theta):
    """Brute-force then fringe route at one point, as a sweep row runs them:
    the fringe cell, the row's error (the first refusal) and the warnings
    raised on the way.  A brute-force refusal leaves the fringe route alone."""
    errors = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            fock_brute_force_visibility(params)
        except ValueError as exc:
            errors.append(str(exc))
        try:
            fringe = fit_fringe(fringe_scan(params, n_theta)).visibility
        except ValueError as exc:
            fringe = None
            errors.append(str(exc))
    return fringe, (errors or [None])[0], caught


def _warning_texts(caught):
    return [(w.category, str(w.message)) for w in caught]


# valid points, points the brute force refuses (|alpha0| 200: past its
# amplitude cap, or with zero norm at R = 0) and points ExperimentParams
# refuses
@settings(deadline=None, derandomize=True, max_examples=60)
@given(
    r=st.lists(st.one_of(st.floats(0.0, 0.99), st.sampled_from([1.0, math.nan])),
               min_size=1, max_size=3),
    a=st.lists(st.one_of(st.floats(0.0, 6.0),
                         st.sampled_from([5.5, 200.0, math.inf, 2e8])),
               min_size=1, max_size=3),
    phi=st.lists(st.one_of(st.floats(-math.pi, math.pi), st.just(math.nan)),
                 min_size=1, max_size=3),
    n_theta=st.integers(8, 40),
)
def test_sweep_fringe_cells_equal_the_per_point_route_bit_for_bit(r, a, phi, n_theta):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = _records(sweep(r, a, phi, include_brute=True, include_fringe=True,
                              n_theta=n_theta))
    want_warnings = []
    for row in rows:
        try:
            params = ExperimentParams(alpha0=row["abs_alpha0"], phi=row["phi"],
                                      r=row["R"])
        except ValueError as exc:
            assert row["error"] == str(exc) and row["nu_fringe"] is None
            continue
        fringe, error, seen = _per_point_routes(params, n_theta)
        assert repr(row["nu_fringe"]) == repr(fringe)
        assert row["error"] == error
        want_warnings += seen
    # the same warnings, in row order
    assert _warning_texts(caught) == _warning_texts(want_warnings)


# post-selected integrals that each fringe check refuses, and its message
_FRINGE_CORRUPTIONS = [
    (lambda v: v * [[1], [2], [1], [1]], "fringe rates came out complex"),
    (lambda v: v * [[1], [1e3], [1e3], [1]], "detection rate reached"),
    (lambda v: v * 0, "fitted fringe offset is not positive"),
    (lambda v: v * np.nan, "scan values must be finite"),
]


def _corrupted_integrals(corrupt):
    """The post-selected integrals, corrupted by ``corrupt`` at |alpha0| > 1.5
    only, so a block mixes refused and accepted rows."""
    integrals = experiment._post_selected_integrals

    def corrupted(alpha0, phi, r):
        vals = integrals(alpha0, phi, r)
        return np.where(np.abs(alpha0) > 1.5, corrupt(vals), vals)

    return corrupted


@pytest.mark.parametrize("corrupt,message", _FRINGE_CORRUPTIONS)
def test_sweep_refuses_fringe_rows_as_the_per_point_route_does(monkeypatch, corrupt,
                                                              message):
    # each refused row carries its own text
    monkeypatch.setattr(experiment, "_post_selected_integrals",
                        _corrupted_integrals(corrupt))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = _records(sweep([0.2, 0.6], [1.0, 2.0, 3.0], [0.5, 1.3],
                              include_fringe=True))
        for row in rows:
            params = ExperimentParams(alpha0=row["abs_alpha0"], phi=row["phi"],
                                      r=row["R"])
            try:
                want = (fit_fringe(fringe_scan(params)).visibility, None)
            except ValueError as exc:
                want = (None, str(exc))
            assert (row["nu_fringe"], row["error"]) == want
    assert [row["error"] is not None for row in rows] == [
        row["abs_alpha0"] > 1.5 for row in rows]
    assert all(row["error"].startswith(message) for row in rows if row["error"])


def _cli_sweep(argv):
    """Exit code, stdout and stderr of ``catvis`` at ``argv`` under Python's
    default warning filter, which prints a (text, line) pair once a call."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("default")
        warnings.showwarning = stock_showwarning
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _recorded_columns(sweep_columns, *args):
    """The cells of ``sweep_columns(*args)`` as reprs, its errors and the
    warnings it raises, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        *floats, error = sweep_columns(*args)
    cells = [repr([None if e else v for v, e in zip(f.values.tolist(), f.empty.tolist())])
             for f in floats]
    return cells, error, _warning_texts(caught)


def _refusing_inputs(build):
    """``_brute_force_inputs``, whose tail guard refuses its points at
    |alpha0| > 1.5 as a guard of the built states would: no sweep at default
    cutoffs reaches those guards."""
    def refusing(alpha0, phi, na):
        inputs = build(alpha0, phi, na)
        return inputs._replace(tails=[
            TruncationError(f"refused at |alpha0| = {abs(a):.6g}") if abs(a) > 1.5 else tail
            for a, tail in zip(np.repeat(alpha0, 2).tolist(), inputs.tails)])

    return refusing


# invalid points (R = 1, phi NaN), a negative |alpha0| (a valid point here,
# which the CLI refuses), points route 5 refuses (|alpha0| 38 past its start,
# 200 past its amplitude cap, and its tail guard where ``refuse`` says),
# integrals that route 4 refuses, and |alpha0| sin(phi) on both sides of
# 1.8585, where |<+|->| crosses the warning threshold 1e-3 (the first two
# values of the list are the last float that warns at phi = pi/2 and the
# next one)
@settings(deadline=None, derandomize=True, max_examples=40)
@given(
    r=st.lists(st.one_of(st.floats(0.0, 0.99), st.sampled_from([0.1, 0.4, 1.0])),
               min_size=1, max_size=3),
    a=st.lists(st.one_of(st.floats(0.0, 4.0), st.sampled_from(
        [1.8584610944249191, 1.8584610944249194, 1.8585, -2.0, 38.0, 200.0])),
        min_size=1, max_size=4),
    phi=st.lists(st.one_of(st.floats(-math.pi, math.pi),
                           st.sampled_from([math.pi / 2, 1.5708, 1.0, math.nan])),
                 min_size=1, max_size=3),
    corrupt=st.sampled_from([None, *(c for c, _ in _FRINGE_CORRUPTIONS)]),
    refuse=st.booleans(),
    n_theta=st.sampled_from([8, 16, 21]),
)
@example(r=[0.1, 0.4], a=[0.3, 1.8585, 40.0, 200.0], phi=[1.0, 1.5708], corrupt=None,
         refuse=False, n_theta=16)
@example(r=[0.3], a=[1.8584610944249191, 1.8584610944249194, 38.0], phi=[math.pi / 2],
         corrupt=None, refuse=False, n_theta=16)
@example(r=[0.2, 1.0], a=[1.0, 2.0, 3.0], phi=[0.5, 1.3], corrupt=_FRINGE_CORRUPTIONS[2][0],
         refuse=True, n_theta=16)
def test_sweep_columns_match_the_per_row_reference(r, a, phi, corrupt, refuse, n_theta):
    _assert_sweep_matches_reference(r, a, phi, corrupt, refuse, n_theta)


def _assert_sweep_matches_reference(r, a, phi, corrupt=None, refuse=False, n_theta=16,
                                    brute=True):
    """``_sweep_columns`` with the fringe route, and the Fock route if
    ``brute``, and ``catvis sweep`` over it, give what
    ``sweep_columns_per_row`` gives, with the integrals corrupted by
    ``corrupt`` and the tail guard refusing past |alpha0| 1.5 when ``refuse``."""
    integrals = (experiment._post_selected_integrals if corrupt is None
                 else _corrupted_integrals(corrupt))
    build = experiment._brute_force_inputs
    argv = ["sweep", *(["--brute-force"] if brute else []), "--fringe",
            f"--n-theta={n_theta}",
            *(f"--{flag}-values={','.join(map(repr, values))}"
              for flag, values in (("R", r), ("alpha0", a), ("phi", phi)))]
    with mock.patch.object(experiment, "_post_selected_integrals", integrals), \
            mock.patch.object(experiment, "_brute_force_inputs",
                              _refusing_inputs(build) if refuse else build):
        args = (r, a, phi, brute, True, n_theta)
        assert _recorded_columns(experiment._sweep_columns, *args) \
            == _recorded_columns(sweep_columns_per_row, *args)
        got = _cli_sweep(argv)
        with mock.patch.object(cli, "_sweep_columns", sweep_columns_per_row):
            assert got == _cli_sweep(argv)


@pytest.mark.parametrize("brute", [False, True])
@pytest.mark.parametrize("stray", [False, True])
@pytest.mark.parametrize("a", [2.0, 1e4, 1e5, 1e6, 1e7, 1e8])
def test_sweep_overlap_warnings_near_the_threshold_match_the_reference(a, stray, brute,
                                                                      monkeypatch):
    # the exponent of |<+|->| cancels about |alpha0|^2 down to about -7 at the
    # threshold, so there an array pass's value may stray from the scalar
    # check's by about |alpha0|^2 eps, relative: the phis straddle the last
    # phi the scalar check warns at, found by bisection, with rows spread
    # over that band around it.  With ``stray`` the array overlaps come out
    # lower by a quarter of the sweep's margin, as an array path that rounds
    # differently might give them; no row may lose its warning.  Past
    # |alpha0| 37.64 the Fock route refuses every row, which then replays
    # its checks whatever the margin, so the fringe route runs alone too
    eps = sys.float_info.epsilon

    def warns(p):
        return experiment._components_overlap(a, p)[1]

    lo, hi = 0.0, math.asin(min(1.0, 2.0 * math.sqrt(math.log(1e3) / 2.0) / a))
    assert warns(lo) and not warns(hi)
    while (mid := (lo + hi) / 2.0) not in (lo, hi):
        lo, hi = (mid, hi) if warns(mid) else (lo, mid)
    band = 64.0 * eps * a * a
    phis = [lo, hi, *(lo * (1.0 + t * band) for t in (-1.0, -0.1, 0.1, 1.0))]
    overlap = experiment.coherent_overlap

    def straying(alpha, beta):
        out = overlap(alpha, beta)
        return out * (1.0 - 16.0 * eps * (1.0 + np.abs(alpha) ** 2)) if np.ndim(out) else out

    if stray:
        monkeypatch.setattr(experiment, "coherent_overlap", straying)
    _assert_sweep_matches_reference([0.3], [a], phis, brute=brute)


def test_a_sweep_longer_than_a_block_gives_the_cells_of_one_point_sweeps():
    # invalid points between valid ones shift the blocks against the rows
    rng = np.random.default_rng(29)
    r = [0.2, 1.0, 0.5, 0.9]
    a = rng.uniform(0.0, 6.0, 5).tolist()
    phi = [0.3, math.nan, *rng.uniform(0.1, 1.5, 2).tolist()]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = sweep(r, a, phi, include_brute=True, include_fringe=True)
        singles = [sweep([x], [y], [z], include_brute=True, include_fringe=True)[0]
                   for x in r for y in a for z in phi]
    assert sum(row[-1] is None for row in rows) > 2 * _FRINGE_BLOCK
    assert [repr(row) for row in rows] == [repr(row) for row in singles]


@pytest.mark.parametrize("n_theta,sizes", [
    (16, [16, 16, 8]),  # _FRINGE_BLOCK points a pass
    (1024, [4] * 10),  # _FRINGE_SAMPLES // n_theta
    (4096, [1] * 40),  # at least one
])
def test_fringe_rows_run_blocks_sized_by_n_theta(n_theta, sizes, monkeypatch):
    # each pass holds at most _FRINGE_SAMPLES fringe samples where that is
    # fewer than _FRINGE_BLOCK points, and the cells are the one-point route's
    integrals, passes = experiment._post_selected_integrals, []

    def record(alpha0, phi, r):
        passes.append(alpha0.size)
        return integrals(alpha0, phi, r)

    monkeypatch.setattr(experiment, "_post_selected_integrals", record)
    rng = np.random.default_rng(41)
    a0, phi, r = (rng.uniform(lo, hi, 40)
                  for lo, hi in ((0.0, 4.0), (0.1, 1.5), (0.0, 0.9)))
    got = experiment._fringe_rows(a0, phi, r, experiment._scan_thetas(n_theta))
    assert passes == sizes
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = [fit_fringe(fringe_scan(ExperimentParams(alpha0=x, phi=y, r=z), n_theta))
                .visibility for x, y, z in zip(a0, phi, r)]
    assert repr(got) == repr(want)


def test_fringe_totals_and_fit_coefficients_round_as_one_product_each():
    # one temporary reused per term, and one coefficient row at a time, give
    # the bits of a fresh phase and product per term and of one (P, 3, n)
    # product summed over its last axis
    rng = np.random.default_rng(43)
    vals = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
    thetas = experiment._scan_thetas(1000)
    want = np.zeros((5, thetas.size), dtype=complex)
    for val, winding in zip(vals, (0, -1, 1, 0)):
        want += val[:, None] * np.exp(1j * winding * thetas)
    got = experiment._fringe_totals(vals, experiment._fringe_phases(thetas))
    assert got.tobytes() == want.tobytes()
    pinv, rates = np.linalg.pinv(experiment._design(thetas)), got.real
    want = np.sum(rates[:, None, :] * pinv, axis=-1)
    assert experiment._fit_coefficients(pinv, rates).tobytes() == want.tobytes()


def test_sweep_refuses_a_fringe_too_coarse_to_resolve():
    with pytest.raises(ValueError, match="n_theta must be at least 8"):
        sweep([0.3], [2.0], [1.0], include_fringe=True, n_theta=7)
    assert sweep([0.3], [2.0], [1.0], n_theta=7)[0][-1] is None


@pytest.mark.parametrize("a", [-2.0, -5e-324, -math.inf])
def test_sweep_refuses_a_negative_magnitude(a, monkeypatch):
    # as the CLI refuses --alpha0-values; the point would run as |alpha0|.
    # The refusal comes before any row is computed.
    monkeypatch.setattr(experiment, "_sweep_columns", None)
    with pytest.raises(ValueError, match="magnitudes and cannot be negative"):
        sweep([0.3], [1.0, a], [1.0], include_brute=True, include_fringe=True)


def test_sweep_takes_nan_and_negative_zero_magnitudes():
    nan_row, zero_row = sweep([0.3], [math.nan, -0.0], [1.0])
    assert nan_row[1] != nan_row[1] and nan_row[-1] == "alpha0 must be finite"
    assert repr(zero_row[1]) == "-0.0" and zero_row[-1] is None
    assert zero_row[3] == 1.0


# ROADMAP item 1's domain at default settings: every route inside its
# contract, the brute force included now that its tail guard judges the
# mass the default cutoff discards
@settings(deadline=None, derandomize=True, max_examples=100)
@given(
    r=st.floats(0.0, 0.99),
    a=st.floats(0.0, 20.0),
    phi=st.floats(0.0, math.pi / 2, exclude_min=True),
)
@example(r=0.1, a=20.0, phi=math.pi / 2)  # the headline point
@example(r=0.99, a=20.0, phi=math.pi / 2)
@example(r=0.3, a=5.0, phi=1.0)
@example(r=0.6, a=12.3, phi=0.7)
def test_five_routes_agree_at_default_settings(r, a, phi):
    params = ExperimentParams(alpha0=a, phi=phi, r=r)
    nu = visibility_closed_form(r, a, phi)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OverlapWarning)
        routes = {
            "oracle": (abs(environment_overlap_oracle(params)), 1e-6),
            "brute": (fock_brute_force_visibility(params), 1e-6),
            "quadrature": (q_integral_visibility(params), 2e-4),
            "fringe": (fit_fringe(fringe_scan(params)).visibility, 2e-4),
        }
    for name, (value, contract) in routes.items():
        assert abs(value - nu) <= contract, name


def _visibility_200_bits(r, a, phi) -> float:
    """``exp(-2 R^2 sin^2(phi) |alpha0|^2)`` in 200-bit arithmetic, sin of
    phi reduced at the precision its magnitude needs."""
    with mpmath.workprec(200):
        x = mpmath.mpf(r) * mpmath.sin(mpmath.mpf(phi)) * mpmath.mpf(a)
        return float(mpmath.exp(-2 * x * x))


# the whole accepted domain: R in [0, 1) and up to 2**-53 below 1, |alpha0|
# up to its 1e8 bound, and finite phi of log-uniform magnitude.  Routes 1 to
# 4 hold their contracts at every point, route 5 wherever it accepts one
# (it refuses past |alpha0| 37.64 and past 2**24 amplitudes)
@settings(deadline=None, derandomize=True, max_examples=150)
@given(
    r=st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                st.integers(1, 53).map(lambda k: 1.0 - 2.0**-k)),
    a=st.one_of(st.floats(0.0, 40.0), st.floats(-3.0, 8.0).map(lambda e: 10.0**e)),
    log_phi=st.floats(-300.0, 300.0),
    sign=st.sampled_from([1.0, -1.0]),
)
@example(r=1.0 - 2.0**-53, a=1e8, log_phi=300.0, sign=-1.0)
@example(r=0.99, a=37.6, log_phi=0.0, sign=1.0)
@example(r=0.0, a=0.0, log_phi=-300.0, sign=1.0)
def test_routes_hold_their_contracts_over_the_domain(r, a, log_phi, sign):
    phi = sign * 10.0**log_phi
    params = ExperimentParams(alpha0=a, phi=phi, r=r)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OverlapWarning)
        (row,) = sweep([r], [a], [phi], include_fringe=True)
        routes = {
            "closed form": (visibility_closed_form(r, a, phi), 1e-6),
            "oracle": (abs(environment_overlap_oracle(params)), 1e-6),
            "quadrature": (q_integral_visibility(params), 2e-4),
            "fringe": (row[_SWEEP_KEYS.index("nu_fringe")], 2e-4),
        }
        try:
            routes["brute"] = (fock_brute_force_visibility(params), 1e-6)
        except ValueError:
            pass
    assert row[-1] is None
    nu = _visibility_200_bits(r, a, phi)
    for name, (value, contract) in routes.items():
        assert abs(value - nu) <= contract, name


# route 5 at any phi: the cat's labels take phi reduced exactly by
# exp(1j * phi), and the readout rotation turns by the same reduced angle,
# where phi * n would round (0.17 off at 1e15 before it did)
@settings(deadline=None, derandomize=True, max_examples=60)
@given(
    r=st.floats(0.0, 0.99),
    a=st.floats(0.0, 20.0),
    log_phi=st.floats(-3.0, 19.0),
    sign=st.sampled_from([1.0, -1.0]),
)
@example(r=0.3, a=3.0, log_phi=math.log10(1109599999999999.9), sign=1.0)
@example(r=0.3, a=20.0, log_phi=12.0, sign=-1.0)
@example(r=0.99, a=20.0, log_phi=19.0, sign=1.0)
def test_brute_force_holds_its_contract_at_any_phi(r, a, log_phi, sign):
    phi = sign * 10.0**log_phi
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OverlapWarning)
        nu = fock_brute_force_visibility(ExperimentParams(alpha0=a, phi=phi, r=r))
    assert abs(nu - visibility_closed_form(r, a, phi)) <= 1e-6


def test_brute_force_keeps_the_bits_of_phi_up_to_pi():
    # the readout turns by phi itself up to pi, so these cells did not move
    # when angles past pi began to turn by their reduced value; at each of
    # these phi, np.angle(np.exp(1j * phi)) != phi and a turn by it moves
    # the last bit
    params = [ExperimentParams(alpha0=3.0, phi=phi, r=0.3) for phi in
              (-0.35969458386482067, 0.3910141967285594, 0.9589056636998041, 3.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OverlapWarning)
        got = [fock_brute_force_visibility(p) for p in params]
    assert [repr(v) for v in got] == [
        "0.8181486570631356", "0.7903205113725543", "0.3377414124700255",
        "0.9682528009325467"]


def _per_point_brute(params):
    """Route 5 at one point: its cell, its error and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            return fock_brute_force_visibility(params), None, caught
        except ValueError as exc:
            return None, str(exc), caught


# groups of equal (R, |alpha0|) longer than one block of _FOCK_BLOCK_POINTS
# points or of _FOCK_BLOCK_AMPLITUDES (|alpha0| near 20 holds one point a block),
# points past the amplitude cap (200 above R ~ 0.03) or whose amplitudes
# underflow (200 at smaller R), and invalid points
@settings(deadline=None, derandomize=True, max_examples=30)
@given(
    r=st.lists(st.one_of(st.floats(0.0, 0.99), st.sampled_from([0.0, 0.95, 1.0])),
               min_size=1, max_size=3),
    a=st.lists(st.one_of(st.floats(0.0, 20.0),
                         st.sampled_from([19.5, 200.0, math.inf])),
               min_size=1, max_size=2),
    phi=st.lists(st.one_of(st.floats(-math.pi, math.pi), st.just(math.nan)),
                 min_size=1, max_size=2 * _FOCK_BLOCK_POINTS + 3),
)
@example(r=[0.3, 0.0], a=[4.0, 200.0],
         phi=[*np.linspace(-1.5, 1.5, 2 * _FOCK_BLOCK_POINTS + 1).tolist(), math.nan,
              1e-3])
@example(r=[0.95], a=[19.5, math.inf], phi=[0.2, 1e-3, math.nan, 1.1])
# R lists whose runs at one |alpha0| pass their shared inputs in slices of
# 6, 2 and 1 points (|alpha0| 6) and of one point (19.5)
@example(r=[0.05, 0.5, 0.95], a=[6.0, 19.5],
         phi=[0.3, 4.0, 0.9, math.nan, 1.2, -2.0, 1.5, 0.1, 3.5, 0.7, 1e-3])
# one block of angles past pi and up to it, reduced and kept
@example(r=[0.3], a=[3.0], phi=[0.5, 4.0, -1109599999999999.9, 1e19, np.pi, -7.0])
# a subnormal vacuum amplitude: some points break the state contract and
# their block neighbours, judged alone, have zero norm
@example(r=[0.1], a=[38.6], phi=np.linspace(0.05, 1.5, 24).tolist())
def test_sweep_brute_cells_equal_the_per_point_route_bit_for_bit(r, a, phi):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = _records(sweep(r, a, phi, include_brute=True))
    want_warnings = []
    for row in rows:
        try:
            params = ExperimentParams(alpha0=row["abs_alpha0"], phi=row["phi"],
                                      r=row["R"])
        except ValueError as exc:
            assert row["error"] == str(exc) and row["nu_brute"] is None
            continue
        nu, error, seen = _per_point_brute(params)
        assert repr(row["nu_brute"]) == repr(nu)
        assert row["error"] == error
        want_warnings += seen
    assert _warning_texts(caught) == _warning_texts(want_warnings)


def test_sweep_runs_the_brute_force_in_blocks_of_one_group(monkeypatch):
    # each (R, |alpha0|) group of valid points splits into blocks of
    # _FOCK_BLOCK_POINTS points, or fewer where 2 na nb amplitudes a point
    # would pass _FOCK_BLOCK_AMPLITUDES; a group past the amplitude cap is never
    # built, and an invalid point leaves its group whole
    kernel = experiment._brute_force_block
    blocks = []

    def record(bs, magnitudes, inputs):
        blocks.append((bs.r, inputs.vectors.shape[1], len(inputs.in_sq) // 2))
        return kernel(bs, magnitudes, inputs)

    monkeypatch.setattr(experiment, "_brute_force_block", record)
    phi = [*np.linspace(0.1, 1.5, 2 * _FOCK_BLOCK_POINTS + 1), math.nan, 0.2, 0.3]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = sweep([0.5], [2.0, 6.0, 200.0], phi, include_brute=True)
    # a point's cutoff_a names its |alpha0|
    assert blocks == [(0.5, default_cutoff(2.0), n) for n in (8, 8, 3)] + [
        (0.5, default_cutoff(6.0), n) for n in [2] * 9 + [1]]
    amps = default_cutoff(6.0) * default_cutoff(3.0)
    assert 2 * amps <= experiment._FOCK_BLOCK_AMPLITUDES < 6 * amps
    assert sum(row[5] is not None for row in rows) == 2 * 19


def test_sweep_builds_each_alpha0_s_inputs_once_for_every_r(monkeypatch):
    # the runs of one |alpha0| share its coherent vectors, one build a chunk of
    # _FOCK_BLOCK_POINTS points (two rows a point), whatever the R
    build, sizes = experiment._coherent_rows, []

    def record(labels, cutoff):
        sizes.append(labels.size)
        return build(labels, cutoff)

    monkeypatch.setattr(experiment, "_coherent_rows", record)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = sweep([0.1, 0.3, 0.5], [2.0, 6.0], np.linspace(0.1, 1.5, 19),
                     include_brute=True)
    assert sizes == [16, 16, 6] * 2
    assert all(row[5] is not None for row in rows)


# the inputs of a slice of a chunk are those built for the slice alone, at
# any |alpha0| the Fock route starts at, at phi past pi, where the readout
# turns reduce it, and on a cutoff_a short enough that the tail guard refuses
# some rows
@settings(deadline=None, derandomize=True, max_examples=30)
@given(
    a=st.lists(st.one_of(st.floats(0.0, 37.0), st.sampled_from([5.3, 37.0])),
               min_size=_FOCK_BLOCK_POINTS, max_size=_FOCK_BLOCK_POINTS),
    phi=st.lists(st.one_of(st.floats(-10.0, 10.0),
                           st.sampled_from([math.pi, -math.pi, 4.0, 1e19])),
                 min_size=_FOCK_BLOCK_POINTS, max_size=_FOCK_BLOCK_POINTS),
    start=st.integers(0, _FOCK_BLOCK_POINTS - 1),
    size=st.integers(1, _FOCK_BLOCK_POINTS),
    shrink=st.sampled_from([1.0, 0.6]),
)
@example(a=[37.0] * 8, phi=[0.2, 4.0, -7.0, 1e19, np.pi, 1.0, 2.0, 3.0], start=3, size=4,
         shrink=0.6)
def test_brute_force_inputs_of_a_slice_are_those_built_for_it_alone(a, phi, start, size,
                                                                   shrink):
    alpha0, phi = np.array(a), np.array(phi)
    na = max(1, int(shrink * default_cutoff(max(a))))
    stop = min(start + size, _FOCK_BLOCK_POINTS)
    got = experiment._brute_force_inputs(alpha0, phi, na).points(start, stop)
    want = experiment._brute_force_inputs(alpha0[start:stop], phi[start:stop], na)
    for field in ("vectors", "turns"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
    assert np.array(got.in_sq).tobytes() == np.array(want.in_sq).tobytes()
    assert [(type(e), str(e)) for e in got.tails] == [(type(e), str(e)) for e in want.tails]
    if shrink < 1.0 and max(a[start:stop]) == 37.0:
        assert any(isinstance(e, TruncationError) for e in got.tails)


def test_state_builder_and_splitter_are_the_kernel_s_one_row_case():
    # coherent_fock and bs_fock_apply run the builder and the splitter of
    # the brute-force kernel on one row; each row of a stack equals them
    labels = np.array([0.0, 1.5 - 0.5j, 3j, -4.2 + 0.1j])
    na, nb = 40, 25
    bs = BeamSplitter(0.37)
    rows = _coherent_rows(labels, na)
    stack = _split_rows(rows, _sector_magnitudes(bs, na, nb))
    for label, row, out in zip(labels, rows, stack):
        mode = coherent_fock(label, cutoff=na)
        assert mode.amplitudes.tobytes() == row.tobytes()
        assert bs_fock_apply(bs, mode, nb).amplitudes.tobytes() == out.tobytes()
