"""End-to-end visibility routes and their mutual agreement."""

import math
import warnings

import numpy as np
import pytest

from catvis import (
    CoverageWarning,
    ExperimentParams,
    FringeScan,
    OverlapWarning,
    QGrid,
    Tolerances,
    TruncationError,
    cat_norm_constant,
    environment_overlap_oracle,
    extract_visibility,
    fit_fringe,
    fock_brute_force_visibility,
    fringe_scan,
    q_integral_visibility,
    sweep,
    visibility_analytic,
    visibility_closed_form,
)
from catvis.fock import default_cutoff

TWO_PI = 2.0 * math.pi


class TestTolerances:
    def test_defaults_are_positive(self):
        tol = Tolerances()
        assert tol.tail > 0 and tol.leakage > 0
        assert tol.component_overlap > 0 and tol.boundary_ratio > 0

    @pytest.mark.parametrize(
        "kwargs",
        [{"tail": 0.0}, {"leakage": -1e-9}, {"component_overlap": 0.0}],
    )
    def test_rejects_nonpositive(self, kwargs):
        with pytest.raises(ValueError):
            Tolerances(**kwargs)


class TestExperimentParams:
    def test_derived_quantities(self):
        params = ExperimentParams(alpha0=2.0, phi=0.7, r=0.6)
        assert params.t == pytest.approx(0.8)
        assert params.norm_const == pytest.approx(cat_norm_constant(2.0, 0.7))
        assert params.component_plus == pytest.approx(2.0 * np.exp(0.7j))
        assert params.component_minus == pytest.approx(2.0 * np.exp(-0.7j))

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
        assert nu == pytest.approx(visibility_analytic(params), abs=2e-4)

    def test_off_support_grid_raises(self):
        params = ExperimentParams(
            alpha0=3.0,
            phi=np.pi / 2,
            r=0.2,
            grid=QGrid(center_a=50.0 + 0.0j, center_b=50.0 + 0.0j),
        )
        with pytest.warns(CoverageWarning, match="underflow"), pytest.raises(
            ValueError, match="not positive"
        ):
            q_integral_visibility(params)


class TestDomainCorner:
    # |alpha0| = 20 at phi = pi/2 puts the B-plane labels of the interference
    # term 2 R |alpha0| apart, the widest split the advertised domain allows;
    # overflow or NaN anywhere in the quadrature routes must raise here.
    # Underflow in the Gaussian tails is expected and left alone.
    @pytest.mark.parametrize("r", [0.1, 0.99])
    def test_quadrature_routes_neither_overflow_nor_go_invalid(self, r):
        params = ExperimentParams(alpha0=20.0, phi=np.pi / 2, r=r)
        want = visibility_analytic(params)
        with np.errstate(over="raise", invalid="raise"):
            fit = fit_fringe(fringe_scan(params))
            nu_q = q_integral_visibility(params)
        assert abs(fit.visibility - want) <= 2e-4
        assert abs(nu_q - want) <= 2e-4


class TestFringeScan:
    def test_uniform_theta_coverage(self):
        params = ExperimentParams(alpha0=3.0, phi=np.pi / 2, r=0.3)
        scan = fringe_scan(params, n_theta=16)
        assert len(scan) == 16
        np.testing.assert_allclose(
            scan.thetas, np.linspace(0.0, TWO_PI, 16, endpoint=False)
        )
        assert float(scan.rates.min()) >= 0.0

    def test_readout_phase_in_params_is_irrelevant(self):
        a = ExperimentParams(alpha0=3.0, phi=np.pi / 2, r=0.3, theta=0.0)
        b = ExperimentParams(alpha0=3.0, phi=np.pi / 2, r=0.3, theta=1.3)
        np.testing.assert_array_equal(
            fringe_scan(a).rates, fringe_scan(b).rates
        )

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
        cn2 = params.norm_const**2
        delta = 0.09 * 2.25 * math.sin(np.pi / 2)
        assert fit.offset == pytest.approx(0.5 * cn2, rel=1e-9)
        assert fit.phase == pytest.approx(delta, abs=1e-9)
        assert fit.amplitude == pytest.approx(
            0.5 * cn2 * visibility_analytic(params), rel=1e-6
        )
        assert fit.visibility == pytest.approx(visibility_analytic(params), abs=2e-4)
        assert fit.residual_rms < 1e-8 * fit.amplitude

    def test_symmetric_fringe_for_odd_cat(self):
        # sin(2 phi) = 0 at phi = pi/2, so the fringe has no offset phase
        params = ExperimentParams(alpha0=3.0, phi=np.pi / 2, r=0.3)
        rates = fringe_scan(params, n_theta=16).rates
        np.testing.assert_allclose(rates[1:], rates[1:][::-1], rtol=1e-10)

    def test_extract_visibility_shortcut(self):
        params = ExperimentParams(alpha0=3.0, phi=np.pi / 2, r=0.2)
        scan = fringe_scan(params)
        assert extract_visibility(scan) == fit_fringe(scan).visibility


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

    def test_large_cat_needs_explicit_cutoffs(self):
        params = ExperimentParams(alpha0=20.0, phi=np.pi / 2, r=0.1)
        with pytest.raises(ValueError, match="tail"):
            fock_brute_force_visibility(params)
        forced = ExperimentParams(
            alpha0=20.0, phi=np.pi / 2, r=0.1, cutoff_a=650, cutoff_b=40
        )
        nu = fock_brute_force_visibility(forced)
        assert nu == pytest.approx(math.exp(-8.0), rel=1e-9)

    @pytest.mark.parametrize("r,cutoff_b", [(0.95, 187), (0.99, 198)])
    def test_exchange_series_runs_on_a_subnormal_state(self, r, cutoff_b):
        # the diagonal factor t^(n_a - n_b) leaves a state of squared norm
        # near t^(2 |alpha0|^2); a series stop judged against max(1, norm)
        # ended the second exchange series at once and leaked it all
        params = ExperimentParams(
            alpha0=10.0, phi=0.7, r=r, cutoff_a=240, cutoff_b=cutoff_b
        )
        nu = fock_brute_force_visibility(params)
        assert nu == pytest.approx(visibility_analytic(params), abs=1e-12)

    def test_starved_cutoff_raises_with_retry_advice(self):
        params = ExperimentParams(alpha0=2.0, phi=np.pi / 4, r=0.5, cutoff_b=4)
        with pytest.warns(OverlapWarning):
            with pytest.raises(TruncationError, match=r"cutoff_b >= 11"):
                fock_brute_force_visibility(params)


class TestSweep:
    def test_grid_order_and_columns(self):
        rows = sweep([0.1, 0.2], [1.0, 2.0], [np.pi / 6, np.pi / 2])
        assert len(rows) == 8
        coords = [(row["R"], row["abs_alpha0"], row["phi"]) for row in rows]
        assert coords == sorted(coords)
        for row in rows:
            assert tuple(row) == (
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
        rows = sweep([1.5], [1.0], [np.pi / 2])
        assert len(rows) == 1
        assert rows[0]["error"] is not None
        assert rows[0]["nu_analytic"] is None
        assert rows[0]["R"] == 1.5

    def test_optional_routes_fill_their_columns(self):
        rows = sweep([0.3], [3.0], [np.pi / 2], include_brute=True, include_fringe=True)
        row = rows[0]
        assert row["nu_brute"] == pytest.approx(row["nu_analytic"], abs=1e-6)
        assert row["nu_fringe"] == pytest.approx(row["nu_analytic"], abs=2e-4)

    def test_log_visibility_is_linear_in_squared_reflectivity(self):
        r_values = [0.05, 0.1, 0.2, 0.3, 0.5]
        rows = sweep(r_values, [2.0], [np.pi / 4])
        x = np.array([row["R"] ** 2 for row in rows])
        y = np.array([-math.log(row["nu_oracle"]) for row in rows])
        slope, intercept = np.polyfit(x, y, 1)
        assert slope == pytest.approx(2.0 * 4.0 * math.sin(np.pi / 4) ** 2, rel=1e-10)
        assert abs(intercept) < 1e-10
        assert float(np.max(np.abs(y - (slope * x + intercept)))) < 1e-10
