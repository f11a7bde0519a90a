"""Acceptance gate: one test per advertised guarantee.

Run ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion; with ``-s`` each also prints an ACCEPTANCE verdict line.
"""

import io
import math
import time
import warnings
from contextlib import contextmanager, redirect_stdout

import numpy as np
import pytest

from catvis import (
    BeamSplitter,
    CoverageWarning,
    ExperimentParams,
    OverlapWarning,
    TwoModeState,
    bs_fock_apply,
    bs_label_pair_map,
    cat_norm_constant,
    coherent_fock,
    coherent_overlap,
    environment_overlap_oracle,
    fit_fringe,
    fock_brute_force_visibility,
    fringe_scan,
    initial_cat_terms,
    integrate_q_term,
    q_full,
    visibility_closed_form,
)
from catvis.cli import RunConfig, _COMMANDS, main

from helpers import (
    CROSS,
    coherent_product_term,
    phase_shift_fock_a,
    post_selected_terms,
    random_mode,
)

R_GRID = (0.05, 0.1, 0.2, 0.3, 0.5)
ALPHA0_GRID = (0.5, 1.0, 2.0, 3.0)
PHI_GRID = (np.pi / 6, np.pi / 4, np.pi / 2)


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{label}] FAIL")
        raise
    print(f"ACCEPTANCE {number} [{label}] PASS")


@contextmanager
def quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OverlapWarning)
        warnings.simplefilter("ignore", CoverageWarning)
        yield


def test_acceptance_1_three_route_visibility_grid():
    with criterion(1, "three-route visibility grid"):
        start = time.perf_counter()
        with quiet():
            for r in R_GRID:
                for a0 in ALPHA0_GRID:
                    for phi in PHI_GRID:
                        params = ExperimentParams(alpha0=a0, phi=phi, r=r)
                        nu = visibility_closed_form(r, a0, phi)
                        oracle = abs(environment_overlap_oracle(params))
                        brute = fock_brute_force_visibility(params)
                        assert abs(oracle - nu) <= 1e-12 * nu, (r, a0, phi)
                        assert abs(brute - nu) <= 1e-6 * nu, (r, a0, phi)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"grid took {elapsed:.1f}s"


def test_acceptance_2_interference_integral_route():
    with criterion(2, "interference integral route"):
        with quiet():
            for r in R_GRID:
                for a0 in (0.5, 1.0, 2.0):
                    for phi in PHI_GRID:
                        params = ExperimentParams(alpha0=a0, phi=phi, r=r)
                        cross = post_selected_terms(params)[CROSS]
                        got = abs(integrate_q_term(cross))
                        got /= cat_norm_constant(params.alpha0, params.phi) ** 2
                        want = visibility_closed_form(r, a0, phi)
                        assert abs(got - want) <= 2e-4, (r, a0, phi)


def test_acceptance_3_fringe_route():
    with criterion(3, "fringe scan and fit"):
        with quiet():
            for r in R_GRID:
                for a0 in (0.5, 1.0, 2.0):
                    for phi in PHI_GRID:
                        params = ExperimentParams(alpha0=a0, phi=phi, r=r)
                        fit = fit_fringe(fringe_scan(params, n_theta=16))
                        want = visibility_closed_form(r, a0, phi)
                        assert abs(fit.visibility - want) <= 2e-4, (r, a0, phi)
                        assert fit.residual_rms < 1e-8 * fit.amplitude, (r, a0, phi)


def test_acceptance_4_weak_tap_contrast_headline():
    with criterion(4, "weak tap on a large cat"):
        params = ExperimentParams(alpha0=20.0, phi=np.pi / 2, r=0.1)
        t = params.beam_splitter.t
        assert round(t, 6) == 0.994987
        assert 0.0049 < 1.0 - t < 0.0051  # the half-percent moment change
        nu_closed = visibility_closed_form(params.r, abs(params.alpha0), params.phi)
        nu_oracle = abs(environment_overlap_oracle(params))
        assert nu_closed == pytest.approx(math.exp(-8.0), rel=1e-9)
        assert nu_oracle == pytest.approx(math.exp(-8.0), rel=1e-9)
        assert float(f"{nu_closed:.6g}") == 3.35463e-4
        # the truncated-Fock route runs at its default cutoffs (570, 30):
        # they discard at most 7e-16 of the 400-photon pulse, inside the
        # 1e-12 tail the guard demands
        assert fock_brute_force_visibility(params) == pytest.approx(
            math.exp(-8.0), rel=1e-11)


def test_acceptance_5_q_function_sanity():
    rng = np.random.default_rng(51)

    def check(terms):
        total = sum(integrate_q_term(t) for t in terms)
        assert abs(total - 1.0) <= 1e-4
        za = rng.uniform(-4, 4, 64) + 1j * rng.uniform(-4, 4, 64)
        zb = rng.uniform(-4, 4, 64) + 1j * rng.uniform(-4, 4, 64)
        vals = q_full(terms, za, zb)
        assert float(np.min(vals)) >= -1e-12

    with criterion(5, "Q normalization and positivity"):
        check([coherent_product_term(0.0, 0.0)])
        for alpha in (0.5, 1.0 + 1.0j, 2.0, -1.3 + 0.4j):
            check([coherent_product_term(alpha, 0.7j)])
        for a0 in (0.5, 1.0, 2.0):
            for phi in PHI_GRID:
                check(initial_cat_terms(a0, phi))


def test_acceptance_6_splitter_unitarity_and_coherent_fidelity():
    rng = np.random.default_rng(61)
    with criterion(6, "splitter norm and coherent fidelity"):
        for r in (0.2, 0.5, 0.8):
            bs = BeamSplitter(r)
            for _ in range(6):
                mode = random_mode(rng, 16, 8)
                out = bs_fock_apply(bs, mode, 16)
                assert abs(out.squared_norm - mode.squared_norm) <= 1e-10

        for alpha in (0.5, 1.0j, 1.5 - 0.5j, 2.0):
            for r in (0.1, 0.4, 0.7):
                bs = BeamSplitter(r)
                out = bs_fock_apply(bs, coherent_fock(alpha, cutoff=35), 30)
                ta, rb = bs_label_pair_map(bs, alpha, 0)
                want = TwoModeState.from_product(
                    coherent_fock(ta, cutoff=35), coherent_fock(rb, cutoff=30)
                )
                fid = abs(want.inner(out)) ** 2 / (
                    want.squared_norm * out.squared_norm
                )
                assert fid >= 1.0 - 1e-8, (alpha, r)


def test_acceptance_7_property_suite():
    rng = np.random.default_rng(71)
    with criterion(7, "structural properties"):
        # log-visibility is linear in squared reflectivity
        r2 = np.linspace(0.0025, 0.25, 30)
        y = -np.log(visibility_closed_form(np.sqrt(r2), 2.0, np.pi / 4))
        coef = np.polyfit(r2, y, 1)
        assert float(np.max(np.abs(y - np.polyval(coef, r2)))) < 1e-10

        # the phase of alpha0 never matters
        base = ExperimentParams(alpha0=1.7, phi=0.9, r=0.35)
        for chi in rng.uniform(0.0, 2 * np.pi, 8):
            spun = ExperimentParams(
                alpha0=1.7 * np.exp(1j * chi), phi=0.9, r=0.35
            )
            assert visibility_closed_form(
                spun.r, abs(spun.alpha0), spun.phi
            ) == pytest.approx(
                visibility_closed_form(base.r, abs(base.alpha0), base.phi),
                rel=1e-14,
            )
            assert abs(environment_overlap_oracle(spun)) == pytest.approx(
                abs(environment_overlap_oracle(base)), rel=1e-14
            )

        # strictly decreasing in R^2, sin^2(phi), |alpha0|^2
        seq_r = visibility_closed_form(np.linspace(0.05, 0.9, 12), 2.0, 0.8)
        assert np.all(np.diff(seq_r) < 0)
        seq_phi = visibility_closed_form(
            0.4, 2.0, np.linspace(0.05, np.pi / 2, 12)
        )
        assert np.all(np.diff(seq_phi) < 0)
        seq_a = visibility_closed_form(0.4, np.linspace(0.2, 4.0, 12), 0.8)
        assert np.all(np.diff(seq_a) < 0)

        # opposite number-dependent phase plates cancel exactly
        state = TwoModeState.from_product(
            coherent_fock(1.2 + 0.8j, cutoff=25), coherent_fock(0.0, cutoff=2)
        )
        back = phase_shift_fock_a(phase_shift_fock_a(state, 0.6), -0.6)
        np.testing.assert_allclose(
            back.amplitudes, state.amplitudes, atol=1e-15
        )

        # overlap symmetry and modulus identities
        for _ in range(10):
            a = complex(*rng.normal(0, 1.5, 2))
            b = complex(*rng.normal(0, 1.5, 2))
            fwd, rev = coherent_overlap(a, b), coherent_overlap(b, a)
            assert fwd == pytest.approx(np.conjugate(rev), rel=1e-13)
            assert abs(fwd) ** 2 == pytest.approx(
                math.exp(-abs(a - b) ** 2), rel=1e-12
            )


def test_acceptance_8_deterministic_output(capsys):
    with criterion(8, "byte-identical reruns"):
        configs = [
            RunConfig(subcommand="visibility", alpha0=2.0, r=0.3, phi=0.7),
            RunConfig(subcommand="visibility", alpha0=2.0, r=0.3, phi=0.7,
                      format="json"),
            RunConfig(subcommand="fringe", alpha0=3.0, r=0.2),
            RunConfig(subcommand="fringe", alpha0=3.0, r=0.2, format="json"),
            RunConfig(subcommand="qfunction", alpha0=1.0, extent=3.0,
                      spacing=0.5),
            RunConfig(subcommand="qfunction", alpha0=1.0, extent=3.0,
                      spacing=0.5, format="json"),
            RunConfig(subcommand="sweep", r_values=(0.1, 0.3),
                      alpha0_values=(1.0,), phi_values=(0.8,)),
            RunConfig(subcommand="sweep", r_values=(0.1, 0.3),
                      alpha0_values=(1.0,), phi_values=(0.8,), format="json"),
        ]
        def text(cfg):
            buf = io.StringIO()
            with redirect_stdout(buf):
                _COMMANDS[cfg.subcommand](cfg)
            return buf.getvalue()

        with quiet():
            for cfg in configs:
                first = text(cfg)
                second = text(cfg)
                assert first == second, cfg.subcommand
                assert first.encode() == second.encode()

        # and through the real entry point
        argv = ["sweep", "--R-values", "0.1,0.2", "--alpha0-values", "2",
                "--phi-values", "0.9", "--format", "json"]
        assert main(argv) == 0
        out1 = capsys.readouterr().out
        assert main(argv) == 0
        out2 = capsys.readouterr().out
        assert out1 == out2 and out1
