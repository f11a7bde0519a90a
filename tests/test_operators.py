"""Two-mode operations: splitter, phase shifts, reduced operators; and the
dense quadrature-moment oracle the moment tests rest on."""

import math

import numpy as np
import pytest

from catvis import (
    BeamSplitter,
    ModeState,
    TruncationError,
    TwoModeState,
    bs_fock_apply,
    bs_label_pair_map,
    coherent_fock,
    coherent_overlap,
    interference_reduced_a,
)
from helpers import (
    bs_fock_apply_series,
    dense_bs_unitary,
    phase_shift_fock_a,
    random_mode,
    random_two_mode,
    two_mode_vec,
    x_mean_var,
)

SQRT_3_4 = 0.8660254037844386  # sqrt(0.75)


class TestBeamSplitter:
    def test_auto_transmission(self):
        assert BeamSplitter(0.5).t == pytest.approx(SQRT_3_4, abs=1e-15)
        assert BeamSplitter(0.0).t == 1.0

    def test_explicit_pair(self):
        # the transmissivity is derived, and exact on a Pythagorean pair
        bs = BeamSplitter(0.6)
        assert (bs.r, bs.t) == (0.6, 0.8)

    @pytest.mark.parametrize("r", [1.0, -0.1, 1.5])
    def test_reflectivity_range(self, r):
        with pytest.raises(ValueError):
            BeamSplitter(r)

    def test_inconsistent_pair(self):
        # no transmissivity can be passed, so no pair can break r^2 + t^2 = 1
        with pytest.raises(TypeError):
            BeamSplitter(0.6, 0.9)
        with pytest.raises(TypeError):
            BeamSplitter(0.6, t=0.8)


class TestTwoModeState:
    def test_from_product(self):
        a = coherent_fock(1.0, cutoff=6)
        b = coherent_fock(0.0, cutoff=4)
        st = TwoModeState.from_product(a, b)
        assert (st.cutoff_a, st.cutoff_b) == (6, 4)
        np.testing.assert_allclose(
            st.amplitudes, np.outer(a.amplitudes, b.amplitudes)
        )
        assert st.squared_norm == pytest.approx(a.squared_norm)

    def test_validation(self):
        with pytest.raises(ValueError):
            TwoModeState(np.ones(3))
        with pytest.raises(ValueError, match="norm"):
            TwoModeState(np.full((2, 2), 1.0))

    def test_inner(self):
        rng = np.random.default_rng(3)
        x = random_two_mode(rng, 5, 5, 3)
        y = random_two_mode(rng, 5, 5, 3)
        want = np.vdot(x.amplitudes, y.amplitudes)
        assert x.inner(y) == pytest.approx(want)


def test_coherent_label_map():
    bs = BeamSplitter(0.6)
    out_a, out_b = bs_label_pair_map(bs, 2.0, 0)
    assert out_a == pytest.approx(1.6)
    assert out_b == pytest.approx(1.2j)


def test_pair_label_map_reduces_to_single():
    # vacuum in B: the labels leave as (t alpha, i r alpha)
    bs = BeamSplitter(0.3)
    assert bs_label_pair_map(bs, 1.5j, 0.0) == pytest.approx(
        (bs.t * 1.5j, 1j * bs.r * 1.5j)
    )


def test_pair_label_map_conserves_energy():
    rng = np.random.default_rng(4)
    bs = BeamSplitter(0.7)
    for _ in range(10):
        a, b = (complex(*rng.standard_normal(2)) for _ in range(2))
        oa, ob = bs_label_pair_map(bs, a, b)
        assert abs(oa) ** 2 + abs(ob) ** 2 == pytest.approx(
            abs(a) ** 2 + abs(b) ** 2, rel=1e-12
        )


@pytest.mark.parametrize("r", [0.3, 0.6, 0.85])
def test_fock_apply_matches_dense_exponential(r):
    # general two-mode input: the exchange-series oracle against the dense
    # unitary, so the oracle the sector map is held to stays validated
    rng = np.random.default_rng(int(r * 100))
    state = random_two_mode(rng, 12, 12, 4)
    want = dense_bs_unitary(r, 12, 12) @ two_mode_vec(state)
    got = bs_fock_apply_series(BeamSplitter(r), state).reshape(-1)
    np.testing.assert_allclose(got, want, atol=1e-12)


def with_vacuum_b(mode: ModeState, cutoff_b: int) -> TwoModeState:
    """``mode (x) |0>``, the input the exchange-series oracle takes."""
    return TwoModeState.from_product(mode, coherent_fock(0.0, cutoff=cutoff_b))


def test_fock_apply_identity_at_zero_reflectivity():
    mode = random_mode(np.random.default_rng(5), 16, 8)
    out = bs_fock_apply(BeamSplitter(0.0), mode, 16)
    np.testing.assert_allclose(
        out.amplitudes, with_vacuum_b(mode, 16).amplitudes, atol=1e-15
    )


def test_single_photon_splits():
    bs = BeamSplitter(0.6)
    out = bs_fock_apply(bs, ModeState([0, 1, 0]), 3).amplitudes
    assert out[1, 0] == pytest.approx(0.8)
    assert out[0, 1] == pytest.approx(0.6j)

    # a photon in mode B: the exchange-series oracle
    amps = np.zeros((3, 3))
    amps[0, 1] = 1.0
    out = bs_fock_apply_series(bs, TwoModeState(amps))
    assert out[0, 1] == pytest.approx(0.8)
    assert out[1, 0] == pytest.approx(0.6j)


def test_norm_preserved_below_truncation_band():
    mode = random_mode(np.random.default_rng(6), 16, 8)
    out = bs_fock_apply(BeamSplitter(0.6), mode, 16)
    assert abs(out.squared_norm - mode.squared_norm) < 1e-12


def test_coherent_product_passes_through_exactly():
    bs = BeamSplitter(0.5)
    alpha = 2.0
    out = bs_fock_apply(bs, coherent_fock(alpha, cutoff=35), 25)
    la, lb = bs_label_pair_map(bs, alpha, 0)
    want = TwoModeState.from_product(
        coherent_fock(la, cutoff=35), coherent_fock(lb, cutoff=25)
    )
    np.testing.assert_allclose(out.amplitudes, want.amplitudes, atol=1e-9)
    fid = abs(out.inner(want)) / (out.norm * want.norm)
    assert fid >= 1.0 - 1e-10


class TestVacuumPortSectors:
    """The binomial sector map on ``psi (x) |0>``, held to the dense unitary
    and to the exchange-series oracle."""

    @pytest.mark.parametrize("r", [0.0, 0.3, 0.99])
    def test_matches_dense_exponential(self, r):
        rng = np.random.default_rng(int(r * 100) + 20)
        # every input sector n < 10 fits inside both cutoffs
        mode = random_mode(rng, 10, 10)
        want = dense_bs_unitary(r, 10, 12) @ two_mode_vec(with_vacuum_b(mode, 12))
        got = bs_fock_apply(BeamSplitter(r), mode, 12)
        np.testing.assert_allclose(two_mode_vec(got), want, atol=1e-12)

    # (|alpha|, R, cutoff_a, cutoff_b): the subnormal-series points, the
    # |alpha0| = 20 point that once leaked everything, and the largest R of
    # each magnitude in the bench's brute workload with its cutoffs
    POINTS = [(10.0, 0.95, 240, 187), (10.0, 0.99, 240, 198), (20.0, 0.5, 660, 200)]
    POINTS += [
        (a, 0.35, math.ceil(a * a + 12 * a + 20),
         math.ceil((0.35 * a) ** 2 + 8 * 0.35 * a + 10) + 10)
        for a in (4.0, 8.0, 12.0, 16.0, 20.0)
    ]

    @pytest.mark.parametrize("alpha,r,na,nb", POINTS)
    def test_matches_the_exchange_series(self, alpha, r, na, nb):
        mode = coherent_fock(alpha * np.exp(0.7j), cutoff=na)
        bs = BeamSplitter(r)
        got = bs_fock_apply(bs, mode, nb)  # no TruncationError: nothing leaks
        want = bs_fock_apply_series(bs, with_vacuum_b(mode, nb))
        assert np.max(np.abs(got.amplitudes - want)) <= 1e-13
        assert abs(got.squared_norm - mode.squared_norm) <= 1e-13

    def test_leak_is_the_binomial_tail(self):
        bs = BeamSplitter(0.6)
        # untruncated (cutoff_b 7 holds every k <= 6): each output column
        # carries exactly its binomial weight
        mode = ModeState(np.eye(8)[6])
        out = bs_fock_apply(bs, mode, 7).amplitudes
        for k in range(7):
            weight = math.comb(6, k) * bs.r ** (2 * k) * bs.t ** (2 * (6 - k))
            assert np.vdot(out[:, k], out[:, k]).real == pytest.approx(
                weight, rel=1e-14
            )
        # mode A never gains photons
        assert not out[7:].any()
        # truncated at cutoff_b 3, the binomial tail k >= 3 is the leak, and
        # only cutoff_b 7 keeps it under the threshold
        leak = sum(
            math.comb(6, k) * bs.r ** (2 * k) * bs.t ** (2 * (6 - k))
            for k in range(3, 7)
        )
        with pytest.raises(TruncationError) as exc:
            bs_fock_apply(bs, mode, 3)
        assert str(exc.value) == (
            f"splitter propagation leaked {leak:.3e} probability at cutoffs "
            "(8, 3); retry with cutoff_b >= 7"
        )


def test_leakage_raises_with_cutoff_b_advice():
    with pytest.raises(TruncationError, match=r"cutoffs \(30, 4\); retry with "
                       r"cutoff_b >= \d+$"):
        bs_fock_apply(BeamSplitter(0.5), coherent_fock(2.0, cutoff=30), 4)


@pytest.mark.parametrize("cutoff_b", [0, -2])
def test_cutoff_b_must_be_positive(cutoff_b):
    with pytest.raises(ValueError, match="cutoff_b must be positive"):
        bs_fock_apply(BeamSplitter(0.5), coherent_fock(1.0, cutoff=10), cutoff_b)


def test_phase_shift_fock_tracks_coherent_label():
    alpha, chi = 1.3 - 0.4j, 0.8
    vac = coherent_fock(0.0, cutoff=3)
    shifted = phase_shift_fock_a(
        TwoModeState.from_product(coherent_fock(alpha, cutoff=30), vac), chi
    )
    want = TwoModeState.from_product(
        coherent_fock(np.exp(1j * chi) * alpha, cutoff=30), vac
    )
    np.testing.assert_allclose(shifted.amplitudes, want.amplitudes, atol=1e-13)


@pytest.mark.parametrize("chi", [4.0, -7.5, 1109599999999999.9, -3e17, 1e19])
def test_phase_shift_fock_tracks_coherent_label_at_large_chi(chi):
    # past pi the shift turns by the reduced angle: chi * n would round, and
    # at 1e15 the label drifted by a tenth of a radian per level
    alpha = 1.3 - 0.4j
    vac = coherent_fock(0.0, cutoff=3)
    shifted = phase_shift_fock_a(
        TwoModeState.from_product(coherent_fock(alpha, cutoff=30), vac), chi
    )
    want = TwoModeState.from_product(
        coherent_fock(np.exp(1j * chi) * alpha, cutoff=30), vac
    )
    np.testing.assert_allclose(shifted.amplitudes, want.amplitudes, atol=1e-13)


def test_phase_shift_fock_a_keeps_the_bits_of_chi_up_to_pi():
    state = random_two_mode(np.random.default_rng(9), 7, 5, 4)
    # np.angle(np.exp(1j * chi)) != chi at the first two
    for chi in (-0.35969458386482067, 0.3910141967285594, np.pi, -np.pi):
        out = phase_shift_fock_a(state, chi)
        want = state.amplitudes * np.exp(1j * chi * np.arange(7))[:, None]
        assert out.amplitudes.tobytes() == want.tobytes()


def test_phase_shift_fock_a_only_touches_mode_a():
    rng = np.random.default_rng(7)
    state = random_two_mode(rng, 6, 5, 4)
    chi = 0.37
    out = phase_shift_fock_a(state, chi)
    want = state.amplitudes * np.exp(1j * chi * np.arange(6))[:, None]
    np.testing.assert_allclose(out.amplitudes, want)
    assert out.squared_norm == pytest.approx(state.squared_norm)


def test_phase_shift_roundtrip_is_identity():
    rng = np.random.default_rng(8)
    state = random_two_mode(rng, 9, 9, 9)
    back = phase_shift_fock_a(phase_shift_fock_a(state, 0.9), -0.9)
    np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-14)


class TestQuadratures:
    # checks the dense x-moment oracle of tests/helpers.py against closed
    # forms, so the moment tests that rest on it are evidence
    def test_coherent_moments(self):
        for alpha in (0.5, 1.5 - 0.5j, 2.0j):
            mean, var = x_mean_var(coherent_fock(alpha).amplitudes)
            assert mean == pytest.approx(complex(alpha).real, abs=1e-10)
            assert var == pytest.approx(0.25, abs=1e-10)

    def test_number_state_moments(self):
        amps = np.zeros(10)
        amps[3] = 1.0
        mean, var = x_mean_var(amps)
        assert mean == pytest.approx(0.0, abs=1e-14)
        assert var == pytest.approx((2 * 3 + 1) / 4.0)

    def test_zero_state_rejected(self):
        with pytest.raises(ValueError):
            x_mean_var(np.zeros(3))

    def test_subnormalized_states_use_normalized_moments(self):
        amps = 0.5 * coherent_fock(1.0, cutoff=25).amplitudes
        mean, var = x_mean_var(amps)
        assert mean == pytest.approx(1.0, abs=1e-10)
        assert var == pytest.approx(0.25, abs=1e-10)


def test_partial_trace_of_product_is_rank_one():
    a = coherent_fock(1.2, cutoff=12)
    b = coherent_fock(0.5j, cutoff=8)
    state = TwoModeState.from_product(a, b)
    rho = interference_reduced_a(state, state)
    want = np.outer(a.amplitudes, a.amplitudes.conj()) * b.squared_norm
    np.testing.assert_allclose(rho, want, atol=1e-14)
    assert complex(np.trace(rho)).real == pytest.approx(
        a.squared_norm * b.squared_norm
    )


def test_interference_trace_is_branch_overlap():
    rng = np.random.default_rng(12)
    ket = random_two_mode(rng, 7, 6, 4)
    bra = random_two_mode(rng, 7, 6, 4)
    cross = interference_reduced_a(ket, bra)
    want = np.einsum("mk,mk->", ket.amplitudes, bra.amplitudes.conj())
    assert complex(np.trace(cross)) == pytest.approx(complex(want))


def test_interference_requires_matching_cutoffs():
    rng = np.random.default_rng(13)
    with pytest.raises(ValueError):
        interference_reduced_a(
            random_two_mode(rng, 6, 6, 3), random_two_mode(rng, 7, 6, 3)
        )
