"""Truncated single-mode states: construction, overlaps, cats."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catvis import (
    ExperimentParams,
    ModeState,
    TruncationError,
    cat_fock,
    cat_norm_constant,
    coherent_fock,
    coherent_overlap,
    default_cutoff,
    fock_brute_force_visibility,
)
from catvis.experiment import _require_tail, _tail_bound
from catvis.fock import _cat_components
from helpers import coherent_amplitudes_direct, poisson_mass

INV_SQRT2 = 0.7071067811865476  # 1/sqrt(2)


def test_default_cutoff_keeps_headroom():
    for mag in (0.0, 0.5, 1.0, 3.0, 20.0):
        cut = default_cutoff(mag)
        assert isinstance(cut, int)
        assert cut >= mag * mag + 8.0 * mag + 10.0


def test_default_cutoff_monotone():
    mags = np.linspace(0.0, 10.0, 41)
    cuts = [default_cutoff(m) for m in mags]
    assert all(b >= a for a, b in zip(cuts, cuts[1:]))


def test_vacuum_state():
    v = coherent_fock(0.0, cutoff=8)
    assert v.cutoff == 8
    assert v.amplitudes[0] == 1.0
    assert np.all(v.amplitudes[1:] == 0.0)
    assert v.squared_norm == 1.0


def test_vacuum_requires_positive_cutoff():
    with pytest.raises(ValueError):
        coherent_fock(0.0, cutoff=0)


@pytest.mark.parametrize(
    "alpha", [0.0, 0.5, -2.5, 1.0 + 1.0j, 2.0 * np.exp(1j * np.pi / 3), 3.0j, 6.0]
)
def test_coherent_matches_direct_series(alpha):
    state = coherent_fock(alpha)
    want = coherent_amplitudes_direct(alpha, state.cutoff)
    np.testing.assert_allclose(state.amplitudes, want, rtol=1e-12, atol=1e-15)


def test_coherent_norm_deficit_is_the_poisson_tail():
    for alpha in (1.0, 2.0, 3.0):
        state = coherent_fock(alpha)
        tail = poisson_mass(alpha, state.cutoff, state.cutoff + 200)
        assert abs((1.0 - state.squared_norm) - tail) < 1e-13


def test_coherent_zero_is_vacuum():
    state = coherent_fock(0.0, cutoff=5)
    np.testing.assert_array_equal(state.amplitudes, [1, 0, 0, 0, 0])


def test_coherent_explicit_cutoff():
    assert coherent_fock(1.0, cutoff=7).cutoff == 7


def test_overlap_modulus_identity():
    rng = np.random.default_rng(11)
    for _ in range(30):
        a, b = (rng.standard_normal(2) @ np.array([1, 1j]) for _ in range(2))
        ov = coherent_overlap(a, b)
        assert abs(abs(ov) ** 2 - math.exp(-abs(a - b) ** 2)) < 1e-12


def test_overlap_conjugate_symmetry():
    rng = np.random.default_rng(12)
    for _ in range(20):
        a, b = (complex(*rng.standard_normal(2)) for _ in range(2))
        assert coherent_overlap(a, b) == pytest.approx(
            np.conjugate(coherent_overlap(b, a)), rel=1e-13
        )


def test_overlap_self_is_unity():
    assert coherent_overlap(1.3 - 0.4j, 1.3 - 0.4j) == pytest.approx(1.0)


def test_overlap_broadcasts_and_scalar_type():
    grid = np.array([[0.0, 1.0], [1j, 2.0 + 1j]])
    out = coherent_overlap(grid, 0.5)
    assert out.shape == grid.shape
    scalar = coherent_overlap(0.3, 0.5j)
    assert isinstance(scalar, complex)


def test_truncated_inner_approximates_overlap():
    a, b = 1.2, 0.8 + 0.6j
    sa = coherent_fock(a, cutoff=40)
    sb = coherent_fock(b, cutoff=40)
    assert abs(sa.inner(sb) - coherent_overlap(a, b)) < 1e-10


def test_inner_requires_common_cutoff():
    with pytest.raises(ValueError):
        coherent_fock(0.0, cutoff=4).inner(coherent_fock(0.0, cutoff=5))


# The tail guard lives in catvis.experiment beside its threshold; the
# brute force applies it to each truncated coherent state it builds.  It
# bounds the mass past the cutoff by the first discarded term over 1 - q.


def test_tail_guard_raises_on_small_cutoff():
    with pytest.raises(TruncationError) as exc:
        _require_tail(coherent_fock(3.0, cutoff=12).amplitudes, 3.0)
    assert str(exc.value) == (
        "cutoff 12 leaves tail mass up to 2.365e-01 >= 1.0e-12 for |alpha| = 3; "
        "retry with cutoff >= 38"
    )


def test_tail_guard_passes_at_default_cutoff():
    # from 5 on the retired top-band rule refused these
    for alpha in (2.0, 3.0, 5.0, 20.0, 30.0):
        _require_tail(coherent_fock(alpha).amplitudes, alpha)


def test_tail_guard_refuses_where_the_bound_diverges():
    # at cutoff 8, q = |alpha|^2 / 9 = 1: the ratio bound says nothing, and
    # a state never discards more than its unit mass
    with pytest.raises(TruncationError) as exc:
        _require_tail(coherent_fock(3.0, cutoff=8).amplitudes, 3.0)
    assert str(exc.value) == (
        "cutoff 8 leaves tail mass up to 1.000e+00 >= 1.0e-12 for |alpha| = 3; "
        "retry with cutoff >= 38"
    )


def test_tail_bound_hand_value():
    # last level 0.6 of ten at |alpha|^2 = 4: t0 = 0.36 * 4 / 10 and
    # q = 4 / 11, so the bound is 0.144 / (7 / 11)
    amps = np.zeros(10)
    amps[0] = 0.8
    amps[9] = 0.6
    assert _tail_bound(0.36, 4.0, 10) == pytest.approx(0.144 * 11 / 7, rel=1e-15)
    with pytest.raises(TruncationError) as exc:
        _require_tail(amps, 2.0)
    assert str(exc.value) == (
        "cutoff 10 leaves tail mass up to 2.263e-01 >= 1.0e-12 for |alpha| = 2; "
        "retry with cutoff >= 26"
    )
    amps[8], amps[9] = 0.6, 0.0
    _require_tail(amps, 2.0)  # mass below the last level is kept, not discarded


@pytest.mark.parametrize("alpha,cutoff", [
    (0.5, 2), (1.0, 5), (3.0, 12), (3.0, 8), (5.0, 60), (10.0, 30), (20.0, 400),
])
def test_tail_guard_retry_at_the_suggestion_passes(alpha, cutoff):
    with pytest.raises(TruncationError) as exc:
        _require_tail(coherent_fock(alpha, cutoff=cutoff).amplitudes, alpha)
    need = int(str(exc.value).rsplit(">= ", 1)[1])
    assert need <= default_cutoff(alpha)
    _require_tail(coherent_fock(alpha, cutoff=need).amplitudes, alpha)
    with pytest.raises(TruncationError):  # the smallest that passes
        _require_tail(coherent_fock(alpha, cutoff=need - 1).amplitudes, alpha)


@settings(deadline=None, derandomize=True, max_examples=200)
@given(alpha=st.floats(0.01, 25.0), extra=st.integers(-5, 200))
def test_tail_bound_covers_the_discarded_mass(alpha, extra):
    # the bound sits above the Poisson mass past the cutoff, summed term by
    # term, and tracks it where it matters
    cutoff = max(1, math.floor(alpha * alpha) + extra)
    amps = coherent_fock(alpha, cutoff=cutoff).amplitudes
    bound = _tail_bound(abs(amps[-1]) ** 2, alpha * alpha, cutoff)
    tail = poisson_mass(alpha, cutoff, cutoff + 2000)
    assert bound >= tail * (1.0 - 1e-9)
    if tail >= 1e-14 and extra >= 8 * alpha:
        assert bound <= 1.5 * tail


class TestStartBound:
    # past |alpha| = 37.64 the vacuum amplitude exp(-|alpha|^2/2) that starts
    # the recurrence is subnormal, and from about 38.6 it is 0
    TEXT = ("|alpha0| = {} is past 37.64, the largest at which the Fock route "
            "can start: past it the vacuum amplitude exp(-|alpha0|^2/2) is "
            "subnormal")

    def test_largest_accepted_magnitude_builds_unit_states(self):
        assert coherent_fock(37.64).squared_norm == pytest.approx(1.0, abs=1e-12)
        assert coherent_fock(-37.64j).squared_norm == pytest.approx(1.0, abs=1e-12)
        assert cat_fock(37.64, 1.0).squared_norm == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [38.0, 40.0, 40.0j, -38.0])
    def test_coherent_state_past_the_bound_is_refused(self, alpha):
        with pytest.raises(ValueError) as exc:
            coherent_fock(alpha)
        assert not isinstance(exc.value, TruncationError)
        assert str(exc.value) == self.TEXT.format(f"{abs(alpha):g}")
        with pytest.raises(ValueError, match="past 37.64"):
            coherent_fock(alpha, cutoff=5)  # refused whatever the cutoff

    @pytest.mark.parametrize("alpha0", [38.0, 40.0])
    def test_cat_past_the_bound_is_refused(self, alpha0):
        with pytest.raises(ValueError) as exc:
            cat_fock(alpha0, 1.0)
        assert str(exc.value) == self.TEXT.format(f"{alpha0:g}")

    def test_brute_force_shares_the_bound(self):
        from catvis import experiment, fock
        assert experiment._MAX_FOCK_ALPHA0 is fock._MAX_FOCK_ALPHA0


def test_state_validation():
    with pytest.raises(ValueError):
        ModeState(np.ones((2, 2)))
    with pytest.raises(ValueError):
        ModeState(np.array([], dtype=complex))
    with pytest.raises(ValueError, match="norm"):
        ModeState(np.array([1.1]))
    with pytest.raises(ValueError):
        ModeState(np.array([np.nan]))


def test_amplitudes_are_read_only():
    state = coherent_fock(0.0, cutoff=3)
    with pytest.raises((ValueError, RuntimeError)):
        state.amplitudes[0] = 0.0


def test_cat_norm_constant_orthogonal_components():
    # cross overlap is e^{-18} here, so the constant sits at 1/sqrt(2)
    c = cat_norm_constant(3.0, np.pi / 2)
    assert abs(c - INV_SQRT2) < 2e-8


def test_cat_norm_constant_aligned_components():
    # identical components double up: 1/sqrt(4)
    assert cat_norm_constant(1.7, 0.0) == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize(
    "alpha0,phi",
    [(2.0, np.pi / 4), (1.0, np.pi / 6), (0.5, np.pi / 2), (2.0j, np.pi / 3)],
)
def test_cat_state_normalized(alpha0, phi):
    state = cat_fock(alpha0, phi)
    assert abs(state.squared_norm - 1.0) < 1e-10


def test_cat_parity_structure_at_right_angle():
    # components +/- i alpha0 cancel the odd number amplitudes exactly
    state = cat_fock(1.5, np.pi / 2)
    assert np.max(np.abs(state.amplitudes[1::2])) < 1e-15


def test_cat_matches_component_sum():
    alpha0, phi = 1.2 + 0.3j, 0.7
    state = cat_fock(alpha0, phi, cutoff=40)
    plus = coherent_fock(alpha0 * np.exp(1j * phi), cutoff=40).amplitudes
    minus = coherent_fock(alpha0 * np.exp(-1j * phi), cutoff=40).amplitudes
    want = cat_norm_constant(alpha0, phi) * (plus + minus)
    np.testing.assert_allclose(state.amplitudes, want, rtol=1e-12, atol=1e-15)


def test_cat_spec_components():
    plus, minus = _cat_components(2.0, np.pi / 3)
    assert plus == pytest.approx(2.0 * np.exp(1j * np.pi / 3))
    assert minus == pytest.approx(2.0 * np.exp(-1j * np.pi / 3))


def test_cat_tail_guard():
    # the brute force guards each component of the cat it propagates
    params = ExperimentParams(alpha0=3.0, phi=np.pi / 4, r=0.3, cutoff_a=12)
    message = r"^cutoff 12 leaves tail mass up to 2\.365e-01"
    with pytest.raises(ValueError, match=message):
        fock_brute_force_visibility(params)
