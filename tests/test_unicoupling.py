"""Tests for univariate coupling estimators and their asymptotic laws."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spikefield.errors import DomainError, UndefinedEstimateError
from spikefield.pointproc import HomogeneousRate, SinusoidRate, SpikeData, VonMisesRate, simulate_poisson
from spikefield.signals import LinearPhase
from spikefield.unicoupling import (
    AsymptoticLaw,
    estimate_plv,
    plv_asymptotics_sinusoid,
    plv_asymptotics_vonmises,
    plv_limit_numeric,
    plv_null_test,
)

from oracles import (
    bessel_quadrature,
    partial_cycle_plv,
    plv_law_quadrature,
    vonmises_law_mp,
    vonmises_plv_quadrature,
)


def _spikes(window, trials):
    return SpikeData(window=window, trains=[trials])


class TestEstimatePlv:
    def test_all_spikes_at_phase_zero(self):
        sd = _spikes(2.0, [np.array([0.0, 1.0, 2.0])])
        assert estimate_plv(LinearPhase(1.0, 2.0), sd) == pytest.approx(1.0)

    def test_opposite_phases_cancel(self):
        sd = _spikes(1.0, [np.array([0.0, 0.5])])
        assert abs(estimate_plv(LinearPhase(1.0, 1.0), sd)) == pytest.approx(0.0, abs=1e-15)

    def test_zero_spikes_is_an_error(self):
        sd = _spikes(1.0, [np.empty(0), np.empty(0)])
        with pytest.raises(UndefinedEstimateError, match="undefined"):
            estimate_plv(LinearPhase(1.0, 1.0), sd)

    def test_modulus_bounded(self):
        rng = np.random.default_rng(32)
        sd = _spikes(1.0, [np.sort(rng.uniform(0, 1, 17)), np.sort(rng.uniform(0, 1, 5))])
        assert abs(estimate_plv(LinearPhase(3.0, 1.0), sd)) <= 1.0

    def test_invariant_to_trial_reshuffle(self):
        rng = np.random.default_rng(33)
        trials = [np.sort(rng.uniform(0, 1, rng.integers(0, 20))) for _ in range(8)]
        phase = LinearPhase(2.0, 1.0)
        a = estimate_plv(phase, _spikes(1.0, trials))
        b = estimate_plv(phase, _spikes(1.0, trials[::-1]))
        assert a == pytest.approx(b, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 7, 9])
    def test_equals_the_complex_exp_mean_few_spikes(self, n):
        # 1, 2, 7 and 9 phasors sit at the edges of the pairwise sum's blocks.
        times = np.sort(np.random.default_rng(n).uniform(0.0, 5.0, n))
        phase = LinearPhase(1.3, 5.0)
        expected = complex(np.mean(np.exp(1j * phase.phase(times))))
        assert estimate_plv(phase, _spikes(5.0, [times])) == expected

    def test_equals_the_complex_exp_mean_at_published_scale(self):
        # About 500 k spikes, as one univar-coupled replicate. Equality pins the
        # host's real cos and sin to its complex exp, element by element.
        phase = LinearPhase(1.0, 5.0)
        sd = simulate_poisson(VonMisesRate(20.0, 0.5, 0.0, phase), 5.0, 5000,
                              np.random.default_rng(34))
        t = sd.unit_times(0)
        assert t.size > 450_000
        assert estimate_plv(phase, sd) == complex(np.mean(np.exp(1j * phase.phase(t))))


class TestPhaseWindow:
    """A phase model must cover the spikes' window, whatever the spike times."""

    def test_short_linear_phase_rejected(self):
        # Every spike lies inside the phase window; the windows still disagree.
        sd = _spikes(5.0, [np.array([0.2, 0.7]), np.array([0.4])])
        with pytest.raises(DomainError, match="phase model covers 1.0 s but spikes cover 5.0 s"):
            estimate_plv(LinearPhase(1.0, 1.0), sd)

    def test_rounding_slack_and_longer_phase_accepted(self):
        # The same rounding slack that evaluation times get.
        sd = _spikes(5.0 + 4e-9, [np.array([0.2, 5.0 + 4e-9])])
        assert abs(estimate_plv(LinearPhase(1.0, 5.0), sd)) <= 1.0
        assert abs(estimate_plv(LinearPhase(1.0, 6.0), sd)) <= 1.0


class TestVonMisesLaw:
    def test_uncoupled(self):
        law = plv_asymptotics_vonmises(0.0, 0.0, 20.0, 5.0)
        assert law.limit == 0.0
        assert np.allclose(law.cov, np.eye(2) / 200.0)
        assert law.expected_events == pytest.approx(100.0)

    def test_coupled_half(self):
        # Frozen from the quadrature oracle: I1/I0 and (I0 +/- I2)/(2 r T I0^2).
        law = plv_asymptotics_vonmises(0.5, 0.0, 20.0, 5.0)
        assert law.limit.real == pytest.approx(0.24249961258080197, abs=1e-10)
        assert law.limit.imag == 0.0
        i0 = bessel_quadrature(0, 0.5)
        i2 = bessel_quadrature(2, 0.5)
        assert law.cov[0, 0] == pytest.approx((i0 + i2) / (200.0 * i0**2), rel=1e-9)
        assert law.cov[1, 1] == pytest.approx((i0 - i2) / (200.0 * i0**2), rel=1e-9)
        assert law.cov[0, 1] == 0.0
        assert law.expected_events == pytest.approx(100.0 * i0, rel=1e-9)

    def test_rotation(self):
        law = plv_asymptotics_vonmises(0.5, math.pi / 2, 20.0, 5.0)
        assert law.limit.real == pytest.approx(0.0, abs=1e-15)
        assert law.limit.imag == pytest.approx(0.24249961258080197, abs=1e-10)
        assert law.rotation == math.pi / 2

    def test_rejects_negative_kappa(self):
        with pytest.raises(DomainError):
            plv_asymptotics_vonmises(-0.5, 0.0, 20.0, 5.0)

    @pytest.mark.parametrize("kappa, message", [
        (math.nan, "must be >= 0, got nan"), (math.inf, "must be >= 0, got inf"),
        (700.5, "must be at most 700.0, got 700.5"),  # the rate model's exp(kappa) cap
    ], ids=["nan", "inf", "past-700"])
    def test_rejects_kappa_as_the_rate_model_does(self, kappa, message):
        with pytest.raises(DomainError, match=f"modulation strength {message}"):
            plv_asymptotics_vonmises(kappa, 0.0, 20.0, 5.0)

    @pytest.mark.parametrize("offset", [math.inf, math.nan])
    def test_rejects_a_phase_offset_that_is_not_finite(self, offset):
        with pytest.raises(DomainError, match="phase offset must be finite"):
            plv_asymptotics_vonmises(0.5, offset, 20.0, 5.0)

    @pytest.mark.parametrize("kappa", [0.0, 5e-324, 1e-300, 1e-8, 0.15, 0.5, 0.8, 10.0, 355.0,
                                       400.0, 700.0])
    def test_against_multiprecision_bessel(self, kappa):
        # From the subnormal floor to the rate model's cap. Past kappa ~ 355
        # I0^2 overflows, which once collapsed the covariance to 0.
        rate0, window, offset = 23.0, 3.0, 0.3
        want = vonmises_law_mp(kappa, rate0, window)
        law = plv_asymptotics_vonmises(kappa, offset, rate0, window)
        corrected = law.ratio_corrected_cov
        limit = abs(law.limit * np.exp(-1j * offset))
        if kappa >= 1e-300:
            assert limit == pytest.approx(want["limit"], rel=1e-13, abs=0.0)
        else:  # I1/I0 = kappa/2 rounds to 0 or to the smallest subnormal
            assert abs(limit - want["limit"]) <= 5e-324
        assert law.expected_events == pytest.approx(want["expected_events"], rel=1e-14, abs=0.0)
        assert law.cov[0, 0] == pytest.approx(want["var_re"], rel=1e-14, abs=0.0)
        # 1 - I2/I0 cancels as kappa grows: 2.9e-3 at kappa = 700.
        assert law.cov[1, 1] == pytest.approx(want["var_im"], rel=5e-13, abs=0.0)
        # So does 1 + I2/I0 - 2 (I1/I0)^2 in the corrected Re variance.
        assert (abs(corrected[0, 0] - want["var_re_corrected"])
                <= 1e-14 / want["expected_events"])
        assert corrected[1, 1] == law.cov[1, 1]
        for cov in (law.cov, corrected):
            assert cov[0, 1] == cov[1, 0] == 0.0 and (cov.diagonal() > 0.0).all()
        if kappa == 0.0:  # the uncoupled law, to the bit
            exact = 1.0 / (2.0 * rate0 * window)
            assert law.limit == 0.0 and law.expected_events == rate0 * window
            assert law.cov.tolist() == corrected.tolist() == [[exact, 0.0], [0.0, exact]]

    def test_ratio_correction_shifts_re_variance_only(self):
        base = plv_asymptotics_vonmises(0.5, 0.0, 20.0, 5.0)
        corr = base.ratio_corrected_cov
        shift = abs(base.limit) ** 2 / base.expected_events
        assert corr[0, 0] == pytest.approx(base.cov[0, 0] - shift, rel=1e-12)
        assert corr[1, 1] == base.cov[1, 1]
        # Null case: no correction when the limit vanishes.
        null = plv_asymptotics_vonmises(0.0, 0.0, 20.0, 5.0).ratio_corrected_cov
        assert np.allclose(null, np.eye(2) / 200.0)

    def test_corrected_variance_matches_monte_carlo(self):
        # The pooled-count normalization makes the PLV a ratio estimator;
        # its Re-variance sits measurably below the constant-count form.
        kappa, rate0, window, trials, n_sims = 0.5, 20.0, 1.0, 4000, 600
        phase = LinearPhase(1.0, window)
        model = VonMisesRate(rate0, kappa, 0.0, phase)
        base = plv_asymptotics_vonmises(kappa, 0.0, rate0, window)
        corr = base.ratio_corrected_cov
        rng = np.random.default_rng(34)
        vals = np.empty(n_sims, dtype=complex)
        for i in range(n_sims):
            vals[i] = estimate_plv(phase, simulate_poisson(model, window, trials, rng))
        z = base.rotated_residuals(vals, trials)
        var_re = np.var(z.real, ddof=1)
        se = corr[0, 0] * math.sqrt(2.0 / n_sims)
        assert abs(var_re - corr[0, 0]) < 3 * se
        assert var_re < base.cov[0, 0]


def _bessel_from_law(x):
    """I0(x), I1(x)/I0(x) and I2(x)/I0(x) as the von Mises law carries them.

    At rate0 = T = 1 and offset 0: expected_events = I0, limit = I1/I0, and
    cov = diag(1 + I2/I0, 1 - I2/I0) / (2 I0).
    """
    law = plv_asymptotics_vonmises(x, 0.0, 1.0, 1.0)
    i0 = law.expected_events
    return i0, law.limit.real, (law.cov[0, 0] - law.cov[1, 1]) * i0


class TestLawBesselValues:
    """The law's modified Bessel values, against the quadrature oracle and I_k identities."""

    def test_at_zero(self):
        assert _bessel_from_law(0.0) == (1.0, 0.0, 0.0)

    def test_ratio_at_half(self):
        # Frozen from the quadrature oracle: I1(0.5)/I0(0.5).
        assert _bessel_from_law(0.5)[1] == pytest.approx(0.24249961258080197, abs=1e-10)

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("x", [0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 14.9, 15.1, 17.0, 20.0])
    def test_against_quadrature(self, order, x):
        i0, r1, r2 = _bessel_from_law(x)
        value = i0 * (1.0, r1, r2)[order]
        assert value == pytest.approx(bessel_quadrature(order, x), rel=1e-10)

    @pytest.mark.parametrize("x", [16.0, 50.0, 200.0, 700.0])
    def test_large_argument_recurrence_consistency(self, x):
        # I0 - I2 = (2/x) I1, past the reach of the quadrature oracle. The
        # law's 1 - I2/I0 is its Im variance times 2 I0.
        law = plv_asymptotics_vonmises(x, 0.0, 1.0, 1.0)
        lhs = 2.0 * law.expected_events * law.cov[1, 1]
        assert lhs == pytest.approx((2.0 / x) * law.limit.real, rel=1e-9)

    @given(x=st.floats(min_value=0.1, max_value=20.0))
    @settings(max_examples=60, deadline=None)
    def test_three_term_recurrence(self, x):
        law = plv_asymptotics_vonmises(x, 0.0, 1.0, 1.0)
        lhs = 2.0 * law.expected_events * law.cov[1, 1]
        rhs = (2.0 / x) * law.limit.real
        assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs), 1e-300)

    @given(x=st.floats(min_value=0.0, max_value=100.0))
    @example(x=5e-324)  # smallest subnormal: I1/I0 = x/2 rounds to 0 or 5e-324
    @example(x=2.2250738585072014e-308)  # smallest normal
    @example(x=1e-8)  # ive(0, x) * e^x rounds to 1 - 2^-53 here
    @settings(max_examples=60, deadline=None)
    def test_order_monotonicity(self, x):
        i0, r1, r2 = _bessel_from_law(x)
        assert i0 >= 1.0
        assert 1.0 >= r1 >= r2 >= 0.0


class TestSinusoidLaw:
    def test_matched(self):
        law = plv_asymptotics_sinusoid(0.3, 1, 1, 0.0, 20.0, 1.0)
        assert law.limit == pytest.approx(0.15)
        assert np.allclose(law.cov, np.eye(2) / 40.0)

    def test_mismatched_harmonics(self):
        law = plv_asymptotics_sinusoid(0.3, 2, 1, 0.7, 20.0, 1.0)
        assert law.limit == 0j

    def test_full_depth(self):
        law = plv_asymptotics_sinusoid(1.0, 3, 3, 0.0, 20.0, 1.0)
        assert law.limit == pytest.approx(0.5)

    def test_rejects_bad_depth(self):
        with pytest.raises(DomainError):
            plv_asymptotics_sinusoid(1.5, 1, 1, 0.0, 20.0, 1.0)

    @pytest.mark.parametrize("offset", [math.inf, math.nan])
    def test_rejects_a_phase_offset_that_is_not_finite(self, offset):
        # The mismatched law's limit is 0 whatever the offset; it is refused all the same.
        for rate_harmonic in (1, 3):
            with pytest.raises(DomainError, match="phase offset must be finite"):
                plv_asymptotics_sinusoid(0.3, rate_harmonic, 1, offset, 20.0, 1.0)


def _assert_law_matches_quadrature(law, rate, phase, window):
    """The law's limit, frame and both covariances against the quadrature oracle."""
    total, limit, paper, corrected = plv_law_quadrature(rate, phase, window, law.rotation)
    assert law.expected_events == pytest.approx(total, rel=1e-11)
    assert abs(law.limit - limit) <= 1e-12
    # The law's frame: the rotated limit is real and nonnegative.
    rotated = np.exp(-1j * law.rotation) * law.limit
    assert abs(rotated.imag) <= 1e-15 and rotated.real >= 0.0
    scale = paper[0, 0] + paper[1, 1]
    np.testing.assert_allclose(law.cov, paper, rtol=0.0, atol=1e-11 * scale)
    np.testing.assert_allclose(law.ratio_corrected_cov, corrected, rtol=0.0, atol=1e-11 * scale)


class TestLawsAgainstQuadrature:
    """Both covariances of each closed form against (1/Lambda^2) int h h^T lambda and its centred form."""

    @pytest.mark.parametrize("offset", [0.0, 0.3])
    @pytest.mark.parametrize("kappa", [0.0, 0.5, 5.0, 50.0])
    def test_vonmises(self, kappa, offset):
        rate0, window, frequency = 3.0, 2.0, 1.0
        law = plv_asymptotics_vonmises(kappa, offset, rate0, window)
        _assert_law_matches_quadrature(
            law, lambda t: rate0 * np.exp(kappa * np.cos(2 * np.pi * frequency * t - offset)),
            lambda t: 2 * np.pi * frequency * t, window)

    @pytest.mark.parametrize("offset", [0.0, 0.3, 1.0, -2.0])
    @pytest.mark.parametrize("rate_harmonic, phase_harmonic", [(1, 1), (2, 2), (3, 1), (2, 1),
                                                               (4, 2)],
                             ids=["matched", "matched-2", "mismatched", "second", "second-2"])
    def test_sinusoid(self, rate_harmonic, phase_harmonic, offset):
        depth, rate0, window = 0.6, 7.0, 2.0
        law = plv_asymptotics_sinusoid(depth, rate_harmonic, phase_harmonic, offset, rate0, window)
        _assert_law_matches_quadrature(
            law,
            lambda t: rate0 * (1 + depth * np.cos(2 * np.pi * rate_harmonic * t / window - offset)),
            lambda t: 2 * np.pi * phase_harmonic * t / window, window)


class TestPlvLimitNumeric:
    def test_full_cycle_vanishes(self):
        val = plv_limit_numeric(LinearPhase(1.0, 1.0), HomogeneousRate(30.0), 1.0)
        assert abs(val) < 1e-12

    def test_half_cycle(self):
        val = plv_limit_numeric(LinearPhase(1.0, 0.5), HomogeneousRate(30.0), 0.5)
        oracle = partial_cycle_plv(1.0, 0.5)
        assert abs(val) == pytest.approx(2 / math.pi, abs=1e-8)
        assert val == pytest.approx(oracle, abs=1e-8)

    def test_three_quarter_cycle(self):
        val = plv_limit_numeric(LinearPhase(1.0, 0.75), HomogeneousRate(30.0), 0.75)
        assert abs(val) == pytest.approx(0.3001054387190354, abs=1e-8)

    def test_matches_vonmises_closed_form(self):
        phase = LinearPhase(1.0, 5.0)
        model = VonMisesRate(20.0, 0.5, 0.4, phase)
        val = plv_limit_numeric(phase, model, 5.0)
        law = plv_asymptotics_vonmises(0.5, 0.4, 20.0, 5.0)
        assert val == pytest.approx(law.limit, abs=1e-6)

    def test_matches_sinusoid_closed_form(self):
        window = 1.0
        phase = LinearPhase(1.0, window)
        model = SinusoidRate(20.0, 0.3, 1, 0.0, window)
        val = plv_limit_numeric(phase, model, window)
        assert val == pytest.approx(0.15, abs=1e-8)
        mismatched = SinusoidRate(20.0, 0.3, 3, 0.0, window)
        assert abs(plv_limit_numeric(phase, mismatched, window)) < 1e-8

    def test_noninteger_cycle_vonmises_against_quadrature(self):
        phase = LinearPhase(1.0, 0.75)
        model = VonMisesRate(20.0, 0.5, 0.2, phase)
        val = plv_limit_numeric(phase, model, 0.75)
        oracle = vonmises_plv_quadrature(0.5, 0.2, 1.0, 0.75)
        assert val == pytest.approx(oracle, abs=1e-7)


class TestNullTest:
    def test_zero_plv(self):
        assert plv_null_test(0j, 100) == 1.0

    def test_direct_formula(self):
        assert plv_null_test(0.3, 100) == pytest.approx(math.exp(-9.0), rel=1e-12)

    def test_rejects_zero_spikes(self):
        with pytest.raises(DomainError):
            plv_null_test(0.1, 0)


class TestAsymptoticLaw:
    def test_rejects_asymmetric_cov(self):
        with pytest.raises(DomainError):
            AsymptoticLaw(limit=0j, cov=np.array([[1.0, 0.5], [0.0, 1.0]]), expected_events=1.0)

    def test_rotated_residuals(self):
        law = plv_asymptotics_vonmises(0.5, math.pi / 2, 20.0, 5.0)
        z = law.rotated_residuals(np.array([law.limit]), trials=4)
        assert z[0] == pytest.approx(0j, abs=1e-15)
