"""Tests for univariate coupling estimators and their asymptotic laws."""

import math
import re

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
    plv_law_numeric,
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


def _vonmises_law(kappa, offset=0.0, rate0=20.0, window=5.0):
    """The von Mises law of a unit locked to 1 Hz, over ``window``."""
    phase = LinearPhase(1.0, window)
    return plv_asymptotics_vonmises(phase, VonMisesRate(rate0, kappa, offset, phase))


def _sinusoid_law(depth, rate_harmonic, phase_harmonic, offset=0.0, rate0=20.0, window=1.0):
    """The sinusoid law of a phase at ``phase_harmonic`` cycles per window."""
    phase = LinearPhase(phase_harmonic / window, window)
    return plv_asymptotics_sinusoid(phase, SinusoidRate(rate0, depth, rate_harmonic, offset, window))


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
        # A homogeneous unit is the von Mises one at kappa = 0 and offset 0.
        law = plv_asymptotics_vonmises(LinearPhase(1.0, 5.0), HomogeneousRate(20.0))
        assert law.limit == 0.0 and law.rotation == 0.0
        assert np.allclose(law.cov, np.eye(2) / 200.0)
        assert law.expected_events == pytest.approx(100.0)

    def test_coupled_half(self):
        # Frozen from the quadrature oracle: I1/I0 and (I0 +/- I2)/(2 r T I0^2).
        law = _vonmises_law(0.5)
        assert law.limit.real == pytest.approx(0.24249961258080197, abs=1e-10)
        assert law.limit.imag == 0.0
        i0 = bessel_quadrature(0, 0.5)
        i2 = bessel_quadrature(2, 0.5)
        assert law.cov[0, 0] == pytest.approx((i0 + i2) / (200.0 * i0**2), rel=1e-9)
        assert law.cov[1, 1] == pytest.approx((i0 - i2) / (200.0 * i0**2), rel=1e-9)
        assert law.cov[0, 1] == 0.0
        assert law.expected_events == pytest.approx(100.0 * i0, rel=1e-9)

    def test_rotation(self):
        law = _vonmises_law(0.5, math.pi / 2)
        assert law.limit.real == pytest.approx(0.0, abs=1e-15)
        assert law.limit.imag == pytest.approx(0.24249961258080197, abs=1e-10)
        assert law.rotation == math.pi / 2

    # The law reads kappa and the offset from its rate model, which refuses them.
    def test_rejects_negative_kappa(self):
        with pytest.raises(DomainError):
            _vonmises_law(-0.5)

    @pytest.mark.parametrize("kappa, message", [
        (math.nan, "must be >= 0, got nan"), (math.inf, "must be >= 0, got inf"),
        (700.5, "must be at most 700.0, got 700.5"),  # the rate model's exp(kappa) cap
    ], ids=["nan", "inf", "past-700"])
    def test_rejects_kappa_as_the_rate_model_does(self, kappa, message):
        with pytest.raises(DomainError, match=f"modulation strength {message}"):
            _vonmises_law(kappa)

    @pytest.mark.parametrize("offset", [math.inf, math.nan])
    def test_rejects_a_phase_offset_that_is_not_finite(self, offset):
        with pytest.raises(DomainError, match="phase offset must be finite"):
            _vonmises_law(0.5, offset)

    @pytest.mark.parametrize("kappa", [0.0, 5e-324, 1e-300, 1e-8, 0.15, 0.5, 0.8, 10.0, 355.0,
                                       400.0, 700.0])
    def test_against_multiprecision_bessel(self, kappa):
        # From the subnormal floor to the rate model's cap. Past kappa ~ 355
        # I0^2 overflows, which once collapsed the covariance to 0.
        rate0, window, offset = 23.0, 3.0, 0.3
        want = vonmises_law_mp(kappa, rate0, window)
        law = _vonmises_law(kappa, offset, rate0, window)
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
        base = _vonmises_law(0.5)
        corr = base.ratio_corrected_cov
        shift = abs(base.limit) ** 2 / base.expected_events
        assert corr[0, 0] == pytest.approx(base.cov[0, 0] - shift, rel=1e-12)
        assert corr[1, 1] == base.cov[1, 1]
        # Null case: no correction when the limit vanishes.
        null = _vonmises_law(0.0).ratio_corrected_cov
        assert np.allclose(null, np.eye(2) / 200.0)

    def test_corrected_variance_matches_monte_carlo(self):
        # The pooled-count normalization makes the PLV a ratio estimator;
        # its Re-variance sits measurably below the constant-count form.
        kappa, rate0, window, trials, n_sims = 0.5, 20.0, 1.0, 4000, 600
        phase = LinearPhase(1.0, window)
        model = VonMisesRate(rate0, kappa, 0.0, phase)
        base = plv_asymptotics_vonmises(phase, model)
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
    law = _vonmises_law(x, rate0=1.0, window=1.0)
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
        law = _vonmises_law(x, rate0=1.0, window=1.0)
        lhs = 2.0 * law.expected_events * law.cov[1, 1]
        assert lhs == pytest.approx((2.0 / x) * law.limit.real, rel=1e-9)

    @given(x=st.floats(min_value=0.1, max_value=20.0))
    @settings(max_examples=60, deadline=None)
    def test_three_term_recurrence(self, x):
        law = _vonmises_law(x, rate0=1.0, window=1.0)
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
        law = _sinusoid_law(0.3, 1, 1)
        assert law.limit == pytest.approx(0.15)
        assert np.allclose(law.cov, np.eye(2) / 40.0)

    def test_mismatched_harmonics(self):
        law = _sinusoid_law(0.3, 2, 1, 0.7)
        assert law.limit == 0j

    def test_full_depth(self):
        law = _sinusoid_law(1.0, 3, 3)
        assert law.limit == pytest.approx(0.5)

    # The law reads the depth and the offset from its rate model, which refuses them.
    def test_rejects_bad_depth(self):
        with pytest.raises(DomainError):
            _sinusoid_law(1.5, 1, 1)

    @pytest.mark.parametrize("offset", [math.inf, math.nan])
    def test_rejects_a_phase_offset_that_is_not_finite(self, offset):
        # The mismatched law's limit is 0 whatever the offset; it is refused all the same.
        for rate_harmonic in (1, 3):
            with pytest.raises(DomainError, match="phase offset must be finite"):
                _sinusoid_law(0.3, rate_harmonic, 1, offset)


class TestClosedFormsTakeTheirOwnUnit:
    """A closed form refuses a unit it does not describe: the law would be another's."""

    @pytest.mark.parametrize("law, phase, model, message", [
        (plv_asymptotics_vonmises, LinearPhase(1.0, 5.0),
         VonMisesRate(20.0, 0.5, 0.0, LinearPhase(2.0, 5.0)),
         "the rate is locked to 2.0 Hz, the phase runs at 1.0 Hz"),
        (plv_asymptotics_vonmises, LinearPhase(1.0, 1.0), SinusoidRate(20.0, 0.3, 1, 0.0, 1.0),
         "the von Mises law takes a VonMisesRate or a HomogeneousRate, got SinusoidRate"),
        (plv_asymptotics_sinusoid, LinearPhase(1.0, 1.0), SinusoidRate(20.0, 0.3, 1, 0.0, 2.0),
         "the rate is modulated over 2.0 s, the phase runs over 1.0 s"),
        (plv_asymptotics_sinusoid, LinearPhase(1.0, 1.0), HomogeneousRate(20.0),
         "the sinusoid law takes a SinusoidRate, got HomogeneousRate"),
        (plv_asymptotics_sinusoid, LinearPhase(1.0, 1.0),
         VonMisesRate(20.0, 0.5, 0.0, LinearPhase(1.0, 1.0)),
         "the sinusoid law takes a SinusoidRate, got VonMisesRate"),
    ], ids=["vonmises-other-frequency", "vonmises-sinusoid-rate", "sinusoid-other-window",
            "sinusoid-homogeneous-rate", "sinusoid-vonmises-rate"])
    def test_refuses(self, law, phase, model, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            law(phase, model)

    def test_the_lock_is_the_frequency(self):
        # The rate reads its phase at t in [0, T] only through 2 pi f t, so a
        # lock to the same frequency over another window is the same unit.
        phase = LinearPhase(1.0, 5.0)
        other = VonMisesRate(20.0, 0.5, 0.3, LinearPhase(1.0, 9.0))
        same = VonMisesRate(20.0, 0.5, 0.3, phase)
        a, b = plv_asymptotics_vonmises(phase, other), plv_asymptotics_vonmises(phase, same)
        assert (a.limit, a.expected_events, a.rotation) == (b.limit, b.expected_events, b.rotation)
        assert a.cov.tolist() == b.cov.tolist()


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
        phase = LinearPhase(frequency, window)
        law = plv_asymptotics_vonmises(phase, VonMisesRate(rate0, kappa, offset, phase))
        _assert_law_matches_quadrature(
            law, lambda t: rate0 * np.exp(kappa * np.cos(2 * np.pi * frequency * t - offset)),
            lambda t: 2 * np.pi * frequency * t, window)

    @pytest.mark.parametrize("offset", [0.0, 0.3, 1.0, -2.0])
    @pytest.mark.parametrize("rate_harmonic, phase_harmonic", [(1, 1), (2, 2), (3, 1), (2, 1),
                                                               (4, 2)],
                             ids=["matched", "matched-2", "mismatched", "second", "second-2"])
    def test_sinusoid(self, rate_harmonic, phase_harmonic, offset):
        depth, rate0, window = 0.6, 7.0, 2.0
        law = _sinusoid_law(depth, rate_harmonic, phase_harmonic, offset, rate0, window)
        _assert_law_matches_quadrature(
            law,
            lambda t: rate0 * (1 + depth * np.cos(2 * np.pi * rate_harmonic * t / window - offset)),
            lambda t: 2 * np.pi * phase_harmonic * t / window, window)


class TestPlvLawNumeric:
    def test_full_cycle_vanishes(self):
        law = plv_law_numeric(LinearPhase(1.0, 1.0), HomogeneousRate(30.0))
        assert abs(law.limit) < 1e-12
        assert law.rotation == 0.0  # a zero limit has no direction

    def test_half_cycle(self):
        val = plv_law_numeric(LinearPhase(1.0, 0.5), HomogeneousRate(30.0)).limit
        oracle = partial_cycle_plv(1.0, 0.5)
        assert abs(val) == pytest.approx(2 / math.pi, abs=1e-8)
        assert val == pytest.approx(oracle, abs=1e-8)

    def test_three_quarter_cycle(self):
        val = plv_law_numeric(LinearPhase(1.0, 0.75), HomogeneousRate(30.0)).limit
        assert abs(val) == pytest.approx(0.3001054387190354, abs=1e-8)

    def test_matches_vonmises_closed_form(self):
        phase = LinearPhase(1.0, 5.0)
        model = VonMisesRate(20.0, 0.5, 0.4, phase)
        val = plv_law_numeric(phase, model).limit
        law = plv_asymptotics_vonmises(phase, model)
        assert val == pytest.approx(law.limit, abs=1e-6)

    def test_matches_sinusoid_closed_form(self):
        window = 1.0
        phase = LinearPhase(1.0, window)
        model = SinusoidRate(20.0, 0.3, 1, 0.0, window)
        val = plv_law_numeric(phase, model).limit
        assert val == pytest.approx(0.15, abs=1e-8)
        mismatched = SinusoidRate(20.0, 0.3, 3, 0.0, window)
        assert abs(plv_law_numeric(phase, mismatched).limit) < 1e-8

    def test_noninteger_cycle_vonmises_against_quadrature(self):
        phase = LinearPhase(1.0, 0.75)
        model = VonMisesRate(20.0, 0.5, 0.2, phase)
        val = plv_law_numeric(phase, model).limit
        oracle = vonmises_plv_quadrature(0.5, 0.2, 1.0, 0.75)
        assert val == pytest.approx(oracle, abs=1e-7)

    @pytest.mark.parametrize("window", [0.5, 0.75])
    @pytest.mark.parametrize("kappa", [0.0, 0.5, 5.0])
    def test_sub_cycle_law_against_quadrature(self, kappa, window):
        # Homogeneous (kappa = 0) and von Mises rates over part of a cycle,
        # where no closed form holds: the limit, frame and both covariances.
        rate0, offset = 30.0, 0.4
        phase = LinearPhase(1.0, window)
        model = VonMisesRate(rate0, kappa, offset, phase) if kappa else HomogeneousRate(rate0)
        _assert_law_matches_quadrature(plv_law_numeric(phase, model), model.rate,
                                       phase.phase, window)

    def test_rate_integrating_to_zero_is_refused(self):
        class Silent:
            def rate(self, t):
                return np.zeros_like(t)

            def max_rate(self):
                return 1.0

        with pytest.raises(DomainError, match="rate integrates to zero"):
            plv_law_numeric(LinearPhase(1.0, 1.0), Silent())


def _assert_laws_equal(closed, numeric, expected_rel, limit_abs, cov_rel, corrected_rel):
    """Two laws of one rate agree: count, limit, frame and both covariances.

    Each covariance is compared entrywise relative to its trace. The frame is
    compared where the limit has a direction: a zero limit takes any
    rotation. The numeric law takes 0 for it, as the closed forms do for a
    homogeneous unit and a mismatched sinusoid. An angle read off a limit
    of modulus r carries the limit's absolute error over r.
    """
    assert numeric.expected_events == pytest.approx(closed.expected_events, rel=expected_rel)
    assert abs(numeric.limit - closed.limit) <= limit_abs
    if abs(closed.limit) > 1e-12:
        turn = np.angle(np.exp(1j * (numeric.rotation - closed.rotation)))
        assert abs(turn) <= 1e-14 / abs(closed.limit)
    for a, b, rel in ((numeric.cov, closed.cov, cov_rel),
                      (numeric.ratio_corrected_cov, closed.ratio_corrected_cov, corrected_rel)):
        np.testing.assert_allclose(a, b, rtol=0.0, atol=rel * np.trace(b))


class TestClosedFormsEqualTheNumericLaw:
    """``plv_law_numeric`` reproduces each closed form over whole cycles.

    At large kappa the ratio-corrected Re variance, ``cov`` minus
    |limit|^2 / expected_events, cancels about 1 - 1/kappa^2 of each term,
    so both laws carry rounding of order kappa^2 eps there: the mpmath law
    decides, and each is held to it.
    """

    @pytest.mark.parametrize("offset", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("kappa", [0.0, 1e-8, 0.5, 5.0, 50.0, 300.0, 700.0])
    def test_vonmises(self, kappa, offset):
        rate0, window = 20.0, 5.0
        phase = LinearPhase(1.0, window)
        model = VonMisesRate(rate0, kappa, offset, phase) if kappa else HomogeneousRate(rate0)
        closed = plv_asymptotics_vonmises(phase, model)
        numeric = plv_law_numeric(phase, model)
        corrected_rel = 1e-13 + 5e-15 * kappa**2
        _assert_laws_equal(closed, numeric, expected_rel=1e-13, limit_abs=1e-14, cov_rel=1e-13,
                           corrected_rel=corrected_rel)
        if not kappa:
            assert numeric.rotation == closed.rotation == 0.0
        mp = vonmises_law_mp(kappa, rate0, window)
        for law in (closed, numeric):
            assert law.expected_events == pytest.approx(mp["expected_events"], rel=1e-13)
            assert abs(law.limit) == pytest.approx(mp["limit"], rel=1e-14, abs=1e-15)
            assert law.cov[0, 0] == pytest.approx(mp["var_re"], rel=1e-13)
            assert law.cov[1, 1] == pytest.approx(mp["var_im"], rel=1e-13)
            assert law.ratio_corrected_cov[0, 0] == pytest.approx(mp["var_re_corrected"],
                                                                  rel=corrected_rel)

    @pytest.mark.parametrize("offset", [0.0, 0.3, 1.0, -2.0])
    @pytest.mark.parametrize("rate_harmonic, phase_harmonic", [(1, 1), (3, 3), (3, 1), (2, 1),
                                                               (4, 2)],
                             ids=["matched", "matched-3", "mismatched", "second", "second-2"])
    def test_sinusoid(self, rate_harmonic, phase_harmonic, offset):
        depth, rate0, window = 0.6, 7.0, 2.0
        phase = LinearPhase(phase_harmonic / window, window)
        model = SinusoidRate(rate0, depth, rate_harmonic, offset, window)
        closed = plv_asymptotics_sinusoid(phase, model)
        numeric = plv_law_numeric(phase, model)
        _assert_laws_equal(closed, numeric, expected_rel=1e-14, limit_abs=1e-14, cov_rel=1e-14,
                           corrected_rel=1e-14)
        if rate_harmonic != phase_harmonic:
            assert numeric.rotation == closed.rotation == 0.0


class TestNullTest:
    def test_zero_plv(self):
        assert plv_null_test(0j, 100) == 1.0

    def test_direct_formula(self):
        # Zar's eq. 27.4 as printed, exp(sqrt(1 + 4N + 4(N^2 - R^2)) - (1 + 2N)) at
        # R = N |PLV| = 30: exp(-9.164...), where the large-N law gave exp(-9).
        expected = math.exp(math.sqrt(1 + 4 * 100 + 4 * (100**2 - 30**2)) - (1 + 2 * 100))
        assert plv_null_test(0.3, 100) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n", [5, 10])
    def test_size_at_few_spikes(self, n):
        # Under uniform phases the test rejects 5 % of draws at the 5 % level;
        # exp(-N |PLV|^2) rejected 4.3 % at N = 5 and 4.6 % at N = 10.
        rng = np.random.default_rng(2024)
        plvs = np.exp(1j * rng.uniform(-np.pi, np.pi, (200_000, n))).mean(axis=1)
        rate = np.mean([plv_null_test(plv, n) < 0.05 for plv in plvs])
        assert 0.047 <= rate <= 0.053

    def test_rejects_zero_spikes(self):
        with pytest.raises(DomainError):
            plv_null_test(0.1, 0)

    @pytest.mark.parametrize("plv", [1.5, float("nan")])
    def test_rejects_a_modulus_no_phases_give(self, plv):
        with pytest.raises(DomainError, match="no mean of 10 phases"):
            plv_null_test(plv, 10)


class TestAsymptoticLaw:
    def test_rejects_asymmetric_cov(self):
        with pytest.raises(DomainError):
            AsymptoticLaw(limit=0j, cov=np.array([[1.0, 0.5], [0.0, 1.0]]), expected_events=1.0)

    def test_rotated_residuals(self):
        law = _vonmises_law(0.5, math.pi / 2)
        z = law.rotated_residuals(np.array([law.limit]), trials=4)
        assert z[0] == pytest.approx(0j, abs=1e-15)
