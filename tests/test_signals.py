"""Tests for phase models, oscillation synthesis, and whitening."""

import math

import numpy as np
import pytest

from spikefield.errors import ConfigurationError, DomainError, SingularGramError
from spikefield.signals import (
    LinearPhase,
    SignalMatrix,
    synthesize_oscillations,
    whiten,
)
from spikefield.specfun import von_mises_sample

from oracles import bessel_quadrature


class TestPhaseModels:
    def test_linear_phase_values(self):
        ph = LinearPhase(frequency=1.0, window=1.0)
        assert ph.phase(0.25) == pytest.approx(math.pi / 2)

    @pytest.mark.parametrize("frequency, window, message", [
        (0.0, 1.0, "frequency must be positive and finite, got 0.0"),
        (math.inf, 1.0, "frequency must be positive and finite, got inf"),
        (math.nan, 1.0, "frequency must be positive and finite, got nan"),
        (1.0, math.inf, "window must be positive and finite, got inf"),
        (1e308, 2.0, r"the phase 2\*pi\*f\*T overflows at frequency 1e\+308 and window 2.0"),
        (1e154, 1e154, r"the phase 2\*pi\*f\*T overflows"),
    ], ids=["zero", "inf", "nan", "inf-window", "overflowing", "overflowing-product"])
    def test_linear_phase_refuses_a_phase_that_is_not_finite(self, frequency, window, message):
        # Each used to give NaN phases: NaN PLVs, or rates that thinned away every spike.
        with pytest.raises(DomainError, match=message):
            LinearPhase(frequency, window)


class TestSynthesize:
    def test_single_clean_component(self):
        rng = np.random.default_rng(0)
        sig = synthesize_oscillations([1.0], window=1.0, dt=1 / 64, phase_noise_kappa=0.0,
                                      channels=1, rng=rng)
        t = sig.times
        expected = np.exp(2j * math.pi * t)
        assert np.allclose(sig.samples[0], expected, atol=1e-12)
        assert np.allclose(np.abs(sig.samples), 1.0)

    def test_unit_modulus_under_noise(self):
        rng = np.random.default_rng(1)
        sig = synthesize_oscillations([11, 12, 13, 14, 15], window=11.0, dt=1 / 128,
                                      phase_noise_kappa=10.0, channels=100, rng=rng)
        assert sig.samples.shape == (100, 1408)
        assert np.allclose(np.abs(sig.samples), 1.0, atol=1e-12)

    def test_spectral_peak_per_channel(self):
        rng = np.random.default_rng(2)
        comps = [11, 12, 13, 14, 15]
        sig = synthesize_oscillations(comps, window=11.0, dt=1 / 128,
                                      phase_noise_kappa=10.0, channels=10, rng=rng)
        freqs = np.fft.fftfreq(sig.n_samples, d=sig.dt)
        spec = np.abs(np.fft.fft(sig.samples, axis=1))
        for c in range(10):
            peak = freqs[np.argmax(spec[c])]
            assert peak == pytest.approx(comps[c % 5], abs=0.5 / 11.0)

    def test_phase_noise_resultant_length(self):
        rng = np.random.default_rng(3)
        sig = synthesize_oscillations([1.0], window=64.0, dt=1 / 64, phase_noise_kappa=10.0,
                                      channels=1, rng=rng)
        t = sig.times
        deviation = sig.samples[0] * np.exp(-2j * math.pi * t)
        n = len(t)
        target = bessel_quadrature(1, 10.0) / bessel_quadrature(0, 10.0)
        i0, i2 = bessel_quadrature(0, 10.0), bessel_quadrature(2, 10.0)
        se = math.sqrt((1.0 + i2 / i0 - 2.0 * target**2) / (2.0 * n))
        assert abs(np.abs(deviation.mean()) - target) < 3.0 * se

    @pytest.mark.parametrize("kappa", [0.0, 0.5, 10.0])
    def test_matches_angle_formula(self, kappa):
        # Oracle: the angle form exp(i (2 pi f t + eta)), with eta from the
        # same seeded stream, channel c on component c mod len(components).
        comps, window, dt, channels = [11.0, 12.0, 13.0], 2.0, 1 / 128, 7
        sig = synthesize_oscillations(comps, window, dt, kappa, channels, np.random.default_rng(8))
        t = np.arange(int(round(window / dt))) * dt
        f = np.array(comps)[np.arange(channels) % len(comps)]
        phases = 2.0 * math.pi * f[:, None] * t[None, :]
        if kappa > 0.0:
            phases = phases + von_mises_sample(0.0, kappa, np.random.default_rng(8),
                                               size=phases.shape)
        assert np.max(np.abs(sig.samples - np.exp(1j * phases))) < 1e-12

    @pytest.mark.parametrize("kappa", [-5.0, math.nan, math.inf, -math.inf])
    def test_bad_noise_concentration_rejected(self, kappa):
        # A negative or NaN concentration used to give noiseless signals.
        with pytest.raises(DomainError, match="phase_noise_kappa"):
            synthesize_oscillations([3.0], window=1.0, dt=1 / 64, phase_noise_kappa=kappa,
                                    channels=2, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("window, dt, message", [
        (1.0, 0.0, "dt must be positive and finite, got 0.0"),
        (1.0, -1 / 64, "dt must be positive and finite, got -0.015625"),
        (1.0, math.nan, "dt must be positive and finite, got nan"),
        (1.0, math.inf, "dt must be positive and finite, got inf"),
        (math.inf, 1 / 64, "window must be positive and finite, got inf"),
        (math.nan, 1 / 64, "window must be positive and finite, got nan"),
    ], ids=["zero-dt", "negative-dt", "nan-dt", "inf-dt", "inf-window", "nan-window"])
    def test_bad_grid_rejected(self, window, dt, message):
        # dt = 0 divided by zero, and a NaN or infinite step count failed to
        # round, each with a traceback.
        with pytest.raises(DomainError, match=message):
            synthesize_oscillations([3.0], window=window, dt=dt, phase_noise_kappa=0.0,
                                    channels=2, rng=np.random.default_rng(0))

    def test_window_past_the_largest_array_rejected(self):
        # np.arange used to raise a bare "ValueError: Maximum allowed size exceeded".
        with pytest.raises(ConfigurationError,
                           match=r"1e\+300 at dt=0.015625 is 6.4e\+301 samples"):
            synthesize_oscillations([3.0], window=1e300, dt=1 / 64, phase_noise_kappa=0.0,
                                    channels=2, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("window, dt", [(1.0, 0.03), (1.0, 0.7), (0.3, 0.2)])
    def test_window_off_the_grid_rejected(self, window, dt):
        # Half a step of slack used to let window 1.0 at dt 0.03 through as 33
        # samples covering 0.99 s, beside spikes drawn over the whole second.
        with pytest.raises(ConfigurationError, match="not an integer number of dt"):
            synthesize_oscillations([0.1], window=window, dt=dt, phase_noise_kappa=0.0,
                                    channels=1, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("window, dt", [(1.0, 0.1), (0.3, 0.1), (11.0, 1 / 1024)])
    def test_window_on_the_grid_accepted(self, window, dt):
        sig = synthesize_oscillations([0.1], window=window, dt=dt, phase_noise_kappa=0.0,
                                      channels=1, rng=np.random.default_rng(0))
        assert sig.n_samples == round(window / dt)

    @pytest.mark.parametrize("components", [[3.0, math.nan], [math.inf], [3.0, -1.0]])
    def test_bad_components_rejected(self, components):
        # A NaN or infinite frequency used to reach the samples, refused only by
        # the finiteness scan the synthesis output no longer takes.
        with pytest.raises(DomainError, match="positive finite frequencies"):
            synthesize_oscillations(components, window=1.0, dt=1 / 64, phase_noise_kappa=0.0,
                                    channels=2, rng=np.random.default_rng(0))

    def test_undersampling_rejected(self):
        with pytest.raises(ConfigurationError):
            synthesize_oscillations([15.0], window=1.0, dt=1 / 64, phase_noise_kappa=0.0,
                                    channels=1, rng=np.random.default_rng(0))


def _integer_cycle_signals(freqs, window=4.0, dt=1 / 64):
    q = int(round(window / dt))
    t = np.arange(q) * dt
    rows = [np.exp(2j * math.pi * f * t) for f in freqs]
    return SignalMatrix(np.array(rows), dt=dt)


class TestWhiten:
    def test_orthonormal_input_unchanged(self):
        sig = _integer_cycle_signals([1.0, 2.0, 3.0])
        out = whiten(sig)
        assert out.whitened
        assert np.allclose(out.samples, sig.samples, atol=1e-8)

    def test_identical_channels_singular(self):
        sig = _integer_cycle_signals([1.0, 1.0])
        with pytest.raises(SingularGramError, match="near-null"):
            whiten(sig)

    def test_random_mixture_gram_identity(self):
        rng = np.random.default_rng(4)
        base = _integer_cycle_signals([1.0, 2.0, 3.0, 4.0, 5.0])
        mix = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        mixed = SignalMatrix(mix @ base.samples, dt=base.dt)
        out = whiten(mixed)
        assert np.allclose(out.gram(), np.eye(5), atol=1e-8)

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        base = _integer_cycle_signals([1.0, 2.0, 3.0])
        mixed = SignalMatrix(rng.normal(size=(3, 3)) @ base.samples, dt=base.dt)
        once = whiten(mixed)
        twice = whiten(once)
        assert np.allclose(once.samples, twice.samples, atol=1e-8)


    def test_overflowing_power_refused(self):
        # Finite samples whose Gram overflows: the whitened output, adopted
        # without a finiteness scan, must never carry the NaN.
        big = SignalMatrix(np.array([[1e200, 2e200, 3e200, 4e200], [4e200, 1e200, 2e200, 3e200]],
                                    dtype=complex), dt=0.25)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DomainError, match="Gram matrix is not finite"):
                whiten(big)


class TestSignalMatrix:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_non_finite_sample_refused(self, bad):
        samples = np.ones((2, 4), dtype=complex)
        samples[1, 2] = bad
        with pytest.raises(DomainError, match="signal samples must be finite"):
            SignalMatrix(samples, dt=0.25)

    def test_library_outputs_are_finite(self):
        sig = synthesize_oscillations([11.0, 12.0], window=1.0, dt=1 / 128, phase_noise_kappa=3.0,
                                      channels=4, rng=np.random.default_rng(2))
        for out in (sig, whiten(sig)):
            assert out.samples.dtype == complex and np.isfinite(out.samples).all()


class TestEvalAtSpikeTimes:
    def test_exact_sample_lookup(self):
        sig = _integer_cycle_signals([1.0, 2.0])
        idx = 17
        t = sig.times[idx]
        vals = sig.eval_at(np.array([t]))
        assert vals[0, 0] == sig.samples[0, idx]
        assert vals[1, 0] == sig.samples[1, idx]

    def test_interpolation_accuracy(self):
        dt = 1e-3
        q = 1000
        t_grid = np.arange(q) * dt
        sig = SignalMatrix(np.exp(2j * math.pi * t_grid)[None, :], dt=dt)
        rng = np.random.default_rng(6)
        t = rng.uniform(0, sig.window, 10_000)
        approx = sig.eval_at(t)[0]
        exact = np.exp(2j * math.pi * t)
        assert np.max(np.abs(approx - exact)) < 1e-4

    def test_trailing_interval_wraps_full_cycle(self):
        sig = _integer_cycle_signals([1.0], window=2.0, dt=1 / 32)
        val = sig.eval_at(np.array([sig.window]))[0, 0]
        assert val == pytest.approx(sig.samples[0, 0])

    def test_outside_window_rejected(self):
        sig = _integer_cycle_signals([1.0])
        with pytest.raises(DomainError):
            sig.eval_at(np.array([sig.window + 0.1]))
        with pytest.raises(DomainError):
            sig.eval_at(np.array([-0.2]))

    def test_full_cycle_mean_vanishes(self):
        # alpha_T integer <=> the window-average of e^{i phi} vanishes.
        sig = _integer_cycle_signals([3.0], window=2.0, dt=1 / 64)
        assert abs(sig.samples[0].mean()) < 1e-12
