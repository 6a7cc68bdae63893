"""Tests for phase models, oscillation synthesis, and whitening."""

import math

import numpy as np
import pytest

from spikefield.errors import ConfigurationError, DomainError, SingularGramError
from spikefield.signals import (
    LinearPhase,
    SignalMatrix,
    TabulatedPhase,
    synthesize_oscillations,
    whiten,
)
from spikefield.specfun import bessel_i, von_mises_sample


class TestPhaseModels:
    def test_linear_phase_values(self):
        ph = LinearPhase(frequency=1.0, window=1.0)
        assert ph.phase(0.25) == pytest.approx(math.pi / 2)

    def test_linear_derivative(self):
        ph = LinearPhase(frequency=2.0, window=3.0)
        assert float(ph.derivative(1.0)) == pytest.approx(4 * math.pi)
        assert ph.max_derivative() == pytest.approx(4 * math.pi)

    def test_tabulated_interpolation(self):
        times = np.linspace(0, 1, 101)
        ph = TabulatedPhase(times=times, values=2 * math.pi * times)
        assert float(ph.phase(0.505)) == pytest.approx(2 * math.pi * 0.505, abs=1e-12)
        assert float(ph.derivative(0.3)) == pytest.approx(2 * math.pi, rel=1e-9)

    def test_tabulated_rejects_decreasing(self):
        with pytest.raises(DomainError):
            TabulatedPhase(times=np.array([0.0, 1.0]), values=np.array([1.0, 0.0]))

    def test_eval_outside_window(self):
        times = np.linspace(0, 1, 11)
        ph = TabulatedPhase(times=times, values=2 * math.pi * times)
        with pytest.raises(DomainError):
            ph.phase(np.array([1.5]))
        with pytest.raises(DomainError):
            ph.phase(np.array([-0.2]))


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
        target = bessel_i(1, 10.0) / bessel_i(0, 10.0)
        i0, i2 = bessel_i(0, 10.0), bessel_i(2, 10.0)
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
