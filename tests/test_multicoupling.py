"""Tests for the coupling matrix, its normalization, and the MP spectral test."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from spikefield.errors import DomainError
from spikefield.multicoupling import (
    CouplingMatrix,
    build_coupling_matrix,
    normalize,
    spectrum,
)
from spikefield.pointproc import HomogeneousRate, SpikeData, VonMisesRate, simulate_poisson
from spikefield.signals import LinearPhase, SignalMatrix, whiten
from spikefield.specfun import mp_cdf, mp_law

from oracles import vonmises_plv_quadrature, bessel_quadrature


def _exp_signals(freqs, window, dt):
    q = int(round(window / dt))
    t = np.arange(q) * dt
    return SignalMatrix(np.array([np.exp(2j * math.pi * f * t) for f in freqs]), dt=dt)


def _merge_units(spike_list):
    return SpikeData(window=spike_list[0].window,
                     trains=[sd.trains[0] for sd in spike_list])


class TestBuildCouplingMatrix:
    def test_no_spikes_zero_matrix(self):
        sig = _exp_signals([1.0, 2.0], window=1.0, dt=1 / 32)
        sd = SpikeData(window=1.0, trains=[[np.empty(0)], [np.empty(0)]])
        raw = build_coupling_matrix(sig, sd)
        assert np.all(raw.entries == 0)

    def test_single_entry_matches_univariate_estimator(self):
        from spikefield.unicoupling import estimate_coupling

        # Several channels, so the per-unit sum runs over a multi-row block
        # whose memory layout differs from a single row's.
        sig = _exp_signals([1.0, 2.0, 3.0, 4.0], window=1.0, dt=1 / 32)
        rng = np.random.default_rng(40)
        sd = _merge_units(
            [simulate_poisson(HomogeneousRate(rate), 1.0, 5, rng) for rate in (30.0, 60.0, 90.0)]
        )
        raw = build_coupling_matrix(sig, sd)
        for unit in range(sd.n_units):
            for channel in range(sig.n_channels):
                direct = estimate_coupling(sig, sd, unit=unit, channel=channel)
                assert raw.entries[channel, unit] == direct

    def test_window_mismatch_rejected(self):
        sig = _exp_signals([1.0], window=1.0, dt=1 / 32)
        sd = SpikeData(window=2.0, trains=[[np.array([0.5])]])
        with pytest.raises(DomainError):
            build_coupling_matrix(sig, sd)

    def test_monte_carlo_mean_entry(self):
        # Mean entry converges to int x_i lambda_j dt.
        window, dt = 1.0, 1 / 64
        sig = _exp_signals([1.0, 2.0], window, dt)
        model = VonMisesRate(20.0, 0.5, 0.0, LinearPhase(1.0, window))
        target = vonmises_plv_quadrature(0.5, 0.0, 1.0, window) * (
            20.0 * window * bessel_quadrature(0, 0.5)
        )
        rng = np.random.default_rng(41)
        n_sims, trials = 500, 10
        vals = np.empty(n_sims, dtype=complex)
        for i in range(n_sims):
            sd = simulate_poisson(model, window, trials, rng)
            vals[i] = build_coupling_matrix(sig, sd).entries[0, 0]
        lam_total = 20.0 * window * bessel_quadrature(0, 0.5)
        se = math.sqrt(lam_total / (trials * n_sims))
        assert abs(vals.mean() - target) < 3 * se


class TestNormalize:
    def test_zero_mean_signals_reduce_to_scaling(self):
        sig = _exp_signals([1.0, 3.0], window=2.0, dt=1 / 64)
        rng = np.random.default_rng(42)
        units = [simulate_poisson(HomogeneousRate(20.0), 2.0, 10, rng) for _ in range(2)]
        sd = _merge_units(units)
        raw = build_coupling_matrix(sig, sd)
        assert np.max(np.abs(raw.signal_integral)) < 1e-10
        out = normalize(raw, sd)
        rates = sd.counts().sum(axis=1) / (10 * 2.0)
        expected = math.sqrt(10) * raw.entries / np.sqrt(rates * 2.0)[None, :]
        assert np.allclose(out.entries, expected, atol=1e-10)
        assert out.normalized
        assert np.allclose(out.unit_rates, rates)

    def test_silent_unit_rejected(self):
        sig = _exp_signals([1.0], window=1.0, dt=1 / 32)
        sd = SpikeData(window=1.0, trains=[[np.array([0.5])], [np.empty(0)]])
        raw = build_coupling_matrix(sig, sd)
        with pytest.raises(DomainError, match=r"\[1\]"):
            normalize(raw, sd)

    def test_double_normalize_rejected(self):
        sig = _exp_signals([1.0], window=1.0, dt=1 / 32)
        sd = SpikeData(window=1.0, trains=[[np.array([0.5])]])
        out = normalize(build_coupling_matrix(sig, sd), sd)
        with pytest.raises(DomainError):
            normalize(out, sd)

    def test_null_unit_variance(self):
        # Homogeneous null: diagonal of (1/n) Y Y^H averages to one. The grid
        # must resolve the fastest channel well beyond the sampling minimum,
        # since linear interpolation shrinks |x| by (2 + cos(2 pi f dt))/3
        # on average between samples.
        window, dt, trials = 4.0, 1 / 256, 10
        rng = np.random.default_rng(43)
        sig = whiten(_exp_signals([1.0, 2.0, 3.0, 4.0, 5.0], window, dt))
        diags = []
        for _ in range(100):
            units = [simulate_poisson(HomogeneousRate(20.0), window, trials, rng)
                     for _ in range(4)]
            sd = _merge_units(units)
            y = normalize(build_coupling_matrix(sig, sd), sd)
            s = (y.entries @ y.entries.conj().T) / y.n_units
            diags.append(np.diag(s).real.mean())
        assert np.mean(diags) == pytest.approx(1.0, abs=0.05)


class TestSpectrum:
    def _normalized(self, entries, trials=10, window=1.0):
        return CouplingMatrix(entries=entries, trials=trials, window=window,
                              normalized=True, unit_rates=np.ones(entries.shape[1]),
                              signal_integral=np.zeros(entries.shape[0]))

    def test_identity_matrix(self):
        n = 8
        rep = spectrum(self._normalized(math.sqrt(n) * np.eye(n, dtype=complex)))
        assert np.allclose(rep.eigenvalues, 1.0)
        assert np.allclose(rep.singular_values, math.sqrt(n))

    def test_sigma_eigen_consistency(self):
        rng = np.random.default_rng(44)
        y = rng.normal(size=(6, 12)) + 1j * rng.normal(size=(6, 12))
        rep = spectrum(self._normalized(y))
        assert np.array_equal(rep.singular_values, np.sqrt(12 * rep.eigenvalues))

    def test_requires_normalized(self):
        raw = CouplingMatrix(entries=np.ones((2, 2), dtype=complex), trials=1, window=1.0)
        with pytest.raises(DomainError):
            spectrum(raw)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(45)
        y = rng.normal(size=(5, 9)) + 1j * rng.normal(size=(5, 9))
        u, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        a = spectrum(self._normalized(y))
        b = spectrum(self._normalized(u @ y))
        assert np.allclose(a.eigenvalues, b.eigenvalues, atol=1e-8)

    def test_rank_bound_zero_fraction(self):
        # alpha > 1: at least (1 - 1/alpha) of the eigenvalues vanish.
        rng = np.random.default_rng(46)
        p, n = 30, 10
        y = rng.normal(size=(p, n)) + 1j * rng.normal(size=(p, n))
        rep = spectrum(self._normalized(y))
        frac = np.mean(rep.eigenvalues < 1e-12)
        assert abs(frac - (1 - n / p)) <= 2 / p

    def test_edge_margin_counting(self):
        n = 4
        eigs = np.diag([3.0, 1.0, 0.5, 0.2])
        y = np.sqrt(n * eigs).astype(complex)
        rep = spectrum(self._normalized(y), edge_margin=0.0)
        # alpha = 1 -> upper edge 4; eigenvalue 3 is below it
        assert rep.n_significant == 0
        rep2 = spectrum(self._normalized(5.0 * y), edge_margin=0.0)
        assert rep2.n_significant >= 1


class TestKsDistance:
    def test_quantile_construction(self):
        p = 200
        law = mp_law(0.5)
        eigs = np.array([
            brentq(lambda x: mp_cdf(law, x) - (i - 0.5) / p,
                   law.lower_edge, law.upper_edge)
            for i in range(1, p + 1)
        ])
        n = 400
        y = np.zeros((p, n), dtype=complex)
        y[:, :p] = np.diag(np.sqrt(n * eigs))
        rep = spectrum(CouplingMatrix(entries=y, trials=1, window=1.0, normalized=True,
                                      unit_rates=np.ones(n), signal_integral=np.zeros(p)))
        # alpha from this artificial shape is not 0.5; compare against the law directly
        from spikefield.multicoupling import ks_statistic

        assert ks_statistic(np.sort(eigs)[::-1], law) <= 1 / p + 1e-6
        assert rep.ks_distance >= 0.0

    def test_all_zero_spectrum_atom(self):
        p, n = 30, 3  # alpha = 10
        rep = spectrum(CouplingMatrix(entries=np.zeros((p, n), dtype=complex), trials=1,
                                      window=1.0, normalized=True, unit_rates=np.ones(n),
                                      signal_integral=np.zeros(p)))
        assert rep.ks_distance == pytest.approx(1.0 / 10.0, abs=1e-12)
