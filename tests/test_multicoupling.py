"""Tests for the coupling matrix, its normalization, and the MP spectral test."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
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


def _random_signals(p, q, dt, seed):
    rng = np.random.default_rng(seed)
    return SignalMatrix(rng.normal(size=(p, q)) + 1j * rng.normal(size=(p, q)), dt=dt)


def _eval_at_oracle(sig, sd):
    """Column j = (1/K) sum over unit j's spikes of the interpolated channels, spike by spike."""
    out = np.zeros((sig.n_channels, sd.n_units), dtype=complex)
    for j in range(sd.n_units):
        times = np.minimum(sd.unit_times(j), sig.window)
        if times.size:
            out[:, j] = sig.eval_at(times).sum(axis=1) / sd.n_trials
    return out


def _assert_close(actual, expected, rel=1e-13):
    scale = max(np.abs(expected).max(), 1e-300)
    assert np.abs(actual - expected).max() <= rel * scale


def _edge_spikes(sig, spike_window):
    """Three trials of three units: edge times, a silent unit, and random interior times."""
    dt, q = sig.dt, sig.n_samples
    edges = np.array([0.0, 4 * dt, (q - 0.5) * dt, min(sig.window, spike_window)])
    if spike_window > sig.window:
        edges = np.append(edges, spike_window)  # beyond the samples: clamped to their window
    rng = np.random.default_rng(47)
    interior = [np.sort(rng.uniform(0.0, spike_window, size=k)) for k in (5, 9, 1)]
    return SpikeData(window=spike_window, trains=[
        [edges, np.array([2 * dt, min((q - 0.25) * dt, spike_window)]), np.array([0.0])],
        [np.empty(0), np.empty(0), np.empty(0)],
        interior,
    ])


class TestBuildCouplingMatrix:
    def test_no_spikes_zero_matrix(self):
        sig = _exp_signals([1.0, 2.0], window=1.0, dt=1 / 32)
        sd = SpikeData(window=1.0, trains=[[np.empty(0)], [np.empty(0)]])
        raw = build_coupling_matrix(sig, sd)
        assert np.all(raw.entries == 0)

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


class TestCouplingKernel:
    @pytest.mark.parametrize("p", [1, 4, 20])
    @pytest.mark.parametrize("offset", [0.0, 0.4, -0.4])
    def test_matches_eval_at_per_unit(self, p, offset):
        # Spikes at 0, on grid points, in the trailing interval (wrapping to
        # sample 0) and at the window, with spike windows up to 0.4 dt off.
        sig = _random_signals(p, 16, 1 / 16, seed=48)
        sd = _edge_spikes(sig, sig.window + offset * sig.dt)
        raw = build_coupling_matrix(sig, sd)
        expected = _eval_at_oracle(sig, sd)
        _assert_close(raw.entries, expected)
        assert np.all(raw.entries[:, 1] == 0)

    def test_matches_eval_at_at_published_scale(self):
        window, dt = 2.0, 1 / 1024
        sig = _random_signals(30, int(round(window / dt)), dt, seed=49)
        rng = np.random.default_rng(50)
        sd = _merge_units([simulate_poisson(HomogeneousRate(20.0), window, 10, rng) for _ in range(25)])
        _assert_close(build_coupling_matrix(sig, sd).entries, _eval_at_oracle(sig, sd))

    def test_window_end_interpolates_to_the_first_sample(self):
        # q dt / dt rounds above q here; the periodic wrap still gives x[0].
        sig = _random_signals(2, 3, 0.1, seed=51)
        sd = SpikeData(window=sig.window, trains=[[np.array([sig.window])]])
        assert np.array_equal(build_coupling_matrix(sig, sd).entries[:, 0], sig.samples[:, 0])

    @settings(max_examples=60, deadline=None)
    @example(q=3, dt=0.1, trains=[[[1.0], []]])  # (q dt) / dt rounds above q
    @given(
        q=st.integers(2, 40),
        dt=st.floats(1e-3, 1.0),
        trains=st.lists(
            st.lists(st.lists(st.floats(0.0, 1.0), max_size=12), min_size=2, max_size=2),
            min_size=1, max_size=4,
        ),
    )
    def test_weights_are_a_partition_of_unity(self, q, dt, trains):
        # With identity samples, column j of the raw matrix is unit j's
        # weight row over the sample grid, divided by K.
        sig = SignalMatrix(np.eye(q), dt=dt)
        sd = SpikeData(window=sig.window, trains=[
            [np.unique(np.asarray(t) * sig.window) for t in unit] for unit in trains
        ])
        weights = build_coupling_matrix(sig, sd).entries * sd.n_trials
        assert np.all(weights.imag == 0)
        assert np.all(weights.real >= 0)
        counts = sd.counts().sum(axis=1)
        assert np.allclose(weights.real.sum(axis=0), counts, rtol=1e-12, atol=0)

    def test_no_per_spike_block(self, monkeypatch):
        # The kernel is one product over a weight histogram: it must not go
        # through eval_at, which builds a (channels, spikes) block per unit.
        sig = _random_signals(3, 16, 1 / 16, seed=52)
        sd = _edge_spikes(sig, sig.window)
        expected = _eval_at_oracle(sig, sd)

        def refuse(self, t):
            raise AssertionError("eval_at called on the coupling hot path")

        monkeypatch.setattr(SignalMatrix, "eval_at", refuse)
        _assert_close(build_coupling_matrix(sig, sd).entries, expected)


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
                              normalized=True, signal_integral=np.zeros(entries.shape[0]))

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

    def test_significance_counts_eigenvalues_above_the_edge(self):
        n = 4
        eigs = np.diag([3.0, 1.0, 0.5, 0.2])
        y = np.sqrt(n * eigs).astype(complex)
        rep = spectrum(self._normalized(y))
        # alpha = 1 -> upper edge 4; eigenvalue 3 is below it
        assert rep.n_significant == 0
        rep2 = spectrum(self._normalized(5.0 * y))
        assert rep2.n_significant >= 1
        # No margin: an eigenvalue just above the edge counts.
        just_above = np.sqrt(n * np.diag([4.05, 1.0, 0.5, 0.2])).astype(complex)
        assert spectrum(self._normalized(just_above)).n_significant == 1


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
                                      signal_integral=np.zeros(p)))
        # alpha from this artificial shape is not 0.5; compare against the law directly
        from spikefield.multicoupling import ks_statistic

        assert ks_statistic(np.sort(eigs)[::-1], law) <= 1 / p + 1e-6
        assert rep.ks_distance >= 0.0

    def test_all_zero_spectrum_atom(self):
        p, n = 30, 3  # alpha = 10
        rep = spectrum(CouplingMatrix(entries=np.zeros((p, n), dtype=complex), trials=1,
                                      window=1.0, normalized=True, signal_integral=np.zeros(p)))
        assert rep.ks_distance == pytest.approx(1.0 / 10.0, abs=1e-12)
