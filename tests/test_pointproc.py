"""Tests for Poisson simulation by thinning and martingale bookkeeping."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import chisquare

from spikefield.errors import DomainError
from spikefield.pointproc import (
    HomogeneousRate,
    SinusoidRate,
    SpikeData,
    VonMisesRate,
    fourth_moment_oracle,
    simulate_poisson,
)
from spikefield.signals import LinearPhase
from spikefield.specfun import bessel_i


class TestIntensityModels:
    def test_homogeneous(self):
        m = HomogeneousRate(20.0)
        assert np.all(m.rate(np.linspace(0, 5, 7)) == 20.0)
        assert m.max_rate() == 20.0

    def test_vonmises_bounds(self):
        m = VonMisesRate(20.0, 0.5, 0.0, LinearPhase(1.0, 5.0))
        t = np.linspace(0, 5, 1001)
        r = m.rate(t)
        assert np.all(r >= 0.0)
        assert np.all(r <= m.max_rate() + 1e-9)
        assert m.max_rate() == pytest.approx(20.0 * math.exp(0.5))

    def test_vonmises_phase_derivative_factor(self):
        base = VonMisesRate(20.0, 0.5, 0.0, LinearPhase(2.0, 5.0))
        with_der = VonMisesRate(20.0, 0.5, 0.0, LinearPhase(2.0, 5.0),
                                include_phase_derivative=True)
        t = np.array([0.3, 1.7])
        assert np.allclose(with_der.rate(t), base.rate(t) * 4 * math.pi)

    def test_sinusoid_nonnegative(self):
        m = SinusoidRate(30.0, 0.3, 1, 0.0, 1.0)
        t = np.linspace(0, 1, 1001)
        assert np.all(m.rate(t) >= 0.0)
        assert m.max_rate() == pytest.approx(39.0)

    def test_rejects_bad_params(self):
        with pytest.raises(DomainError):
            HomogeneousRate(0.0)
        with pytest.raises(DomainError):
            VonMisesRate(20.0, -0.1, 0.0, LinearPhase(1.0, 5.0))
        with pytest.raises(DomainError):
            SinusoidRate(30.0, 1.5, 1, 0.0, 1.0)
        with pytest.raises(DomainError):
            SinusoidRate(30.0, 0.3, 0, 0.0, 1.0)


class TestSimulatePoisson:
    def test_homogeneous_mean_count(self):
        rng = np.random.default_rng(10)
        sd = simulate_poisson(HomogeneousRate(20.0), window=5.0, trials=2000, rng=rng)
        counts = sd.counts()[0]
        se = math.sqrt(100.0 / 2000)
        assert abs(counts.mean() - 100.0) < 3 * se

    def test_vonmises_mean_count_matches_bessel(self):
        # Integer cycles: expected count per trial is rate0 * T * I0(kappa).
        rng = np.random.default_rng(11)
        model = VonMisesRate(20.0, 0.5, 0.0, LinearPhase(1.0, 5.0))
        sd = simulate_poisson(model, window=5.0, trials=2000, rng=rng)
        counts = sd.counts()[0]
        target = 20.0 * 5.0 * bessel_i(0, 0.5)
        se = math.sqrt(target / 2000)
        assert abs(counts.mean() - target) < 3 * se
        # Poisson equidispersion: variance matches the mean.
        se_var = math.sqrt((target + 2 * target**2) / 2000)
        assert abs(counts.var(ddof=1) - target) < 3 * se_var

    def test_sinusoid_mean_count(self):
        rng = np.random.default_rng(12)
        model = SinusoidRate(30.0, 0.3, 1, 0.0, 1.0)
        sd = simulate_poisson(model, window=1.0, trials=2000, rng=rng)
        counts = sd.counts()[0]
        se = math.sqrt(30.0 / 2000)
        assert abs(counts.mean() - 30.0) < 3 * se

    def test_time_marginal_histogram(self):
        # Event-time histogram proportional to the rate (chi-square, 20 bins).
        rng = np.random.default_rng(13)
        model = VonMisesRate(20.0, 1.0, 0.0, LinearPhase(1.0, 1.0))
        trials = int(math.ceil(100_000 / (20.0 * bessel_i(0, 1.0))))
        sd = simulate_poisson(model, window=1.0, trials=trials, rng=rng)
        times = sd.unit_times(0)
        assert len(times) > 90_000
        edges = np.linspace(0.0, 1.0, 21)
        observed, _ = np.histogram(times, bins=edges)
        probs = np.array([
            quad(lambda t: model.rate(np.array([t]))[0], a, b)[0] for a, b in zip(edges, edges[1:])
        ])
        probs /= probs.sum()
        stat, p = chisquare(observed, f_exp=probs * observed.sum())
        assert p > 0.001

    def test_trials_sorted_and_in_window(self):
        rng = np.random.default_rng(14)
        sd = simulate_poisson(HomogeneousRate(50.0), window=2.0, trials=100, rng=rng)
        SpikeData(sd.window, sd.trains)  # the constructor checks what simulation skips

    def test_reproducible(self):
        model = VonMisesRate(20.0, 0.5, 0.3, LinearPhase(1.0, 5.0))
        a = simulate_poisson(model, 5.0, 50, np.random.default_rng(99))
        b = simulate_poisson(model, 5.0, 50, np.random.default_rng(99))
        assert all(np.array_equal(x, y) for x, y in zip(a.trains[0], b.trains[0]))

    def test_rejects_zero_trials(self):
        with pytest.raises(DomainError):
            simulate_poisson(HomogeneousRate(20.0), 5.0, 0, np.random.default_rng(0))

    @pytest.mark.parametrize("window", [math.inf, math.nan, 0.0])
    def test_rejects_a_window_that_is_not_positive_and_finite(self, window):
        # JSON reads "window": 1e400 as inf, which numpy's Poisson draw rejected
        # with a bare ValueError.
        with pytest.raises(DomainError, match="window must be positive and finite"):
            simulate_poisson(HomogeneousRate(20.0), window, 2, np.random.default_rng(0))

    def test_tie_repaired_in_place(self):
        # Trial 0's first two candidates are both exactly 1/3; the repair
        # draws a replacement (0.63696...) from the first uniforms of seed 0
        # and leaves trial 1 as drawn.
        sd = simulate_poisson(HomogeneousRate(1.0), 1.0, 2, _TiedStream())
        SpikeData(sd.window, sd.trains)
        assert sd.counts().tolist() == [[3, 2]]
        trial0, trial1 = sd.trains[0]
        assert trial0.tolist() == [1 / 3, 0.6369616873214543, 2 / 3]
        assert trial1.tolist() == [1 / 3, 2 / 3]


class _TiedStream:
    """Generator stub: candidate counts (3, 2) with spacings that tie trial 0's first two times."""

    def __init__(self):
        self._rng = np.random.default_rng(0)

    def poisson(self, lam, size):
        return np.array([3, 2])

    def standard_exponential(self, size):
        return np.array([1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0])

    def uniform(self, *args, **kwargs):
        return self._rng.uniform(*args, **kwargs)


_WINDOW = 2.0


@st.composite
def _ragged_trains(draw):
    """trains[unit][trial]: sorted distinct times in [0, _WINDOW], empty trials included."""
    n_units, n_trials = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    trial = st.lists(st.floats(0.0, _WINDOW), max_size=4, unique=True).map(sorted)
    return [[np.array(draw(trial), dtype=float) for _ in range(n_trials)] for _ in range(n_units)]


def _first_violation(window, trains):
    """Per-trial reference for the SpikeData checks: the first bad (unit, trial) and why."""
    for u, unit in enumerate(trains):
        for k, t in enumerate(unit):
            if not np.all((t >= 0.0) & (t <= window)):
                return f"unit {u} trial {k}: event time outside"
            if np.any(np.diff(t) <= 0.0):
                return f"unit {u} trial {k}: event times not strictly increasing"
    return None


class TestSpikeData:
    def test_counts_shape(self):
        sd = SpikeData(window=1.0, trains=[[np.array([0.1]), np.array([])],
                                           [np.array([0.2, 0.5]), np.array([0.9])]])
        assert sd.n_units == 2 and sd.n_trials == 2
        assert sd.counts().tolist() == [[1, 0], [2, 1]]

    def test_validate_rejects_unsorted(self):
        with pytest.raises(DomainError, match="unit 0 trial 0: event times not strictly"):
            SpikeData(window=1.0, trains=[[np.array([0.5, 0.2])]])

    def test_validate_rejects_out_of_window(self):
        with pytest.raises(DomainError, match=r"unit 0 trial 0: event time outside \[0, 1.0\]"):
            SpikeData(window=1.0, trains=[[np.array([0.5, 1.2])]])

    def test_ragged_trials_rejected(self):
        with pytest.raises(DomainError):
            SpikeData(window=1.0, trains=[[np.array([0.1])], [np.array([0.1]), np.array([])]])

    def test_rejects_zero_trials(self):
        with pytest.raises(DomainError, match="at least one trial"):
            SpikeData(window=1.0, trains=[[], []])

    @given(trains=_ragged_trains())
    def test_flat_layout_matches_the_ragged_input(self, trains):
        sd = SpikeData(_WINDOW, trains)
        assert sd.times.dtype == np.float64 and sd.offsets.dtype == np.int64
        assert sd.offsets.size == len(trains) * len(trains[0]) + 1
        assert [[t.tolist() for t in unit] for unit in sd.trains] == \
               [[t.tolist() for t in unit] for unit in trains]
        assert sd.counts().tolist() == [[len(t) for t in unit] for unit in trains]
        for u, unit in enumerate(trains):
            assert sd.unit_times(u).tolist() == np.concatenate(unit).tolist()
        with pytest.raises(ValueError):
            sd.unit_times(0)[:1] = 0.5
        with pytest.raises(ValueError):
            sd.trains[0][0][:1] = 0.5

    @example(trains=[[np.array([0.5, 1.0])]], pick=1, value=0.5)  # a tie
    @example(trains=[[np.empty(0), np.array([0.1, 0.2])], [np.array([0.3]), np.empty(0)]],
             pick=2, value=math.nan)
    @given(trains=_ragged_trains(), pick=st.integers(0, 10**6),
           value=st.one_of(st.sampled_from([math.nan, -0.5, math.inf, _WINDOW]),
                           st.floats(-1.0, _WINDOW + 1.0)))
    def test_validate_names_the_first_bad_trial(self, trains, pick, value):
        where = [(u, k, i) for u, unit in enumerate(trains)
                 for k, t in enumerate(unit) for i in range(t.size)]
        if where:
            u, k, i = where[pick % len(where)]
            trains[u][k] = trains[u][k].copy()
            trains[u][k][i] = value
        expected = _first_violation(_WINDOW, trains)
        if expected is None:
            SpikeData(_WINDOW, trains)
        else:
            with pytest.raises(DomainError) as err:
                SpikeData(_WINDOW, trains)
            assert str(err.value).startswith(expected)


class TestFourthMomentOracle:
    def test_constant_integrands(self):
        one = lambda t: np.ones_like(t)
        lam = 20.0 * 1.0
        val = fourth_moment_oracle(one, one, one, one, rate=20.0, horizon=1.0)
        assert val == pytest.approx(lam + 3 * lam**2, rel=1e-10)

    def test_zero_integrand(self):
        zero = lambda t: np.zeros_like(t)
        one = lambda t: np.ones_like(t)
        assert fourth_moment_oracle(zero, one, one, one, rate=20.0, horizon=1.0) == 0.0

    def test_constant_inputs(self):
        val = fourth_moment_oracle(1.0, 1.0, 1.0, 1.0, rate=5.0, horizon=1.0)
        assert val == pytest.approx(5.0 + 3 * 25.0, rel=1e-9)
        with pytest.raises(DomainError, match="nonnegative"):
            fourth_moment_oracle(1.0, 1.0, 1.0, 1.0, rate=-5.0, horizon=1.0)

    def test_against_monte_carlo_trig(self):
        # E[W^2 Y^2] for W = int cos dM, Y = int sin dM, homogeneous rate.
        rate0, window, n_trials = 20.0, 1.0, 20_000
        cos_f = lambda t: np.cos(2 * math.pi * t / window)
        sin_f = lambda t: np.sin(2 * math.pi * t / window)
        predicted = fourth_moment_oracle(cos_f, cos_f, sin_f, sin_f, rate=rate0, horizon=window)
        rng = np.random.default_rng(21)
        sd = simulate_poisson(HomogeneousRate(rate0), window, n_trials, rng)
        comp_cos = rate0 * quad(cos_f, 0, window)[0]
        comp_sin = rate0 * quad(sin_f, 0, window)[0]
        samples = np.empty(n_trials)
        for i, t in enumerate(sd.trains[0]):
            w = np.sum(cos_f(t)) - comp_cos
            y = np.sum(sin_f(t)) - comp_sin
            samples[i] = w * w * y * y
        se = samples.std(ddof=1) / math.sqrt(n_trials)
        assert abs(samples.mean() - predicted) < 3 * se
