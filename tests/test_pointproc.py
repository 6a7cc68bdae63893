"""Tests for Poisson simulation by thinning and martingale bookkeeping."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import chisquare

from spikefield import pointproc
from spikefield.errors import DomainError
from spikefield.pointproc import (
    _POISSON_LAM_MAX,
    HomogeneousRate,
    SinusoidRate,
    SpikeData,
    VonMisesRate,
    _locked_rate,
    _simulate_units,
    fourth_moment_oracle,
    simulate_poisson,
)
from spikefield.signals import LinearPhase

from oracles import bessel_quadrature


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

    def test_rejects_kappa_past_the_range_of_exp(self):
        # max_rate() = rate0 * exp(kappa) raised OverflowError at 710.
        assert VonMisesRate(20.0, 700.0, 0.0, LinearPhase(1.0, 5.0)).max_rate() < math.inf
        with pytest.raises(DomainError, match="modulation strength must be at most 700.0, got 710.0"):
            VonMisesRate(20.0, 710.0, 0.0, LinearPhase(1.0, 5.0))

    @pytest.mark.parametrize("offset", [math.inf, -math.inf, math.nan])
    def test_rejects_a_phase_offset_that_is_not_finite(self, offset):
        with pytest.raises(DomainError, match="phase offset must be finite"):
            VonMisesRate(20.0, 0.5, offset, LinearPhase(1.0, 5.0))
        with pytest.raises(DomainError, match="phase offset must be finite"):
            SinusoidRate(30.0, 0.3, 1, offset, 1.0)


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
        target = 20.0 * 5.0 * bessel_quadrature(0, 0.5)
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
        trials = int(math.ceil(100_000 / (20.0 * bessel_quadrature(0, 1.0))))
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

    @pytest.mark.parametrize("model, window", [
        (HomogeneousRate(20.0), 1e300),
        (HomogeneousRate(1e300), 1e10),  # the product overflows to inf
        (VonMisesRate(1.0, 0.0, 0.0, LinearPhase(1.0, 1e300)), 1e300),
        (HomogeneousRate(1.0), float(np.nextafter(_POISSON_LAM_MAX, math.inf))),
    ], ids=["huge-window", "overflow", "vonmises", "just-past"])
    def test_refuses_an_expected_count_past_the_poisson_limit(self, model, window):
        # Past numpy's limit its Poisson draw raises a bare ValueError. The
        # refusal comes before anything is drawn: this generator has no methods.
        with pytest.raises(DomainError, match="expected candidate count per trial .* past"):
            simulate_poisson(model, window, 2, object())

    def test_poisson_limit_is_numpys(self):
        rng = np.random.default_rng(0)
        rng.poisson(_POISSON_LAM_MAX)  # one scalar draw, nothing allocated
        with pytest.raises(ValueError, match="lam value too large"):
            rng.poisson(np.nextafter(_POISSON_LAM_MAX, math.inf))

    @pytest.mark.parametrize("model", [
        HomogeneousRate(1.0), VonMisesRate(1.0, 0.0, 0.0, LinearPhase(1.0, 1.0))],
        ids=["homogeneous", "thinned"])
    def test_equal_times_across_a_trial_boundary_are_no_tie(self, model, monkeypatch):
        # Trial 0 ends at 2/3 and trial 1 starts at 2/3: nothing is repaired,
        # so the only uniforms drawn are the keep step's (kappa = 0 keeps all).
        repaired = []
        monkeypatch.setattr(pointproc, "_enforce_strict_increase",
                            lambda times, *args: repaired.append(times.tolist()))
        stream = _BoundaryStream()
        sd = simulate_poisson(model, 1.0, 2, stream)
        assert sd.counts().tolist() == [[2, 2]]
        assert sd.times.tolist() == [1 / 3, 2 / 3, 2 / 3, 5 / 6]
        assert stream.uniform_sizes == ([] if isinstance(model, HomogeneousRate) else [4])
        assert repaired == []

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


class _BoundaryStream:
    """Generator stub: candidate counts (2, 2), trial 0's last time equal to trial 1's first."""

    def __init__(self):
        self._rng = np.random.default_rng(0)
        self.uniform_sizes = []

    def poisson(self, lam, size):
        return np.array([2, 2])

    def standard_exponential(self, size):
        return np.array([1.0, 1.0, 1.0, 2.0, 0.5, 0.5])

    def random(self, size=None):
        self.uniform_sizes.append(size)
        return self._rng.random(size)


def _reference_rate(model, t):
    """A modulated model's rate written out of place, as one expression."""
    if isinstance(model, VonMisesRate):
        return model.rate0 * np.exp(model.kappa * np.cos(model.phase.phase(t) - model.phase_offset))
    return model.rate0 * (1.0 + model.depth * np.cos(
        2.0 * math.pi * model.harmonic * t / model.window - model.phase_offset))


def _reference_thinning(model, window, trials, rng):
    """Thinning with a per-candidate trial index, boolean gathers and a bincount.

    The same draws in the same order as ``simulate_poisson``, without its tie
    repair; returns the flat times, the offsets and the candidate counts.
    """
    lam_max = model.max_rate()
    counts = rng.poisson(lam_max * window, size=trials)
    total = int(counts.sum())
    cum = np.cumsum(rng.standard_exponential(total + trials))
    ends = np.cumsum(counts + 1) - 1
    starts = ends - counts
    base = np.where(starts > 0, cum[starts - 1], 0.0)
    denom = cum[ends] - base
    interior = np.ones(total + trials, dtype=bool)
    interior[ends] = False
    t_cand = window * (cum[interior] - np.repeat(base, counts)) / np.repeat(denom, counts)
    trial_of = np.repeat(np.arange(trials), counts)
    if isinstance(model, HomogeneousRate):
        t_keep, trial_keep = t_cand, trial_of
    else:
        keep = rng.uniform(0.0, 1.0, total) * lam_max < _reference_rate(model, t_cand)
        t_keep, trial_keep = t_cand[keep], trial_of[keep]
    offsets = np.zeros(trials + 1, dtype=np.int64)
    np.cumsum(np.bincount(trial_keep, minlength=trials), out=offsets[1:])
    return t_keep, offsets, counts


# (model, window): dense ones at the published rates, sparse ones whose
# trials are often empty or keep none of their candidates.
_THINNED = {
    "homogeneous": (HomogeneousRate(20.0), 5.0),
    "vonmises": (VonMisesRate(20.0, 0.5, 0.3, LinearPhase(1.0, 5.0)), 5.0),
    "sinusoid": (SinusoidRate(30.0, 0.3, 3, 0.7, 5.0), 5.0),
    "homogeneous-sparse": (HomogeneousRate(0.5), 1.0),
    "vonmises-sparse": (VonMisesRate(0.2, 3.0, 1.1, LinearPhase(2.0, 1.0)), 1.0),
    "sinusoid-sparse": (SinusoidRate(0.5, 1.0, 2, 0.4, 1.0), 1.0),
}


class TestThinningKeepsItsBits:
    @pytest.mark.parametrize("trials", [1, 7, 500])
    @pytest.mark.parametrize("name", sorted(_THINNED))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_trial_index_kernel(self, name, trials, seed):
        model, window = _THINNED[name]
        times, offsets, _ = _reference_thinning(model, window, trials, np.random.default_rng(seed))
        sd = simulate_poisson(model, window, trials, np.random.default_rng(seed))
        assert np.array_equal(sd.times, times)
        assert np.array_equal(sd.offsets, offsets)
        assert sd.offsets.dtype == np.int64

    @pytest.mark.parametrize("name", sorted(_THINNED))
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_keep_uniforms_leave_the_generator_as_uniform_does(self, name, seed):
        # Generator.random(n) is uniform(0.0, 1.0, n) without the 0 + 1 * x
        # pass: the same values, and the generator left in the same state.
        model, window = _THINNED[name]
        reference_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for trials in (1, 7, 500):
            times, offsets, _ = _reference_thinning(model, window, trials, reference_rng)
            sd = simulate_poisson(model, window, trials, rng)
            assert np.array_equal(sd.times, times) and np.array_equal(sd.offsets, offsets)
            assert rng.bit_generator.state == reference_rng.bit_generator.state

    @pytest.mark.parametrize("name", [n for n in _THINNED if n.endswith("sparse")])
    def test_sparse_models_reach_the_edge_trials(self, name):
        # The comparison above covers trials with no candidate and, for the
        # thinned models, trials whose candidates are all rejected.
        model, window = _THINNED[name]
        for seed in (0, 1, 2):
            _, offsets, counts = _reference_thinning(model, window, 500, np.random.default_rng(seed))
            kept = np.diff(offsets)
            assert np.any(counts == 0)
            if not isinstance(model, HomogeneousRate):
                assert np.any((counts > 0) & (kept == 0))

    @pytest.mark.parametrize("model", [_THINNED["vonmises"][0], _THINNED["sinusoid"][0]],
                             ids=["vonmises", "sinusoid"])
    def test_rate_in_place_matches_the_expression(self, model):
        t = np.random.default_rng(3).uniform(0.0, 5.0, 10_001)
        before = t.copy()
        assert np.array_equal(model.rate(t), _reference_rate(model, t))
        assert np.array_equal(t, before)  # the input is not written
        assert float(model.rate(1.25)) == float(_reference_rate(model, np.float64(1.25)))


class TestUnitsDrawnInTurn:
    @pytest.mark.parametrize("trials", [1, 7])
    @pytest.mark.parametrize("units", [1, 3, 5])
    def test_the_units_of_the_constructor_on_their_trains(self, units, trials):
        # The reference draws each unit alone, in turn from one generator, and
        # builds the SpikeData from their trains; unit j takes model j mod 2.
        models = [_THINNED["vonmises-sparse"][0], _THINNED["sinusoid-sparse"][0]]
        rng, reference_rng = np.random.default_rng(4), np.random.default_rng(4)
        sd = _simulate_units(models, units, 1.0, trials, rng)
        trains = [simulate_poisson(models[j % 2], 1.0, trials, reference_rng).trains[0]
                  for j in range(units)]
        reference = SpikeData(window=1.0, trains=trains)
        assert np.array_equal(sd.times, reference.times)
        assert np.array_equal(sd.offsets, reference.offsets) and sd.offsets.dtype == np.int64
        assert (sd.window, sd.n_trials, sd.n_units) == (1.0, trials, units)
        assert rng.bit_generator.state == reference_rng.bit_generator.state
        assert not (sd.times.flags.writeable or sd.offsets.flags.writeable)

    @pytest.mark.parametrize("units", [0, -2])
    def test_no_units_refused(self, units):
        with pytest.raises(DomainError, match="need at least one unit"):
            _simulate_units([HomogeneousRate(20.0)], units, 1.0, 2, np.random.default_rng(0))


def test_an_uncoupled_locked_unit_is_homogeneous_and_reads_no_offset():
    assert _locked_rate(20.0, 0.0, None, LinearPhase(1.0, 2.0)) == HomogeneousRate(20.0)
    assert _locked_rate(20.0, None, None, LinearPhase(1.0, 2.0)) == HomogeneousRate(20.0)


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
