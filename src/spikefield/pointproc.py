"""Inhomogeneous Poisson simulation and counting-process bookkeeping.

Simulation uses thinning (rejection from a homogeneous dominating process),
which is exact for any bounded rate function: no time-discretization bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError
from .signals import LinearPhase, _MAX_BYTES, _check_window

__all__ = [
    "HomogeneousRate",
    "VonMisesRate",
    "SinusoidRate",
    "IntensityModel",
    "SpikeData",
    "simulate_poisson",
    "fourth_moment_oracle",
]


@dataclass(frozen=True)
class HomogeneousRate:
    """Constant firing rate, events/second."""

    rate0: float

    def __post_init__(self):
        _check_rate0(self.rate0)

    def rate(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.rate0)

    def max_rate(self) -> float:
        return self.rate0


@dataclass(frozen=True)
class VonMisesRate:
    """Rate modulated by a phase: rate0 * exp(kappa * cos(phi(t) - phase_offset)).

    Bounded by rate0 * exp(kappa); ``plv_asymptotics_vonmises`` is its PLV law.
    """

    rate0: float
    kappa: float
    phase_offset: float
    phase: LinearPhase

    def __post_init__(self):
        _check_rate0(self.rate0)
        _check_kappa(self.kappa)
        _check_phase_offset(self.phase_offset)

    def rate(self, t):
        # rate0 * exp(kappa * cos(phi(t) - phase_offset)), evaluated in place on
        # the fresh array phi(t), step by step in the same order (same bits).
        x = np.asarray(self.phase.phase(t))
        x -= self.phase_offset
        np.cos(x, out=x)
        x *= self.kappa
        np.exp(x, out=x)
        x *= self.rate0
        return x

    def max_rate(self) -> float:
        return self.rate0 * math.exp(self.kappa)


@dataclass(frozen=True)
class SinusoidRate:
    """Sinusoidally modulated rate rate0 * (1 + depth * cos(2 pi harmonic t / window - phase_offset))."""

    rate0: float
    depth: float
    harmonic: int
    phase_offset: float
    window: float

    def __post_init__(self):
        _check_rate0(self.rate0)
        _check_depth(self.depth)
        _check_harmonic(self.harmonic)
        _check_window(self.window)
        _check_phase_offset(self.phase_offset)

    def rate(self, t):
        # Evaluated in place on the fresh array 2 pi harmonic t, step by step in
        # the order of the formula (same bits).
        x = np.asarray(2.0 * math.pi * self.harmonic * np.asarray(t, dtype=float))
        x /= self.window
        x -= self.phase_offset
        np.cos(x, out=x)
        x *= self.depth
        x += 1.0
        x *= self.rate0
        return x

    def max_rate(self) -> float:
        return self.rate0 * (1.0 + self.depth)


IntensityModel = Union[HomogeneousRate, VonMisesRate, SinusoidRate]


def _locked_rate(rate0, kappa, phase_offset, phase: LinearPhase):
    """The rate model of a unit locked to ``phase``: von Mises, or homogeneous when uncoupled.

    An uncoupled unit (kappa = 0, or None for a null experiment, which sets
    no kappa) is drawn as a homogeneous one, which spends no thinning
    uniforms; it reads neither the offset nor the phase. An offset given
    to it all the same (not None) is held to the rule a coupled unit's is,
    so a value refused at kappa > 0 is refused at kappa = 0 too.
    """
    if kappa is None or kappa == 0.0:
        if phase_offset is not None:
            _check_phase_offset(phase_offset)
        return HomogeneousRate(rate0)
    return VonMisesRate(rate0, kappa, phase_offset, phase)


def _check_rate0(rate0) -> None:
    if not (rate0 > 0.0 and math.isfinite(rate0)):
        raise DomainError(f"baseline rate must be positive and finite, got {rate0!r}")


def _check_phase_offset(phase_offset) -> None:
    if not math.isfinite(phase_offset):
        raise DomainError(f"phase offset must be finite, got {phase_offset!r}")


# VonMisesRate's dominating rate rate0 * exp(kappa) overflows double just
# above kappa = 709; stay clear of it.
_MAX_ARGUMENT = 700.0


def _check_kappa(kappa) -> None:
    if not (kappa >= 0.0 and math.isfinite(kappa)):
        raise DomainError(f"modulation strength must be >= 0, got {kappa!r}")
    if kappa > _MAX_ARGUMENT:
        raise DomainError(f"modulation strength must be at most {_MAX_ARGUMENT}, got {kappa!r}")


def _check_depth(depth) -> None:
    if not (0.0 <= depth <= 1.0):  # NaN fails every comparison
        raise DomainError(f"modulation depth must lie in [0, 1], got {depth!r}")


def _check_harmonic(harmonic) -> None:
    if not (isinstance(harmonic, (int, np.integer)) and harmonic >= 1):
        raise DomainError(f"harmonic must be a positive integer, got {harmonic!r}")


class SpikeData:
    """Event times for n units over K trials on a common window [0, T].

    Stored flat: ``times`` holds every event time, unit by unit and, within
    a unit, trial by trial; ``offsets`` (int64, length n_units * K + 1)
    bounds the trains, so unit u's trial k is
    ``times[offsets[u * K + k] : offsets[u * K + k + 1]]`` and a unit's
    pooled times are one contiguous slice. Both arrays are read-only;
    ``n_trials`` holds K.

    Built from the ragged form ``trains[unit][trial]``, each trial a flat
    sequence of numbers; every unit carries the same number K >= 1 of
    trials, and each trial must be strictly increasing inside [0, T]. The
    constructor checks all of it in one vectorised pass and raises
    DomainError naming the first offending unit and trial (NaN lies
    outside the window), so a SpikeData is valid from the moment it exists.
    """

    __slots__ = ("window", "times", "offsets", "n_trials")

    def __init__(self, window, trains):
        window = _check_window(window)
        if not len(trains):
            raise DomainError("need at least one unit")
        n_trials = len(trains[0])
        for u, unit in enumerate(trains):
            if len(unit) != n_trials:
                raise DomainError(f"unit {u} has {len(unit)} trials, unit 0 has {n_trials}")
        if n_trials < 1:
            raise DomainError("need at least one trial")
        flat = [_flat_train(t, u, k) for u, unit in enumerate(trains) for k, t in enumerate(unit)]
        offsets = np.zeros(len(flat) + 1, dtype=np.int64)
        np.cumsum([t.size for t in flat], out=offsets[1:])
        t = np.concatenate(flat, dtype=np.float64)
        _check_events(window, t, offsets, n_trials)
        self._bind(window, t, offsets, n_trials)

    @classmethod
    def _from_flat(cls, window, times, offsets, n_trials):
        """Adopt flat arrays that already meet the constructor's checks (no copy, no checks).

        For ``simulate_poisson`` and ``_simulate_units``, whose draws meet them
        by construction; the trains of a file, and every other input, go
        through the constructor.
        """
        spikes = cls.__new__(cls)
        spikes._bind(window, times, offsets, n_trials)
        return spikes

    def _bind(self, window, times, offsets, n_trials):
        times.flags.writeable = False
        offsets.flags.writeable = False
        self.window, self.times, self.offsets, self.n_trials = window, times, offsets, n_trials

    @property
    def n_units(self) -> int:
        return (self.offsets.size - 1) // self.n_trials

    @property
    def trains(self) -> list:
        """Ragged read-only views ``trains[unit][trial]`` into ``times``."""
        bounds = self.offsets.tolist()
        trials = [self.times[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
        k = self.n_trials
        return [trials[u * k:(u + 1) * k] for u in range(self.n_units)]

    def counts(self) -> np.ndarray:
        """Per-unit, per-trial spike counts, shape (n_units, n_trials)."""
        return np.diff(self.offsets).reshape(self.n_units, self.n_trials)

    def unit_times(self, unit: int) -> np.ndarray:
        """All event times of one unit pooled across trials: a read-only view."""
        u = range(self.n_units)[unit]
        return self.times[self.offsets[u * self.n_trials]:self.offsets[(u + 1) * self.n_trials]]


def _check_events(window, t, offsets, n_trials) -> None:
    """Refuse flat trains with an event outside [0, window] or out of order, naming the first.

    One vectorised pass over all events; NaN lies outside the window.
    """
    outside = ~((t >= 0.0) & (t <= window))
    unordered = np.zeros(t.size, dtype=bool)  # event i does not follow event i - 1
    unordered[1:] = t[1:] <= t[:-1]
    starts = offsets[:-1]
    unordered[starts[starts < t.size]] = False  # a trial's first event follows nothing
    bad = np.flatnonzero(outside | unordered)
    if bad.size:
        j = int(np.searchsorted(offsets, bad[0], side="right")) - 1
        where = f"unit {j // n_trials} trial {j % n_trials}"
        if outside[offsets[j]:offsets[j + 1]].any():
            raise DomainError(f"{where}: event time outside [0, {window}]")
        raise DomainError(f"{where}: event times not strictly increasing")


def _flat_train(times, unit, trial) -> np.ndarray:
    try:
        arr = np.asarray(times)
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.ndim != 1 or arr.dtype.kind not in "iuf":
        raise DomainError(
            f"unit {unit} trial {trial}: event times must be one flat list of numbers"
        )
    return arr


# numpy's Generator.poisson refuses a mean above this (POISSON_LAM_MAX in
# numpy/random/_common.pyx).
_POISSON_LAM_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)


def _thinning_bound(model: IntensityModel, window) -> tuple:
    """``simulate_poisson``'s rules for a model and a window: (max_rate, max_rate * window).

    The window is positive and finite, the dominating rate positive and
    finite, and the expected candidate count per trial within numpy's
    Poisson limit.
    """
    _check_window(window)
    lam_max = model.max_rate()
    if not math.isfinite(lam_max) or lam_max <= 0.0:
        raise DomainError(f"dominating rate must be positive and finite, got {lam_max!r}")
    expected = lam_max * window
    if not expected <= _POISSON_LAM_MAX:
        raise DomainError(
            f"expected candidate count per trial {expected!r} (max_rate * window) is past "
            f"the Poisson sampler's limit {_POISSON_LAM_MAX!r}"
        )
    return lam_max, expected


def _check_trials(trials) -> None:
    """At least one trial, and few enough for numpy's array of one int64 per trial."""
    if trials < 1:
        raise DomainError(f"need at least one trial, got {trials!r}")
    if not (trials + 1) * 8 <= _MAX_BYTES:
        raise DomainError(f"trials must be at most {_MAX_BYTES // 8 - 1} for numpy to build an "
                          f"array of one int64 per trial, got {trials!r}")


def simulate_poisson(
    model: IntensityModel,
    window: float,
    trials: int,
    rng: np.random.Generator,
) -> SpikeData:
    """Simulate one unit of ``trials`` independent inhomogeneous Poisson trials.

    Thinning against the model's finite dominating rate: candidates arrive
    homogeneously at ``max_rate`` and are kept with probability
    rate(t)/max_rate. Exact for any bounded rate.

    The candidates of all trials sit in one flat array, trial after trial,
    and no per-candidate trial index is built: a trial's kept spikes are the
    kept indices between its candidate bounds, so the offsets are those
    bounds located (``searchsorted``) among the kept indices. An expected
    candidate count per trial past numpy's Poisson limit is refused before
    anything is drawn.
    """
    lam_max, expected = _thinning_bound(model, window)
    _check_trials(trials)
    counts = rng.poisson(expected, size=trials)
    total = int(counts.sum())
    # Sorted uniform candidates per trial via the order-statistics
    # representation U_(i) = S_i / S_(n+1) with exponential spacings;
    # avoids any per-trial or global sort.
    spacings = rng.standard_exponential(total + trials)
    cum = np.cumsum(spacings)
    ends = np.cumsum(counts + 1) - 1
    starts = ends - counts
    base = np.where(starts > 0, cum[starts - 1], 0.0)
    denom = cum[ends] - base
    interior = np.ones(total + trials, dtype=bool)
    interior[ends] = False
    # window * (cum - base) / denom, in place and in that order (same bits).
    t_cand = cum[interior]
    t_cand -= np.repeat(base, counts)
    t_cand *= window
    t_cand /= np.repeat(denom, counts)
    bounds = np.zeros(trials + 1, dtype=np.int64)  # trial k's candidates: bounds[k]:bounds[k + 1]
    np.cumsum(counts, out=bounds[1:])

    if isinstance(model, HomogeneousRate):
        t_keep, offsets = t_cand, bounds
    else:
        u = rng.random(total)
        u *= lam_max
        kept = np.flatnonzero(u < model.rate(t_cand))
        t_keep = t_cand[kept]
        offsets = np.searchsorted(kept, bounds)

    # Scan once for exact ties and repair only the affected trials, each in
    # place on its slice of t_keep. Event i ties with event i - 1 of the same
    # trial unless i opens its trial.
    second = np.flatnonzero(np.diff(t_keep) == 0.0) + 1
    if second.size:
        trial = np.searchsorted(offsets, second, side="right") - 1
        for k in np.unique(trial[second != offsets[trial]]):
            _enforce_strict_increase(t_keep[offsets[k]:offsets[k + 1]], model, lam_max, window, rng)
    return SpikeData._from_flat(window, t_keep, offsets, trials)


def _simulate_units(models, units, window, trials, rng) -> SpikeData:
    """Draw ``units`` units in turn from one generator and join them into one SpikeData.

    Unit j is ``simulate_poisson(models[j % len(models)], window, trials,
    rng)``, drawn after unit j - 1; its flat times and trial bounds are
    appended to those of the units before it.
    """
    if units < 1:
        raise DomainError("need at least one unit")
    drawn = [simulate_poisson(models[j % len(models)], window, trials, rng) for j in range(units)]
    offsets = np.zeros(units * trials + 1, dtype=np.int64)
    np.cumsum(np.concatenate([np.diff(unit.offsets) for unit in drawn]), out=offsets[1:])
    times = np.concatenate([unit.times for unit in drawn])
    return SpikeData._from_flat(_check_window(window), times, offsets, trials)


def _enforce_strict_increase(times, model, lam_max, window, rng):
    # Exact float collisions have probability zero; when one occurs, the
    # duplicate is replaced by a fresh draw from the normalized rate density
    # (which conditioning on the trial count makes distributionally exact).
    # ``times`` is one sorted trial, repaired in place.
    while np.any(np.diff(times) == 0.0):
        dup = 1 + np.flatnonzero(np.diff(times) == 0.0)[0]
        while True:
            t_new = rng.uniform(0.0, window)
            if rng.uniform(0.0, 1.0) * lam_max < float(model.rate(t_new)):
                break
        times[:] = np.sort(np.concatenate([np.delete(times, dup), [t_new]]))


# 64-point Gauss-Legendre nodes and weights on [-1, 1], reused on every segment.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def _gauss_legendre(stop: float, segments: int = 64) -> tuple:
    """Nodes and weights of the composite 64-point Gauss-Legendre rule on [0, stop].

    The interval is cut into ``segments`` equal segments; the rule is exact
    for polynomials of degree up to 127 on each.
    """
    edges = np.linspace(0.0, stop, segments + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * np.diff(edges)
    return ((mid[:, None] + half[:, None] * _GL_NODES).ravel(),
            (half[:, None] * _GL_WEIGHTS).ravel())


def fourth_moment_oracle(a, b, c, d, rate, horizon: float):
    """Ground-truth fourth moment E[WXYZ] of four stochastic integrals.

    W, X, Y, Z are integrals of a, b, c, d against the same compensated
    Poisson process of the given rate on [0, horizon]. Evaluated by the
    composite Gauss-Legendre rule ``_gauss_legendre`` (64 segments) of

        int abcd r + (int ab r)(int cd r) + (int ac r)(int bd r)
                    + (int ad r)(int bc r).

    Each of ``a, b, c, d, rate`` is a callable of time or a constant.
    """
    _check_window(horizon, "horizon")
    grid, weights = _gauss_legendre(horizon)
    va, vb, vc, vd, vr = (
        np.asarray(f(grid), dtype=float) if callable(f) else np.full_like(grid, float(f))
        for f in (a, b, c, d, rate)
    )
    if np.any(vr < 0.0):
        raise DomainError("rate must be nonnegative")

    def integ(values):
        return np.dot(weights, values * vr)

    return (
        integ(va * vb * vc * vd)
        + integ(va * vb) * integ(vc * vd)
        + integ(va * vc) * integ(vb * vd)
        + integ(va * vd) * integ(vb * vc)
    )
