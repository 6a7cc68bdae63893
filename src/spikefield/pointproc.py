"""Inhomogeneous Poisson simulation and counting-process bookkeeping.

Simulation uses thinning (rejection from a homogeneous dominating process),
which is exact for any bounded rate function: no time-discretization bias.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError
from .signals import PhaseSpec

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
        if not (self.rate0 > 0.0 and math.isfinite(self.rate0)):
            raise DomainError(f"baseline rate must be positive and finite, got {self.rate0!r}")

    def rate(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.rate0)

    def max_rate(self) -> float:
        return self.rate0


@dataclass(frozen=True)
class VonMisesRate:
    """Rate modulated by a phase: rate0 * exp(kappa * cos(phi(t) - phase_offset)).

    With ``include_phase_derivative`` the instantaneous phase velocity
    phi'(t) multiplies the rate (the change-of-variables form); without it
    the rate is the plain exponential-cosine modulation.
    """

    rate0: float
    kappa: float
    phase_offset: float
    phase: PhaseSpec
    include_phase_derivative: bool = False

    def __post_init__(self):
        if not (self.rate0 > 0.0 and math.isfinite(self.rate0)):
            raise DomainError(f"baseline rate must be positive and finite, got {self.rate0!r}")
        if not (self.kappa >= 0.0 and math.isfinite(self.kappa)):
            raise DomainError(f"modulation strength must be >= 0, got {self.kappa!r}")

    def rate(self, t):
        out = self.rate0 * np.exp(
            self.kappa * np.cos(self.phase.phase(t) - self.phase_offset)
        )
        if self.include_phase_derivative:
            out = out * self.phase.derivative(t)
        return out

    def max_rate(self) -> float:
        peak = self.rate0 * math.exp(self.kappa)
        if self.include_phase_derivative:
            peak *= self.phase.max_derivative()
        return peak


@dataclass(frozen=True)
class SinusoidRate:
    """Sinusoidally modulated rate rate0 * (1 + depth * cos(2 pi harmonic t / window - phase_offset))."""

    rate0: float
    depth: float
    harmonic: int
    phase_offset: float
    window: float

    def __post_init__(self):
        if not (self.rate0 > 0.0 and math.isfinite(self.rate0)):
            raise DomainError(f"baseline rate must be positive and finite, got {self.rate0!r}")
        if not (0.0 <= self.depth <= 1.0):
            raise DomainError(f"modulation depth must lie in [0, 1], got {self.depth!r}")
        if not (isinstance(self.harmonic, (int, np.integer)) and self.harmonic >= 1):
            raise DomainError(f"harmonic must be a positive integer, got {self.harmonic!r}")
        if not (self.window > 0.0):
            raise DomainError("window must be positive")

    def rate(self, t):
        t = np.asarray(t, dtype=float)
        return self.rate0 * (
            1.0
            + self.depth
            * np.cos(2.0 * math.pi * self.harmonic * t / self.window - self.phase_offset)
        )

    def max_rate(self) -> float:
        return self.rate0 * (1.0 + self.depth)


IntensityModel = Union[HomogeneousRate, VonMisesRate, SinusoidRate]


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
        real = isinstance(window, numbers.Real) and not isinstance(window, bool)
        if not (real and 0.0 < window < math.inf):
            raise DomainError(f"window must be positive and finite, got {window!r}")
        window = float(window)
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
        self._bind(window, t, offsets, n_trials)

    @classmethod
    def _from_flat(cls, window, times, offsets, n_trials):
        """Adopt flat arrays that already meet the constructor's checks (no copy, no checks)."""
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
    """
    if not (0.0 < window < math.inf):
        raise DomainError(f"window must be positive and finite, got {window!r}")
    if trials < 1:
        raise DomainError("need at least one trial")
    lam_max = model.max_rate()
    if not math.isfinite(lam_max) or lam_max <= 0.0:
        raise DomainError(f"dominating rate must be positive and finite, got {lam_max!r}")

    counts = rng.poisson(lam_max * window, size=trials)
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
    t_cand = window * (cum[interior] - np.repeat(base, counts)) / np.repeat(denom, counts)
    trial_of = np.repeat(np.arange(trials), counts)

    if isinstance(model, HomogeneousRate):
        t_keep, trial_keep = t_cand, trial_of
    else:
        keep = rng.uniform(0.0, 1.0, total) * lam_max < model.rate(t_cand)
        t_keep, trial_keep = t_cand[keep], trial_of[keep]
    offsets = np.zeros(trials + 1, dtype=np.int64)
    np.cumsum(np.bincount(trial_keep, minlength=trials), out=offsets[1:])

    # Scan once for exact ties and repair only the affected trials, each in
    # place on its slice of t_keep.
    tied = (np.diff(t_keep) == 0.0) & (trial_keep[1:] == trial_keep[:-1])
    for k in np.unique(trial_keep[1:][tied]):
        _enforce_strict_increase(t_keep[offsets[k]:offsets[k + 1]], model, lam_max, window, rng)
    return SpikeData._from_flat(window, t_keep, offsets, trials)


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


def fourth_moment_oracle(a, b, c, d, rate, horizon: float):
    """Ground-truth fourth moment E[WXYZ] of four stochastic integrals.

    W, X, Y, Z are integrals of a, b, c, d against the same compensated
    Poisson process of the given rate on [0, horizon]. Evaluated by
    trapezoid quadrature (``np.trapezoid``) on a fixed uniform grid of
    8193 points of

        int abcd r + (int ab r)(int cd r) + (int ac r)(int bd r)
                    + (int ad r)(int bc r).

    Each of ``a, b, c, d, rate`` is a callable of time or a constant.
    """
    if not (horizon > 0.0):
        raise DomainError("horizon must be positive")
    grid = np.linspace(0.0, horizon, 8193)
    va, vb, vc, vd, vr = (
        np.asarray(f(grid), dtype=float) if callable(f) else np.full_like(grid, float(f))
        for f in (a, b, c, d, rate)
    )
    if np.any(vr < 0.0):
        raise DomainError("rate must be nonnegative")

    def integ(values):
        return np.trapezoid(values * vr, grid)

    return (
        integ(va * vb * vc * vd)
        + integ(va * vb) * integ(vc * vd)
        + integ(va * vc) * integ(vb * vd)
        + integ(va * vd) * integ(vb * vc)
    )
