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


@dataclass
class SpikeData:
    """Event times for n units over K trials on a common window [0, T].

    ``trains[unit][trial]`` is a strictly increasing float array of event
    times in seconds. All units carry the same number of trials.
    """

    window: float
    trains: list

    def __post_init__(self):
        if not (self.window > 0.0):
            raise DomainError("window must be positive")
        if not self.trains or not all(len(u) == len(self.trains[0]) for u in self.trains):
            raise DomainError("units must be nonempty and share the same trial count")

    @property
    def n_units(self) -> int:
        return len(self.trains)

    @property
    def n_trials(self) -> int:
        return len(self.trains[0])

    def counts(self) -> np.ndarray:
        """Per-unit, per-trial spike counts, shape (n_units, n_trials)."""
        return np.array([[len(t) for t in unit] for unit in self.trains], dtype=int)

    def unit_times(self, unit: int) -> np.ndarray:
        """All event times of one unit pooled across trials (concatenation order)."""
        trials = self.trains[unit]
        if not trials:
            return np.empty(0)
        return np.concatenate([np.asarray(t, dtype=float) for t in trials])

    def validate(self) -> None:
        """Check every invariant; raises DomainError on the first violation."""
        for u, unit in enumerate(self.trains):
            for k, t in enumerate(unit):
                t = np.asarray(t, dtype=float)
                if t.size == 0:
                    continue
                if t.min() < 0.0 or t.max() > self.window:
                    raise DomainError(f"unit {u} trial {k}: event time outside [0, {self.window}]")
                if np.any(np.diff(t) <= 0.0):
                    raise DomainError(f"unit {u} trial {k}: event times not strictly increasing")


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
    if not (window > 0.0):
        raise DomainError("window must be positive")
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
    kept_counts = np.bincount(trial_keep, minlength=trials)
    per_trial = np.split(t_keep, np.cumsum(kept_counts)[:-1])

    # Exact float collisions have probability zero; scan once and repair
    # only affected trials.
    tied = (np.diff(t_keep) == 0.0) & (trial_keep[1:] == trial_keep[:-1])
    if np.any(tied):
        bad = np.unique(trial_keep[1:][tied])
        for k in bad:
            per_trial[k] = _enforce_strict_increase(per_trial[k], model, lam_max, window, rng)
    return SpikeData(window=window, trains=[per_trial])


def _enforce_strict_increase(times, model, lam_max, window, rng):
    # Exact float collisions have probability zero; when one occurs, the
    # duplicate is replaced by a fresh draw from the normalized rate density
    # (which conditioning on the trial count makes distributionally exact).
    while times.size > 1 and np.any(np.diff(times) == 0.0):
        dup = 1 + np.flatnonzero(np.diff(times) == 0.0)[0]
        while True:
            t_new = rng.uniform(0.0, window)
            if rng.uniform(0.0, 1.0) * lam_max < float(model.rate(t_new)):
                break
        times = np.sort(np.concatenate([np.delete(times, dup), [t_new]]))
    return times


def _trapezoid(values, grid):
    return np.sum((values[..., 1:] + values[..., :-1]) * 0.5 * np.diff(grid), axis=-1)


def fourth_moment_oracle(a, b, c, d, rate, horizon: float, grid_points: int = 8193):
    """Ground-truth fourth moment E[WXYZ] of four stochastic integrals.

    W, X, Y, Z are integrals of a, b, c, d against the same compensated
    Poisson process of the given rate on [0, horizon]. Evaluated by
    trapezoid quadrature of

        int abcd r + (int ab r)(int cd r) + (int ac r)(int bd r)
                    + (int ad r)(int bc r).

    Each of ``a, b, c, d, rate`` may be a callable of time or an array
    sampled on the shared uniform grid (whose length must match).
    """
    if not (horizon > 0.0):
        raise DomainError("horizon must be positive")
    grid = np.linspace(0.0, horizon, grid_points)
    va, vb, vc, vd, vr = (_on_grid(f, grid) for f in (a, b, c, d, rate))
    if np.any(vr < 0.0):
        raise DomainError("rate must be nonnegative")

    def integ(values):
        return _trapezoid(values * vr, grid)

    return (
        integ(va * vb * vc * vd)
        + integ(va * vb) * integ(vc * vd)
        + integ(va * vc) * integ(vb * vd)
        + integ(va * vd) * integ(vb * vc)
    )


def _on_grid(f, grid):
    if callable(f):
        return np.asarray(f(grid), dtype=float)
    arr = np.asarray(f, dtype=float)
    if arr.ndim == 0:
        return np.full_like(grid, float(arr))
    if arr.shape != grid.shape:
        raise DomainError(
            f"sampled integrand length {arr.shape} does not match the grid {grid.shape}"
        )
    return arr
