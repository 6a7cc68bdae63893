"""Phase models and multichannel analytic signals.

A phase model maps time to an unwrapped phase in radians; a
``SignalMatrix`` holds p complex channels sampled on a uniform grid over
``[0, window]`` with ``window = q * dt`` (samples sit at t = k*dt for
k = 0..q-1, and the grid is treated as periodic over the trailing
subinterval when interpolating).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import ConfigurationError, DomainError, SingularGramError
from .specfun import von_mises_phasor

__all__ = [
    "LinearPhase",
    "TabulatedPhase",
    "PhaseSpec",
    "SignalMatrix",
    "synthesize_oscillations",
    "whiten",
]


@dataclass(frozen=True)
class LinearPhase:
    """Linear phase phi(t) = 2 pi f t over a window of length ``window``."""

    frequency: float
    window: float

    def __post_init__(self):
        if not (self.frequency > 0.0) or not (self.window > 0.0):
            raise DomainError("frequency and window must be positive")

    def phase(self, t):
        return 2.0 * math.pi * self.frequency * np.asarray(t, dtype=float)

    def derivative(self, t):
        return np.full_like(np.asarray(t, dtype=float), 2.0 * math.pi * self.frequency)

    def max_derivative(self) -> float:
        return 2.0 * math.pi * self.frequency


@dataclass(frozen=True)
class TabulatedPhase:
    """Piecewise-linear phase given by (time, phase) samples on [0, window]."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape or len(times) < 2:
            raise DomainError("need matching 1-d time and phase arrays with >= 2 samples")
        if times[0] != 0.0 or np.any(np.diff(times) <= 0.0):
            raise DomainError("times must start at 0 and increase strictly")
        if np.any(np.diff(values) < 0.0):
            raise DomainError("phase must be nondecreasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def window(self) -> float:
        return float(self.times[-1])

    def phase(self, t):
        t = _check_times(t, self.window)
        return np.interp(t, self.times, self.values)

    def derivative(self, t):
        t = _check_times(t, self.window)
        slopes = np.diff(self.values) / np.diff(self.times)
        idx = np.clip(np.searchsorted(self.times, t, side="right") - 1, 0, len(slopes) - 1)
        return slopes[idx]

    def max_derivative(self) -> float:
        return float(np.max(np.diff(self.values) / np.diff(self.times)))


PhaseSpec = Union[LinearPhase, TabulatedPhase]


def _time_tolerance(window: float) -> float:
    """How far past [0, window] a time may round and still count as inside."""
    return 1e-9 * max(1.0, window)


def _check_times(t, window: float):
    t = np.asarray(t, dtype=float)
    tol = _time_tolerance(window)
    if t.size and (t.min() < -tol or t.max() > window + tol):
        raise DomainError(
            f"evaluation times must lie in [0, {window}], got range "
            f"[{t.min()}, {t.max()}]"
        )
    return np.clip(t, 0.0, window)


@dataclass
class SignalMatrix:
    """p complex channels sampled on a uniform grid with step ``dt``."""

    samples: np.ndarray
    dt: float
    whitened: bool = False

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=complex)
        if samples.ndim != 2 or samples.shape[0] < 1 or samples.shape[1] < 2:
            raise DomainError("samples must be a (channels, times) array with >= 2 samples")
        if not (np.all(np.isfinite(samples.real)) and np.all(np.isfinite(samples.imag))):
            raise DomainError("signal samples must be finite")
        if not (self.dt > 0.0):
            raise DomainError("dt must be positive")
        self.samples = samples

    @property
    def n_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def window(self) -> float:
        return self.n_samples * self.dt

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_samples) * self.dt

    def _stencil(self, t):
        """Linear-interpolation stencil at times ``t``: x(t) = (1 - w) x[i0] + w x[i1].

        The one definition of the interpolation rule, shared by ``eval_at``
        and the coupling-matrix kernel.
        """
        t = _check_times(t, self.window)
        q = self.n_samples
        # (q dt) / dt can round above q; capping keeps both weights in [0, 1].
        pos = np.minimum(t / self.dt, q)
        i0 = np.minimum(pos.astype(int), q - 1)
        w = pos - i0
        i1 = (i0 + 1) % q  # periodic continuation for the trailing subinterval
        return i0, i1, w

    def eval_at(self, t) -> np.ndarray:
        """Linear interpolation of every channel at times ``t``; shape (p, len(t))."""
        i0, i1, w = self._stencil(t)
        return self.samples[:, i0] * (1.0 - w) + self.samples[:, i1] * w

    def gram(self) -> np.ndarray:
        """Time-average Gram matrix (1/T) sum_t x x^H dt."""
        return (self.samples @ self.samples.conj().T) / self.n_samples

    def integral(self) -> np.ndarray:
        """Per-channel time integral of the signal over the window."""
        return self.samples.sum(axis=1) * self.dt


def synthesize_oscillations(
    components,
    window: float,
    dt: float,
    phase_noise_kappa: float,
    channels: int,
    rng: np.random.Generator,
) -> SignalMatrix:
    """Build unit-modulus oscillatory channels with i.i.d. von Mises phase noise.

    Channel c carries component ``c mod len(components)`` as
    exp(2 pi i f t) * exp(i eta[t]) with eta drawn i.i.d. from a zero-mean
    von Mises distribution of concentration ``phase_noise_kappa`` at every
    sample. ``phase_noise_kappa = 0`` produces noiseless oscillations; a
    negative, NaN or infinite concentration, or one above the sampler's
    1e12, raises ``DomainError``.

    One carrier row exp(2 pi i f t) is computed per component and multiplied
    into the channels' noise phasors (``von_mises_phasor``), which take the
    same draws as ``von_mises_sample(0, kappa, rng, (channels, q))``.
    """
    freqs = np.asarray(components, dtype=float)
    if freqs.ndim != 1 or len(freqs) < 1 or np.any(freqs <= 0.0):
        raise DomainError("components must be a nonempty list of positive frequencies")
    if channels < 1:
        raise DomainError("need at least one channel")
    kappa = float(phase_noise_kappa)
    if not (0.0 <= kappa < math.inf):  # NaN fails every comparison
        raise DomainError(
            f"phase_noise_kappa must be a nonnegative finite number, got {phase_noise_kappa!r}"
        )
    f_max = float(freqs.max())
    if dt > 1.0 / (8.0 * f_max):
        raise ConfigurationError(
            f"dt={dt} undersamples the {f_max} Hz component; need dt <= {1.0 / (8.0 * f_max):g}"
            " (8 samples per period)"
        )
    q = int(round(window / dt))
    if q < 2 or abs(q * dt - window) > 0.5 * dt:
        raise ConfigurationError(f"window {window} is not an integer number of dt={dt} steps")

    t = np.arange(q) * dt
    carriers = np.exp(1j * (2.0 * math.pi * freqs[:, None] * t[None, :]))
    if kappa == 0.0:
        return SignalMatrix(carriers[np.arange(channels) % len(freqs)], dt=dt, whitened=False)
    samples = von_mises_phasor(kappa, rng, size=(channels, q))
    for k, carrier in enumerate(carriers):
        samples[k :: len(freqs)] *= carrier
    return SignalMatrix(samples, dt=dt, whitened=False)


_GRAM_CONDITION_LIMIT = 1e10


def whiten(signals: SignalMatrix) -> SignalMatrix:
    """Transform channels so the time-average Gram matrix is the identity.

    Applies the inverse square root of the Gram matrix, computed through a
    Hermitian eigendecomposition. The output spans the same channel space.
    """
    return SignalMatrix(_inverse_root(signals.gram()) @ signals.samples, dt=signals.dt,
                        whitened=True)


def _inverse_root(gram: np.ndarray) -> np.ndarray:
    """gram^(-1/2) through a Hermitian eigendecomposition; rejects a near-singular gram."""
    w, v = np.linalg.eigh(gram)
    if w[-1] <= 0.0:
        raise SingularGramError("Gram matrix has no positive eigenvalue")
    near_null = int(np.sum(w < w[-1] / _GRAM_CONDITION_LIMIT))
    if near_null > 0:
        raise SingularGramError(
            f"Gram matrix is numerically singular: {near_null} near-null "
            f"direction(s) out of {len(w)} (condition number above {_GRAM_CONDITION_LIMIT:g})"
        )
    return (v * (w**-0.5)) @ v.conj().T
