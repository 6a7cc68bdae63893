"""Phase models and multichannel analytic signals.

A phase model maps time to an unwrapped phase in radians; a
``SignalMatrix`` holds p complex channels sampled on a uniform grid over
``[0, window]`` with ``window = q * dt`` (samples sit at t = k*dt for
k = 0..q-1, and the grid is treated as periodic over the trailing
subinterval when interpolating).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, SingularGramError
from .specfun import _check_concentration, von_mises_phasor

__all__ = [
    "LinearPhase",
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
        if not (0.0 < self.frequency < math.inf):
            raise DomainError(f"frequency must be positive and finite, got {self.frequency!r}")
        _check_window(self.window)
        if not math.isfinite(2.0 * math.pi * self.frequency * self.window):
            raise DomainError(f"the phase 2*pi*f*T overflows at frequency {self.frequency!r} "
                              f"and window {self.window!r}")

    def phase(self, t):
        return 2.0 * math.pi * self.frequency * np.asarray(t, dtype=float)


def _check_window(window, name="window") -> float:
    """A window, or another span of time, as a float: a real number, positive and finite."""
    real = isinstance(window, numbers.Real) and not isinstance(window, bool)
    if not (real and 0.0 < window < math.inf):
        raise DomainError(f"{name} must be positive and finite, got {window!r}")
    return float(window)


def _check_whole_cycles(phase: LinearPhase) -> None:
    """Refuse a phase whose window is not a whole number of its cycles, to 1e-9 of a cycle.

    The closed-form PLV laws and the multivariate experiments hold over
    whole cycles only, and over at least one: a phase that barely turns
    has a PLV near 1, not the laws' limit. f*T is finite: ``LinearPhase``
    refuses a phase that overflows.
    """
    cycles = phase.frequency * phase.window
    if abs(cycles - round(cycles)) > 1e-9:
        raise DomainError(f"window {phase.window} s must hold an integer number of cycles of "
                          f"{phase.frequency} Hz, got f*T={cycles}")
    if round(cycles) < 1:
        raise DomainError(f"window {phase.window} s holds no whole cycle of {phase.frequency} Hz, "
                          f"got f*T={cycles}")


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
        if not np.isfinite(samples).all():
            raise DomainError("signal samples must be finite")
        _check_window(self.dt, "dt")
        self.samples = samples

    @classmethod
    def _adopt(cls, samples, dt, whitened):
        """Wrap a complex (channels, times) array the library built from checked inputs.

        No copy and no checks: synthesis and whitening of finite inputs give
        finite samples, and ``load_signals`` adopts a file's samples after
        the reader's own finiteness rule, so only a matrix from a caller
        pays for the finiteness scan.
        """
        signals = cls.__new__(cls)
        signals.samples, signals.dt, signals.whitened = samples, dt, whitened
        return signals

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


# numpy refuses an array of more bytes than this ("Maximum allowed size exceeded").
_MAX_BYTES = np.iinfo(np.intp).max


def _check_grid(components, window, dt, phase_noise_kappa, channels):
    """The synthesis grid's rules; returns the frequencies, the concentration and q.

    ``components`` is a nonempty list of positive finite frequencies, each
    sampled at least 8 times per period by ``dt``; there is at least one
    channel; the phase-noise concentration is within the sampler's
    [0, 1e12]. The window is a whole number q >= 2 of steps, to 1e-9 of the
    window, whose (rows, q) complex array numpy can build, which is checked
    before anything is allocated.
    """
    window, dt = _check_window(window), _check_window(dt, "dt")
    freqs = np.asarray(components, dtype=float)
    if freqs.ndim != 1 or len(freqs) < 1 or not np.all((freqs > 0.0) & (freqs < math.inf)):
        raise DomainError(f"components must be a nonempty list of positive finite frequencies, "
                          f"got {components!r}")
    if channels < 1:
        raise DomainError(f"need at least one channel, got {channels}")
    kappa = _check_concentration(phase_noise_kappa, "phase_noise_kappa")
    f_max = float(freqs.max())
    if dt > 1.0 / (8.0 * f_max):
        raise ConfigurationError(
            f"dt={dt} undersamples the {f_max} Hz component; need dt <= {1.0 / (8.0 * f_max):g}"
            " (8 samples per period)"
        )
    rows = max(channels, len(freqs))
    q = window / dt
    if not q * 16.0 * rows <= _MAX_BYTES:  # also refuses an overflow to inf
        raise ConfigurationError(
            f"window {window} at dt={dt} is {q:.3g} samples, too many for a complex array "
            f"of {rows} rows"
        )
    q = int(round(q))
    if q < 2 or abs(q * dt - window) > 1e-9 * window:
        raise ConfigurationError(f"window {window} is not an integer number of dt={dt} steps")
    return freqs, kappa, q


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
    freqs, kappa, q = _check_grid(components, window, dt, phase_noise_kappa, channels)

    t = np.arange(q) * dt
    carriers = np.exp(1j * (2.0 * math.pi * freqs[:, None] * t[None, :]))
    if kappa == 0.0:
        return SignalMatrix._adopt(carriers[np.arange(channels) % len(freqs)], dt, False)
    samples = von_mises_phasor(kappa, rng, size=(channels, q))
    for k, carrier in enumerate(carriers):
        samples[k :: len(freqs)] *= carrier
    return SignalMatrix._adopt(samples, dt, False)


_GRAM_CONDITION_LIMIT = 1e10


def whiten(signals: SignalMatrix) -> SignalMatrix:
    """Transform channels so the time-average sample Gram matrix is the identity.

    Used for ``simulate``'s ``"whiten": true`` file; the inverse square root
    comes from a Hermitian eigendecomposition. Spans the same channel space.
    """
    return SignalMatrix._adopt(_inverse_root(signals.gram()) @ signals.samples, signals.dt, True)


def _interpolant_root(signals: SignalMatrix) -> np.ndarray:
    """G^(-1/2), the channel map that makes the piecewise-linear interpolant orthonormal.

    The spike sums see the interpolant, and interpolating i.i.d. phase noise
    loses a third of its power between samples, so whitening the sample Gram
    A0 alone falls short. G = (2/3) A0 + (1/6)(B + B^H) over the periodic
    grid, B the lag-one cross-Gram.
    """
    x = signals.samples
    a0 = signals.gram()
    shifted = np.roll(x, -1, axis=1)
    b = (x @ np.conjugate(shifted, out=shifted).T) / x.shape[1]
    del shifted
    return _inverse_root((2.0 / 3.0) * a0 + (b + b.conj().T) / 6.0)


def _inverse_root(gram: np.ndarray) -> np.ndarray:
    """gram^(-1/2) through a Hermitian eigendecomposition; rejects a near-singular gram.

    A finite, well-conditioned gram keeps the whitened samples finite.
    """
    if not np.isfinite(gram).all():
        raise DomainError("signal power overflows: the Gram matrix is not finite")
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
