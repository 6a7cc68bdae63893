"""Univariate spike-field coupling: the PLV, its asymptotic laws, null test.

The multi-trial PLV averages the unit phasor of a linear phase over the
spikes pooled across trials; sampled signals couple through
``build_coupling_matrix``. Closed forms for the infinite-trial limit and
the Gaussian law of the scaled residual are provided for the
exponential-cosine (von Mises) and the sinusoidally modulated rate;
arbitrary windows go through quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UndefinedEstimateError
from .pointproc import (
    IntensityModel,
    SpikeData,
    _check_depth,
    _check_harmonic,
    _check_kappa,
    _check_phase_offset,
    _check_rate0,
)
from .signals import LinearPhase, _check_window, _time_tolerance

__all__ = [
    "AsymptoticLaw",
    "estimate_plv",
    "plv_asymptotics_vonmises",
    "plv_asymptotics_sinusoid",
    "plv_limit_numeric",
    "plv_null_test",
]


@dataclass(frozen=True)
class AsymptoticLaw:
    """Infinite-trial limit and Gaussian law of the scaled residual.

    ``cov`` is the 2x2 covariance of (Re, Im) of
    exp(-i rotation) * sqrt(K) * (estimate - limit); ``expected_events``
    is the mean number of events per trial.
    """

    limit: complex
    cov: np.ndarray
    expected_events: float
    rotation: float = 0.0

    def __post_init__(self):
        cov = np.asarray(self.cov, dtype=float)
        if cov.shape != (2, 2) or not np.allclose(cov, cov.T):
            raise DomainError("covariance must be a symmetric 2x2 matrix")
        if np.any(np.linalg.eigvalsh(cov) < -1e-12):
            raise DomainError("covariance must be positive semidefinite")
        object.__setattr__(self, "cov", cov)

    def rotated_residuals(self, estimates, trials: int) -> np.ndarray:
        """Map estimates to exp(-i rotation) sqrt(K) (estimate - limit)."""
        z = np.asarray(estimates, dtype=complex)
        return np.exp(-1j * self.rotation) * math.sqrt(trials) * (z - self.limit)


def _check_phase_window(phase: LinearPhase, spikes: SpikeData) -> None:
    """Reject a phase model whose window ends before the spikes' window.

    Every ``SpikeData`` holds its spike times in [0, ``spikes.window``]:
    the constructor rejects any other time (NaN included), and
    ``simulate_poisson`` draws inside the window. So this one comparison
    covers every time the estimate will evaluate.
    """
    if spikes.window > phase.window + _time_tolerance(phase.window):
        raise DomainError(
            f"phase model covers {phase.window} s but spikes cover {spikes.window} s"
        )


def estimate_plv(phase: LinearPhase, spikes: SpikeData, unit: int = 0) -> complex:
    """Multi-trial PLV: mean of exp(i phi(t_j)) over all spikes pooled across trials.

    The phasors are assembled from the real kernels, cos phi into the real
    parts and sin phi into the imaginary parts of one complex buffer, instead
    of the complex ``exp(1j * phi)``. Each element is the same number, and the
    mean is the same complex pairwise sum over the same buffer, so the
    estimate keeps every bit of the complex-exp form at a lower cost.
    """
    _check_phase_window(phase, spikes)
    times = spikes.unit_times(unit)
    if times.size == 0:
        raise UndefinedEstimateError(
            f"PLV undefined for unit {unit}: zero spikes across {spikes.n_trials} trials"
        )
    phi = phase.phase(times)
    z = np.empty(phi.shape, dtype=complex)
    np.cos(phi, out=z.real)
    np.sin(phi, out=z.imag)
    return complex(np.mean(z))


def plv_asymptotics_vonmises(
    kappa: float,
    phase_offset: float,
    rate0: float,
    window: float,
    ratio_correction: bool = False,
) -> AsymptoticLaw:
    """Closed-form PLV law for the exponential-cosine rate over integer cycles.

    Limit exp(i phase_offset) I1(kappa)/I0(kappa); residual covariance
    diag(I0+I2, I0-I2) / (2 rate0 window I0^2) in the frame rotated by
    exp(-i phase_offset). The caller is responsible for the window holding
    an integer number of oscillation periods.

    The default covariance treats the spike-count normalization of the PLV
    as constant. With ``ratio_correction`` the count fluctuations of the
    ratio estimator are propagated as well, lowering the variance along
    the limit direction by |limit|^2 / expected_events; Monte Carlo at
    large trial counts follows the corrected value whenever the limit is
    nonzero.

    It is computed in the ratios r1 = I1/I0 and r2 = I2/I0 of the
    exponentially scaled ``scipy.special.ive``, finite at every kappa the
    rate model accepts (I0^2 overflows past kappa ~ 355): the limit is
    exp(i phase_offset) r1, the covariance diag(1 + r2, 1 - r2) /
    (2 expected_events), with expected_events = rate0 window I0. The
    recurrence form 1 - r2 = 2 r1 / kappa would avoid the cancellation in
    1 - r2 near kappa = 700, but ive(1, kappa) underflows to 0 at subnormal
    kappa, where that form gives an Im variance of 0 instead of
    1 / (2 expected_events). scipy is imported only for kappa > 0, so
    that a process with no coupled law pays no import; at kappa = 0,
    I0 = 1 and r1 = r2 = 0.
    """
    _check_kappa(kappa)
    _check_rate0(rate0)
    _check_window(window)
    _check_phase_offset(phase_offset)
    if kappa == 0.0:
        i0, r1, r2 = 1.0, 0.0, 0.0
    else:
        from scipy.special import ive  # exp(-kappa) I_k(kappa)

        e0, e1, e2 = ive((0, 1, 2), kappa).tolist()
        # I0 >= 1, but e0 * e^kappa rounds to 1 - 2^-53 for kappa from about 6e-17 to 3e-8.
        i0, r1, r2 = max(1.0, e0 * math.exp(kappa)), e1 / e0, e2 / e0
    expected = rate0 * window * i0
    cov = np.diag([1.0 + r2, 1.0 - r2]) / (2.0 * expected)
    if ratio_correction:
        cov[0, 0] -= r1 * r1 / expected
    return AsymptoticLaw(
        limit=np.exp(1j * phase_offset) * r1,
        cov=cov,
        expected_events=expected,
        rotation=phase_offset,
    )


def plv_asymptotics_sinusoid(
    depth: float,
    rate_harmonic: int,
    phase_harmonic: int,
    phase_offset: float,
    rate0: float,
    window: float,
    ratio_correction: bool = False,
) -> AsymptoticLaw:
    """Closed-form PLV law for a sinusoidally modulated rate.

    Phase runs at ``phase_harmonic`` cycles per window, the rate modulation
    at ``rate_harmonic`` cycles per window; the limit is
    (depth/2) exp(i phase_offset) when they coincide and 0 otherwise, with
    isotropic residual covariance I / (2 rate0 window).

    ``ratio_correction`` propagates the spike-count fluctuations of the
    ratio estimator (see ``plv_asymptotics_vonmises``); in the matched case
    it lowers the variance along the limit direction by
    (depth/2)^2 / expected_events and the law is reported in the frame
    rotated by exp(-i phase_offset).
    """
    _check_depth(depth)
    _check_harmonic(rate_harmonic)
    _check_harmonic(phase_harmonic)
    _check_rate0(rate0)
    _check_window(window)
    _check_phase_offset(phase_offset)
    matched = rate_harmonic == phase_harmonic
    limit = 0.5 * depth * np.exp(1j * phase_offset) if matched else 0j
    scale = 1.0 / (2.0 * rate0 * window)
    cov = np.diag([scale, scale])
    expected = rate0 * window
    rotation = 0.0
    if ratio_correction and matched:
        cov = cov - np.diag([(0.5 * depth) ** 2 / expected, 0.0])
        rotation = phase_offset
    return AsymptoticLaw(
        limit=limit,
        cov=cov,
        expected_events=expected,
        rotation=rotation,
    )


# Gauss-Legendre nodes reused across segments of the limit quadrature.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def plv_limit_numeric(phase: LinearPhase, model: IntensityModel, window: float) -> complex:
    """Infinite-trial PLV limit int e^{i phi} lambda / int lambda for any window.

    Composite Gauss-Legendre quadrature with at least two segments per
    oscillation cycle; relative accuracy is far below 1e-8 for the smooth
    rates in this package.
    """
    _check_window(window)
    cycles = abs(float(phase.phase(window)) - float(phase.phase(0.0))) / (2.0 * math.pi)
    segments = min(8192, max(4, 2 * int(math.ceil(cycles))))
    edges = np.linspace(0.0, window, segments + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * np.diff(edges)
    t = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    lam = np.asarray(model.rate(t), dtype=float)
    den = float(np.dot(w, lam))
    if den <= 0.0:
        raise DomainError("rate integrates to zero over the window; PLV limit undefined")
    num = np.dot(w, np.exp(1j * phase.phase(t)) * lam)
    return complex(num / den)


def plv_null_test(plv_hat: complex, total_spikes: int) -> float:
    """Rayleigh-type tail p-value exp(-N |PLV|^2) for the no-coupling null."""
    if total_spikes < 1:
        raise DomainError("null test needs at least one spike")
    return float(math.exp(-float(total_spikes) * abs(complex(plv_hat)) ** 2))
