"""Univariate spike-field coupling: the PLV, its asymptotic laws, null test.

The multi-trial PLV averages the unit phasor of a linear phase over the
spikes pooled across trials; sampled signals couple through
``build_coupling_matrix``. Its law is the infinite-trial limit and the
Gaussian law of the scaled residual, an ``AsymptoticLaw``: the delta method
on the ratio of two Poisson functionals of the rate and the phase, which
holds for any bounded rate over any window. Every law takes the unit the
way it is drawn, ``law(phase, model)``: the phase its PLV reads and the
rate model of the unit, over the phase's window. ``plv_law_numeric``
states it for any rate model and window by quadrature; the closed forms
state it for the exponential-cosine (von Mises) and the sinusoidally
modulated rate over whole cycles, read their parameters from the model,
and refuse a phase of partial cycles, a rate tied to another phase (a
von Mises lock to another frequency, a sinusoid over another window) and
a model of another kind. The tests hold them equal to the numeric law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UndefinedEstimateError
from .pointproc import (HomogeneousRate, IntensityModel, SinusoidRate, SpikeData, VonMisesRate,
                        _gauss_legendre)
from .signals import LinearPhase, _check_whole_cycles, _time_tolerance

__all__ = [
    "AsymptoticLaw",
    "estimate_plv",
    "plv_asymptotics_vonmises",
    "plv_asymptotics_sinusoid",
    "plv_law_numeric",
    "plv_null_test",
]


@dataclass(frozen=True)
class AsymptoticLaw:
    """Infinite-trial limit and Gaussian law of the scaled residual.

    ``cov`` is the paper-form 2x2 covariance of (Re, Im) of
    exp(-i rotation) * sqrt(K) * (estimate - limit), which treats the spike
    count the PLV divides by as constant; ``expected_events`` is the mean
    number of events per trial. The law is stated in its own frame:
    ``rotation`` turns the limit onto the nonnegative real axis, so
    exp(-i rotation) * limit = |limit| (a zero limit takes any rotation).
    The constructor does not check that: at subnormal kappa the rounded
    limit has no direction.
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

    @property
    def ratio_corrected_cov(self) -> np.ndarray:
        """The covariance with the count fluctuations of the ratio estimator propagated.

        The PLV divides by the pooled spike count, which fluctuates with the
        numerator: for any rate, with Lambda the expected count and L the
        limit, the delta method gives (1/Lambda^2) int (h - L)(h - L)^T lambda
        = ``cov`` - L L^T / Lambda. In the law's frame L is (|limit|, 0), so
        only the variance along the limit drops, by |limit|^2 /
        ``expected_events``. It is a property of the estimator, not of a
        rate model, and Monte Carlo at large trial counts follows it
        whenever the limit is nonzero.
        """
        return self.cov - np.diag([abs(self.limit) ** 2 / self.expected_events, 0.0])

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


def _check_model(law: str, model, kinds: tuple) -> None:
    if not isinstance(model, kinds):
        raise DomainError(f"the {law} law takes a {' or a '.join(k.__name__ for k in kinds)}, "
                          f"got {type(model).__name__}")


def plv_asymptotics_vonmises(phase: LinearPhase, model: IntensityModel) -> AsymptoticLaw:
    """Closed-form PLV law of the exponential-cosine rate over whole cycles of ``phase``.

    ``model`` is a ``VonMisesRate`` locked to a phase at ``phase``'s
    frequency, or a ``HomogeneousRate``: kappa = 0, offset 0. With T the
    phase's window, the limit is exp(i phase_offset) I1(kappa)/I0(kappa),
    and the paper-form residual covariance diag(I0+I2, I0-I2) / (2 rate0 T
    I0^2) in the frame rotated by exp(-i phase_offset), where the limit is
    real and nonnegative. The law's ``ratio_corrected_cov`` lowers the Re
    variance by (I1/I0)^2 / expected_events. A phase of partial cycles, a
    rate locked to another frequency and a model of another kind are
    refused.

    It is computed in the ratios r1 = I1/I0 and r2 = I2/I0 of the
    exponentially scaled ``scipy.special.ive``, finite at every kappa the
    rate model accepts (I0^2 overflows past kappa ~ 355): the limit is
    exp(i phase_offset) r1, the covariance diag(1 + r2, 1 - r2) /
    (2 expected_events), with expected_events = rate0 T I0. The
    recurrence form 1 - r2 = 2 r1 / kappa would avoid the cancellation in
    1 - r2 near kappa = 700, but ive(1, kappa) underflows to 0 at subnormal
    kappa, where that form gives an Im variance of 0 instead of
    1 / (2 expected_events). scipy is imported only for kappa > 0, so
    that a process with no coupled law pays no import; at kappa = 0,
    I0 = 1 and r1 = r2 = 0.
    """
    _check_model("von Mises", model, (VonMisesRate, HomogeneousRate))
    _check_whole_cycles(phase)
    kappa, offset = 0.0, 0.0
    if isinstance(model, VonMisesRate):
        if model.phase.frequency != phase.frequency:
            raise DomainError(f"the rate is locked to {model.phase.frequency} Hz, "
                              f"the phase runs at {phase.frequency} Hz")
        kappa, offset = model.kappa, model.phase_offset
    if kappa == 0.0:
        i0, r1, r2 = 1.0, 0.0, 0.0
    else:
        from scipy.special import ive  # exp(-kappa) I_k(kappa)

        e0, e1, e2 = ive((0, 1, 2), kappa).tolist()
        # I0 >= 1, but e0 * e^kappa rounds to 1 - 2^-53 for kappa from about 6e-17 to 3e-8.
        i0, r1, r2 = max(1.0, e0 * math.exp(kappa)), e1 / e0, e2 / e0
    expected = model.rate0 * phase.window * i0
    return AsymptoticLaw(
        limit=np.exp(1j * offset) * r1,
        cov=np.diag([1.0 + r2, 1.0 - r2]) / (2.0 * expected),
        expected_events=expected,
        rotation=offset,
    )


def plv_asymptotics_sinusoid(phase: LinearPhase, model: SinusoidRate) -> AsymptoticLaw:
    """Closed-form PLV law of a sinusoidally modulated rate over whole cycles of ``phase``.

    ``model`` is a ``SinusoidRate`` over the phase's window T, its rate
    rate0 (1 + depth cos(2 pi harmonic t / T - phase_offset)); the phase
    runs at round(f T) cycles per window, its harmonic. With s =
    1 / (2 rate0 T), the paper-form covariance is s I, plus one term when
    the rate runs at twice the phase's harmonic, where cos^2 and sin^2 of
    the phase beat with the rate: s (depth/2) [[cos psi, sin psi], [sin
    psi, -cos psi]], with psi = ``phase_offset``. The limit is (depth/2)
    exp(i phase_offset) when the harmonics coincide, in the frame rotated by
    exp(-i phase_offset), and 0 otherwise, in the unrotated frame. The law's
    ``ratio_corrected_cov`` lowers the matched case's Re variance by
    (depth/2)^2 / expected_events. A phase of partial cycles, a rate over
    another window and a model of another kind are refused.
    """
    _check_model("sinusoid", model, (SinusoidRate,))
    _check_whole_cycles(phase)
    if model.window != phase.window:
        raise DomainError(f"the rate is modulated over {model.window} s, "
                          f"the phase runs over {phase.window} s")
    phase_harmonic, offset = round(phase.frequency * phase.window), model.phase_offset
    matched = model.harmonic == phase_harmonic
    scale = 1.0 / (2.0 * model.rate0 * phase.window)
    cov = np.diag([scale, scale])
    if model.harmonic == 2 * phase_harmonic:
        c, s = math.cos(offset), math.sin(offset)
        cov = cov + scale * (0.5 * model.depth) * np.array([[c, s], [s, -c]])
    return AsymptoticLaw(
        limit=0.5 * model.depth * np.exp(1j * offset) if matched else 0j,
        cov=cov,
        expected_events=model.rate0 * phase.window,
        rotation=offset if matched else 0.0,
    )


_EPS = float(np.finfo(float).eps)


def _segments(phase: LinearPhase, model: IntensityModel) -> int:
    """Segments of the composite rule over the phase's window: enough per cycle for the sharpest factor.

    The integrands oscillate with the phase and with the rate: a von Mises
    rate at its own phase, a sinusoid at its harmonic. Each cycle of the
    faster one gets two segments, plus one per unit of sqrt(kappa) for a von
    Mises rate, whose peak is about 1/sqrt(kappa) rad wide.
    """
    window = phase.window
    cycles, per_cycle = phase.frequency * window, 2
    if isinstance(model, VonMisesRate):
        cycles = max(cycles, model.phase.frequency * window)
        per_cycle += math.ceil(math.sqrt(model.kappa))
    elif isinstance(model, SinusoidRate):
        cycles = max(cycles, model.harmonic * window / model.window)
    return min(8192, max(4, per_cycle * math.ceil(min(cycles, 8192.0))))


def plv_law_numeric(phase: LinearPhase, model: IntensityModel) -> AsymptoticLaw:
    """The PLV law of any bounded rate over the phase's window, whole cycles or not, by quadrature.

    With the integrals over the phase's window and Lambda = int lambda
    (``expected_events``), the limit is
    L = int e^{i phi} lambda / Lambda, and the paper-form covariance is
    (1/Lambda^2) int h h^T lambda with h = (cos, sin)(phi - rotation), in
    the frame rotated by ``rotation`` = arg L. A limit within the rule's
    rounding error of 0 has no direction, and the law takes rotation 0 for
    it, as the closed forms do for the mismatched sinusoid. The law's
    ``ratio_corrected_cov`` is the corrected form.

    The integrals use the composite Gauss-Legendre rule of
    ``_gauss_legendre``, its segments set by ``_segments``. The rate
    enters as lambda / max_rate, at most 1, so neither Lambda^2 nor the
    rate itself overflows at kappa = 700: the covariance is (int h h^T mu /
    int mu) / Lambda with mu = lambda / max_rate.
    """
    t, w = _gauss_legendre(phase.window, _segments(phase, model))
    lam_max = model.max_rate()
    mu = np.asarray(model.rate(t), dtype=float) / lam_max
    mass = float(np.dot(w, mu))
    if not mass > 0.0:
        raise DomainError("rate integrates to zero over the window; PLV law undefined")
    phi, wm = phase.phase(t), w * mu
    limit = complex(np.dot(wm, np.exp(1j * phi))) / mass
    # The rule's sums of n terms round by up to n eps int mu: a smaller limit has no direction.
    rotation = math.atan2(limit.imag, limit.real) if abs(limit) > t.size * _EPS else 0.0
    c, s = np.cos(phi - rotation), np.sin(phi - rotation)
    cc, cs, ss = (float(np.dot(wm, x * y)) / mass for x, y in ((c, c), (c, s), (s, s)))
    expected = lam_max * mass
    return AsymptoticLaw(
        limit=limit,
        cov=np.array([[cc, cs], [cs, ss]]) / expected,
        expected_events=expected,
        rotation=rotation,
    )


def plv_null_test(plv_hat: complex, total_spikes: int) -> float:
    """Rayleigh-type tail p-value exp(-N |PLV|^2) for the no-coupling null."""
    if total_spikes < 1:
        raise DomainError("null test needs at least one spike")
    return float(math.exp(-float(total_spikes) * abs(complex(plv_hat)) ** 2))
