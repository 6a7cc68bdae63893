"""Special functions: the Marchenko-Pastur law and von Mises sampling.

Self-contained numerics for the multivariate test and the phase noise.
The MP CDF is the density's antiderivative in closed form, so this module
holds no quadrature; the quadrature oracles it is checked against, adaptive
and multiprecision, stay in the test suite, independent of this module.
The two von Mises samplers share one Best-Fisher rejection core, which
yields cos(theta) and a sign per draw: ``von_mises_sample`` turns them into
angles and ``von_mises_phasor`` into unit phasors exp(i theta), from the
same stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "MpLaw", "mp_law", "mp_density", "mp_cdf", "von_mises_sample", "von_mises_phasor",
]


@dataclass(frozen=True)
class MpLaw:
    """Marchenko-Pastur law for dimension ratio ``alpha`` (unit variance).

    Support of the continuous part is [(1-sqrt(alpha))^2, (1+sqrt(alpha))^2];
    for alpha > 1 an atom of mass 1 - 1/alpha sits at zero.
    """

    alpha: float
    lower_edge: float
    upper_edge: float
    zero_atom: float


def mp_law(alpha: float) -> MpLaw:
    """Construct the Marchenko-Pastur law with dimension ratio ``alpha``."""
    alpha = float(alpha)
    if math.isnan(alpha) or alpha <= 0.0 or math.isinf(alpha):
        raise DomainError(f"dimension ratio must be a positive real, got {alpha!r}")
    root = math.sqrt(alpha)
    return MpLaw(
        alpha=alpha,
        lower_edge=(1.0 - root) ** 2,
        upper_edge=(1.0 + root) ** 2,
        zero_atom=max(0.0, 1.0 - 1.0 / alpha),
    )


def mp_density(law: MpLaw, x):
    """Continuous MP density at ``x`` (scalar or array); zero off-support."""
    x = np.asarray(x, dtype=float)
    if np.isnan(x).any():
        raise DomainError("NaN in density argument")
    inside = (x > law.lower_edge) & (x < law.upper_edge)
    dens = np.zeros_like(x)
    xs = x[inside]
    dens[inside] = np.sqrt((law.upper_edge - xs) * (xs - law.lower_edge)) / (
        2.0 * math.pi * law.alpha * xs
    )
    return dens if dens.ndim else float(dens)


def mp_cdf(law: MpLaw, x):
    """CDF of the MP law at ``x`` (scalar or array), the zero atom included when alpha > 1.

    It is 0 below 0, the atom up to the lower edge a and 1 from the upper
    edge b. Inside (a, b), with s = sqrt((b - x)(x - a)), c = 1 + alpha and
    g = |1 - alpha| = sqrt(a b), the density's antiderivative gives

        atom + [s + c atan2(x - c, s) - g atan2(c x - g^2, g s) + (pi/2)(c - g)] / (2 pi alpha),

    each arcsin written as an atan2 so that it stays accurate at both edges.
    The tests hold it to quadrature of the density: within 1e-13 of a
    40-digit mpmath integral for alpha from 0.01 to 100. Below alpha = 0.01
    its O(1) terms cancel to O(alpha), and the error grows to about 1e-11
    at alpha = 1e-4.
    """
    x = np.asarray(x, dtype=float)
    if np.isnan(x).any():
        raise DomainError("NaN in cdf argument")
    a, b, alpha = law.lower_edge, law.upper_edge, law.alpha
    cdf = np.where(x < 0.0, 0.0, np.where(x >= b, 1.0, law.zero_atom))
    inside = (x > a) & (x < b)
    xs = x[inside]
    s = np.sqrt((b - xs) * (xs - a))
    c, g = 1.0 + alpha, abs(1.0 - alpha)
    cdf[inside] += (
        s + c * np.arctan2(xs - c, s) - g * np.arctan2(c * xs - g * g, g * s)
        + 0.5 * math.pi * (c - g)
    ) / (2.0 * math.pi * alpha)
    return cdf if cdf.ndim else float(cdf)


def von_mises_sample(mu: float, kappa: float, rng: np.random.Generator, size=None):
    """Draw from the von Mises distribution on [-pi, pi).

    Uses the Best-Fisher wrapped-Cauchy rejection sampler (Best & Fisher
    1979, *Appl. Statist.* 28:152), which yields cos(theta - mu) and a sign;
    the angle is ``mu + sign * arccos(cos)``, wrapped to [-pi, pi).
    ``kappa = 0`` degenerates to the uniform distribution on the circle.
    Draws are taken from ``rng`` in a deterministic batched order, so a
    seeded generator reproduces the stream exactly, and ``von_mises_phasor``
    consumes the same stream.

    Parameters
    ----------
    mu : float
        Center direction in radians.
    kappa : float
        Concentration, >= 0 and at most 1e12.
    rng : numpy.random.Generator
        Source of randomness; mutated by sampling.
    size : int or tuple, optional
        Output shape; ``None`` returns a scalar.
    """
    kappa = _check_concentration(kappa)
    shape, n = _draw_shape(size)

    if kappa == 0.0:
        theta = rng.uniform(-math.pi, math.pi, n)
    else:
        cos, sign = _best_fisher(kappa, rng, n)
        theta = mu + sign * np.arccos(cos)
    theta = np.mod(theta + math.pi, 2.0 * math.pi) - math.pi
    if size is None:
        return float(theta[0])
    return theta.reshape(shape)


def von_mises_phasor(kappa: float, rng: np.random.Generator, size=None):
    """Draw exp(i theta) for zero-mean von Mises theta, without forming theta.

    Takes the same draws from ``rng`` as ``von_mises_sample(0.0, kappa, rng,
    size)`` and returns their unit phasors: the Best-Fisher sampler yields
    cos(theta) directly, so the phasor is cos + i sign sqrt((1 - cos)(1 + cos))
    with no arccos, no wrap and no complex exponential.

    Parameters
    ----------
    kappa : float
        Concentration, >= 0 and at most 1e12.
    rng : numpy.random.Generator
        Source of randomness; mutated by sampling.
    size : int or tuple, optional
        Output shape; ``None`` returns a complex scalar.
    """
    kappa = _check_concentration(kappa)
    shape, n = _draw_shape(size)

    if kappa == 0.0:
        z = np.exp(1j * rng.uniform(-math.pi, math.pi, n))
    else:
        cos, sign = _best_fisher(kappa, rng, n)
        z = np.empty(n, dtype=complex)
        z.real = cos
        root = np.subtract(1.0, cos)
        root *= np.add(1.0, cos, out=cos)  # (1 - cos)(1 + cos) keeps sin accurate near |cos| = 1
        np.sqrt(root, out=root)
        # copysign, not sign *: a zero sign (u3 = 0.5 exactly) still gives |z| = 1.
        np.copysign(root, sign, out=z.imag)
    if size is None:
        return complex(z[0])
    return z.reshape(shape)


# The wrapped-Cauchy envelope parameter r = (1 + rho^2)/(2 rho) tends to 1
# as 1 + 1/(2 kappa). With the same seed, sqrt(kappa) * std(theta) moves by
# 2e-5 from kappa = 1e6 to 1e12, by 2e-3 at 1e15 and by 18 % at 1e16; from
# about 6e15 on r can round to exactly 1 and then nothing is ever accepted.
_MAX_CONCENTRATION = 1e12


def _check_concentration(kappa, name="concentration") -> float:
    """A von Mises concentration, as a float in the sampler's [0, 1e12]."""
    kappa = float(kappa)
    if not (0.0 <= kappa <= _MAX_CONCENTRATION):  # NaN fails every comparison
        raise DomainError(f"{name} must be in [0, {_MAX_CONCENTRATION:g}], got {kappa!r}")
    return kappa


def _draw_shape(size):
    shape = () if size is None else (size if isinstance(size, tuple) else (int(size),))
    return shape, int(np.prod(shape)) if shape else 1


# Candidates tested per step of the Best-Fisher core. At 2^15 doubles
# (256 KiB) per array, a slice's temporaries stay in cache from one step to
# the next instead of streaming a batch-sized array through memory per step.
_SLICE = 1 << 15


def _best_fisher(kappa: float, rng: np.random.Generator, n: int):
    """n accepted Best-Fisher draws as (cos theta clipped to [-1, 1], sign of theta).

    Each batch draws its candidates as three full arrays u1, u2, u3, in that
    order, then tests them ``_SLICE`` at a time, so the temporaries of the
    cos / squeeze / log / gather steps stay in cache. Every step is
    elementwise, so the accepted draws and the next batch size do not depend
    on the slicing. The sign is -1, 0 or +1 from ``np.sign(u3 - 0.5)``; 0
    has probability 2^-53.
    """
    tau = 1.0 + math.sqrt(1.0 + 4.0 * kappa * kappa)
    rho = (tau - math.sqrt(2.0 * tau)) / (2.0 * kappa)
    r = (1.0 + rho * rho) / (2.0 * rho)

    cos = np.empty(n)
    sign = np.empty(n)
    filled = 0
    while filled < n:
        m = int((n - filled) * 1.6) + 8
        u1 = rng.random(m)
        u2 = rng.random(m)
        u3 = rng.random(m)
        for start in range(0, m, _SLICE):
            if filled == n:
                break
            part = slice(start, start + _SLICE)
            z, v = u1[part], u2[part]
            np.cos(np.multiply(math.pi, z, out=z), out=z)
            f = r * z
            f += 1.0
            f /= np.add(r, z, out=z)  # f = (1 + r z) / (r + z)
            c = np.subtract(r, f, out=z)
            c *= kappa
            # Squeeze first; the log test only runs where the squeeze rejects.
            # a - u2 > 0 and a > u2 agree for finite a (gradual underflow).
            accept = c * (2.0 - c) > v
            rest = np.flatnonzero(~accept)
            cr = c[rest]
            accept[rest] = np.log(cr / v[rest]) + 1.0 - cr >= 0.0
            keep = np.flatnonzero(accept)[: n - filled]
            take = len(keep)
            np.clip(f[keep], -1.0, 1.0, out=cos[filled : filled + take])
            np.sign(u3[part][keep] - 0.5, out=sign[filled : filled + take])
            filled += take
    return cos, sign
