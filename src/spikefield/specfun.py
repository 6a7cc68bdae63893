"""Special functions: modified Bessel I_k, the Marchenko-Pastur law, von Mises sampling.

Self-contained numerics for the statistical machinery in the rest of the
package. ``bessel_i`` switches from the ascending power series to the
large-argument asymptotic expansion at x = 15; both branches are validated
against adaptive quadrature of the integral representation in the test
suite, which is kept independent of this module. The two von Mises
samplers share one Best-Fisher rejection core, which yields cos(theta) and
a sign per draw: ``von_mises_sample`` turns them into angles and
``von_mises_phasor`` into unit phasors exp(i theta), from the same stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "bessel_i", "MpLaw", "mp_law", "mp_density", "mp_cdf", "von_mises_sample", "von_mises_phasor",
]

# Above this the ascending series needs enough terms that the asymptotic
# expansion is both cheaper and at least as accurate (truncation error
# ~exp(-2x) at optimal order).
_SERIES_SWITCH = 15.0
# exp(x) overflows double just above 709; stay clear of it.
_MAX_ARGUMENT = 700.0


def bessel_i(order: int, x: float) -> float:
    """Modified Bessel function of the first kind, integer order.

    Parameters
    ----------
    order : int
        Nonnegative integer order.
    x : float
        Nonnegative argument, at most 700.

    Returns
    -------
    float
        I_order(x), relative error <= 1e-10 over the supported range.
    """
    if not isinstance(order, (int, np.integer)) or order < 0:
        raise DomainError(f"order must be a nonnegative integer, got {order!r}")
    x = float(x)
    if math.isnan(x) or x < 0.0:
        raise DomainError(f"argument must be nonnegative, got {x!r}")
    if x > _MAX_ARGUMENT:
        raise OverflowError(f"argument {x} exceeds {_MAX_ARGUMENT}; exp(x) would overflow")
    if x <= _SERIES_SWITCH:
        return _series(order, x)
    if order <= 1:
        return _asymptotic(order, x)
    return _miller(order, x)


def _series(order: int, x: float) -> float:
    # Ascending series: all terms positive, so no cancellation at any x.
    if x == 0.0:
        return 1.0 if order == 0 else 0.0
    # log(x) - log(2) rather than log(0.5*x): halving a subnormal x can
    # underflow to zero.
    half = 0.5 * x
    t = math.exp(order * (math.log(x) - math.log(2.0)) - math.lgamma(order + 1))
    total = t
    j = 0
    while t > total * 1e-18:
        j += 1
        t *= half * half / (j * (j + order))
        total += t
    return total


def _asymptotic(order: int, x: float) -> float:
    # I_k(x) ~ exp(x)/sqrt(2 pi x) * sum_m (-1)^m a_m(k) / x^m, truncated at
    # the smallest term. For x > 15 that truncation error is ~exp(-2x).
    mu = 4.0 * order * order
    term = 1.0
    total = 1.0
    m = 0
    while True:
        m += 1
        factor = -(mu - (2 * m - 1) ** 2) / (8.0 * m * x)
        nxt = term * factor
        if abs(nxt) >= abs(term):  # series started diverging
            break
        term = nxt
        total += term
        if abs(term) < 1e-17 * abs(total):
            break
    return math.exp(x) * total / math.sqrt(2.0 * math.pi * x)


def _miller(order: int, x: float) -> float:
    # Downward (Miller) recurrence normalized against the asymptotic I_0,
    # stable for every order. Start high enough that I_start/I_order is
    # negligible: I_m(x)/I_0(x) ~ exp(-m^2/(2x)) for m << x.
    start = order + int(math.sqrt(82.0 * x)) + 10
    above = 0.0
    here = 1e-30
    at_order = 0.0
    for j in range(start, 0, -1):
        below = above + (2.0 * j / x) * here
        above = here
        here = below
        if j - 1 == order:
            at_order = here
        if abs(here) > 1e250:
            scale = 1e-250
            here *= scale
            above *= scale
            at_order *= scale
    # at_order/here = I_order/I_0 is in [0, 1]; scale by I_0 last so the
    # intermediate never overflows even at x near 700.
    return (at_order / here) * _asymptotic(0, x)


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


# Fixed Gauss-Legendre rule; the CDF integrand below is smooth after the
# sin^2 substitution, so 128 nodes reach machine accuracy.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(128)


def mp_cdf(law: MpLaw, x: float) -> float:
    """CDF of the MP law at ``x``, including the zero atom when alpha > 1."""
    x = float(x)
    if math.isnan(x):
        raise DomainError("NaN in cdf argument")
    if x < 0.0:
        return 0.0
    if x >= law.upper_edge:
        return 1.0
    if x <= law.lower_edge:
        return law.zero_atom
    return law.zero_atom + _mp_cdf_continuous(law, x)


def _mp_cdf_continuous(law: MpLaw, x: float) -> float:
    # Substitute t = a + (b-a) sin^2(u); the sqrt edge factors become
    # sin(2u)/2 and the integrand is analytic in u.
    a, b = law.lower_edge, law.upper_edge
    width = b - a
    u_hi = math.asin(math.sqrt(min(1.0, (x - a) / width)))
    u = 0.5 * u_hi * (_GL_NODES + 1.0)
    w = 0.5 * u_hi * _GL_WEIGHTS
    t = a + width * np.sin(u) ** 2
    integrand = width**2 * np.sin(2.0 * u) ** 2 / (4.0 * math.pi * law.alpha * t)
    return float(np.dot(w, integrand))


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


def _check_concentration(kappa) -> float:
    kappa = float(kappa)
    if not (0.0 <= kappa <= _MAX_CONCENTRATION):  # NaN fails every comparison
        raise DomainError(
            f"concentration must be in [0, {_MAX_CONCENTRATION:g}], got {kappa!r}"
        )
    return kappa


def _draw_shape(size):
    shape = () if size is None else (size if isinstance(size, tuple) else (int(size),))
    return shape, int(np.prod(shape)) if shape else 1


def _best_fisher(kappa: float, rng: np.random.Generator, n: int):
    """n accepted Best-Fisher draws as (cos theta clipped to [-1, 1], sign of theta).

    The sign is -1, 0 or +1 from ``np.sign(u3 - 0.5)``; 0 has probability 2^-53.
    """
    tau = 1.0 + math.sqrt(1.0 + 4.0 * kappa * kappa)
    rho = (tau - math.sqrt(2.0 * tau)) / (2.0 * kappa)
    r = (1.0 + rho * rho) / (2.0 * rho)

    cos = np.empty(n)
    sign = np.empty(n)
    filled = 0
    while filled < n:
        m = int((n - filled) * 1.6) + 8
        u1 = rng.uniform(size=m)
        u2 = rng.uniform(size=m)
        u3 = rng.uniform(size=m)
        z = np.cos(np.multiply(math.pi, u1, out=u1), out=u1)
        f = r * z
        f += 1.0
        f /= np.add(r, z, out=z)  # f = (1 + r z) / (r + z)
        c = np.subtract(r, f, out=z)
        c *= kappa
        # Squeeze first; the log test only runs where the squeeze rejects.
        # a - u2 > 0 and a > u2 agree for finite a (gradual underflow).
        accept = c * (2.0 - c) > u2
        rest = np.flatnonzero(~accept)
        cr = c[rest]
        accept[rest] = np.log(cr / u2[rest]) + 1.0 - cr >= 0.0
        del c, z, u1, u2, cr, rest
        keep = np.flatnonzero(accept)[: n - filled]
        take = len(keep)
        np.clip(f[keep], -1.0, 1.0, out=cos[filled : filled + take])
        np.sign(u3[keep] - 0.5, out=sign[filled : filled + take])
        filled += take
    return cos, sign
