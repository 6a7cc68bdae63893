"""Output checks made apart from the program.

Every reference here is computed from scipy, numpy or a property of the
method, never from spikefield's own helpers and never from a stored copy
of an earlier output. Each check raises ``CheckError`` with a message
naming what differed.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import integrate, special


class CheckError(Exception):
    pass


def _require(condition, message):
    if not condition:
        raise CheckError(message)


# -- univariate ---------------------------------------------------------------

def plv_law(kappa, rate0, window, trials):
    """Limit I1/I0 and the per-estimate (Re, Im) standard deviations.

    The variances are the constant-count closed form,
    (I0 +- I2) / (2 rate0 T I0^2 K); it overstates the real part's variance
    slightly (the ratio estimator's count term lowers it), so bounds built
    on it are conservative.
    """
    i0, i1, i2 = special.iv([0, 1, 2], kappa)
    scale = 2.0 * rate0 * window * i0 * i0 * trials
    return i1 / i0, math.sqrt((i0 + i2) / scale), math.sqrt((i0 - i2) / scale)


def plv_mean(plvs, kappa, rate0, window, trials, n_se=5.0):
    """The mean of one call's PLVs lies within ``n_se`` standard errors of I1/I0."""
    plvs = np.asarray(plvs, dtype=complex)
    limit, sd_re, sd_im = plv_law(kappa, rate0, window, trials)
    root = math.sqrt(len(plvs))
    mean = plvs.mean()
    _require(abs(mean.real - limit) <= n_se * sd_re / root,
             f"mean PLV real part {mean.real:.6g} is more than {n_se} SE from I1/I0 = {limit:.6g}")
    _require(abs(mean.imag) <= n_se * sd_im / root,
             f"mean PLV imaginary part {mean.imag:.6g} is more than {n_se} SE from 0")


def spike_totals(totals, kappa, rate0, window, trials, n_sd=6.0):
    """Each replicate's spike total lies within Poisson bounds of K rate0 T I0(kappa)."""
    mean = trials * rate0 * window * float(special.iv(0, kappa))
    for total in totals:
        _require(abs(total - mean) <= n_sd * math.sqrt(mean),
                 f"spike total {total} is outside {mean:.1f} +- {n_sd} sqrt(mean)")


def probability(value, what):
    _require(0.0 <= value <= 1.0, f"{what} = {value!r} is not a probability")


def same_body(first: dict, second: dict):
    """Two reports made from the same seed carry the same deterministic body."""
    _require(json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True),
             "the same seed gave two different report bodies")


def spike_trains(trains, window, units, trials):
    """``trains[unit][trial]``: the layout asked for, each trial strictly increasing in [0, T]."""
    _require(len(trains) == units, f"{len(trains)} units, expected {units}")
    for u, unit in enumerate(trains):
        _require(len(unit) == trials, f"unit {u} has {len(unit)} trials, expected {trials}")
        for k, times in enumerate(unit):
            times = np.asarray(times, dtype=float)
            if times.size == 0:
                continue
            _require(times[0] >= 0.0 and times[-1] <= window,
                     f"unit {u} trial {k}: a spike lies outside [0, {window}]")
            _require(bool(np.all(np.diff(times) > 0.0)),
                     f"unit {u} trial {k}: spike times do not increase strictly")


# -- Marchenko-Pastur ---------------------------------------------------------

def mp_edges(alpha):
    root = math.sqrt(alpha)
    return (1.0 - root) ** 2, (1.0 + root) ** 2


def mp_cdf(x, alpha):
    """MP CDF (unit variance, ratio alpha = p/n) by adaptive quadrature of the density."""
    lower, upper = mp_edges(alpha)
    atom = max(0.0, 1.0 - 1.0 / alpha)
    if x < 0.0:
        return 0.0
    if x >= upper:
        return 1.0
    if x <= lower:
        return atom

    def density(t):
        return math.sqrt(max(0.0, (upper - t) * (t - lower))) / (2.0 * math.pi * alpha * t)

    return atom + integrate.quad(density, lower, x, limit=200)[0]


def ks_to_mp(eigenvalues, alpha):
    """Kolmogorov-Smirnov distance between the eigenvalues' empirical CDF and the MP CDF."""
    values, counts = np.unique(np.asarray(eigenvalues, dtype=float), return_counts=True)
    total = counts.sum()
    atom = max(0.0, 1.0 - 1.0 / alpha)
    below = 0
    dist = 0.0
    for value, count in zip(values, counts):
        cdf = mp_cdf(value, alpha)
        cdf_left = cdf - (atom if value == 0.0 else 0.0)
        dist = max(dist, abs(below / total - cdf_left))
        below += count
        dist = max(dist, abs(below / total - cdf))
    return dist


def traces(values, tol=0.10):
    """Per-replicate trace/p of a null spectrum lies within ``tol`` of 1."""
    for i, value in enumerate(values):
        _require(abs(value - 1.0) <= tol, f"replicate {i}: trace/p = {value:.4f} is not within {tol} of 1")


def mp_spectra(spectra, alpha, ks_bound, trace_tol=0.10):
    """Null spectra: non-negative, trace/p near 1, pooled KS to MP under ``ks_bound``."""
    for i, eigs in enumerate(spectra):
        eigs = np.asarray(eigs, dtype=float)
        _require(bool(np.all(np.isfinite(eigs)) and np.all(eigs >= 0.0)),
                 f"replicate {i}: negative or non-finite eigenvalue")
    traces([float(np.mean(eigs)) for eigs in spectra], trace_tol)
    ks = ks_to_mp(np.concatenate(spectra), alpha)
    _require(ks < ks_bound, f"pooled KS distance to MP is {ks:.4f}, not under {ks_bound}")
    return ks


def detection(eigenvalues, alpha):
    """With coupling, the top eigenvalue exceeds the MP upper edge (1 + sqrt(p/n))^2."""
    top = float(np.max(eigenvalues))
    upper = mp_edges(alpha)[1]
    _require(top > upper, f"top eigenvalue {top:.4f} does not exceed the MP edge {upper:.4f}")


# -- coupling matrix and spectrum ---------------------------------------------

def coupling_reference(samples, dt, unit_times, trials):
    """(p, n) raw coupling matrix by ``np.interp`` on the periodically extended grid.

    ``unit_times[j]`` pools unit j's spikes over all trials.
    """
    samples = np.asarray(samples)
    p, q = samples.shape
    grid = np.arange(q + 1) * dt
    extended = np.concatenate([samples, samples[:, :1]], axis=1)
    ref = np.zeros((p, len(unit_times)), dtype=complex)
    for j, times in enumerate(unit_times):
        times = np.asarray(times, dtype=float)
        for i in range(p):
            re = np.interp(times, grid, extended[i].real).sum()
            im = np.interp(times, grid, extended[i].imag).sum()
            ref[i, j] = complex(re, im) / trials
    return ref


def coupling_matches(entries, reference, rel=1e-12):
    entries = np.asarray(entries, dtype=complex)
    _require(entries.shape == reference.shape,
             f"coupling matrix shape {entries.shape}, expected {reference.shape}")
    worst = float(np.max(np.abs(entries - reference)))
    scale = float(np.max(np.abs(reference)))
    _require(worst <= rel * scale,
             f"coupling entries differ from the np.interp reference by {worst:.3e} "
             f"(allowed {rel:g} x {scale:.3e})")


def spectrum_reference(entries, signal_integral, totals, trials, window):
    """Eigenvalues (nonincreasing) of (1/n) Y Y^H with Y the rate-compensated, scaled columns.

    Column j of Y is sqrt(K) (C_j - rate_j int x dt) / sqrt(rate_j T), with
    rate_j = total_j / (K T) the unit's pooled rate.
    """
    entries = np.asarray(entries, dtype=complex)
    rates = np.asarray(totals, dtype=float) / (trials * window)
    y = math.sqrt(trials) * (entries - np.outer(signal_integral, rates)) / np.sqrt(rates * window)
    n = entries.shape[1]
    return np.linalg.eigvalsh(y @ y.conj().T / n)[::-1]


def spectrum_matches(eigenvalues, reference, units, rel=1e-9):
    """The program's eigenvalues match the reference; p - n of them are exactly zero."""
    eigs = np.asarray(eigenvalues, dtype=float)
    _require(eigs.shape == reference.shape,
             f"{eigs.size} eigenvalues, expected {reference.size}")
    scale = float(np.max(np.abs(reference)))
    worst = float(np.max(np.abs(eigs - reference)))
    _require(worst <= rel * scale,
             f"eigenvalues differ from eigvalsh of the reference normalization by {worst:.3e}")
    zeros = int(np.sum(eigs == 0.0))
    expected = max(0, eigs.size - units)
    _require(zeros == expected, f"{zeros} eigenvalues are exactly zero, expected {expected} (p - n)")


# -- signal files -------------------------------------------------------------

def read_signals_csv(path, channels, n_samples):
    """Parse the signal CSV with nothing but str.split and float: (times, (p, q) samples)."""
    with open(path) as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        expected = ["time"] + [f"ch{k}_{part}" for k in range(channels) for part in ("re", "im")]
        _require(header == expected, f"{path}: unexpected header")
        rows = []
        for lineno, line in enumerate(fh, start=2):
            fields = line.rstrip("\r\n").split(",")
            _require(len(fields) == len(expected),
                     f"{path}:{lineno}: {len(fields)} fields, expected {len(expected)}")
            rows.append([float(v) for v in fields])
    _require(len(rows) == n_samples, f"{path}: {len(rows)} rows, expected {n_samples}")
    data = np.array(rows)
    return data[:, 0], (data[:, 1::2] + 1j * data[:, 2::2]).T


def signals_file(path, loaded, channels, n_samples, dt, gram_tol=1e-9):
    """An independent read equals ``loaded``; the time column is the grid; the Gram is I."""
    times, samples = read_signals_csv(path, channels, n_samples)
    _require(bool(np.allclose(times, np.arange(n_samples) * dt, rtol=0.0, atol=1e-12)),
             f"{path}: the time column is not the uniform grid")
    _require(np.array_equal(samples, loaded), f"{path}: load_signals differs from an independent read")
    gram = samples @ samples.conj().T / n_samples
    worst = float(np.max(np.abs(gram - np.eye(channels))))
    _require(worst <= gram_tol, f"{path}: whitened sample Gram is off the identity by {worst:.3e}")
    return samples
