"""Multivariate coupling: the p x n coupling matrix and its spectral test.

The raw matrix averages each channel over each unit's spike times. It is
computed as one product, samples @ W.T / K: row j of the real
(units x samples) matrix W holds unit j's linear-interpolation weights
summed onto the sample grid, so no per-spike channel vector is formed, and
the complex samples enter as their stacked real and imaginary parts, so the
product is one real GEMM. The sum is linear in the samples: a channel map M
applied to the samples gives M @ entries and M @ signal_integral, so
``whitened_coupling`` whitens the interpolant of raw signals in coupling
space. The normalized matrix compensates every column by its unit's
estimated rate and scales so that, absent coupling, entries have unit
variance. The eigenvalues of (1/n) Y Y^H are then compared against the
Marchenko-Pastur law, with significance declared above the upper support
edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, NumericalError
from .pointproc import SpikeData
from .signals import SignalMatrix, _interpolant_root
from .specfun import MpLaw, mp_cdf, mp_law

__all__ = [
    "CouplingMatrix",
    "SpectrumReport",
    "build_coupling_matrix",
    "whitened_coupling",
    "normalize",
    "spectrum",
    "ks_statistic",
]


@dataclass
class CouplingMatrix:
    """Complex (channels x units) coupling estimates plus build metadata.

    ``signal_integral`` keeps the per-channel time integral of the signals
    the matrix was built from, which ``normalize`` needs for the
    compensator term.
    """

    entries: np.ndarray
    trials: int
    window: float
    normalized: bool = False
    signal_integral: np.ndarray | None = None

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] < 1 or entries.shape[1] < 1:
            raise DomainError("entries must be a (channels, units) matrix")
        if not np.isfinite(entries).all():
            raise DomainError("coupling entries must be finite")
        self.entries = entries

    @property
    def n_channels(self) -> int:
        return self.entries.shape[0]

    @property
    def n_units(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues of (1/n) Y Y^H with their Marchenko-Pastur comparison.

    ``n_significant`` counts the eigenvalues above the MP upper edge, with
    no margin and no calibrated p-value.
    """

    eigenvalues: np.ndarray  # sorted nonincreasing, clamped at zero
    singular_values: np.ndarray  # sqrt(n * eigenvalue), same order
    mp: MpLaw  # its alpha is channels / units
    n_significant: int
    ks_distance: float


def build_coupling_matrix(signals: SignalMatrix, spikes: SpikeData) -> CouplingMatrix:
    """Raw coupling matrix: entry (i, j) = (1/K) sum over unit j's spikes of x_i(t).

    The single implementation of the coupling sum for sampled signals. Each
    spike adds its two interpolation weights to its unit's row of W at the
    stencil's sample indices, and the block is samples @ W.T / K. W is real,
    so that product is one real GEMM of the stacked real and imaginary parts,
    [Re X; Im X] @ W.T, recombined from its two halves. A silent unit gives
    a zero column. The two windows may differ by half a step; a spike past
    the samples' window (inside its own) reads the window end.
    """
    if abs(signals.window - spikes.window) > 0.5 * signals.dt:
        raise DomainError(
            f"signals cover {signals.window} s but spikes cover {spikes.window} s"
        )
    n, q = spikes.n_units, signals.n_samples
    row = np.repeat(np.arange(n) * q, spikes.counts().sum(axis=1))
    i0, i1, w = signals._stencil(np.minimum(spikes.times, signals.window))
    weights = np.bincount(row + i0, 1.0 - w, minlength=n * q)
    weights += np.bincount(row + i1, w, minlength=n * q)
    x, p = signals.samples, signals.n_channels
    halves = np.concatenate((x.real, x.imag)) @ weights.reshape(n, q).T  # (2p, n)
    return CouplingMatrix(
        entries=(halves[:p] + 1j * halves[p:]) / spikes.n_trials,
        trials=spikes.n_trials,
        window=spikes.window,
        normalized=False,
        signal_integral=signals.integral(),
    )


def whitened_coupling(signals: SignalMatrix, spikes: SpikeData) -> CouplingMatrix:
    """``build_coupling_matrix`` with the interpolant whitened, unless ``signals.whitened``.

    G^(-1/2) of the raw samples is applied to ``entries`` and ``signal_integral``.
    """
    if signals.whitened:
        return build_coupling_matrix(signals, spikes)
    root = _interpolant_root(signals)
    raw = build_coupling_matrix(signals, spikes)
    return replace(raw, entries=root @ raw.entries, signal_integral=root @ raw.signal_integral)


def normalize(raw: CouplingMatrix, spikes: SpikeData) -> CouplingMatrix:
    """Compensate and scale columns so null entries have unit variance.

    Column j becomes sqrt(K) (raw_j - rate_j * int x dt) / sqrt(rate_j * T)
    with rate_j the unit's pooled rate estimate; equivalently the stochastic
    integral of x against the pooled compensated process of rate K*rate_j,
    scaled by 1/sqrt(K rate_j T).
    """
    if raw.normalized:
        raise DomainError("coupling matrix is already normalized")
    if raw.signal_integral is None:
        raise DomainError("coupling matrix lacks builder metadata; use build_coupling_matrix")
    if spikes.n_units != raw.n_units or spikes.n_trials != raw.trials:
        raise DomainError("spike data does not match the coupling matrix dimensions")
    totals = spikes.counts().sum(axis=1)
    silent = np.flatnonzero(totals == 0)
    if silent.size:
        raise DomainError(
            f"cannot normalize: unit(s) {silent.tolist()} have zero spikes, "
            "so their rate estimate is zero"
        )
    rates = totals / (raw.trials * raw.window)
    scaled = (
        math.sqrt(raw.trials)
        * (raw.entries - np.outer(raw.signal_integral, rates))
        / np.sqrt(rates * raw.window)[None, :]
    )
    return CouplingMatrix(
        entries=scaled,
        trials=raw.trials,
        window=raw.window,
        normalized=True,
        signal_integral=raw.signal_integral,
    )


_RESIDUAL_TOL = 1e-8


def spectrum(normalized: CouplingMatrix) -> SpectrumReport:
    """Eigendecomposition of S = (1/n) Y Y^H with the MP-law comparison.

    Eigenpair residuals are verified against a 1e-8 relative tolerance;
    ``n_significant`` counts eigenvalues above the MP upper edge.
    """
    if not normalized.normalized:
        raise DomainError("spectrum requires a normalized coupling matrix")
    y = normalized.entries
    n = normalized.n_units
    s = (y @ y.conj().T) / n
    w, v = np.linalg.eigh(s)
    scale = max(abs(w[0]), abs(w[-1]), 1e-300)
    residual = np.linalg.norm(s @ v - v * w[None, :], axis=0)
    worst = float(residual.max() / scale)
    if worst > _RESIDUAL_TOL:
        raise NumericalError(
            f"eigendecomposition residual {worst:.3e} exceeds {_RESIDUAL_TOL:g} "
            f"(matrix scale {scale:.3e})"
        )
    if w[0] < -1e-10 * max(1.0, scale):
        raise NumericalError(f"eigenvalue {w[0]:.3e} is negative beyond tolerance")
    eigs = w[::-1].copy()
    # Rank-deficient eigenvalues surface as +/- eps-scale fuzz; snap them to
    # exact zero so the spectrum's zero atom is countable.
    eigs[eigs < scale * len(w) * np.finfo(float).eps] = 0.0
    law = mp_law(normalized.n_channels / n)
    return SpectrumReport(
        eigenvalues=eigs,
        singular_values=np.sqrt(n * eigs),
        mp=law,
        n_significant=int(np.sum(eigs > law.upper_edge)),
        ks_distance=ks_statistic(eigs, law),
    )


def ks_statistic(eigenvalues: np.ndarray, law: MpLaw) -> float:
    """KS distance of the eigenvalues' empirical CDF from the MP law, zero atom included."""
    return _ks_distance(eigenvalues, lambda v: mp_cdf(law, v), law.zero_atom)


def _ks_distance(sample, cdf, atom: float = 0.0) -> float:
    """KS distance of ``sample`` from the law with vectorized CDF ``cdf`` and a jump ``atom`` at 0.

    Both CDFs may jump at 0 (the MP zero atom, tied zero eigenvalues), so the
    one-sided limits are compared at every distinct value. For a continuous
    law this is ``scipy.stats.kstest``'s statistic, to the bit.
    """
    values, counts = np.unique(np.asarray(sample, dtype=float), return_counts=True)
    if values.size == 0:
        raise DomainError("KS distance of an empty sample")
    total, n = np.cumsum(counts), counts.sum()
    right = cdf(values)
    left = right - np.where(values == 0.0, atom, 0.0)
    return float(max(np.abs(total / n - right).max(), np.abs((total - counts) / n - left).max()))
