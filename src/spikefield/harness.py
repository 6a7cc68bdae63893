"""Seeded Monte Carlo experiments checking every closed-form law at desk scale.

Each experiment simulates ``replicates`` independent runs, derives each
run's seed from (master_seed, index) with a SplitMix64 hash, compares the
aggregate statistics against targets computed by library calls (never
hard-coded numbers), and emits named PASS/FAIL verdicts. Reports are
deterministic for a fixed configuration: rerunning reproduces the same
bytes apart from the runtime field.

All experiments share one skeleton. ``run_experiment`` validates the
config, calls the experiment's runner from ``EXPERIMENTS`` and builds the
one ``ExperimentReport`` (experiment, config, master seed, runtime); a
runner returns only its targets, aggregates, replicates, verdicts and plot
data. The PLV experiments draw their replicates from ``_plv_replicates``
(replicate i of block b uses seed index ``b * replicates + i``) and judge
each case against its asymptotic law with ``_plv_case``: the univariate
experiments are one unprefixed case, the sinusoid experiment a matched and
a mismatched one. Verdicts come from ``_check`` (within a named tolerance
of a target) and ``_below`` (strictly under a named absolute bound).
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DomainError
from .multicoupling import build_coupling_matrix, ks_statistic, normalize, spectrum
from .pointproc import (
    HomogeneousRate,
    SinusoidRate,
    SpikeData,
    VonMisesRate,
    fourth_moment_oracle,
    simulate_poisson,
)
from .signals import LinearPhase, SignalMatrix, _inverse_root, synthesize_oscillations
from .specfun import mp_density, mp_law
from .unicoupling import (
    estimate_plv,
    plv_asymptotics_sinusoid,
    plv_asymptotics_vonmises,
    plv_limit_numeric,
    plv_null_test,
)

__all__ = ["Tolerance", "ExperimentConfig", "ExperimentReport", "run_experiment", "replicate_seed", "EXPERIMENTS"]


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def replicate_seed(master_seed: int, index: int) -> int:
    """Per-replicate 64-bit seed: SplitMix64 output at step ``index`` from ``master_seed``."""
    z = (master_seed + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class Tolerance:
    """A named pass/fail bound with its provenance."""

    value: float
    kind: str
    provenance: str

    def __post_init__(self):
        kinds = ("se_multiple", "relative", "absolute", "min_rate")
        if self.kind not in kinds:
            raise ConfigurationError(f"kind must be one of {kinds}, got {self.kind!r}")


@dataclass
class ExperimentConfig:
    """Parameters, seed, and named tolerances for one experiment.

    Defaults mirror the published simulation tables: univariate runs use
    f = 1 Hz, T = 5 s, rate 20 Hz, K = 5000 trials; the bias sweep uses
    K = 10, rate 30 Hz over sub-cycle windows; multivariate runs use five
    oscillatory components at 11-15 Hz over 11 s, 100 channels, up to 90
    units, K = 10, phase-noise concentration 10. Replicate counts are
    scaled to desk runtime (2000 univariate, 100 multivariate).
    """

    experiment: str
    rate0: float = 20.0
    window: float = 5.0
    trials: int = 5000
    replicates: int = 2000
    master_seed: int = 20260810
    frequency: float = 1.0
    kappa: float = 0.0
    phase_offset: float = 0.0
    depth: float = 0.3
    rate_harmonic: int = 3
    phase_harmonic: int = 1
    components: tuple = (11.0, 12.0, 13.0, 14.0, 15.0)
    channels: int = 100
    units: int = 90
    noise_kappa: float = 10.0
    dt: float = 1.0 / 1024.0
    edge_margin: float = 0.05
    windows: tuple = (0.5, 0.75, 1.0)
    output_dir: str | None = None
    tolerances: dict = field(default_factory=dict)

    @classmethod
    def defaults(cls, experiment: str, **overrides) -> "ExperimentConfig":
        """Config for a named experiment with table defaults and tolerances."""
        _require_known(experiment)
        base = dict(_DEFAULTS[experiment])
        tolerances = dict(base.pop("tolerances"))
        tolerances.update(overrides.pop("tolerances", {}))
        base.update(overrides)
        return cls(experiment=experiment, tolerances=tolerances, **base)


_SE3 = Tolerance(3.0, "se_multiple", "three standard errors (CLT)")

_DEFAULTS = {
    "univar-null": dict(
        rate0=20.0, window=5.0, trials=5000, replicates=2000, frequency=1.0, kappa=0.0,
        tolerances={
            "mean_limit": _SE3,
            "variance": Tolerance(0.05, "relative", "scaled-residual variance vs 1/(2 rate0 T)"),
            "offdiag": _SE3,
            "gaussian_ks": Tolerance(0.03, "absolute", "KS of Re residual vs predicted normal"),
            "null_fp_rate": Tolerance(0.01, "absolute", "false-positive rate at p<0.05, Monte Carlo calibration"),
        },
    ),
    "univar-coupled": dict(
        rate0=20.0, window=5.0, trials=5000, replicates=2000, frequency=1.0, kappa=0.5,
        # No Gaussianity bound here: the closed form omits the
        # ratio-estimator term, so the predicted normal is off-scale along
        # the coupling direction (see the variance verdict).
        tolerances={
            "mean_limit": _SE3,
            "variance": Tolerance(0.10, "relative", "rotated residual covariance vs Bessel closed form"),
            "offdiag": _SE3,
        },
    ),
    "bias-curve": dict(
        rate0=30.0, window=1.0, trials=10, replicates=500, frequency=1.0, kappa=0.0,
        windows=(0.5, 0.75, 1.0),
        tolerances={"mean_limit": _SE3},
    ),
    "sinusoid-uncoupled": dict(
        rate0=20.0, window=1.0, trials=500, replicates=4000, depth=0.3,
        rate_harmonic=3, phase_harmonic=1,
        tolerances={
            "mean_limit": _SE3,
            "variance": Tolerance(0.10, "relative", "isotropic covariance 1/(2 rate0 T)"),
            "offdiag": _SE3,
        },
    ),
    "multivar-null": dict(
        rate0=20.0, window=11.0, trials=10, replicates=100, kappa=0.0,
        channels=100, units=90, noise_kappa=10.0, dt=1.0 / 1024.0, edge_margin=0.05,
        tolerances={
            "mean_ks": Tolerance(0.08, "absolute", "per-run KS to MP, Monte Carlo calibration"),
            "pooled_ks": Tolerance(0.05, "absolute", "pooled-ESD KS to MP, Monte Carlo calibration"),
            "top_eigenvalue": Tolerance(0.15, "relative", "mean top eigenvalue vs MP upper edge"),
            "edge_fp_rate": Tolerance(0.10, "absolute", "runs with top eigenvalue above 1.05x edge"),
            "trace": Tolerance(0.10, "relative", "trace normalization sanity"),
        },
    ),
    "multivar-coupled": dict(
        rate0=20.0, window=11.0, trials=10, replicates=100, kappa=0.15,
        channels=100, units=90, noise_kappa=10.0, dt=1.0 / 1024.0, edge_margin=0.0,
        tolerances={
            "detection_rate": Tolerance(0.95, "min_rate", "runs whose top eigenvalue exceeds the MP edge"),
        },
    ),
    "moment-oracle": dict(
        rate0=20.0, window=1.0, trials=100000, replicates=3,
        tolerances={"moment": _SE3},
    ),
}


@dataclass
class ExperimentReport:
    """Everything needed to reproduce and judge one experiment run."""

    experiment: str
    config: dict
    targets: dict
    aggregates: dict
    replicates: dict
    verdicts: list
    master_seed: int
    runtime_seconds: float
    plot_data: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(v["passed"] for v in self.verdicts)

    def body_dict(self) -> dict:
        """Deterministic report content (runtime excluded)."""
        return {
            "experiment": self.experiment,
            "config": self.config,
            "targets": self.targets,
            "aggregates": self.aggregates,
            "replicates": self.replicates,
            "verdicts": self.verdicts,
            "master_seed": self.master_seed,
        }

    def to_json(self) -> str:
        doc = self.body_dict()
        doc["runtime_seconds"] = self.runtime_seconds
        return json.dumps(doc, indent=2, sort_keys=True)

    def write(self, output_dir) -> None:
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(self.to_json())
        for name, rows in self.plot_data.items():
            if not rows:
                continue
            with open(out / f"{name}.csv", "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
                writer.writeheader()
                writer.writerows(rows)

    def summary_lines(self) -> list:
        lines = []
        for v in self.verdicts:
            status = "PASS" if v["passed"] else "FAIL"
            lines.append(
                f"[{status}] {self.experiment}/{v['name']}: observed={v['observed']:.6g} "
                f"target={v['target']:.6g} bound={v['bound']:.3g} (tolerance: {v['tolerance']})"
            )
        return lines


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run a named experiment and return (and optionally write) its report."""
    _require_known(config.experiment)
    _validate(config)
    started = time.perf_counter()
    parts = EXPERIMENTS[config.experiment](config)
    report = ExperimentReport(
        experiment=config.experiment,
        config=_config_dict(config),
        master_seed=config.master_seed,
        runtime_seconds=time.perf_counter() - started,
        **parts,
    )
    if config.output_dir is not None:
        report.write(config.output_dir)
    return report


def _require_known(experiment: str) -> None:
    if experiment not in EXPERIMENTS:
        raise DomainError(
            f"unknown experiment {experiment!r}; expected one of {sorted(EXPERIMENTS)}"
        )


def _validate(config: ExperimentConfig) -> None:
    # Surface parameter problems before any replicate runs.
    if config.replicates < 2:
        raise ConfigurationError("need at least two replicates")
    if config.trials < 1:
        raise ConfigurationError("need at least one trial per replicate")
    if not (config.rate0 > 0.0 and 0.0 < config.window < math.inf):
        raise ConfigurationError("rate0 and window must be positive, and window finite")
    if config.kappa < 0.0:
        raise ConfigurationError(f"coupling strength must be >= 0, got {config.kappa}")
    if not (0.0 <= config.depth <= 1.0):
        raise ConfigurationError(
            f"modulation depth must satisfy 0 <= depth <= 1, got {config.depth}"
        )
    if config.experiment in ("univar-null", "univar-coupled"):
        cycles = config.frequency * config.window
        if abs(cycles - round(cycles)) > 1e-9:
            raise ConfigurationError(
                f"window must hold an integer number of cycles, got f*T={cycles}"
            )
    if config.experiment.startswith("multivar"):
        for j, f in enumerate(config.components):
            cycles = f * config.window
            if abs(cycles - round(cycles)) > 1e-9:
                raise ConfigurationError(
                    f"component {j} ({f} Hz) is not an integer number of cycles over {config.window} s"
                )


def _config_dict(config: ExperimentConfig) -> dict:
    doc = asdict(config)
    doc["tolerances"] = {k: asdict(v) for k, v in config.tolerances.items()}
    doc["components"] = list(config.components)
    doc["windows"] = list(config.windows)
    return doc


def _parts() -> dict:
    """Empty runner output, filled in place by ``_plv_case``."""
    return {"targets": {}, "aggregates": {}, "replicates": {}, "verdicts": [], "plot_data": {}}


def _verdict(name, observed, target, bound, tolerance_name, passed, z=None):
    v = {
        "name": name,
        "observed": float(observed),
        "target": float(target),
        "bound": float(bound),
        "tolerance": tolerance_name,
        "passed": bool(passed),
    }
    if z is not None:
        v["z"] = float(z)
    return v


def _bound(tol, target, se):
    """Largest distance from ``target`` that tolerance ``tol`` accepts."""
    if tol.kind == "se_multiple":
        return tol.value * se
    if tol.kind == "relative":
        return tol.value * abs(target)
    if tol.kind == "absolute":
        return tol.value
    raise ConfigurationError(f"a {tol.kind!r} tolerance gives no distance bound")


def _check(config, name, observed, target, tolerance_name=None, se=None):
    """Verdict that ``observed`` lies within the named tolerance of ``target``."""
    tolerance_name = tolerance_name or name
    bound = _bound(config.tolerances[tolerance_name], target, se)
    err = abs(observed - target)
    z = err / se if se else None
    return _verdict(name, observed, target, bound, tolerance_name, err <= bound, z)


def _below(config, name, observed, tolerance_name=None):
    """Verdict that ``observed`` stays strictly under the named absolute bound."""
    tolerance_name = tolerance_name or name
    bound = config.tolerances[tolerance_name].value
    return _verdict(name, observed, 0.0, bound, tolerance_name, observed < bound)


def _plv_replicates(config, model, phase, window, block=0):
    """PLV and total spike count of each replicate of one block.

    Replicate i of block b draws from seed index ``b * replicates + i``, so
    blocks (windows, cases) use disjoint streams.
    """
    plvs = np.empty(config.replicates, dtype=complex)
    totals = np.empty(config.replicates, dtype=int)
    for i in range(config.replicates):
        rng = np.random.default_rng(replicate_seed(config.master_seed, block * config.replicates + i))
        sd = simulate_poisson(model, window, config.trials, rng)
        plvs[i] = estimate_plv(phase, sd)
        totals[i] = int(sd.counts().sum())
    return plvs, totals


def _plv_case(config, parts, laws, plvs, label=""):
    """Judge one case's replicate PLVs against its asymptotic law.

    ``laws(ratio_correction=...)`` builds the law. The two variance
    verdicts and their residuals come from the ratio-corrected law, which
    accounts for the fluctuating spike count the PLV divides by; the mean,
    off-diagonal and Gaussianity checks use the paper-form law. Adds the
    case's limit targets, verdicts, residual statistics, replicate PLVs and
    residual histogram to ``parts``, every key prefixed by ``label`` (the
    single univariate case has none). Returns the paper-form law.
    """
    prefix = f"{label}_" if label else ""
    law = laws()
    corrected = laws(ratio_correction=True)
    n = len(plvs)
    z = law.rotated_residuals(plvs, config.trials)
    z_corrected = corrected.rotated_residuals(plvs, config.trials)
    cov = law.cov

    se_mean = math.sqrt((cov[0, 0] + cov[1, 1]) / (config.trials * n))
    mean_err = abs(np.mean(plvs) - law.limit)
    var_re = float(np.var(z_corrected.real, ddof=1))
    var_im = float(np.var(z_corrected.imag, ddof=1))
    off = float(np.mean(z.real * z.imag) - np.mean(z.real) * np.mean(z.imag))
    se_off = math.sqrt(cov[0, 0] * cov[1, 1] / n)
    off_bound = _bound(config.tolerances["offdiag"], 0.0, se_off)
    verdicts = [
        _check(config, prefix + "mean_limit", mean_err, 0.0, "mean_limit", se=se_mean),
        _check(config, prefix + "var_re", var_re, corrected.cov[0, 0], "variance"),
        _check(config, prefix + "var_im", var_im, corrected.cov[1, 1], "variance"),
        _verdict(prefix + "cov_offdiag", off, 0.0, off_bound, "offdiag",
                 abs(off) <= off_bound, off / se_off),
    ]
    if "gaussian_ks" in config.tolerances:
        from scipy.stats import kstest  # scipy.stats dominates import time; load it on use

        ks = kstest(z.real, "norm", args=(0.0, math.sqrt(cov[0, 0]))).statistic
        verdicts.append(_below(config, prefix + "gaussian_ks", ks, "gaussian_ks"))

    parts["verdicts"].extend(verdicts)
    parts["targets"].update({
        prefix + "limit_re": law.limit.real,
        prefix + "limit_im": law.limit.imag,
        prefix + "cov_re_ratio_corrected": corrected.cov[0, 0],
    })
    parts["aggregates"].update({
        prefix + "var_re": var_re,
        prefix + "var_im": var_im,
        prefix + "cov_offdiag": off,
        prefix + "mean_re": float(np.mean(plvs.real)),
        prefix + "mean_im": float(np.mean(plvs.imag)),
    })
    parts["replicates"].update({
        prefix + "plv_re": plvs.real.tolist(),
        prefix + "plv_im": plvs.imag.tolist(),
    })
    parts["plot_data"]["residual_hist" + (f"_{label}" if label else "")] = _residual_histogram(z, law)
    return law


def _residual_histogram(z, law):
    lo = float(min(z.real.min(), z.imag.min()))
    hi = float(max(z.real.max(), z.imag.max()))
    edges = np.linspace(lo, hi, 41)
    mids = 0.5 * (edges[1:] + edges[:-1])
    h_re, _ = np.histogram(z.real, bins=edges, density=True)
    h_im, _ = np.histogram(z.imag, bins=edges, density=True)
    sd_re = math.sqrt(law.cov[0, 0])
    sd_im = math.sqrt(law.cov[1, 1])
    rows = []
    for m, a, b in zip(mids, h_re, h_im):
        rows.append({
            "residual": m,
            "density_re": a,
            "density_im": b,
            "normal_re": math.exp(-0.5 * (m / sd_re) ** 2) / (sd_re * math.sqrt(2 * math.pi)),
            "normal_im": math.exp(-0.5 * (m / sd_im) ** 2) / (sd_im * math.sqrt(2 * math.pi)),
        })
    return rows


def _run_univar(config: ExperimentConfig) -> dict:
    phase = LinearPhase(config.frequency, config.window)
    if config.kappa == 0.0:
        model = HomogeneousRate(config.rate0)
    else:
        model = VonMisesRate(config.rate0, config.kappa, config.phase_offset, phase)
    plvs, totals = _plv_replicates(config, model, phase, config.window)
    p_null = np.array([plv_null_test(plv, total) for plv, total in zip(plvs, totals)])

    parts = _parts()
    laws = partial(plv_asymptotics_vonmises, config.kappa, config.phase_offset,
                   config.rate0, config.window)
    law = _plv_case(config, parts, laws, plvs)
    parts["targets"].update({
        "cov_re": law.cov[0, 0],
        "cov_im": law.cov[1, 1],
        "expected_events_per_trial": law.expected_events,
    })
    parts["replicates"].update({"total_spikes": totals.tolist(), "p_null": p_null.tolist()})
    if "null_fp_rate" in config.tolerances:
        fp = float(np.mean(p_null < 0.05))
        parts["verdicts"].append(_check(config, "null_fp_rate", fp, 0.05))
        parts["aggregates"]["null_fp_rate"] = fp
    return parts


def _run_bias_curve(config: ExperimentConfig) -> dict:
    model = HomogeneousRate(config.rate0)
    rows = []
    replicates = {}
    verdicts = []
    targets = {}
    for w_idx, window in enumerate(config.windows):
        phase = LinearPhase(config.frequency, window)
        limit = plv_limit_numeric(phase, model, window)
        vals, _ = _plv_replicates(config, model, phase, window, block=w_idx)
        mean = vals.mean()
        se = math.sqrt((np.var(vals.real, ddof=1) + np.var(vals.imag, ddof=1)) / config.replicates)
        verdicts.append(
            _check(config, f"window_{window:g}_mean_limit", abs(mean - limit), 0.0, "mean_limit", se=se)
        )
        targets[f"limit_re_{window:g}"] = limit.real
        targets[f"limit_im_{window:g}"] = limit.imag
        replicates[f"plv_re_{window:g}"] = vals.real.tolist()
        replicates[f"plv_im_{window:g}"] = vals.imag.tolist()
        rows.append({
            "window": window,
            "limit_re": limit.real,
            "limit_im": limit.imag,
            "limit_modulus": abs(limit),
            "mean_re": mean.real,
            "mean_im": mean.imag,
            "mean_modulus": abs(mean),
            "se": se,
            "replicates": config.replicates,
        })

    return {
        "targets": targets,
        "aggregates": {f"mean_modulus_{r['window']:g}": r["mean_modulus"] for r in rows},
        "replicates": replicates,
        "verdicts": verdicts,
        "plot_data": {"bias_curve": rows},
    }


def _run_sinusoid(config: ExperimentConfig) -> dict:
    # Matched (rate harmonic == phase harmonic) and mismatched cases share a
    # report; the mismatched rate harmonic comes from the config.
    if config.rate_harmonic == config.phase_harmonic:
        raise ConfigurationError(
            "rate_harmonic must differ from phase_harmonic; the matched case is run alongside"
        )
    if config.rate_harmonic == 2 * config.phase_harmonic:
        raise ConfigurationError(
            "rate_harmonic = 2 * phase_harmonic adds a second-harmonic covariance term "
            "not covered by the closed form; pick another harmonic"
        )
    phase = LinearPhase(config.phase_harmonic / config.window, config.window)
    cases = {
        "matched": config.phase_harmonic,
        "mismatched": config.rate_harmonic,
    }
    parts = _parts()
    for c_idx, (label, harmonic) in enumerate(cases.items()):
        model = SinusoidRate(config.rate0, config.depth, harmonic, config.phase_offset, config.window)
        vals, _ = _plv_replicates(config, model, phase, config.window, block=c_idx)
        laws = partial(plv_asymptotics_sinusoid, config.depth, harmonic, config.phase_harmonic,
                       config.phase_offset, config.rate0, config.window)
        law = _plv_case(config, parts, laws, vals, label)
        parts["targets"][f"{label}_cov"] = law.cov[0, 0]
    return parts


def _multivar_unit_models(config: ExperimentConfig):
    comp = list(config.components)
    models = []
    for j in range(config.units):
        if config.kappa == 0.0:
            models.append(HomogeneousRate(config.rate0))
        else:
            f = comp[j % len(comp)]
            models.append(
                VonMisesRate(config.rate0, config.kappa, config.phase_offset,
                             LinearPhase(f, config.window))
            )
    return models


def _whiten_interpolant(signals):
    """Make the piecewise-linear interpolant of the raw channels orthonormal, in one step.

    The spectral limit theorem constrains the integrand the spike sums
    actually see, and interpolating i.i.d. phase noise loses a third of its
    power between samples, so whitening the sample Gram A0 alone falls
    short. The interpolant Gram over the periodic grid is
    G = (2/3) A0 + (1/6)(B + B^H) with B the lag-one cross-Gram; G^(-1/2) is
    applied to the raw samples. A0 keeps ``whiten``'s near-singular check.
    Returns the whitened signals and max|A0^(-1/2) G A0^(-1/2) - I|, how far
    sample-Gram whitening alone would leave the interpolant from orthonormal.
    """
    x = signals.samples
    a0 = signals.gram()
    a0_inv_root = _inverse_root(a0)
    shifted = np.roll(x, -1, axis=1)
    b = (x @ np.conjugate(shifted, out=shifted).T) / x.shape[1]
    del shifted
    gram = (2.0 / 3.0) * a0 + (b + b.conj().T) / 6.0
    deviation = float(np.max(np.abs(a0_inv_root @ gram @ a0_inv_root - np.eye(len(gram)))))
    white = SignalMatrix(_inverse_root(gram) @ x, dt=signals.dt, whitened=True)
    return white, deviation


def _run_multivar(config: ExperimentConfig) -> dict:
    models = _multivar_unit_models(config)
    law = mp_law(config.channels / config.units)
    upper = law.upper_edge

    ks_vals = np.empty(config.replicates)
    top_eigs = np.empty(config.replicates)
    n_sig = np.empty(config.replicates, dtype=int)
    traces = np.empty(config.replicates)
    integrand_dev = np.empty(config.replicates)
    pooled = []
    for i in range(config.replicates):
        rng = np.random.default_rng(replicate_seed(config.master_seed, i))
        raw_signals = synthesize_oscillations(
            config.components, config.window, config.dt,
            config.noise_kappa, config.channels, rng,
        )
        white, integrand_dev[i] = _whiten_interpolant(raw_signals)
        unit_trains = [
            simulate_poisson(m, config.window, config.trials, rng).trains[0] for m in models
        ]
        sd = SpikeData(window=config.window, trains=unit_trains)
        rep = spectrum(normalize(build_coupling_matrix(white, sd), sd), config.edge_margin)
        ks_vals[i] = rep.ks_distance
        top_eigs[i] = rep.eigenvalues[0]
        n_sig[i] = rep.n_significant
        traces[i] = rep.eigenvalues.sum() / len(rep.eigenvalues)
        pooled.append(rep.eigenvalues)

    pooled = np.concatenate(pooled)
    pooled_ks = ks_statistic(pooled, law)
    aggregates = {
        "mean_ks": float(ks_vals.mean()),
        "pooled_ks": float(pooled_ks),
        "mean_top_eigenvalue": float(top_eigs.mean()),
        "mean_trace_over_p": float(traces.mean()),
        "detection_rate": float(np.mean(top_eigs > upper)),
        "edge_fp_rate": float(np.mean(top_eigs > upper * 1.05)),
        "mean_n_significant": float(n_sig.mean()),
        # How far sample-Gram whitening alone would leave the interpolated
        # integrand from orthonormal; the harness whitens the interpolant.
        "mean_integrand_gram_deviation": float(integrand_dev.mean()),
    }

    if config.experiment == "multivar-null":
        verdicts = [
            _below(config, "mean_ks", aggregates["mean_ks"]),
            _below(config, "pooled_ks", aggregates["pooled_ks"]),
            _check(config, "top_eigenvalue", aggregates["mean_top_eigenvalue"], upper),
            _below(config, "edge_fp_rate", aggregates["edge_fp_rate"]),
            _check(config, "trace", aggregates["mean_trace_over_p"], 1.0),
        ]
    else:
        rate, bound = aggregates["detection_rate"], config.tolerances["detection_rate"].value
        verdicts = [_verdict("detection_rate", rate, 1.0, bound, "detection_rate", rate >= bound)]

    # Pooled ESD histogram against the MP density for plotting.
    positive = pooled[pooled > 1e-12]
    edges = np.linspace(0.0, max(law.upper_edge * 1.3, float(pooled.max()) + 0.1), 61)
    hist, _ = np.histogram(positive, bins=edges, density=True)
    hist *= len(positive) / len(pooled)  # account for the zero atom
    mids = 0.5 * (edges[1:] + edges[:-1])
    esd_rows = [
        {"eigenvalue": m, "esd_density": h, "mp_density": float(mp_density(law, m))}
        for m, h in zip(mids, hist)
    ]

    return {
        "targets": {
            "mp_lower_edge": law.lower_edge,
            "mp_upper_edge": law.upper_edge,
            "mp_zero_atom": law.zero_atom,
            "alpha": law.alpha,
        },
        "aggregates": aggregates,
        "replicates": {
            "ks": ks_vals.tolist(),
            "top_eigenvalue": top_eigs.tolist(),
            "n_significant": n_sig.tolist(),
            "trace_over_p": traces.tolist(),
        },
        "verdicts": verdicts,
        "plot_data": {"esd_vs_mp": esd_rows},
    }


_MOMENT_SETS = {
    "constant": lambda w: (lambda t: np.ones_like(t),) * 4,
    "trig_pairs": lambda w: (
        lambda t: np.cos(2 * math.pi * t / w),
        lambda t: np.cos(2 * math.pi * t / w),
        lambda t: np.sin(2 * math.pi * t / w),
        lambda t: np.sin(2 * math.pi * t / w),
    ),
    "mixed": lambda w: (
        lambda t: np.ones_like(t),
        lambda t: t / w,
        lambda t: np.cos(2 * math.pi * t / w),
        lambda t: np.sin(2 * math.pi * t / w),
    ),
}


def _run_moment_oracle(config: ExperimentConfig) -> dict:
    # "trials" is the Monte Carlo sample size per integrand set here.
    model = HomogeneousRate(config.rate0)
    window = config.window
    grid = np.linspace(0.0, window, 4097)
    verdicts = []
    aggregates = {}
    targets = {}
    rows = []
    for s_idx, (label, factory) in enumerate(_MOMENT_SETS.items()):
        fns = factory(window)
        predicted = fourth_moment_oracle(*fns, rate=config.rate0, horizon=window)
        rng = np.random.default_rng(replicate_seed(config.master_seed, s_idx))
        sd = simulate_poisson(model, window, config.trials, rng)
        counts = sd.counts()[0]
        times = sd.unit_times(0)
        trial_of = np.repeat(np.arange(config.trials), counts)
        lam_grid = model.rate(grid)
        prods = np.ones(config.trials)
        for fn in fns:
            comp = float(np.trapezoid(fn(grid) * lam_grid, grid))
            sums = np.bincount(trial_of, weights=fn(times), minlength=config.trials)
            prods *= sums - comp
        observed = float(prods.mean())
        se = float(prods.std(ddof=1) / math.sqrt(config.trials))
        verdicts.append(_check(config, f"{label}_moment", observed, predicted, "moment", se=se))
        aggregates[f"{label}_observed"] = observed
        aggregates[f"{label}_se"] = se
        targets[f"{label}_predicted"] = float(predicted)
        rows.append({"set": label, "observed": observed, "predicted": float(predicted), "se": se})

    return {
        "targets": targets,
        "aggregates": aggregates,
        "replicates": {},
        "verdicts": verdicts,
        "plot_data": {"moment_sets": rows},
    }


EXPERIMENTS = {
    "univar-null": _run_univar,
    "univar-coupled": _run_univar,
    "bias-curve": _run_bias_curve,
    "sinusoid-uncoupled": _run_sinusoid,
    "multivar-null": _run_multivar,
    "multivar-coupled": _run_multivar,
    "moment-oracle": _run_moment_oracle,
}
