"""Seeded Monte Carlo experiments checking every closed-form law at desk scale.

Each experiment simulates ``replicates`` independent runs, derives each
run's seed from (master_seed, index) with a SplitMix64 hash, compares the
aggregate statistics against targets computed by library calls (never
hard-coded numbers), and emits named PASS/FAIL verdicts. Reports are
deterministic for a fixed configuration: rerunning reproduces the same
bytes apart from the runtime field.

Each experiment is declared once, as its entry in ``EXPERIMENTS``: its
published parameters and tolerances, its build and its runner. Those
tolerances are the only copy of its bounds: a config holds none, and every
verdict reads the entry. The build makes everything the runner simulates
(phases, rate models, the synthesis grid) and checks it,
``simulate_poisson``'s bounds included, so each parameter rule is the
check of the module that owns it; it also holds the experiment's own
rules. A config is valid from construction: the constructor checks the
rules every experiment shares and runs the build, before any replicate.
``run_experiment`` runs the same build and hands what it made to the
runner, then builds the one ``ExperimentReport`` (experiment, config,
master seed, runtime); a runner returns only its targets, aggregates,
replicates, verdicts and plot data. Nothing here writes to disk:
``ExperimentReport.write`` writes a report where it is told, as
``spikefield experiment --out`` does, so the report body depends on the
config alone. The PLV experiments draw their replicates from
``_plv_replicates`` (replicate i of block b uses seed index
``b * replicates + i``) and judge each case against its asymptotic law
with ``_plv_case``: the univariate experiments are one unprefixed case,
the sinusoid experiment a matched and a mismatched one. Every build but
the moment oracle's refuses a config under which some unit of some
replicate is likely to draw no spike (``_check_spiking``): such a
replicate has no PLV and no normalized coupling column. A multivariate
replicate draws its signals, then its units, and its spectrum is that of
``whitened_coupling`` of the raw signals, as in ``analyze``. The rule for
a unit locked to a phase (von Mises, or homogeneous at kappa = 0) and the
draw of many units from one generator live in ``pointproc``
(``_locked_rate``, ``_simulate_units``), where ``simulate`` takes them
too, so ``simulate`` at a replicate's seed writes that replicate's draws.
Every verdict comes from ``_judge``, where the named tolerance's kind
alone decides the rule: a ``min_rate`` floor on the observed value, or
else a bound on its distance from the target (a multiple of the standard
error, a fraction of the target, or an absolute value).
"""

from __future__ import annotations

import csv
import json
import math
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DomainError
from .multicoupling import ks_statistic, normalize, spectrum, whitened_coupling
from .pointproc import (
    HomogeneousRate,
    SinusoidRate,
    _check_phase_offset,
    _check_trials,
    _locked_rate,
    _simulate_units,
    _thinning_bound,
    fourth_moment_oracle,
    simulate_poisson,
)
from .signals import (LinearPhase, _GRAM_CONDITION_LIMIT, _MAX_BYTES, _check_grid,
                      _check_whole_cycles, synthesize_oscillations)
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


@dataclass(frozen=True)
class ExperimentConfig:
    """The experiment, its master seed and the parameters its runner reads.

    Build it with the experiment's name and the fields to change. Every
    parameter left unset (None) that the experiment reads is filled from
    its entry in ``EXPERIMENTS``, the one copy of the published simulation
    tables: univariate runs use f = 1 Hz, T = 5 s, rate 20 Hz, K = 5000
    trials; the bias sweep uses K = 10, rate 30 Hz over sub-cycle windows;
    multivariate runs use five oscillatory components at 11-15 Hz over
    11 s, 100 channels, 90 units, K = 10, phase-noise concentration 10.
    Replicate counts are scaled to desk runtime (2000 univariate, 100
    multivariate). The config holds no bound: the bounds live only in the
    experiment's ``EXPERIMENTS`` entry, and a report is written where
    ``ExperimentReport.write`` is told (``spikefield experiment --out``).

    A field the experiment does not read stays unset, and setting one is
    refused, as is every parameter out of its domain. All of it is checked
    here, before any replicate runs, and the config is frozen, so it stays
    valid. The rules every experiment shares are written here (replicates,
    trials, a finite phase offset); then the experiment's build runs, the
    one its runner simulates from, which holds the experiment's own rules
    and sends every other field through the check of the model, phase,
    synthesis grid or sampler it builds.
    """

    experiment: str
    rate0: float = None
    window: float = None
    trials: int = None
    replicates: int = None
    master_seed: int = 20260810
    frequency: float = None
    kappa: float = None
    phase_offset: float = None
    depth: float = None
    rate_harmonic: int = None
    phase_harmonic: int = None
    components: tuple = None
    channels: int = None
    units: int = None
    noise_kappa: float = None
    dt: float = None
    windows: tuple = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise DomainError(
                f"unknown experiment {self.experiment!r}; expected one of {sorted(EXPERIMENTS)}"
            )
        experiment = EXPERIMENTS[self.experiment]
        unread = {f.name for f in fields(self) if getattr(self, f.name) is not None}
        unread -= experiment.accepted
        if unread:
            raise ConfigurationError(f"{self.experiment} reads no field(s) {sorted(unread)}; "
                                     f"it reads {sorted(experiment.parameters)} and master_seed")
        for name, value in experiment.parameters.items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, value)
        _validate(self, experiment)

    @classmethod
    def defaults(cls, experiment: str, **overrides) -> "ExperimentConfig":
        """The config of a named experiment, with ``overrides`` set."""
        return cls(experiment=experiment, **overrides)


@dataclass(frozen=True)
class _Experiment:
    """One experiment, declared once: its build and runner, its published parameters and bounds.

    ``build(config)`` makes everything the runner simulates, checks it, and
    holds the experiment's own rules; it raises ``DomainError`` for a
    config out of its domain. ``run(config, built)`` simulates from what
    the build returned and returns the report's parts. ``parameters`` holds
    the published value of exactly the fields the runner reads besides the
    seed, and ``tolerances`` the published bound of every verdict it judges.
    """

    build: Callable
    run: Callable
    parameters: dict
    tolerances: dict

    @property
    def accepted(self) -> set:
        """Every field a config of this experiment may set, and its report's config holds."""
        return {"experiment", "master_seed", *self.parameters}


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
    """Run a named experiment and return its report."""
    started = time.perf_counter()
    experiment = EXPERIMENTS[config.experiment]
    parts = experiment.run(config, experiment.build(config))
    return ExperimentReport(
        experiment=config.experiment,
        config=_config_dict(config),
        master_seed=config.master_seed,
        runtime_seconds=time.perf_counter() - started,
        **parts,
    )


def _validate(config: ExperimentConfig, experiment: _Experiment) -> None:
    # The rules every experiment shares. The experiment's own rules, and the
    # check of every other field it reads, are its build: the one its runner
    # simulates from, run here before any replicate.
    if "replicates" in experiment.parameters:
        if config.replicates < 2:
            raise ConfigurationError("need at least two replicates")
        if not config.replicates * 16 <= _MAX_BYTES:  # the replicates' complex PLVs
            raise ConfigurationError(f"replicates must be at most {_MAX_BYTES // 16} for numpy to "
                                     f"build an array of one complex per replicate, got "
                                     f"{config.replicates!r}")
    try:
        _check_trials(config.trials)
        # At kappa = 0 no model reads the phase offset; the univariate law does.
        if "phase_offset" in experiment.parameters:
            _check_phase_offset(config.phase_offset)
        experiment.build(config)
    except DomainError as exc:
        raise ConfigurationError(str(exc)) from None


def _config_dict(config: ExperimentConfig) -> dict:
    """The fields the experiment reads, with its name, seed and published bounds."""
    experiment = EXPERIMENTS[config.experiment]
    body = {k: v for k, v in asdict(config).items() if k in experiment.accepted}
    body["tolerances"] = {name: asdict(tol) for name, tol in experiment.tolerances.items()}
    return body


def _parts() -> dict:
    """Empty runner output, filled in place by the runner and ``_plv_case``."""
    return {"targets": {}, "aggregates": {}, "replicates": {}, "verdicts": [], "plot_data": {}}


def _judge(config, name, observed, target, tolerance_name=None, se=None):
    """Verdict on ``observed`` under its experiment's named bound, whose kind alone sets the rule.

    ``min_rate`` passes when ``observed`` reaches the tolerance's value. Every
    other kind bounds |observed - target|: ``se_multiple`` by value * se,
    ``relative`` by value * |target|, ``absolute`` by value. Given a standard
    error, the verdict also carries the signed z = (observed - target) / se.
    """
    tolerance_name = tolerance_name or name
    tol = EXPERIMENTS[config.experiment].tolerances[tolerance_name]
    bound = tol.value * {"se_multiple": se, "relative": abs(target)}.get(tol.kind, 1.0)
    passed = observed >= bound if tol.kind == "min_rate" else abs(observed - target) <= bound
    v = {
        "name": name,
        "observed": float(observed),
        "target": float(target),
        "bound": float(bound),
        "tolerance": tolerance_name,
        "passed": bool(passed),
    }
    if se:
        v["z"] = float((observed - target) / se)
    return v


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


def _plv_case(config, parts, law, plvs, label=""):
    """Judge one case's replicate PLVs against its asymptotic law.

    The two variance verdicts and the Gaussianity verdict read the law's
    ``ratio_corrected_cov``, which accounts for the fluctuating spike count
    the PLV divides by; the mean check and the off-diagonal standard error
    read the paper-form ``cov``, and the off-diagonal target is the
    corrected covariance's [0, 1] entry (the two forms differ only on the
    diagonal). Adds the case's limit targets, verdicts, residual
    statistics, replicate PLVs and residual histogram to ``parts``, every
    key prefixed by ``label`` (the single univariate case has none).
    """
    prefix = f"{label}_" if label else ""
    n = len(plvs)
    z = law.rotated_residuals(plvs, config.trials)
    cov, corrected = law.cov, law.ratio_corrected_cov

    se_mean = math.sqrt((cov[0, 0] + cov[1, 1]) / (config.trials * n))
    mean_err = abs(np.mean(plvs) - law.limit)
    var_re = float(np.var(z.real, ddof=1))
    var_im = float(np.var(z.imag, ddof=1))
    off = float(np.mean(z.real * z.imag) - np.mean(z.real) * np.mean(z.imag))
    se_off = math.sqrt((cov[0, 0] * cov[1, 1] + cov[0, 1] ** 2) / n)
    verdicts = [
        _judge(config, prefix + "mean_limit", mean_err, 0.0, "mean_limit", se=se_mean),
        _judge(config, prefix + "var_re", var_re, corrected[0, 0], "variance"),
        _judge(config, prefix + "var_im", var_im, corrected[1, 1], "variance"),
        _judge(config, prefix + "cov_offdiag", off, corrected[0, 1], "offdiag", se=se_off),
    ]
    if "gaussian_ks" in EXPERIMENTS[config.experiment].tolerances:
        ks = _normal_ks(z.real, math.sqrt(corrected[0, 0]))
        verdicts.append(_judge(config, prefix + "gaussian_ks", ks, 0.0, "gaussian_ks"))

    parts["verdicts"].extend(verdicts)
    parts["targets"].update({
        prefix + "limit_re": law.limit.real,
        prefix + "limit_im": law.limit.imag,
        prefix + "cov_re_ratio_corrected": corrected[0, 0],
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


def _normal_ks(x, sd: float) -> float:
    """KS distance of a sample from the centred normal law of standard deviation ``sd``.

    The formula of ``scipy.stats.kstest`` and its bits, without loading
    ``scipy.stats``: with F the normal CDF at the sorted sample, the larger
    of max(i/n - F_i) and max(F_i - (i - 1)/n).
    """
    from scipy.special import ndtr  # loaded only by the experiments that judge Gaussianity

    cdf = ndtr(np.sort(x) / sd)
    n = cdf.size
    return float(max((np.arange(1.0, n + 1) / n - cdf).max(), (cdf - np.arange(0.0, n) / n).max()))


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


def _check_spiking(config, draws: int, window: float) -> None:
    """Refuse a config under which some of ``draws`` unit draws likely has no spike.

    A silent unit has no PLV and no normalized coupling column, so its
    replicate would fail. A unit's expected count per trial is at least
    rate0 * window: I0 >= 1 for a von Mises unit, and a sinusoid over whole
    cycles gives rate0 * window exactly. So each draw is silent over all
    trials with chance at most exp(-trials * rate0 * window), and the build
    refuses when ``draws`` (replicates x units x cases or windows) times
    that exceeds 1e-9.
    """
    spikes = config.trials * config.rate0 * window
    chance = draws * math.exp(-spikes)
    if chance > 1e-9:
        raise ConfigurationError(
            f"trials * rate0 * window = {spikes:.3g} expected spikes per unit leaves one of "
            f"{draws} unit draws silent with chance up to {min(chance, 1.0):.2g}, above 1e-9; "
            f"raise trials, rate0 or window")


def _whole_cycles(frequency, window) -> LinearPhase:
    """The phase at ``frequency`` over ``window``, which must hold whole cycles of it."""
    phase = LinearPhase(frequency, window)
    _check_whole_cycles(phase)
    return phase


def _build_univar(config: ExperimentConfig) -> tuple:
    """The unit's phase, over whole cycles as the law needs, and its rate model."""
    phase = _whole_cycles(config.frequency, config.window)
    model = _locked_rate(config.rate0, config.kappa, config.phase_offset, phase)
    _thinning_bound(model, config.window)
    _check_spiking(config, config.replicates, config.window)
    return phase, model


def _run_univar(config: ExperimentConfig, built: tuple) -> dict:
    phase, model = built
    plvs, totals = _plv_replicates(config, model, phase, config.window)
    p_null = np.array([plv_null_test(plv, total) for plv, total in zip(plvs, totals)])

    parts = _parts()
    law = plv_asymptotics_vonmises(config.kappa, config.phase_offset, config.rate0, config.window)
    _plv_case(config, parts, law, plvs)
    parts["targets"].update({
        "cov_re": law.cov[0, 0],
        "cov_im": law.cov[1, 1],
        "expected_events_per_trial": law.expected_events,
    })
    parts["replicates"].update({"total_spikes": totals.tolist(), "p_null": p_null.tolist()})
    if "null_fp_rate" in EXPERIMENTS[config.experiment].tolerances:
        fp = float(np.mean(p_null < 0.05))
        parts["verdicts"].append(_judge(config, "null_fp_rate", fp, 0.05))
        parts["aggregates"]["null_fp_rate"] = fp
    return parts


def _build_bias_curve(config: ExperimentConfig) -> tuple:
    """The homogeneous rate model and the phase over each window."""
    if not config.windows:
        raise ConfigurationError("bias-curve needs windows, got none")
    model = HomogeneousRate(config.rate0)
    for window in config.windows:
        _thinning_bound(model, window)
    _check_spiking(config, config.replicates * len(config.windows), min(config.windows))
    return model, [LinearPhase(config.frequency, window) for window in config.windows]


def _run_bias_curve(config: ExperimentConfig, built: tuple) -> dict:
    model, phases = built
    parts, rows = _parts(), []
    for w_idx, (window, phase) in enumerate(zip(config.windows, phases)):
        limit = plv_limit_numeric(phase, model, window)
        vals, _ = _plv_replicates(config, model, phase, window, block=w_idx)
        mean = vals.mean()
        se = math.sqrt((np.var(vals.real, ddof=1) + np.var(vals.imag, ddof=1)) / config.replicates)
        parts["verdicts"].append(
            _judge(config, f"window_{window:g}_mean_limit", abs(mean - limit), 0.0, "mean_limit", se=se)
        )
        parts["targets"].update({f"limit_re_{window:g}": limit.real, f"limit_im_{window:g}": limit.imag})
        parts["aggregates"][f"mean_modulus_{window:g}"] = abs(mean)
        parts["replicates"].update({f"plv_re_{window:g}": vals.real.tolist(),
                                    f"plv_im_{window:g}": vals.imag.tolist()})
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
    parts["plot_data"]["bias_curve"] = rows
    return parts


def _build_sinusoid(config: ExperimentConfig) -> tuple:
    """The phase, and the rate models of the matched and the mismatched case.

    The matched case (rate harmonic == phase harmonic) runs alongside the
    mismatched one, whose rate harmonic comes from the config.
    """
    if config.rate_harmonic == config.phase_harmonic:
        raise ConfigurationError(
            "rate_harmonic must differ from phase_harmonic; the matched case is run alongside"
        )
    models = {label: SinusoidRate(config.rate0, config.depth, harmonic, config.phase_offset,
                                  config.window)
              for label, harmonic in (("matched", config.phase_harmonic),
                                      ("mismatched", config.rate_harmonic))}
    for model in models.values():
        _thinning_bound(model, config.window)
    _check_spiking(config, config.replicates * len(models), config.window)
    return LinearPhase(config.phase_harmonic / config.window, config.window), models


def _run_sinusoid(config: ExperimentConfig, built: tuple) -> dict:
    phase, models = built
    parts = _parts()
    for c_idx, (label, model) in enumerate(models.items()):
        vals, _ = _plv_replicates(config, model, phase, config.window, block=c_idx)
        law = plv_asymptotics_sinusoid(config.depth, model.harmonic, config.phase_harmonic,
                                       config.phase_offset, config.rate0, config.window)
        _plv_case(config, parts, law, vals, label)
        parts["targets"][f"{label}_cov"] = law.cov[0, 0]
    return parts


def _build_multivar(config: ExperimentConfig) -> list:
    """One rate model per component; unit j takes component j mod len(components)'s.

    The synthesis grid is checked, and every component holds whole cycles,
    as the MP test needs. Channel c carries component c mod
    len(components), and channels that share a carrier frequency must keep
    enough phase noise between them for their Gram to be inverted.
    """
    if config.units < 1:
        raise ConfigurationError(f"need at least one unit, got {config.units}")
    if config.experiment == "multivar-null" and config.kappa != 0.0:
        raise ConfigurationError(f"multivar-null needs kappa = 0 (uncoupled units), got "
                                 f"{config.kappa!r}; coupled units are multivar-coupled")
    # multivar-null's uncoupled units read no offset, and it has none.
    offset = config.phase_offset if config.experiment == "multivar-coupled" else None
    _check_grid(config.components, config.window, config.dt, config.noise_kappa, config.channels)
    _check_carrier_spread(config)
    phases = [_whole_cycles(f, config.window) for f in config.components]
    models = [_locked_rate(config.rate0, config.kappa, offset, phase) for phase in phases]
    for model in models:
        _thinning_bound(model, config.window)
    _check_spiking(config, config.replicates * config.units, config.window)
    return models


def _check_carrier_spread(config) -> None:
    """Refuse channels that share a carrier and are too close for their Gram to be inverted.

    Channels of one carrier frequency differ only by their phase noise, of
    variance v = 1 - A^2 with A = I1/I0 at ``noise_kappa``; m of them give
    the interpolant Gram a condition number of about 3m / (2v). This reads
    v >= 1 / (1/2 + sqrt(1/4 + kappa^2)), which is Amos's bound
    A <= kappa / (1/2 + sqrt(1/4 + kappa^2)) (Math. Comp. 28:239, 1974),
    so the check is arithmetic and loads no scipy. It overstates the
    condition number by 5 % at kappa = 10 and less above, where v is about
    1/kappa.
    The build refuses a condition number above 1/100 of the limit
    ``_inverse_root`` enforces. ``noise_kappa = 0`` is noiseless, v = 0.
    """
    per_carrier = {}  # channel c carries component c mod len(components)
    for k, frequency in enumerate(config.components):
        channels = len(range(k, config.channels, len(config.components)))
        per_carrier[frequency] = per_carrier.get(frequency, 0) + channels
    m = max(per_carrier.values())
    if m < 2:
        return
    if config.noise_kappa == 0.0:
        raise ConfigurationError(
            f"noise_kappa = 0 leaves {config.channels} channels over components "
            f"{config.components!r} with a repeated carrier: a singular Gram matrix")
    condition = 1.5 * m * (0.5 + math.sqrt(0.25 + config.noise_kappa ** 2))
    if condition > _GRAM_CONDITION_LIMIT / 100:
        raise ConfigurationError(
            f"noise_kappa = {config.noise_kappa:g} leaves {m} channels of one carrier nearly "
            f"equal: a Gram condition number of about {condition:.2g}, above "
            f"{_GRAM_CONDITION_LIMIT / 100:g}")


def _run_multivar(config: ExperimentConfig, models: list) -> dict:
    law = mp_law(config.channels / config.units)
    upper = law.upper_edge

    ks_vals = np.empty(config.replicates)
    top_eigs = np.empty(config.replicates)
    n_sig = np.empty(config.replicates, dtype=int)
    traces = np.empty(config.replicates)
    pooled = []
    for i in range(config.replicates):
        rng = np.random.default_rng(replicate_seed(config.master_seed, i))
        raw_signals = synthesize_oscillations(
            config.components, config.window, config.dt,
            config.noise_kappa, config.channels, rng,
        )
        sd = _simulate_units(models, config.units, config.window, config.trials, rng)
        rep = spectrum(normalize(whitened_coupling(raw_signals, sd), sd))
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
    }

    if config.experiment == "multivar-null":
        verdicts = [
            _judge(config, "mean_ks", aggregates["mean_ks"], 0.0),
            _judge(config, "pooled_ks", aggregates["pooled_ks"], 0.0),
            _judge(config, "top_eigenvalue", aggregates["mean_top_eigenvalue"], upper),
            _judge(config, "edge_fp_rate", aggregates["edge_fp_rate"], 0.0),
            _judge(config, "trace", aggregates["mean_trace_over_p"], 1.0),
        ]
    else:
        verdicts = [_judge(config, "detection_rate", aggregates["detection_rate"], 1.0)]

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


def _build_moment_oracle(config: ExperimentConfig) -> HomogeneousRate:
    """The homogeneous rate model; "trials" is the sample size of each integrand set."""
    if config.trials < 2:
        raise ConfigurationError("moment-oracle needs at least two trials for a standard error")
    model = HomogeneousRate(config.rate0)
    _thinning_bound(model, config.window)
    return model


def _run_moment_oracle(config: ExperimentConfig, model: HomogeneousRate) -> dict:
    window = config.window
    grid = np.linspace(0.0, window, 4097)
    parts, rows = _parts(), []
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
        parts["verdicts"].append(_judge(config, f"{label}_moment", observed, predicted, "moment", se=se))
        parts["aggregates"].update({f"{label}_observed": observed, f"{label}_se": se})
        parts["targets"][f"{label}_predicted"] = float(predicted)
        rows.append({"set": label, "observed": observed, "predicted": float(predicted), "se": se})
    parts["plot_data"]["moment_sets"] = rows
    return parts


_SE3 = Tolerance(3.0, "se_multiple", "three standard errors (CLT)")

_UNIVAR = dict(rate0=20.0, window=5.0, trials=5000, replicates=2000, frequency=1.0,
               phase_offset=0.0)
_MULTIVAR = dict(rate0=20.0, window=11.0, trials=10, replicates=100, units=90, channels=100,
                 components=(11.0, 12.0, 13.0, 14.0, 15.0), noise_kappa=10.0, dt=1.0 / 1024.0)

# Each experiment, declared once: its build and runner, its published
# parameters (exactly those the runner reads, besides the seed) and bounds.
EXPERIMENTS = {
    "univar-null": _Experiment(_build_univar, _run_univar, dict(_UNIVAR, kappa=0.0), {
        "mean_limit": _SE3,
        "variance": Tolerance(0.05, "relative", "scaled-residual variance vs 1/(2 rate0 T)"),
        "offdiag": _SE3,
        "gaussian_ks": Tolerance(0.03, "absolute", "KS of Re residual vs predicted normal"),
        "null_fp_rate": Tolerance(0.01, "absolute", "false-positive rate at p<0.05, Monte Carlo calibration"),
    }),
    "univar-coupled": _Experiment(_build_univar, _run_univar, dict(_UNIVAR, kappa=0.5), {
        "mean_limit": _SE3,
        "variance": Tolerance(0.10, "relative", "rotated residual covariance vs Bessel closed form"),
        "offdiag": _SE3,
        "gaussian_ks": Tolerance(0.03, "absolute", "KS of Re residual vs ratio-corrected normal"),
    }),
    "bias-curve": _Experiment(
        _build_bias_curve, _run_bias_curve,
        dict(rate0=30.0, trials=10, replicates=500, frequency=1.0, windows=(0.5, 0.75, 1.0)),
        {"mean_limit": _SE3}),
    "sinusoid-uncoupled": _Experiment(
        _build_sinusoid, _run_sinusoid,
        dict(rate0=20.0, window=1.0, trials=500, replicates=4000, depth=0.3,
             rate_harmonic=3, phase_harmonic=1, phase_offset=0.0), {
            "mean_limit": _SE3,
            "variance": Tolerance(0.10, "relative", "isotropic covariance 1/(2 rate0 T)"),
            "offdiag": _SE3,
        }),
    "multivar-null": _Experiment(_build_multivar, _run_multivar, dict(_MULTIVAR, kappa=0.0), {
        "mean_ks": Tolerance(0.08, "absolute", "per-run KS to MP, Monte Carlo calibration"),
        "pooled_ks": Tolerance(0.05, "absolute", "pooled-ESD KS to MP, Monte Carlo calibration"),
        "top_eigenvalue": Tolerance(0.15, "relative", "mean top eigenvalue vs MP upper edge"),
        "edge_fp_rate": Tolerance(0.10, "absolute", "runs with top eigenvalue above 1.05x edge"),
        "trace": Tolerance(0.10, "relative", "trace normalization sanity"),
    }),
    "multivar-coupled": _Experiment(
        _build_multivar, _run_multivar, dict(_MULTIVAR, kappa=0.15, phase_offset=0.0), {
            "detection_rate": Tolerance(0.95, "min_rate", "runs whose top eigenvalue exceeds the MP edge"),
        }),
    "moment-oracle": _Experiment(
        _build_moment_oracle, _run_moment_oracle, dict(rate0=20.0, window=1.0, trials=100000),
        {"moment": _SE3}),
}
