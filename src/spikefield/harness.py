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
config alone. Seven experiments share three runners. The PLV
experiments' builds return their cases (``_PlvCase``: a label, a phase, a
rate model, and the law to judge them by), and one runner,
``_run_plv``, draws replicate block b for case b (replicate i from seed
index ``b * replicates + i``) and judges it against the case's law with
``_plv_case``, the one place a PLV verdict or statistic is made: the
univariate experiments are one unlabelled case against the von Mises
closed form, the sinusoid experiment a matched and a mismatched one
against the sinusoid closed form, and the bias curve one case per
sub-cycle window (``window_<T>``) against ``plv_law_numeric``. Each law
is called as ``law(phase, model)`` on the unit the case draws, over the
phase's window, so no parameter is restated for it. A build's
case labels are distinct, since they prefix every key and verdict name.
``_run_multivar`` runs both multivariate experiments and
``_run_moment_oracle`` the moment oracle. No build or runner branches on
the experiment's name: a runner judges exactly the verdicts the
experiment's tolerances name, and a null, which sets no kappa, builds
uncoupled units. Every build but the moment oracle's refuses a config
under which some unit of some replicate is likely to draw no spike
(``_check_spiking``): such a replicate has no PLV and no normalized
coupling column. A multivariate replicate draws its signals, then its
units, and its spectrum is that of ``whitened_coupling`` of the raw
signals, as in ``analyze``. The rule for a unit locked to a phase (von
Mises, or homogeneous when uncoupled) and the draw of many units from one
generator live in ``pointproc`` (``_locked_rate``, ``_simulate_units``),
where ``simulate`` takes them too, so ``simulate`` at a replicate's seed
writes that replicate's draws.
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
    IntensityModel,
    SinusoidRate,
    _check_trials,
    _gauss_legendre,
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
    plv_law_numeric,
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
    Replicate counts are scaled to desk runtime (2000 univariate, 4000 for
    the bias sweep and the sinusoid, 100 multivariate). The config holds no
    bound: the bounds live only in the experiment's ``EXPERIMENTS`` entry,
    and a report is written where ``ExperimentReport.write`` is told
    (``spikefield experiment --out``).

    A field the experiment does not read stays unset, and setting one is
    refused, as is every parameter out of its domain. The nulls read no
    ``kappa`` and no ``phase_offset``: their units are uncoupled. All of
    it is checked here, before any replicate runs, and the config is
    frozen, so it stays valid. The rules every experiment shares are
    written here (replicates, trials); then the experiment's build runs, the
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


@dataclass(frozen=True)
class _PlvCase:
    """One PLV case: the unit drawn, the phase its PLV reads, and the law it is judged against.

    The unit is drawn over the phase's window. ``law`` is one of the
    ``unicoupling`` laws, called as ``law(phase, model)`` only when the case
    is judged, so building a config loads no scipy. ``label`` prefixes every
    key and verdict name of the case; the single univariate case has none.
    """

    label: str
    phase: LinearPhase
    model: IntensityModel
    law: Callable


def _plv_cases(config, cases: list) -> list:
    """A PLV build's cases, checked: distinct labels, and units that can be drawn and spike."""
    windows = {}
    for case in cases:
        window = case.phase.window
        if case.label in windows:
            raise ConfigurationError(
                f"the cases at windows {windows[case.label]!r} and {window!r} share the label "
                f"{case.label!r}; each case needs a label of its own")
        windows[case.label] = window
        _thinning_bound(case.model, window)
    _check_spiking(config, config.replicates * len(cases), min(windows.values()))
    return cases


def _run_plv(config, cases: list) -> dict:
    """Draw replicate block b for case b and judge it with ``_plv_case``.

    Replicate i of block b draws from seed index ``b * replicates + i``, so
    the cases use disjoint streams.
    """
    parts = _parts()
    for block, case in enumerate(cases):
        plvs = np.empty(config.replicates, dtype=complex)
        totals = np.empty(config.replicates, dtype=int)
        for i in range(config.replicates):
            rng = np.random.default_rng(replicate_seed(config.master_seed, block * config.replicates + i))
            sd = simulate_poisson(case.model, case.phase.window, config.trials, rng)
            plvs[i] = estimate_plv(case.phase, sd)
            totals[i] = int(sd.counts().sum())
        _plv_case(config, parts, case, plvs, totals)
    return parts


def _plv_case(config, parts, case, plvs, totals):
    """Judge one case's replicate PLVs against its asymptotic law.

    The two variance verdicts and the Gaussianity verdict read the law's
    ``ratio_corrected_cov``, which accounts for the fluctuating spike count
    the PLV divides by; the mean check and the off-diagonal standard error
    read the paper-form ``cov``, and the off-diagonal target is the
    corrected covariance's [0, 1] entry (the two forms differ only on the
    diagonal). The Gaussianity and null false-positive verdicts are judged
    where the experiment's tolerances bound them. Adds the case's targets,
    verdicts, aggregates, replicate PLVs, spike totals and null p-values to
    ``parts``, every key prefixed by the case's label, with its residual
    histogram (beside the normal densities of the corrected law, the one
    judged) and its row of the limit-vs-mean plot.
    """
    tolerances = EXPERIMENTS[config.experiment].tolerances
    law = case.law(case.phase, case.model)
    n = len(plvs)
    z = law.rotated_residuals(plvs, config.trials)
    cov, corrected = law.cov, law.ratio_corrected_cov
    p_null = np.array([plv_null_test(plv, total) for plv, total in zip(plvs, totals)])

    se_mean = math.sqrt((cov[0, 0] + cov[1, 1]) / (config.trials * n))
    se_off = math.sqrt((cov[0, 0] * cov[1, 1] + cov[0, 1] ** 2) / n)
    aggregates = {
        "var_re": float(np.var(z.real, ddof=1)),
        "var_im": float(np.var(z.imag, ddof=1)),
        "cov_offdiag": float(np.mean(z.real * z.imag) - np.mean(z.real) * np.mean(z.imag)),
        "mean_re": float(np.mean(plvs.real)),
        "mean_im": float(np.mean(plvs.imag)),
    }
    verdicts = [
        _judge(config, "mean_limit", abs(np.mean(plvs) - law.limit), 0.0, se=se_mean),
        _judge(config, "var_re", aggregates["var_re"], corrected[0, 0], "variance"),
        _judge(config, "var_im", aggregates["var_im"], corrected[1, 1], "variance"),
        _judge(config, "cov_offdiag", aggregates["cov_offdiag"], corrected[0, 1], "offdiag",
               se=se_off),
    ]
    if "gaussian_ks" in tolerances:
        verdicts.append(_judge(config, "gaussian_ks",
                               _normal_ks(z.real, math.sqrt(corrected[0, 0])), 0.0))
    if "null_fp_rate" in tolerances:
        aggregates["null_fp_rate"] = float(np.mean(p_null < 0.05))
        verdicts.append(_judge(config, "null_fp_rate", aggregates["null_fp_rate"], 0.05))
    targets = {
        "limit_re": law.limit.real,
        "limit_im": law.limit.imag,
        "cov_re": cov[0, 0],
        "cov_im": cov[1, 1],
        "cov_re_ratio_corrected": corrected[0, 0],
        "expected_events_per_trial": law.expected_events,
    }
    replicates = {
        "plv_re": plvs.real.tolist(),
        "plv_im": plvs.imag.tolist(),
        "total_spikes": totals.tolist(),
        "p_null": p_null.tolist(),
    }

    prefix = f"{case.label}_" if case.label else ""
    for verdict in verdicts:
        verdict["name"] = prefix + verdict["name"]
    parts["verdicts"].extend(verdicts)
    for section, values in (("targets", targets), ("aggregates", aggregates),
                            ("replicates", replicates)):
        parts[section].update({prefix + key: value for key, value in values.items()})
    parts["plot_data"]["residual_hist" + (f"_{case.label}" if case.label else "")] = \
        _residual_histogram(z, corrected)
    mean = complex(aggregates["mean_re"], aggregates["mean_im"])
    parts["plot_data"].setdefault("limit_vs_mean", []).append({
        "case": case.label,
        "window": case.phase.window,
        "limit_re": law.limit.real,
        "limit_im": law.limit.imag,
        "limit_modulus": abs(law.limit),
        "mean_re": mean.real,
        "mean_im": mean.imag,
        "mean_modulus": abs(mean),
    })


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


def _residual_histogram(z, cov):
    """Histograms of the residuals' Re and Im parts beside the centred normals of ``cov``."""
    lo = float(min(z.real.min(), z.imag.min()))
    hi = float(max(z.real.max(), z.imag.max()))
    edges = np.linspace(lo, hi, 41)
    mids = 0.5 * (edges[1:] + edges[:-1])
    h_re, _ = np.histogram(z.real, bins=edges, density=True)
    h_im, _ = np.histogram(z.imag, bins=edges, density=True)
    sd_re = math.sqrt(cov[0, 0])
    sd_im = math.sqrt(cov[1, 1])
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
    refuses when ``draws`` (replicates x units, or replicates x cases) times
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


def _build_univar(config: ExperimentConfig) -> list:
    """One unlabelled case: the unit over whole cycles of its phase, as the law needs.

    A null sets neither kappa nor phase_offset: its unit is homogeneous,
    and its law is the von Mises law of a homogeneous rate.
    """
    phase = _whole_cycles(config.frequency, config.window)
    model = _locked_rate(config.rate0, config.kappa, config.phase_offset, phase)
    return _plv_cases(config, [_PlvCase("", phase, model, plv_asymptotics_vonmises)])


def _build_bias_curve(config: ExperimentConfig) -> list:
    """One case per sub-cycle window (``window_<T>``): a homogeneous unit, the numeric law."""
    if not config.windows:
        raise ConfigurationError("bias-curve needs windows, got none")
    model = HomogeneousRate(config.rate0)
    cases = []
    for window in config.windows:
        cases.append(_PlvCase(f"window_{window:g}", LinearPhase(config.frequency, window), model,
                              plv_law_numeric))
    return _plv_cases(config, cases)


def _build_sinusoid(config: ExperimentConfig) -> list:
    """The matched and the mismatched case against the sinusoid closed form.

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
    phase = LinearPhase(config.phase_harmonic / config.window, config.window)
    return _plv_cases(config, [_PlvCase(label, phase, model, plv_asymptotics_sinusoid)
                               for label, model in models.items()])


def _build_multivar(config: ExperimentConfig) -> list:
    """One rate model per component; unit j takes component j mod len(components)'s.

    The synthesis grid is checked, and every component holds whole cycles,
    as the MP test needs. Channel c carries component c mod
    len(components), and channels that share a carrier frequency must keep
    enough phase noise between them for their Gram to be inverted.
    """
    if config.units < 1:
        raise ConfigurationError(f"need at least one unit, got {config.units}")
    _check_grid(config.components, config.window, config.dt, config.noise_kappa, config.channels)
    _check_carrier_spread(config)
    phases = [_whole_cycles(f, config.window) for f in config.components]
    models = [_locked_rate(config.rate0, config.kappa, config.phase_offset, phase)
              for phase in phases]
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

    # Each verdict the experiment's tolerances name: the aggregate it judges, and its target.
    checks = {
        "mean_ks": ("mean_ks", 0.0),
        "pooled_ks": ("pooled_ks", 0.0),
        "top_eigenvalue": ("mean_top_eigenvalue", upper),
        "edge_fp_rate": ("edge_fp_rate", 0.0),
        "trace": ("mean_trace_over_p", 1.0),
        "detection_rate": ("detection_rate", 1.0),
    }
    verdicts = [_judge(config, name, aggregates[checks[name][0]], checks[name][1])
                for name in EXPERIMENTS[config.experiment].tolerances]

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
    grid, weights = _gauss_legendre(window)
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
            comp = float(np.dot(weights, fn(grid) * lam_grid))
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

_UNIVAR = dict(rate0=20.0, window=5.0, trials=5000, replicates=2000, frequency=1.0)
_MULTIVAR = dict(rate0=20.0, window=11.0, trials=10, replicates=100, units=90, channels=100,
                 components=(11.0, 12.0, 13.0, 14.0, 15.0), noise_kappa=10.0, dt=1.0 / 1024.0)

# Each experiment, declared once: its build and runner, its published
# parameters (exactly those the runner reads, besides the seed) and bounds.
EXPERIMENTS = {
    "univar-null": _Experiment(_build_univar, _run_plv, _UNIVAR, {
        "mean_limit": _SE3,
        "variance": Tolerance(0.05, "relative", "scaled-residual variance vs 1/(2 rate0 T)"),
        "offdiag": _SE3,
        "gaussian_ks": Tolerance(0.03, "absolute", "KS of Re residual vs predicted normal"),
        "null_fp_rate": Tolerance(0.01, "absolute", "false-positive rate at p<0.05, Monte Carlo calibration"),
    }),
    "univar-coupled": _Experiment(_build_univar, _run_plv, dict(_UNIVAR, kappa=0.5, phase_offset=0.0), {
        "mean_limit": _SE3,
        "variance": Tolerance(0.10, "relative", "rotated residual covariance vs Bessel closed form"),
        "offdiag": _SE3,
        "gaussian_ks": Tolerance(0.03, "absolute", "KS of Re residual vs ratio-corrected normal"),
    }),
    "bias-curve": _Experiment(
        _build_bias_curve, _run_plv,
        dict(rate0=30.0, trials=10, replicates=4000, frequency=1.0, windows=(0.5, 0.75, 1.0)), {
            "mean_limit": _SE3,
            "variance": Tolerance(0.10, "relative", "rotated residual covariance vs quadrature law"),
            "offdiag": _SE3,
        }),
    "sinusoid-uncoupled": _Experiment(
        _build_sinusoid, _run_plv,
        dict(rate0=20.0, window=1.0, trials=500, replicates=4000, depth=0.3,
             rate_harmonic=3, phase_harmonic=1, phase_offset=0.0), {
            "mean_limit": _SE3,
            "variance": Tolerance(0.10, "relative",
                                  "rotated residual covariance vs sinusoid closed form"),
            "offdiag": _SE3,
        }),
    "multivar-null": _Experiment(_build_multivar, _run_multivar, _MULTIVAR, {
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
