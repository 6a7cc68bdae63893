"""Tests for the Monte Carlo experiment harness (small-scale configurations)."""

import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import FrozenInstanceError, asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

import spikefield
from spikefield import harness
from spikefield.errors import (ConfigurationError, DomainError, SingularGramError,
                               UndefinedEstimateError)
from spikefield.harness import (
    EXPERIMENTS,
    ExperimentConfig,
    Tolerance,
    replicate_seed,
    run_experiment,
)
from spikefield.multicoupling import build_coupling_matrix, normalize, spectrum, whitened_coupling
from spikefield.pointproc import (HomogeneousRate, SinusoidRate, SpikeData, VonMisesRate,
                                  simulate_poisson)
from spikefield.signals import (LinearPhase, SignalMatrix, _interpolant_root,
                               synthesize_oscillations, whiten)
from spikefield.unicoupling import (plv_asymptotics_sinusoid, plv_asymptotics_vonmises,
                                    plv_law_numeric)

from oracles import interpolant_gram, two_step_whitening


class TestReplicateSeed:
    def test_deterministic(self):
        assert replicate_seed(42, 0) == replicate_seed(42, 0)

    def test_spreads(self):
        seeds = {replicate_seed(42, i) for i in range(1000)}
        assert len(seeds) == 1000
        assert all(0 <= s < 2**64 for s in seeds)

    def test_master_seed_matters(self):
        assert replicate_seed(1, 0) != replicate_seed(2, 0)


class TestConfig:
    def test_unknown_experiment(self):
        with pytest.raises(DomainError, match="unknown experiment"):
            ExperimentConfig.defaults("no-such-thing")
        with pytest.raises(DomainError):
            run_experiment(ExperimentConfig(experiment="nope"))

    def test_defaults_mirror_tables(self):
        cfg = ExperimentConfig.defaults("univar-null")
        assert (cfg.frequency, cfg.window, cfg.rate0, cfg.trials) == (1.0, 5.0, 20.0, 5000)
        multi = ExperimentConfig.defaults("multivar-null")
        assert (multi.channels, multi.units, multi.trials, multi.window) == (100, 90, 10, 11.0)
        assert multi.noise_kappa == 10.0
        bias = ExperimentConfig.defaults("bias-curve")
        assert bias.trials == 10 and bias.rate0 == 30.0
        assert tuple(bias.windows) == (0.5, 0.75, 1.0)

    def test_overrides(self):
        cfg = ExperimentConfig.defaults("univar-null", replicates=10, master_seed=7)
        assert cfg.replicates == 10 and cfg.master_seed == 7

    def test_precondition_surfaced_before_running(self):
        # Refused where the config is built, so no replicate can run.
        with pytest.raises(ConfigurationError, match="integer number of cycles"):
            ExperimentConfig(experiment="univar-null", window=5.3)  # non-integer cycles
        with pytest.raises(ConfigurationError, match="depth"):
            ExperimentConfig(experiment="sinusoid-uncoupled", depth=1.5)
        for name in ("univar-null", "multivar-null"):  # inf made the cycle check overflow
            with pytest.raises(ConfigurationError, match="window must be positive and finite, got inf"):
                ExperimentConfig(experiment=name, window=math.inf)

    @pytest.mark.parametrize("name", ["univar-null", "multivar-null"])
    @pytest.mark.parametrize("kappa", [0.5, math.nan, 0.0])
    def test_nulls_refuse_coupled_units(self, name, kappa):
        # A null's units are uncoupled, so it reads no kappa. univar-null used
        # to run a coupled unit and fail its own null verdicts; multivar-null
        # refused one with a message of its own.
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"{name} reads no field(s) ['kappa']")):
            ExperimentConfig(experiment=name, kappa=kappa)

    @pytest.mark.parametrize("windows", [(0.5, 0.5), (0.5, 0.5000001)], ids=["equal", "same-label"])
    def test_case_labels_are_distinct(self, windows):
        # Both windows were run as the case window_0.5, and the second's
        # replicates overwrote the first's in the report body.
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"the cases at windows {windows[0]!r} and "
                                           f"{windows[1]!r} share the label 'window_0.5'")):
            ExperimentConfig(experiment="bias-curve", windows=windows)

    @pytest.mark.parametrize("name, change, message", [
        ("multivar-null", {"units": 0}, "at least one unit"),
        ("multivar-coupled", {"channels": 0}, "one channel"),
        ("multivar-null", {"dt": 0.0}, "dt must be positive and finite"),
        ("multivar-null", {"dt": math.nan}, "dt must be positive and finite"),
        ("multivar-coupled", {"components": ()},
         r"components must be a nonempty list of positive finite frequencies, got \(\)"),
        ("multivar-null", {"components": (11.0, math.nan)},
         r"components must be a nonempty list of positive finite frequencies, got \(11.0, nan\)"),
        ("univar-null", {"frequency": math.nan}, "frequency must be positive and finite"),
        ("bias-curve", {"frequency": math.inf}, "frequency must be positive and finite"),
        ("univar-coupled", {"frequency": 0.0}, "frequency must be positive and finite"),
        ("moment-oracle", {"trials": 1}, "two trials for a standard error"),
        ("univar-coupled", {"kappa": math.nan}, "modulation strength must be >= 0, got nan"),
        ("univar-coupled", {"kappa": math.inf}, "modulation strength must be >= 0, got inf"),
        ("univar-coupled", {"kappa": 710.0}, "modulation strength must be at most 700.0, got 710.0"),
        ("univar-null", {"frequency": 1e308}, r"the phase 2\*pi\*f\*T overflows at frequency 1e\+308"),
        ("univar-null", {"frequency": 1e307}, r"the phase 2\*pi\*f\*T overflows at frequency 1e\+307"),
        ("multivar-null", {"components": (1e308,)}, r"dt=0.0009765625 undersamples the 1e\+308 Hz"),
        ("univar-coupled", {"phase_offset": math.inf}, "phase offset must be finite, got inf"),
        ("sinusoid-uncoupled", {"rate_harmonic": 0}, "harmonic must be a positive integer, got 0"),
        ("sinusoid-uncoupled", {"phase_harmonic": 0}, "harmonic must be a positive integer, got 0"),
        ("multivar-null", {"noise_kappa": math.nan},
         r"phase_noise_kappa must be in \[0, 1e\+12\], got nan"),
        ("multivar-coupled", {"noise_kappa": 1e13},
         r"phase_noise_kappa must be in \[0, 1e\+12\], got 10000000000000.0"),
        ("multivar-null", {"dt": 0.05}, "dt=0.05 undersamples the 15.0 Hz component"),
        # Without phase noise, channel c is carrier c mod len(components).
        ("multivar-null", {"noise_kappa": 0.0, "channels": 20, "components": (3.0, 4.0)},
         r"noise_kappa = 0 leaves 20 channels over components \(3.0, 4.0\) with a repeated"),
        ("multivar-coupled", {"noise_kappa": 0.0, "channels": 2, "components": (3.0, 3.0, 4.0)},
         r"noise_kappa = 0 leaves 2 channels over components \(3.0, 3.0, 4.0\) with a repeated"),
        ("multivar-null", {"window": 1e300},
         r"window 1e\+300 at dt=0.0009765625 is 1.02e\+303 samples"),
        ("univar-null", {"rate0": math.inf}, "baseline rate must be positive and finite, got inf"),
        ("moment-oracle", {"rate0": math.inf}, "baseline rate must be positive and finite, got inf"),
        # Past numpy's Poisson limit, max_rate * window, for the runner's own model.
        ("univar-null", {"window": 1e300}, r"expected candidate count per trial 2e\+301"),
        ("univar-coupled", {"window": 1e300}, r"expected candidate count per trial 3\.297\d*e\+301"),
        ("sinusoid-uncoupled", {"window": 1e300},
         r"expected candidate count per trial 2\.6\d*e\+301"),
        ("moment-oracle", {"window": 1e300}, r"expected candidate count per trial 2e\+301"),
        ("bias-curve", {"windows": (1e300,)}, r"expected candidate count per trial 3e\+301"),
    ], ids=["no-units", "no-channels", "zero-dt", "nan-dt", "no-components", "nan-component",
            "nan-frequency", "inf-frequency", "zero-frequency", "one-moment-trial", "nan-kappa",
            "inf-kappa", "huge-kappa", "overflowing-cycles", "overflowing-phase",
            "overflowing-component-cycles", "inf-phase-offset", "zero-rate-harmonic",
            "zero-phase-harmonic",
            "nan-noise-kappa", "huge-noise-kappa", "undersampled", "noiseless-channels-repeat",
            "noiseless-components-repeat",
            "huge-window", "inf-rate0", "inf-rate0-moments", "poisson-limit-univar-null",
            "poisson-limit-univar-coupled", "poisson-limit-sinusoid", "poisson-limit-moments",
            "poisson-limit-bias-curve"])
    def test_edge_inputs_refused_at_construction(self, name, change, message):
        # Each used to escape from inside the runner as ZeroDivisionError,
        # ValueError or OverflowError, or (one moment trial) to write a NaN
        # standard error into the report. The rate-model fields go through
        # the rate models' own checks.
        with pytest.raises(ConfigurationError, match=message):
            ExperimentConfig(experiment=name, **change)

    @pytest.mark.parametrize("windows", [(), (0.5, 0.0), (0.5, -1.0), (math.nan,), (math.inf,)],
                             ids=["empty", "zero", "negative", "nan", "inf"])
    def test_bias_curve_windows_checked_before_running(self, monkeypatch, windows):
        def no_replicates(*args):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(harness, "simulate_poisson", no_replicates)
        with pytest.raises(ConfigurationError, match="window"):
            run_experiment(ExperimentConfig.defaults("bias-curve", windows=windows))

    def test_unread_fields_not_judged(self):
        # moment-oracle reads neither replicates nor kappa: setting them is
        # refused as unread, not judged as out of range.
        with pytest.raises(ConfigurationError,
                           match=r"moment-oracle reads no field\(s\) \['kappa', 'replicates'\]"):
            ExperimentConfig(experiment="moment-oracle", replicates=1, kappa=-1.0, trials=2000)
        cfg = ExperimentConfig(experiment="moment-oracle", trials=2000)
        assert (cfg.replicates, cfg.kappa) == (None, None)
        with pytest.raises(ConfigurationError, match="need at least two replicates"):
            ExperimentConfig(experiment="univar-null", replicates=1)

    def test_frozen_and_rebuilt_by_replace(self):
        cfg = ExperimentConfig(experiment="multivar-null", trials=5)
        with pytest.raises(FrozenInstanceError):
            cfg.master_seed = 1
        again = replace(cfg, master_seed=1)  # runs the same checks on a filled config
        assert replace(again, master_seed=cfg.master_seed) == cfg
        with pytest.raises(ConfigurationError, match="at least one unit"):
            replace(cfg, units=0)
        with pytest.raises(ConfigurationError, match="reads no field"):
            replace(cfg, depth=0.5)

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_constructor_and_defaults_agree(self, name):
        # Every (experiment, field) pair, probed with a real value: both ways of
        # building a config accept the same pairs, with the same result.
        accepted = set()
        for key, value in _probes(name).items():
            try:
                built = ExperimentConfig(experiment=name, **{key: value})
            except ConfigurationError as exc:
                with pytest.raises(ConfigurationError, match=re.escape(str(exc))):
                    ExperimentConfig.defaults(name, **{key: value})
                continue
            accepted.add(key)
            via_defaults = ExperimentConfig.defaults(name, **{key: value})
            assert built == via_defaults
            assert harness._config_dict(built) == harness._config_dict(via_defaults)
        assert accepted == set(EXPERIMENTS[name].parameters) | {"master_seed"}

    def test_published_values_live_only_in_the_defaults_table(self):
        # The dataclass leaves every experiment parameter unset.
        parameters = set().union(*(e.parameters for e in EXPERIMENTS.values()))
        for f in fields(ExperimentConfig):
            if f.name in parameters:
                assert f.default is None, f.name

    def test_report_config_is_the_constructed_one(self):
        # The report carries the fields the experiment reads, filled, and its published bounds.
        cfg = ExperimentConfig(experiment="moment-oracle", trials=2000, master_seed=5)
        body = run_experiment(cfg).body_dict()["config"]
        assert body == harness._config_dict(ExperimentConfig.defaults(
            "moment-oracle", trials=2000, master_seed=5))
        assert set(body) == {"experiment", "master_seed", "tolerances",
                             *EXPERIMENTS["moment-oracle"].parameters}
        assert body["tolerances"] == {k: asdict(t)
                                      for k, t in EXPERIMENTS["moment-oracle"].tolerances.items()}

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_check_runs_the_runners_build(self, monkeypatch, name):
        # The constructor's check is the build the runner simulates from: what
        # that build refuses, the constructor refuses with the same message,
        # and nothing is drawn.
        message = f"{name}'s build refuses this config"

        def refuse(config):
            raise DomainError(message)

        def no_replicates(*args):
            raise AssertionError("a replicate ran")

        monkeypatch.setitem(harness.EXPERIMENTS, name, replace(EXPERIMENTS[name], build=refuse))
        monkeypatch.setattr(harness, "simulate_poisson", no_replicates)
        with pytest.raises(ConfigurationError) as refused:
            ExperimentConfig(experiment=name)
        assert str(refused.value) == message

    _MULTIVAR_GRID = dict(channels=20, window=2.0, components=(11.0, 12.0), dt=1 / 256)

    @pytest.mark.parametrize("name, change, message, check, failure, failure_message", [
        ("univar-null", dict(rate0=0.2, trials=1, window=1.0, replicates=20),
         r"trials \* rate0 \* window = 0.2 expected spikes per unit leaves one of 20 unit draws "
         r"silent with chance up to 1, above 1e-9; raise trials, rate0 or window",
         "_check_spiking", UndefinedEstimateError, "zero spikes across 1 trials"),
        ("multivar-null", dict(_MULTIVAR_GRID, rate0=0.05, units=18),
         r"trials \* rate0 \* window = 1 expected spikes per unit leaves one of 1800 unit draws",
         "_check_spiking", DomainError, r"unit\(s\) \[1, 4, 7, 11\] have zero spikes"),
        # Phase noise this concentrated (spread about 3e-6 rad) leaves the four
        # channels of one carrier nearly equal.
        ("multivar-null", dict(replicates=2, channels=4, units=4, components=(3.0, 3.0),
                               noise_kappa=1e11, window=2.0, dt=1 / 256, trials=2),
         r"noise_kappa = 1e\+11 leaves 4 channels of one carrier nearly equal: a Gram condition "
         r"number of about 6e\+11, above 1e\+08",
         "_check_carrier_spread", SingularGramError, "near-null"),
    ], ids=["silent-univar", "silent-multivar", "near-noiseless-carrier"])
    def test_run_time_failures_refused_at_construction(self, monkeypatch, name, change, message,
                                                       check, failure, failure_message):
        # Each config fails at replicate 0 unless a build check refuses it: with
        # that one check patched out, it constructs and its run fails.
        with pytest.raises(ConfigurationError, match=message):
            ExperimentConfig(experiment=name, **change)
        monkeypatch.setattr(harness, check, lambda *args: None)
        config = ExperimentConfig(experiment=name, **change)
        with pytest.raises(failure, match=failure_message):
            run_experiment(config)

    @pytest.mark.parametrize("name, change, refused, accepted", [
        # 20 draws need trials * rate0 * window > ln(20 / 1e-9) = 23.7.
        ("univar-null", dict(replicates=20, trials=1, window=1.0), 23.0, 24.0),
        # Two cases: 40 draws need 24.4.
        ("sinusoid-uncoupled", dict(replicates=20, trials=1, window=1.0), 24.0, 25.0),
        # Two windows, 20 draws, judged at the shorter one.
        ("bias-curve", dict(replicates=10, trials=1, windows=(1.0, 0.5)), 47.0, 48.0),
        # Two replicates of ten units: 20 draws.
        ("multivar-null", dict(_MULTIVAR_GRID, replicates=2, units=10, trials=1), 11.5, 12.5),
    ], ids=["univar", "sinusoid-cases", "bias-curve-windows", "multivar-units"])
    def test_silent_unit_bound_counts_every_draw(self, name, change, refused, accepted):
        with pytest.raises(ConfigurationError, match="raise trials, rate0 or window"):
            ExperimentConfig(experiment=name, rate0=refused, **change)
        ExperimentConfig(experiment=name, rate0=accepted, **change)

    @pytest.mark.parametrize("components, channels", [((3.0, 3.0), 2), ((3.0, 4.0, 3.0), 3)],
                             ids=["two-components", "channels-over-three"])
    def test_carrier_spread_bound(self, components, channels):
        # Two channels of one carrier: 3m/(2v) <= 3 (1/2 + sqrt(1/4 + kappa^2)) crosses 1e8
        # at kappa = 3.3e7.
        change = dict(components=components, channels=channels, units=4, replicates=2,
                      window=2.0, dt=1 / 256)
        with pytest.raises(ConfigurationError, match="leaves 2 channels of one carrier nearly"):
            ExperimentConfig(experiment="multivar-null", noise_kappa=4e7, **change)
        ExperimentConfig(experiment="multivar-null", noise_kappa=3e7, **change)

    def test_building_every_default_config_loads_no_scipy(self):
        # perfbench builds its configs inside its timed set-up, so every build
        # check, the carrier-spread bound included, is arithmetic.
        code = ("import sys; from spikefield.harness import EXPERIMENTS, ExperimentConfig; "
                "[ExperimentConfig(name) for name in EXPERIMENTS]; "
                "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
        env = {**os.environ, "PYTHONPATH": str(Path(spikefield.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                             check=True)
        assert out.stdout.strip() == "[]"

    def test_sinusoid_rejects_degenerate_harmonics(self):
        with pytest.raises(ConfigurationError):
            run_experiment(ExperimentConfig.defaults("sinusoid-uncoupled", rate_harmonic=1))

    def test_every_experiment_has_a_runner(self):
        assert set(EXPERIMENTS) == {
            "univar-null", "univar-coupled", "bias-curve", "sinusoid-uncoupled",
            "multivar-null", "multivar-coupled", "moment-oracle",
        }


_PLV_EXPERIMENTS = sorted(n for n, e in EXPERIMENTS.items() if "mean_limit" in e.tolerances)


def _small(name, **kw):
    return ExperimentConfig.defaults(name, **kw)


def _univar_law(cfg):
    """The von Mises law of a univariate config's unit, written out from its fields."""
    phase = LinearPhase(cfg.frequency, cfg.window)
    return plv_asymptotics_vonmises(phase, VonMisesRate(cfg.rate0, cfg.kappa, cfg.phase_offset,
                                                        phase))


def _judge_by(monkeypatch, name, **bounds):
    """Judge experiment ``name`` by ``bounds`` in place of its published ones, for one test."""
    experiment = EXPERIMENTS[name]
    monkeypatch.setitem(EXPERIMENTS, name,
                        replace(experiment, tolerances={**experiment.tolerances, **bounds}))


class TestReports:
    def test_verdicts_reference_named_tolerances(self):
        rep = run_experiment(_small("bias-curve", replicates=20))
        assert rep.verdicts
        for v in rep.verdicts:
            assert v["tolerance"] in rep.config["tolerances"]

    def test_targets_are_library_computed(self):
        # The uncoupled variance target equals 1/(2 rate0 T) from the law.
        rep = run_experiment(_small("univar-null", replicates=10, trials=50))
        assert rep.targets["cov_re"] == pytest.approx(1.0 / (2 * 20.0 * 5.0))

    def test_determinism_byte_identical(self, tmp_path):
        cfg = _small("univar-null", replicates=15, trials=100)
        rep_a = run_experiment(cfg)
        rep_b = run_experiment(cfg)
        rep_a.write(tmp_path / "a")
        rep_b.write(tmp_path / "b")
        doc_a = json.loads((tmp_path / "a" / "report.json").read_text())
        doc_b = json.loads((tmp_path / "b" / "report.json").read_text())
        doc_a.pop("runtime_seconds")
        doc_b.pop("runtime_seconds")
        assert json.dumps(doc_a, sort_keys=True) == json.dumps(doc_b, sort_keys=True)
        assert rep_a.body_dict()["replicates"] == rep_b.body_dict()["replicates"]

    def test_replicate_independence(self):
        rep = run_experiment(_small("univar-null", replicates=200, trials=200))
        x = np.array(rep.replicates["plv_re"])
        x = x - x.mean()
        lag1 = float(np.sum(x[1:] * x[:-1]) / np.sum(x * x))
        assert abs(lag1) < 3.0 / np.sqrt(len(x))

    def test_writes_report_and_csv(self, tmp_path):
        cfg = _small("bias-curve", replicates=10)
        run_experiment(cfg).write(tmp_path)
        assert (tmp_path / "report.json").exists()
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["experiment"] == "bias-curve"
        with open(tmp_path / "limit_vs_mean.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0])[:2] == ["case", "window"]
        assert [(row["case"], float(row["window"])) for row in rows] == [
            (f"window_{w:g}", w) for w in cfg.windows]

    def test_moment_oracle_all_pass(self):
        rep = run_experiment(_small("moment-oracle", trials=20000))
        assert rep.all_passed, rep.summary_lines()

    def test_multivar_small_runs(self):
        rep = run_experiment(_small(
            "multivar-null", replicates=3, channels=20, units=18,
            components=(3.0, 4.0), window=2.0, dt=1 / 256, trials=5,
        ))
        assert "mean_ks" in rep.aggregates
        assert len(rep.replicates["top_eigenvalue"]) == 3
        assert rep.targets["alpha"] == pytest.approx(20 / 18)

    def test_offdiag_bound_honours_the_tolerance_kind(self, monkeypatch):
        _judge_by(monkeypatch, "univar-null", offdiag=Tolerance(
            0.5, "absolute", "fixed bound on the residual cross-covariance"))
        rep = run_experiment(_small("univar-null", replicates=12, trials=200))
        (verdict,) = [v for v in rep.verdicts if v["name"] == "cov_offdiag"]
        assert verdict["bound"] == 0.5
        assert verdict["passed"]
        assert verdict["z"] * verdict["observed"] > 0  # z keeps the sign of the covariance

    def test_tolerance_kind_is_checked(self):
        for kind in ("se_multiple", "relative", "absolute", "min_rate"):
            Tolerance(1.0, kind, "a known kind")
        with pytest.raises(ConfigurationError, match="'relatve'"):
            Tolerance(0.05, "relatve", "a mistyped kind")

    def test_min_rate_tolerance_is_a_floor(self, monkeypatch):
        # A min_rate tolerance judges the observed value itself, whatever the target.
        for value, passed in ((-1e300, True), (1e300, False)):
            _judge_by(monkeypatch, "moment-oracle",
                      moment=Tolerance(value, "min_rate", "a floor on the observed moment"))
            rep = run_experiment(_small("moment-oracle", trials=2000))
            for v in rep.verdicts:
                assert v["bound"] == value
                assert v["passed"] == (v["observed"] >= value) == passed, v

    def test_distance_kind_bounds_a_zero_target(self, monkeypatch):
        # Relative to a zero target the bound is 0, so a positive KS distance fails.
        _judge_by(monkeypatch, "multivar-null",
                  mean_ks=Tolerance(0.08, "relative", "relative to a zero target"))
        rep = run_experiment(_small("multivar-null", **{**_GOLDEN_MULTIVAR, "replicates": 2}))
        (verdict,) = [v for v in rep.verdicts if v["name"] == "mean_ks"]
        assert (verdict["target"], verdict["bound"]) == (0.0, 0.0)
        assert verdict["observed"] > 0.0 and not verdict["passed"]

    def test_moment_z_is_signed(self):
        rep = run_experiment(_small("moment-oracle", trials=5000))
        assert min(v["z"] for v in rep.verdicts) < 0.0
        for v in rep.verdicts:
            assert v["z"] == (v["observed"] - v["target"]) / rep.aggregates[
                v["name"].replace("_moment", "_se")]

    def test_univar_report_has_corrected_target(self):
        rep = run_experiment(_small("univar-coupled", replicates=10, trials=100))
        assert rep.targets["cov_re_ratio_corrected"] < rep.targets["cov_re"]

    def test_variance_verdicts_judge_the_ratio_corrected_law(self):
        cfg = _small("univar-coupled", replicates=10, trials=100)
        rep = run_experiment(cfg)
        law = _univar_law(cfg)
        verdicts = {v["name"]: v for v in rep.verdicts}
        corrected = law.ratio_corrected_cov
        assert verdicts["var_re"]["target"] == corrected[0, 0]
        assert verdicts["var_im"]["target"] == corrected[1, 1]
        assert rep.targets["cov_re"] == law.cov[0, 0] > corrected[0, 0]  # paper form kept beside

    def test_residual_histogram_draws_the_judged_law(self, tmp_path):
        # The plotted normal densities are those of the ratio-corrected law the
        # variance and Gaussianity verdicts judge, not of the paper form.
        cfg = _small("univar-coupled", replicates=10, trials=100)
        run_experiment(cfg).write(tmp_path)
        law = _univar_law(cfg)
        sd_re, sd_im = np.sqrt(law.ratio_corrected_cov.diagonal())
        with open(tmp_path / "residual_hist.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 40
        for row in rows:
            m = float(row["residual"])
            for column, sd in (("normal_re", sd_re), ("normal_im", sd_im)):
                density = math.exp(-0.5 * (m / sd) ** 2) / (sd * math.sqrt(2 * math.pi))
                assert float(row[column]) == pytest.approx(density, rel=1e-12)

    @pytest.mark.parametrize("name", _PLV_EXPERIMENTS)
    def test_every_plv_verdict_comes_from_plv_case(self, monkeypatch, name):
        # Every verdict under a PLV bound is one of a case's verdicts from
        # _plv_case, so no runner judges a PLV by code of its own.
        labels, case = [], harness._plv_case

        def recorded(config, parts, plv_case, plvs, totals):
            labels.append(plv_case.label)
            case(config, parts, plv_case, plvs, totals)

        monkeypatch.setattr(harness, "_plv_case", recorded)
        rep = run_experiment(_small(name, **_GOLDEN_BODIES[name][0]))
        bounds = EXPERIMENTS[name].tolerances
        suffixes = ["mean_limit", "var_re", "var_im", "cov_offdiag"]
        suffixes += [s for s in ("gaussian_ks", "null_fp_rate") if s in bounds]
        expected = [f"{label}_{s}" if label else s for label in labels for s in suffixes]
        plv_bounds = {"mean_limit", "variance", "offdiag", "gaussian_ks", "null_fp_rate"}
        judged = [v["name"] for v in rep.verdicts if v["tolerance"] in plv_bounds]
        assert labels and judged == expected

    @pytest.mark.parametrize("name", _PLV_EXPERIMENTS)
    def test_every_case_reports_the_same_keys(self, name):
        # Each case of each PLV experiment reports one set of statistics under
        # its label's prefix, and nothing else is reported.
        config = _small(name, **_GOLDEN_BODIES[name][0])
        labels = [case.label for case in EXPERIMENTS[name].build(config)]
        rep = run_experiment(config)
        bounded = {"null_fp_rate"} & set(EXPERIMENTS[name].tolerances)
        suffixes = {
            "targets": {"limit_re", "limit_im", "cov_re", "cov_im", "cov_re_ratio_corrected",
                        "expected_events_per_trial"},
            "aggregates": {"mean_re", "mean_im", "var_re", "var_im", "cov_offdiag", *bounded},
            "replicates": {"plv_re", "plv_im", "total_spikes", "p_null"},
        }
        for section, names in suffixes.items():
            keys = {f"{label}_{s}" if label else s for label in labels for s in names}
            assert set(getattr(rep, section)) == keys, section
        for values in rep.replicates.values():
            assert len(values) == config.replicates

    def test_bias_curve_judges_each_window_against_the_numeric_law(self):
        cfg = _small("bias-curve", replicates=20)
        rep = run_experiment(cfg)
        verdicts = {v["name"]: v for v in rep.verdicts}
        for window in cfg.windows:
            phase = LinearPhase(cfg.frequency, window)
            law = plv_law_numeric(phase, HomogeneousRate(cfg.rate0))
            prefix = f"window_{window:g}_"
            assert rep.targets[prefix + "limit_re"] == law.limit.real
            assert rep.targets[prefix + "limit_im"] == law.limit.imag
            assert verdicts[prefix + "var_re"]["target"] == law.ratio_corrected_cov[0, 0]
            assert verdicts[prefix + "var_im"]["target"] == law.ratio_corrected_cov[1, 1]

    def test_an_uncoupled_unit_reads_no_offset(self):
        # At kappa = 0 the unit is homogeneous and its law, limit 0 and
        # isotropic, is stated in the unrotated frame: the offset moves nothing
        # in the body but its own config entry. The residuals were rotated by it.
        bodies = []
        for offset in (0.0, 1.0):
            body = run_experiment(_small("univar-coupled", kappa=0.0, phase_offset=offset,
                                         replicates=12, trials=200)).body_dict()
            assert body["config"].pop("phase_offset") == offset
            bodies.append(body)
        assert bodies[0] == bodies[1]

    def test_second_harmonic_offdiag_follows_the_law(self):
        # At rate_harmonic = 2 * phase_harmonic and psi = 1 the law's off-diagonal
        # (1/(2 rate0 T)) (depth/2) sin psi sits about seven standard errors
        # from 0, and the replicates follow the law.
        cfg = _small("sinusoid-uncoupled", rate_harmonic=2, depth=0.9, phase_offset=1.0,
                     replicates=400, trials=200)
        rep = run_experiment(cfg)
        (verdict,) = [v for v in rep.verdicts if v["name"] == "mismatched_cov_offdiag"]
        law = plv_asymptotics_sinusoid(LinearPhase(1.0 / cfg.window, cfg.window),
                                       SinusoidRate(cfg.rate0, 0.9, 2, 1.0, cfg.window))
        assert verdict["target"] == law.ratio_corrected_cov[0, 1] > 0.0
        assert verdict["passed"] and verdict["observed"] > 5.0 * verdict["bound"] / 3.0


class TestInterpolantWhitening:
    @pytest.fixture(scope="class")
    def raw(self):
        return synthesize_oscillations((3.0, 4.0, 5.0), 4.0, 1 / 128, 10.0, 24,
                                       np.random.default_rng(17))

    @pytest.fixture(scope="class")
    def sd(self):
        rng = np.random.default_rng(5)
        trains = [simulate_poisson(HomogeneousRate(20.0), 4.0, 5, rng).trains[0]
                  for _ in range(20)]
        return SpikeData(window=4.0, trains=trains)

    def test_interpolant_gram_is_identity(self, raw):
        root = _interpolant_root(raw)
        assert root.shape == (24, 24)
        assert np.max(np.abs(root @ interpolant_gram(raw.samples) @ root - np.eye(24))) < 1e-12

    def test_sample_gram_whitening_alone_falls_short(self, raw):
        # Why the interpolant is whitened: i.i.d. phase noise at kappa = 10 is
        # far from band-limited, so whitening the sample Gram alone leaves the
        # interpolant Gram well off the identity.
        _, deviation = two_step_whitening(raw.samples)
        assert deviation > 0.1

    def test_spectrum_matches_two_step_path(self, raw, sd):
        # The root applied to the coupling matrix of the raw signals, against
        # the explicitly twice-whitened samples' spectrum.
        two_step = SignalMatrix(two_step_whitening(raw.samples)[0], dt=raw.dt, whitened=True)
        eig = [spectrum(normalize(c, sd)).eigenvalues
               for c in (whitened_coupling(raw, sd), build_coupling_matrix(two_step, sd))]
        np.testing.assert_allclose(eig[0], eig[1], rtol=1e-12, atol=1e-12 * eig[1][0])

    def test_whitened_signals_are_taken_as_they_are(self, raw, sd):
        white = whiten(raw)
        got, expected = whitened_coupling(white, sd), build_coupling_matrix(white, sd)
        assert got.entries.tobytes() == expected.entries.tobytes()
        assert got.signal_integral.tobytes() == expected.signal_integral.tobytes()

    def test_spectrum_called_once_per_replicate(self, monkeypatch):
        # perfbench collects the multivar spectra through harness.spectrum.
        seen = []

        def stand_in(normalized):
            report = spectrum(normalized)
            seen.append(report.eigenvalues)
            return report

        monkeypatch.setattr(harness, "spectrum", stand_in)
        rep = run_experiment(_small("multivar-null", **_GOLDEN_MULTIVAR))
        assert [e[0] for e in seen] == rep.replicates["top_eigenvalue"]
        assert len(seen) == _GOLDEN_MULTIVAR["replicates"]


class TestNormalKS:
    @pytest.mark.parametrize("seed", range(6))
    def test_kstests_statistic_to_the_bit(self, seed):
        from scipy.stats import kstest

        rng = np.random.default_rng(seed)
        for _ in range(50):
            n, sd = int(rng.integers(1, 400)), float(rng.uniform(0.01, 5.0))
            x = rng.normal(float(rng.uniform(-0.5, 0.5)), sd * rng.uniform(0.5, 2.0), n)
            if rng.random() < 0.3:
                x = np.round(x, 1)  # ties
            expected = kstest(x, "norm", args=(0.0, sd)).statistic
            assert harness._normal_ks(x, sd) == expected

    @pytest.mark.parametrize("name", ["univar-null", "univar-coupled"])
    def test_univar_loads_no_scipy_stats(self, name):
        # The gaussian_ks verdict takes the normal CDF, and the coupled law its
        # Bessel ratios, from scipy.special alone.
        code = ("import sys; from spikefield.harness import ExperimentConfig, run_experiment; "
                f"run_experiment(ExperimentConfig.defaults({name!r}, replicates=3, trials=20)); "
                "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
        env = {**os.environ, "PYTHONPATH": str(Path(spikefield.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                             check=True)
        assert out.stdout.strip() == "[]"


_GOLDEN_MULTIVAR = dict(
    replicates=3, channels=20, units=18, components=(3.0, 4.0), window=2.0, dt=1 / 256, trials=5,
)

# sha256 of json.dumps(body_dict(), sort_keys=True) at reduced configurations.
# A refactor of the runners must leave every report body byte-identical; a
# change that moves a number on purpose re-baselines here and says so.
# Every pin moved when output_dir left the config: each body is the one
# before with its "config.output_dir": null deleted, and nothing else.
_GOLDEN_BODIES = {
    "univar-null": (
        dict(replicates=12, trials=200),
        # Re-pinned when the nulls stopped reading kappa: the body is the one
        # before with its "config.kappa": 0.0 deleted, and nothing else.
        # Re-pinned when univar-null stopped reading phase_offset (its unit is
        # homogeneous and its law reads the unit): the body is the one before
        # with its "config.phase_offset": 0.0 deleted, and nothing else.
        "66c913cd0f86763eebe69245036538e0b0b3579bb394ba1ef8aa612d84b59217",
    ),
    "univar-coupled": (
        dict(replicates=12, trials=200),
        # Re-pinned when the law took its Bessel ratios from scipy.special.ive:
        # the limit, the ratio-corrected variance and the statistics judged
        # against them moved by ulps (at most 9e-15 relative); nothing else did.
        "6efffbced354c831da4d08026ea6b5af7952593a657db74efb04aa1c4fefb224",
    ),
    "bias-curve": (
        dict(replicates=20),
        # Re-pinned when each window became a _plv_case case judged against
        # plv_law_numeric: the keys took the case prefix, and each window gained
        # its variance and off-diagonal verdicts. The replicate draws did not move.
        # Re-pinned when every case came to report the same statistics: each
        # window gained its cov_re, cov_im, expected_events_per_trial,
        # total_spikes and p_null; no other key or verdict moved.
        "868d8ab63cb12c6fbea1003f8c89315bb2c4c12c0bcbdf6715b0e13df3decee9",
    ),
    "sinusoid-uncoupled": (
        dict(replicates=12, trials=100),
        # Re-pinned when every case came to report the same statistics: the
        # <case>_cov targets became <case>_cov_re, with their values, and each
        # case gained its cov_im, expected_events_per_trial, total_spikes and
        # p_null; no other key or verdict moved.
        # Re-pinned when the variance bound's provenance stopped calling the
        # covariance isotropic, which the law is not when the rate runs at twice
        # the phase's harmonic: that string moved, and nothing else.
        "6450fbccaba44560ab1c34ee3892c7f65fc481f5bf532841604ca2500ea46489",
    ),
    "multivar-null": (
        _GOLDEN_MULTIVAR,
        # Re-pinned when the nulls stopped reading kappa: the body is the one
        # before with its "config.kappa": 0.0 deleted, and nothing else.
        "f9d72e79dff02f6f151552037c04fecbb9e3967a8980d97f3d0f00fdec063308",
    ),
    "multivar-coupled": (
        _GOLDEN_MULTIVAR,
        "6778215cfca9353f48f822284d132e6ddc4338ed4ee2b2d4525f9862f3ebbaf8",
    ),
    "moment-oracle": (
        dict(trials=5000),
        # Re-pinned when the oracle and the compensators left the trapezoid rule
        # for composite Gauss-Legendre: the "mixed" target moved by the
        # trapezoid's error, from -0.79577455941 to -10/(4 pi) within 3e-15, and
        # its observed moment by ulps; the other sets kept their bits.
        "e34d3da6435f6553191708c3ebe7e5b74b0c88b2467368213c9636415823da0b",
    ),
}


class TestGoldenBodies:
    def test_covers_every_experiment(self):
        assert set(_GOLDEN_BODIES) == set(EXPERIMENTS)

    @pytest.mark.parametrize("name", sorted(_GOLDEN_BODIES))
    def test_body_hash(self, name):
        overrides, expected = _GOLDEN_BODIES[name]
        rep = run_experiment(_small(name, **overrides))
        body = json.dumps(rep.body_dict(), sort_keys=True)
        assert hashlib.sha256(body.encode()).hexdigest() == expected

    @pytest.mark.parametrize("name", sorted(_GOLDEN_BODIES))
    def test_judged_tolerances_are_the_accepted_ones(self, name):
        # A name the experiment accepts is one it reads, and the reverse.
        overrides, _ = _GOLDEN_BODIES[name]
        rep = run_experiment(_small(name, **overrides))
        defaults = EXPERIMENTS[name].tolerances
        assert {v["tolerance"] for v in rep.verdicts} == set(defaults)
        for v in rep.verdicts:  # a verdict has a standard error where its default bound uses one
            assert ("z" in v) == (defaults[v["tolerance"]].kind == "se_multiple"), v

    @pytest.mark.parametrize("name", sorted(_GOLDEN_BODIES))
    def test_read_fields_are_the_accepted_ones(self, name):
        # A field the constructor accepts is one the runner reads, and the
        # reverse. Each field is probed with a real value, since an unset one
        # is always accepted.
        # A null sets neither kappa nor phase_offset: its build reads them unset,
        # and pointproc._locked_rate draws an uncoupled unit for kappa None.
        config = _small(name, **_GOLDEN_BODIES[name][0])
        recorder = _ReadRecorder(config)
        experiment = EXPERIMENTS[name]
        experiment.run(recorder, experiment.build(recorder))
        assert recorder.unset_reads <= {"kappa", "phase_offset"}
        accepted = set()
        for key, value in _probes(name).items():
            try:
                ExperimentConfig(experiment=name, **{key: value})
                accepted.add(key)
            except ConfigurationError:
                pass
        assert recorder.reads - {"experiment"} == accepted


def _probes(name):
    """A real value of every field but ``experiment``, to set one at a time on ``name``.

    A field ``name`` reads gets its own published value; any other gets the
    published value of the first experiment that reads it.
    """
    probes = {}
    for f in fields(ExperimentConfig):
        for source in (name, *sorted(EXPERIMENTS)):
            value = getattr(ExperimentConfig(experiment=source), f.name)
            if value is not None:
                probes[f.name] = value
                break
    del probes["experiment"]
    return probes


class _ReadRecorder:
    """Stands in for a config and records the name of every attribute read from it.

    ``reads`` holds the fields read with a value, ``unset_reads`` those read unset (None).
    """

    def __init__(self, config):
        self._config, self.reads, self.unset_reads = config, set(), set()

    def __getattr__(self, name):
        value = getattr(self._config, name)
        (self.reads if value is not None else self.unset_reads).add(name)
        return value
