"""Tests for the Monte Carlo experiment harness (small-scale configurations)."""

import hashlib
import json
from functools import partial

import numpy as np
import pytest

from spikefield.errors import ConfigurationError, DomainError
from spikefield.harness import (
    EXPERIMENTS,
    ExperimentConfig,
    Tolerance,
    replicate_seed,
    run_experiment,
)
from spikefield.unicoupling import plv_asymptotics_vonmises


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
        cfg = ExperimentConfig.defaults("univar-null", window=5.3)  # non-integer cycles
        with pytest.raises(ConfigurationError, match="integer number of cycles"):
            run_experiment(cfg)
        with pytest.raises(ConfigurationError, match="depth"):
            run_experiment(ExperimentConfig.defaults("sinusoid-uncoupled", depth=1.5))

    def test_sinusoid_rejects_degenerate_harmonics(self):
        with pytest.raises(ConfigurationError):
            run_experiment(ExperimentConfig.defaults("sinusoid-uncoupled", rate_harmonic=1))
        with pytest.raises(ConfigurationError, match="second-harmonic"):
            run_experiment(ExperimentConfig.defaults("sinusoid-uncoupled", rate_harmonic=2))

    def test_every_experiment_has_a_runner(self):
        assert set(EXPERIMENTS) == {
            "univar-null", "univar-coupled", "bias-curve", "sinusoid-uncoupled",
            "multivar-null", "multivar-coupled", "moment-oracle",
        }


def _small(name, **kw):
    return ExperimentConfig.defaults(name, **kw)


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
        cfg_a = _small("univar-null", replicates=15, trials=100, output_dir=str(tmp_path / "a"))
        cfg_b = _small("univar-null", replicates=15, trials=100, output_dir=str(tmp_path / "b"))
        rep_a = run_experiment(cfg_a)
        rep_b = run_experiment(cfg_b)
        doc_a = json.loads((tmp_path / "a" / "report.json").read_text())
        doc_b = json.loads((tmp_path / "b" / "report.json").read_text())
        doc_a.pop("runtime_seconds")
        doc_b.pop("runtime_seconds")
        doc_a["config"].pop("output_dir")
        doc_b["config"].pop("output_dir")
        assert json.dumps(doc_a, sort_keys=True) == json.dumps(doc_b, sort_keys=True)
        assert rep_a.body_dict()["replicates"] == rep_b.body_dict()["replicates"]

    def test_replicate_independence(self):
        rep = run_experiment(_small("univar-null", replicates=200, trials=200))
        x = np.array(rep.replicates["plv_re"])
        x = x - x.mean()
        lag1 = float(np.sum(x[1:] * x[:-1]) / np.sum(x * x))
        assert abs(lag1) < 3.0 / np.sqrt(len(x))

    def test_writes_report_and_csv(self, tmp_path):
        cfg = _small("bias-curve", replicates=10, output_dir=str(tmp_path))
        run_experiment(cfg)
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "bias_curve.csv").exists()
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["experiment"] == "bias-curve"
        header = (tmp_path / "bias_curve.csv").read_text().splitlines()[0]
        assert header.startswith("window,")

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

    def test_offdiag_bound_honours_the_tolerance_kind(self):
        absolute = Tolerance(0.5, "absolute", "fixed bound on the residual cross-covariance")
        rep = run_experiment(_small("univar-null", replicates=12, trials=200,
                                    tolerances={"offdiag": absolute}))
        (verdict,) = [v for v in rep.verdicts if v["name"] == "cov_offdiag"]
        assert verdict["bound"] == 0.5
        assert verdict["passed"]
        assert verdict["z"] * verdict["observed"] > 0  # z keeps the sign of the covariance

    def test_univar_report_has_corrected_target(self):
        rep = run_experiment(_small("univar-coupled", replicates=10, trials=100))
        assert rep.targets["cov_re_ratio_corrected"] < rep.targets["cov_re"]

    def test_variance_verdicts_judge_the_ratio_corrected_law(self):
        cfg = _small("univar-coupled", replicates=10, trials=100)
        rep = run_experiment(cfg)
        law = partial(plv_asymptotics_vonmises, cfg.kappa, cfg.phase_offset, cfg.rate0, cfg.window)
        verdicts = {v["name"]: v for v in rep.verdicts}
        corrected = law(ratio_correction=True).cov
        assert verdicts["var_re"]["target"] == corrected[0, 0]
        assert verdicts["var_im"]["target"] == corrected[1, 1]
        assert rep.targets["cov_re"] == law().cov[0, 0] > corrected[0, 0]  # paper form kept beside


_GOLDEN_MULTIVAR = dict(
    replicates=3, channels=20, units=18, components=(3.0, 4.0), window=2.0, dt=1 / 256, trials=5,
)

# sha256 of json.dumps(body_dict(), sort_keys=True) at reduced configurations.
# A refactor of the runners must leave every report body byte-identical; a
# change that moves a number on purpose re-baselines here and says so.
_GOLDEN_BODIES = {
    "univar-null": (
        dict(replicates=12, trials=200),
        "dcbd983f52520a428b42faf1cde0c32f88f257b4b02049805161629cf7c949bc",
    ),
    "univar-coupled": (
        dict(replicates=12, trials=200),
        "ba91b7d22ae537fd3230e6687d0c5a59092dab51d28c3635eda1e5b48ccb8bd9",
    ),
    "bias-curve": (
        dict(replicates=20),
        "c9eec99166a3c49ca559c9a95ae55a623cb6dad5d739df73fdc95f4083714a8c",
    ),
    "sinusoid-uncoupled": (
        dict(replicates=12, trials=100),
        "bf7b6396eff9aaa799ffe09d2cc23428d0dd9e0e70ac273a06a4c66e08fc3f5a",
    ),
    "multivar-null": (
        _GOLDEN_MULTIVAR,
        "7cd7028040168a6e25e6482655e1634b3a0e837f40cdacec885d85bc5c0f39e2",
    ),
    "multivar-coupled": (
        _GOLDEN_MULTIVAR,
        "14a4a075b44c07f3487076cf6e0d41703b1c6c6818af3de61e5bdd27e2703b53",
    ),
    "moment-oracle": (
        dict(trials=5000),
        "10f6c89f730410c51167070fcf0b504e5233b0dfd3327838a061d38809b9c268",
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
