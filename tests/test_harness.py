"""Tests for the Monte Carlo experiment harness (small-scale configurations)."""

import hashlib
import json
import math
from functools import partial

import numpy as np
import pytest

from spikefield.errors import ConfigurationError, DomainError, SingularGramError
from spikefield.harness import (
    EXPERIMENTS,
    ExperimentConfig,
    Tolerance,
    _whiten_interpolant,
    replicate_seed,
    run_experiment,
)
from spikefield.multicoupling import build_coupling_matrix, normalize, spectrum
from spikefield.pointproc import HomogeneousRate, SpikeData, simulate_poisson
from spikefield.signals import SignalMatrix, synthesize_oscillations, whiten
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
        for name in ("univar-null", "multivar-null"):  # inf made the cycle check overflow
            with pytest.raises(ConfigurationError, match="window finite"):
                run_experiment(ExperimentConfig.defaults(name, window=math.inf))

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

    def test_tolerance_kind_is_checked(self):
        for kind in ("se_multiple", "relative", "absolute", "min_rate"):
            Tolerance(1.0, kind, "a known kind")
        with pytest.raises(ConfigurationError, match="'relatve'"):
            Tolerance(0.05, "relatve", "a mistyped kind")

    def test_distance_verdict_rejects_a_min_rate_tolerance(self):
        # _check has no fall-through: only the three distance kinds give a bound.
        cfg = _small("moment-oracle", trials=2000,
                     tolerances={"moment": Tolerance(3.0, "min_rate", "not a distance")})
        with pytest.raises(ConfigurationError, match="'min_rate' tolerance gives no distance"):
            run_experiment(cfg)

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


def _interpolant_gram(x):
    """(2/3) A0 + (1/6)(B + B^H) over the periodic grid, B the lag-one cross-Gram."""
    q = x.shape[1]
    a0 = (x @ x.conj().T) / q
    b = (x @ np.roll(x, -1, axis=1).conj().T) / q
    return (2.0 / 3.0) * a0 + (b + b.conj().T) / 6.0


def _two_step_whitening(raw):
    """Oracle: whiten the sample Gram, then orthonormalize the interpolant of the result."""
    x = whiten(raw).samples
    gram = _interpolant_gram(x)
    deviation = float(np.max(np.abs(gram - np.eye(len(gram)))))
    w, v = np.linalg.eigh(gram)
    return (v * w**-0.5) @ v.conj().T @ x, deviation


class TestInterpolantWhitening:
    @pytest.fixture(scope="class")
    def raw(self):
        return synthesize_oscillations((3.0, 4.0, 5.0), 4.0, 1 / 128, 10.0, 24,
                                       np.random.default_rng(17))

    def test_interpolant_gram_is_identity(self, raw):
        white, _ = _whiten_interpolant(raw)
        assert white.whitened and white.dt == raw.dt
        assert np.max(np.abs(_interpolant_gram(white.samples) - np.eye(24))) < 1e-12

    def test_deviation_keeps_its_two_step_meaning(self, raw):
        _, deviation = _whiten_interpolant(raw)
        _, expected = _two_step_whitening(raw)
        assert deviation > 0.1  # i.i.d. phase noise at kappa = 10 is far from band-limited
        assert deviation == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_spectrum_matches_two_step_path(self, raw):
        rng = np.random.default_rng(5)
        trains = [simulate_poisson(HomogeneousRate(20.0), 4.0, 5, rng).trains[0]
                  for _ in range(20)]
        sd = SpikeData(window=4.0, trains=trains)
        one_step, _ = _whiten_interpolant(raw)
        two_step = SignalMatrix(_two_step_whitening(raw)[0], dt=raw.dt, whitened=True)
        eig = [spectrum(normalize(build_coupling_matrix(s, sd), sd)).eigenvalues
               for s in (one_step, two_step)]
        np.testing.assert_allclose(eig[0], eig[1], rtol=1e-12, atol=1e-12 * eig[1][0])

    def test_duplicated_noiseless_components_singular(self):
        cfg = _small("multivar-null", replicates=2, channels=4, units=4, components=(3.0, 3.0),
                     noise_kappa=0.0, window=2.0, dt=1 / 256, trials=2)
        with pytest.raises(SingularGramError, match="near-null"):
            run_experiment(cfg)


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
        "45074341db0692750805893afb106bf15dfb06d77dd1fb56e879084becd676a2",
    ),
    "multivar-coupled": (
        _GOLDEN_MULTIVAR,
        "297993fb6cad116e79e26a6033302c3b2b85d10119d2283e4ba82ea761f8d7da",
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
