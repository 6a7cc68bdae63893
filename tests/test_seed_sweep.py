"""Tests for the seed sweep tool, tools/seed_sweep.py."""

import importlib.util
import json
import os
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest

from spikefield.harness import ExperimentConfig, run_experiment

_SWEEP = Path(__file__).resolve().parents[1] / "tools" / "seed_sweep.py"


def _load_sweep():
    spec = importlib.util.spec_from_file_location("seed_sweep", _SWEEP)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):  # keep its OpenBLAS setting out of this process
        spec.loader.exec_module(module)
    return module


seed_sweep = _load_sweep()

_CONFIG = {"experiment": "univar-null", "replicates": 12, "trials": 200}


def test_counts_each_verdicts_fails_and_range(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_CONFIG))
    assert seed_sweep.main([str(path), "1", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()

    config = ExperimentConfig(**_CONFIG)
    reports = [run_experiment(replace(config, master_seed=seed)) for seed in (1, 2, 3)]
    expected = []
    for i, verdict in enumerate(reports[0].verdicts):
        runs = [report.verdicts[i] for report in reports]
        values = [run["observed"] for run in runs]
        fails = sum(not run["passed"] for run in runs)
        expected.append(f"{verdict['name']}: {fails} of 3 fail; observed "
                        f"min={min(values):.6g} max={max(values):.6g}")
    assert [line.partition(":")[0] for line in lines[:3]] == ["seed 1", "seed 2", "seed 3"]
    assert lines[3] == "--- univar-null: 3 seed(s), 1..3"
    assert lines[4:] == expected
    assert list(tmp_path.iterdir()) == [path]  # the sweep writes no file


def test_refused_config_exits_one(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**_CONFIG, "replicates": 1}))
    assert seed_sweep.main([str(path), "1", "2"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: need at least two replicates\n"


def test_empty_seed_range_is_refused(tmp_path):
    with pytest.raises(SystemExit) as exit_:
        seed_sweep.main([str(tmp_path / "cfg.json"), "3", "1"])
    assert exit_.value.code == 2


@pytest.mark.parametrize("first, last", [(-1, 2), (1, 2**64)], ids=["negative", "past-64-bits"])
def test_seed_outside_the_rule_is_refused_before_any_run(tmp_path, capsys, monkeypatch, first,
                                                         last):
    # Both were swept: -1 as a seed of its own, 2**64 as seed 0. The config's
    # seed rule alone would stop the sweep with a traceback at the first such
    # seed, after the seeds before it had run.
    def no_run(config):
        raise AssertionError("a seed ran")

    monkeypatch.setattr(seed_sweep, "run_experiment", no_run)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_CONFIG))
    with pytest.raises(SystemExit) as exit_:
        seed_sweep.main([str(path), str(first), str(last)])
    assert exit_.value.code == 2
    bad = first if first < 0 else last
    assert capsys.readouterr().err.endswith(
        f"error: seed must be an integer in [0, 2**64), got {bad}\n")
