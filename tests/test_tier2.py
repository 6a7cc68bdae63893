"""Tests for the tier-2 verify command, tools/tier2.py."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from spikefield.harness import ExperimentConfig, Tolerance


_TIER2 = Path(__file__).resolve().parents[1] / "tools" / "tier2.py"


def _load_tier2():
    spec = importlib.util.spec_from_file_location("tier2", _TIER2)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):  # keep its OpenBLAS setting out of this process
        spec.loader.exec_module(module)
    return module


tier2 = _load_tier2()


class _TightMoment:
    """Published defaults, but a moment-oracle tolerance no run can meet."""

    @staticmethod
    def defaults(name):
        if name != "moment-oracle":
            return ExperimentConfig.defaults(name)
        return ExperimentConfig.defaults(
            name, tolerances={"moment": Tolerance(1e-9, "se_multiple", "test")})


def test_all_pass_exits_zero(capsys):
    assert tier2.main(["moment-oracle"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] moment-oracle/" in out
    assert "moment-oracle: PASS in" in out.splitlines()[-1]


def test_any_fail_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(tier2, "ExperimentConfig", _TightMoment)
    assert tier2.main(["moment-oracle", "bias-curve"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] moment-oracle/" in out
    assert "bias-curve: PASS in" in out


def test_status_line_carries_the_reports_body_digest(capsys, monkeypatch):
    run, reports = tier2.run_experiment, []

    def recorded(config):
        reports.append(run(config))
        return reports[-1]

    monkeypatch.setattr(tier2, "run_experiment", recorded)
    assert tier2.main(["moment-oracle"]) == 0
    (report,) = reports
    digest = hashlib.sha256(json.dumps(report.body_dict(), sort_keys=True).encode()).hexdigest()
    status = capsys.readouterr().out.splitlines()[-1]
    assert status.startswith("moment-oracle: PASS in ")
    assert status.endswith(f" s; body sha256 {digest}")


# Loads tools/tier2.py in a fresh interpreter and prints OPENBLAS_NUM_THREADS as
# numpy's first import saw it.
_WATCH_NUMPY = """
import importlib.util, os, sys
seen = []

class Watch:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))

sys.meta_path.insert(0, Watch())
spec = importlib.util.spec_from_file_location("tier2", sys.argv[1])
spec.loader.exec_module(importlib.util.module_from_spec(spec))
print(seen[0])
"""


@pytest.mark.parametrize("given, expected", [(None, "1"), ("2", "2")])
def test_openblas_pinned_before_numpy_loads(given, expected):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    run = subprocess.run([sys.executable, "-c", _WATCH_NUMPY, str(_TIER2)], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == expected


def test_unknown_name_exits_two(capsys):
    assert tier2.main(["no-such-experiment"]) == 2
    assert "no-such-experiment" in capsys.readouterr().err
