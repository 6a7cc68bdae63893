"""Tests for the tier-2 verify command, tools/tier2.py."""

import importlib.util
from pathlib import Path

from spikefield.harness import ExperimentConfig, Tolerance


def _load_tier2():
    path = Path(__file__).resolve().parents[1] / "tools" / "tier2.py"
    spec = importlib.util.spec_from_file_location("tier2", path)
    module = importlib.util.module_from_spec(spec)
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


def test_unknown_name_exits_two(capsys):
    assert tier2.main(["no-such-experiment"]) == 2
    assert "no-such-experiment" in capsys.readouterr().err
