"""Seed sweep: run one experiment config over a range of master seeds and count its verdicts' fails.

    python3 tools/seed_sweep.py CONFIG FIRST LAST

CONFIG is an experiment config file, read by
``spikefield.cli_io.load_experiment_config`` as ``spikefield experiment``
reads it. The config runs once for each master seed FIRST..LAST (both
included); the seed is the only field that changes, and no report is
written. One line per seed is printed as its run finishes. Then, for each
verdict, one line gives how many seeds failed it and the smallest and
largest value it observed, which shows how far a bound sits from the
statistic's spread. Exit 0 once every seed has run, whatever the verdicts;
1 on a refused config, as ``spikefield experiment`` refuses it; 2 on bad
arguments. OpenBLAS runs on one thread unless OPENBLAS_NUM_THREADS says
otherwise, as in ``tools/tier2.py``.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

# Before numpy loads: OpenBLAS reads its thread count once, at load time.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from spikefield.cli_io import load_experiment_config  # noqa: E402
from spikefield.errors import DomainError  # noqa: E402
from spikefield.harness import run_experiment  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="seed_sweep", description=__doc__.splitlines()[0])
    parser.add_argument("config", help="experiment config JSON")
    parser.add_argument("first", type=int, help="first master seed")
    parser.add_argument("last", type=int, help="last master seed, included")
    args = parser.parse_args(argv)
    if args.last < args.first:
        parser.error(f"last seed {args.last} is before first seed {args.first}")
    try:
        config = replace(load_experiment_config(args.config), output_dir=None)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    seeds = range(args.first, args.last + 1)
    runs = {}  # each verdict's runs, one per seed, by name in report order
    for seed in seeds:
        report = run_experiment(replace(config, master_seed=seed))
        for v in report.verdicts:
            runs.setdefault(v["name"], []).append(v)
        failed = [v["name"] for v in report.verdicts if not v["passed"]]
        status = f"FAIL ({', '.join(failed)})" if failed else "PASS"
        print(f"seed {seed}: {status} in {report.runtime_seconds:.1f} s", flush=True)
    print(f"--- {config.experiment}: {len(seeds)} seed(s), {args.first}..{args.last}")
    for name, verdicts in runs.items():
        fails = sum(not v["passed"] for v in verdicts)
        observed = [v["observed"] for v in verdicts]
        print(f"{name}: {fails} of {len(seeds)} fail; observed "
              f"min={min(observed):.6g} max={max(observed):.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
