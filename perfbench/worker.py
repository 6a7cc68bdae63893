"""Workload process started by run.py: set up, run whole rounds, check, report.

Set-up is timed from the moment run.py spawns this interpreter to the
moment the workload's inputs are built, so everything up to that point is
the program's own import: nothing here imports numpy, scipy or spikefield
before ``import spikefield``. The benchmark's checks (which use scipy)
are imported only after the set-up mark.

Prints one JSON line: ``correct``, ``attempted``, ``failed``, ``metrics``,
``ready_monotonic`` (the set-up mark on the clock run.py reads) and
``setup_scale`` (``workloads.setup_scale()`` taken just after the mark,
which brings the set-up time to the reference host's speed).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".perfbench_out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one benchmark workload process")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workdir = OUT_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        import spikefield  # noqa: F401  (the program's import is part of set-up)
        import workloads

        workload = workloads.make(args.workload, args.seed, args.size, workdir)
        ready = time.monotonic()
        scale = workloads.setup_scale()
        if args.setup_only:
            print(json.dumps({"ready_monotonic": ready, "setup_scale": scale}))
            return 0

        result = workload.run(args.seconds, trace=bool(args.trace))
        if args.trace:
            spans_path = OUT_ROOT / f"spans-{args.workload}-{args.seed}.json"
            workload.tracer.write(spans_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for message in result["problems"]:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
        "ready_monotonic": ready,
        "setup_scale": scale,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
