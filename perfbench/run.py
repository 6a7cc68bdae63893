"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload univar-mc --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. This launcher imports only the
standard library, so that set-up time is measured in fresh interpreters
that have not yet loaded numpy, scipy or spikefield:

* with ``--trace 0`` it first starts ``SETUP_SAMPLES - 1`` set-up-only
  interpreters, then the workload process (``worker.py``), which is the
  last set-up sample and then runs the timed loop. ``setup_s`` is the
  median of the samples, each measured from process spawn to the moment
  the inputs are built and brought to the reference host's speed (see
  ``workloads.REFERENCE_S``).
* with ``--trace 1`` it starts only the workload process, which reports
  the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Without a
``src/spikefield`` package next to this directory the launcher exits with
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("univar-mc", "multivar-mc", "cli-roundtrip")
SETUP_SAMPLES = 3
# Everything (set-up samples, the workload process, its children) must end
# well inside the 180 s a run may take.
DEADLINE_S = 170.0
# BLAS threads: fixed, and no more than the 2 cores of the reference host.
# One thread gives the same speed there as two (the BLAS calls are small)
# and keeps the second core free for the host's own noise.
BLAS_THREADS = "1"


def pin_to_one_cpu() -> None:
    """Pin this launcher, and so every process it starts, to its lowest CPU.

    The cores of the shared reference host run at different speeds for
    long stretches (the same ``univar-mc`` call took 0.59-0.68 s on one and
    0.77-0.84 s on the other, minutes apart), and an unpinned process is
    moved between them, so its speed depended on where it happened to run.
    The workload is single-threaded (BLAS threads are 1), and CLI children
    run one at a time, so one CPU takes nothing from the program.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_worker(args, extra, timeout) -> dict:
    """Start worker.py, wait for it, and return its result plus the set-up time."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--size", args.size,
    ] + extra
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=timeout, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    result = json.loads(lines[-1])
    raw = result.pop("ready_monotonic") - spawned
    print(f"set-up {raw:.4g} s as measured", file=sys.stderr)
    result["setup_s"] = raw * result.pop("setup_scale")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; 'tiny' is for the benchmark's own smoke tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "spikefield" / "__init__.py").is_file():
        print(f"error: no spikefield sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    pin_to_one_cpu()
    started = time.monotonic()
    try:
        setups = []
        if args.trace == 0:
            for _ in range(SETUP_SAMPLES - 1):
                left = DEADLINE_S - (time.monotonic() - started)
                setups.append(run_worker(args, ["--setup-only"], left)["setup_s"])
        left = DEADLINE_S - (time.monotonic() - started)
        result = run_worker(args, [], left)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace == 0:
        setups.append(result["setup_s"])
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    out = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
