"""Tier-2 verify: run every named experiment at its published defaults.

    python3 tools/tier2.py [EXPERIMENT ...]

With no names it runs every entry of ``spikefield.harness.EXPERIMENTS``
in turn, default seed and all. It prints each verdict line as the
experiment finishes, then one status line per experiment with its wall
time and its report body's digest, and exits 1 if any verdict FAILs (2 on
an unknown name). The digest is the sha256 of
``json.dumps(report.body_dict(), sort_keys=True)``, the one the golden-body
tests pin, so two runs (two thread settings, two hosts) that drew the same
numbers print the same digests, and a diff of their logs shows which
experiments did not. The
``spikefield experiment`` command keeps exit 0 on a FAIL verdict, so this
is the command that gates on them. Serial, the full set takes several
minutes. OpenBLAS runs on one thread unless OPENBLAS_NUM_THREADS says
otherwise, so on one machine the report bodies, and the verdict lines with
them, are bit-reproducible from run to run. Another host may still differ
in the last bits, since its CPU kernels may differ.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from pathlib import Path

# Before numpy loads: OpenBLAS reads its thread count once, at load time.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from spikefield.harness import EXPERIMENTS, ExperimentConfig, run_experiment  # noqa: E402


def main(argv=None) -> int:
    names = list(sys.argv[1:] if argv is None else argv) or list(EXPERIMENTS)
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        print(f"error: unknown experiment(s) {unknown}; expected some of {sorted(EXPERIMENTS)}",
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    statuses, all_passed = [], True
    for name in names:
        report = run_experiment(ExperimentConfig.defaults(name))
        for line in report.summary_lines():
            print(line, flush=True)
        failed = sum(not v["passed"] for v in report.verdicts)
        status = "PASS" if report.all_passed else f"FAIL ({failed} of {len(report.verdicts)} verdicts)"
        digest = hashlib.sha256(json.dumps(report.body_dict(), sort_keys=True).encode()).hexdigest()
        statuses.append(f"{name}: {status} in {report.runtime_seconds:.1f} s; body sha256 {digest}")
        print(statuses[-1], flush=True)
        all_passed = all_passed and report.all_passed
    print(f"--- tier-2: {len(names)} experiment(s) in {time.perf_counter() - started:.1f} s")
    for line in statuses:
        print(line)
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
