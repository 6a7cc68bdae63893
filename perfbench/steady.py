"""Steadiness mode: run one workload repeatedly and report each metric's spread.

    python3 perfbench/steady.py --workload univar-mc --seeds 1-10 --out set1.json
    python3 perfbench/steady.py --compare set1.json set2.json

Each run is a fresh ``run.py --trace 0`` with its own seed and the run
length from BENCHMARK.json. For every end-to-end metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, (Q3 - Q1) / median, next to the metric's bound. ``--compare``
reads two such files and prints, per metric, how much worse the second
median is than the first, as a share of the first.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: run.py exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(runs: list, spec: dict) -> list:
    rows = []
    for metric in spec["end_to_end"]:
        values = [run["metrics"][metric["name"]]["value"] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        rows.append({"name": metric["name"], "median": statistics.median(values),
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / statistics.median(values),
                     "bound": metric["bound"]})
    return rows


def measure(args) -> int:
    spec = benchmark()
    seconds = args.seconds or spec["run_seconds"]
    runs = []
    for seed in parse_seeds(args.seeds):
        run = run_once(args.workload, seed, seconds)
        run["seed"] = seed
        runs.append(run)
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(run["metrics"].items()))
        print(f"seed {seed}: correct={run['correct']} failed={run['failed']}/{run['attempted']} {values}",
              flush=True)
    rows = summarize(runs, spec)
    print(f"{'metric':18s} {'median':>10s} {'Q1':>10s} {'Q3':>10s} {'spread':>8s} {'bound':>6s}")
    for r in rows:
        print(f"{r['name']:18s} {r['median']:10.4g} {r['q1']:10.4g} {r['q3']:10.4g} "
              f"{r['spread']:8.4f} {r['bound']:6.3f}")
    shares = {run["failed"] / run["attempted"] for run in runs}
    print(f"failed share per run: {sorted(shares)}; all correct: {all(r['correct'] for r in runs)}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seconds": seconds, "runs": runs, "summary": rows}, indent=1))
    return 0


def compare(first_path: str, second_path: str) -> int:
    spec = {m["name"]: m for m in benchmark()["end_to_end"]}
    first = json.loads(Path(first_path).read_text())
    second = json.loads(Path(second_path).read_text())
    print(f"workload {first['workload']} vs {second['workload']}")
    for a, b in zip(first["summary"], second["summary"]):
        sign = 1.0 if spec[a["name"]]["better"] == "lower" else -1.0
        worse = sign * (b["median"] - a["median"]) / a["median"]
        print(f"{a['name']:18s} {a['median']:10.4g} {b['median']:10.4g} "
              f"worse by {worse:+.4f} (bound {a['bound']})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, help="run length (default: BENCHMARK.json)")
    parser.add_argument("--out", help="write every run and the summary to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required unless --compare is given")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
