"""Outside-in tracing of spikefield: spans at layer boundaries, self times, counters.

The tracer wraps functions where their callers look them up: every public
spikefield function bound in the ``harness`` and ``cli_io`` namespaces,
plus ``specfun.von_mises_sample`` (called from ``signals``),
``multicoupling.ks_statistic`` (called from ``spectrum``) and the
``SignalMatrix.eval_at`` method. Each wrapper is installed in every
spikefield module that binds the same function, so the benchmark's own
calls through the home module are traced too. Nothing in the program
changes; ``uninstall`` restores every binding.

A span is (name, start, end, parent), kept in memory and written out at
the end. A span's self time is its duration minus its children's and
minus the time the tracer spent counting inside it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("pointproc", "specfun", "signals", "unicoupling", "multicoupling", "harness", "cli_io")
ROUND_SPAN = "bench.round"

# Per-layer metrics, in the order they are printed: (name, unit).
SELF_TIMES = (
    "pointproc.simulate_poisson",
    "unicoupling.estimate_plv",
    "signals.eval_at",
    "signals.synthesize_oscillations",
    "signals.whiten",
    "specfun.von_mises_sample",
    "multicoupling.build_coupling_matrix",
    "multicoupling.normalize",
    "multicoupling.spectrum",
    "multicoupling.ks_statistic",
    "harness.run_experiment",
    "cli_io.save_signals",
    "cli_io.save_spikes",
    "cli_io.load_signals",
    "cli_io.load_spikes",
    "cli_io.main",
)
PER_LAYER = (
    [(f"{name}.self_s", "s") for name in SELF_TIMES]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [
        ("pointproc.spikes_kept", "count"),
        ("pointproc.spikes_per_s", "1/s"),
        ("pointproc.keep_ratio", "ratio"),
        ("signals.eval_at.points_per_s", "1/s"),
        ("specfun.vm_draws_per_s", "1/s"),
        ("cli_io.save_signals.mib_per_s", "MiB/s"),
        ("cli_io.load_signals.mib_per_s", "MiB/s"),
        ("trace.round_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.layer_share", "ratio"),
    ]
)


def _count_thinning(counts, args, result):
    model, window, trials = args["model"], args["window"], args["trials"]
    counts["pointproc.kept"] += sum(len(t) for t in result.trains[0])
    counts["pointproc.candidates_expected"] += model.max_rate() * window * trials


def _count_draws(counts, args, result):
    counts["specfun.vm_draws"] += int(np.size(result))


def _count_points(counts, args, result):
    counts["signals.eval_at.points"] += int(np.size(result))


def _count_saved(counts, args, result):
    counts["cli_io.save_signals.bytes"] += os.path.getsize(args["csv_path"])


def _count_loaded(counts, args, result):
    counts["cli_io.load_signals.bytes"] += os.path.getsize(args["csv_path"])


COUNTERS = {
    "pointproc.simulate_poisson": _count_thinning,
    "specfun.von_mises_sample": _count_draws,
    "signals.eval_at": _count_points,
    "cli_io.save_signals": _count_saved,
    "cli_io.load_signals": _count_loaded,
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(float)
        self._counting = defaultdict(float)  # span index -> counter time inside it
        self._stack = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index, start, end):
        self._stack.pop()
        self.spans[index][1] = start
        self.spans[index][2] = end

    @contextmanager
    def span(self, name):
        index = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, start, time.perf_counter())

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._close(index, start, end)
            if counter is not None:
                counter(tracer.counts, signature.bind(*args, **kwargs).arguments, result)
                parent = tracer.spans[index][3]
                if parent >= 0:
                    tracer._counting[parent] += time.perf_counter() - end
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        modules = {layer: importlib.import_module(f"spikefield.{layer}") for layer in LAYERS}
        targets = {}
        for lookup in ("harness", "cli_io"):
            for attr, obj in vars(modules[lookup]).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if obj.__module__.startswith("spikefield.") and home in LAYERS:
                    targets[id(obj)] = (obj, f"{home}.{obj.__name__}")
        for home, attr in (("specfun", "von_mises_sample"), ("multicoupling", "ks_statistic")):
            obj = getattr(modules[home], attr)
            targets[id(obj)] = (obj, f"{home}.{attr}")

        wrappers = {key: self.wrap(name, fn) for key, (fn, name) in targets.items()}
        owners = [importlib.import_module("spikefield"), *modules.values()]
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                if id(obj) in wrappers and obj is targets[id(obj)][0]:
                    self._patch(owner, attr, wrappers[id(obj)])
        matrix = modules["signals"].SignalMatrix
        self._patch(matrix, "eval_at", self.wrap("signals.eval_at", matrix.eval_at))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict:
        """Total self time per span name."""
        children = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        totals = defaultdict(float)
        for index, (name, start, end, parent) in enumerate(self.spans):
            totals[name] += (end - start) - children[index] - self._counting[index]
        return totals

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans, "counts": self.counts}))

    def layer_metrics(self, untraced_walls) -> dict:
        """Per-layer metrics per traced round, with the overhead against untraced rounds."""
        rounds = [(end - start) for name, start, end, parent in self.spans if name == ROUND_SPAN]
        n = len(rounds)
        own = self.self_times()
        counts = self.counts

        def rate(amount, seconds):
            return amount / seconds if seconds > 0.0 else 0.0

        values = {f"{name}.self_s": own.get(name, 0.0) / n for name in SELF_TIMES}
        program = 0.0
        for layer in LAYERS:
            total = sum(t for name, t in own.items() if name.startswith(layer + "."))
            values[f"{layer}.self_s"] = total / n
            program += total
        values.update({
            "pointproc.spikes_kept": counts["pointproc.kept"] / n,
            "pointproc.spikes_per_s": rate(counts["pointproc.kept"], own["pointproc.simulate_poisson"]),
            "pointproc.keep_ratio": rate(counts["pointproc.kept"], counts["pointproc.candidates_expected"]),
            "signals.eval_at.points_per_s": rate(counts["signals.eval_at.points"], own["signals.eval_at"]),
            "specfun.vm_draws_per_s": rate(counts["specfun.vm_draws"], own["specfun.von_mises_sample"]),
            "cli_io.save_signals.mib_per_s": rate(counts["cli_io.save_signals.bytes"] / 2**20,
                                                  own["cli_io.save_signals"]),
            "cli_io.load_signals.mib_per_s": rate(counts["cli_io.load_signals.bytes"] / 2**20,
                                                  own["cli_io.load_signals"]),
            "trace.round_s": statistics.median(rounds),
            "trace.overhead_s": statistics.median(rounds) - statistics.median(untraced_walls),
            "trace.layer_share": program / sum(rounds),
        })
        return {name: {"value": float(values[name]), "unit": unit} for name, unit in PER_LAYER}
