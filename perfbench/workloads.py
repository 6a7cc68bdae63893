"""The benchmark's workloads: their inputs, timed rounds and checks.

Every workload runs whole rounds of the same operations until the run's
seconds are spent, so failures (if any) are the same share of attempts in
every run:

* univar-mc and multivar-mc: one ``run_experiment`` call at a reduced
  replicate count, then one replicate's data simulated through the public
  functions ("simulate") and analysed through them ("analyze");
* cli-roundtrip: ``spikefield simulate`` then ``spikefield analyze
  --signals``, as child processes (in-process ``cli_io.main`` calls when
  traced).

The first Monte Carlo round warms caches and is checked but not timed.
All seeds derive from the workload seed (``derive_seed``).

Timings are given at the reference host's speed: each round is bracketed
by timings of a fixed numpy kernel (``reference_kernel``), and each of the
round's operation times is divided by their mean and multiplied by
``REFERENCE_S``, the kernel's median time on the reference host.

This module imports no scipy: it is loaded while set-up is being timed.
The checks are imported by ``Workload.run``, after the set-up mark.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import numpy as np
from spikefield import cli_io, harness, multicoupling, pointproc, signals, unicoupling
from spikefield.errors import DomainError

import tracing

checks = None  # imported by Workload.run, after the set-up mark

CHILD_TIMEOUT_S = 150.0

# The shared reference host's speed drifts by up to +-25 % over tens of
# seconds to minutes, which no run length averages away. In one process the
# median univar-mc call time of 30 s windows moved from 0.57 s to 0.83 s
# (log-sd 0.11); with each call divided by the kernel timed beside it, the
# same windows had a log-sd of 0.01-0.04. REFERENCE_S is the kernel's median
# time on the reference host (pinned to one CPU), so a timing reads as
# seconds on that host. perfbench/README.md gives the figures per workload.
REFERENCE_S = 0.0225


def reference_kernel() -> float:
    """Time a fixed numpy computation of the program's kinds: draws, cumsum, thinning, a phase sum."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    times = np.cumsum(rng.exponential(1.0 / 33.0, 300_000))
    keep = rng.random(times.size) < np.exp(0.5 * (np.cos(2.0 * np.pi * times) - 1.0))
    np.exp(2j * np.pi * times[keep]).sum()
    return time.perf_counter() - start


def setup_scale(samples: int = 5) -> float:
    """REFERENCE_S over the kernel's median time now: rescales a set-up time just measured."""
    reference_kernel()
    return REFERENCE_S / statistics.median(reference_kernel() for _ in range(samples))


def derive_seed(seed: int, workload: str, *parts) -> int:
    """63-bit seed: BLAKE2b of "workload/seed/part/..."; the same text gives the same seed."""
    text = "/".join(str(part) for part in (workload, seed, *parts))
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big") >> 1


class Workload:
    name = ""
    warmup = True
    sizes: dict = {}

    def __init__(self, seed: int, size: str, workdir):
        self.seed = seed
        self.size = size
        self.spec = dict(self.sizes[size])
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.times = defaultdict(list)  # operation times at the reference host's speed
        self.wall = defaultdict(list)  # the same, as measured
        self.tracer = None
        self._last = {}

    # -- operations and checks ---------------------------------------------

    def op(self, name, fn, *args):
        """Run and time one operation; an exception counts it as failed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # noqa: BLE001  (any failure of the program is counted)
            self.failed += 1
            print(f"operation {name} failed: {exc!r}", file=sys.stderr)
            return None
        self._last[name] = time.perf_counter() - start
        return result

    def skip(self, name):
        """An operation that could not run because the one it needs failed."""
        self.attempted += 1
        self.failed += 1
        print(f"operation {name} skipped", file=sys.stderr)

    def check(self, fn, *args):
        try:
            return fn(*args)
        except checks.CheckError as exc:
            self.problems.append(f"{self.name}: {exc}")
        return None

    # -- the run -----------------------------------------------------------

    def run(self, seconds: float, trace: bool) -> dict:
        global checks
        import checks

        self.in_process = trace
        self.tracer = tracing.Tracer() if trace else None
        index = 0
        reference_kernel()  # its first call pays numpy's lazy set-up
        if self.warmup:
            self.check_round(self.ops(index))
            index += 1
        untraced = []
        started = time.perf_counter()
        before = reference_kernel()
        while True:
            self._last = {}
            begin = time.perf_counter()
            material = self.ops(index)
            untraced.append(time.perf_counter() - begin)
            after = reference_kernel()
            scale = REFERENCE_S / ((before + after) / 2.0)
            before = after
            for name, spent in self._last.items():
                self.times[name].append(spent * scale)
                self.wall[name].append(spent)
            self.check_round(material)
            index += 1
            if trace:
                with self.tracer.installed(), self.tracer.span(tracing.ROUND_SPAN):
                    material = self.ops(index)
                self.check_round(material)
                index += 1
            if time.perf_counter() - started >= seconds:
                break
        self.finish()
        if not trace:
            walls = " ".join(f"{name}={statistics.median(v):.4g}" for name, v in self.wall.items())
            print(f"median wall times (s), not rescaled: {walls}", file=sys.stderr)
        metrics = self.tracer.layer_metrics(untraced) if trace else self.end_to_end()
        return {"attempted": self.attempted, "failed": self.failed,
                "problems": self.problems, "metrics": metrics}

    def end_to_end(self) -> dict:
        values = {
            "replicates_per_s": (self.replicates_per_s(), "1/s"),
            "simulate_s": (statistics.median(self.times["simulate"]), "s"),
            "analyze_s": (statistics.median(self.times["analyze"]), "s"),
            "peak_rss_mib": (self.peak_rss_kib() / 1024.0, "MiB"),
        }
        return {name: {"value": float(v), "unit": unit} for name, (v, unit) in values.items()}

    def replicates_per_s(self) -> float:
        return self.spec["replicates"] / statistics.median(self.times["experiment"])

    def peak_rss_kib(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # -- per workload ------------------------------------------------------

    def ops(self, index):
        raise NotImplementedError

    def check_round(self, material):
        raise NotImplementedError

    def finish(self):
        raise NotImplementedError


class UnivarMC(Workload):
    """univar-coupled: kappa = 0.5, f = 1 Hz, T = 5 s, 20 Hz, K = 5000 trials."""

    name = "univar-mc"
    sizes = {"full": {"trials": 5000, "replicates": 8}, "tiny": {"trials": 100, "replicates": 2}}

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.base = self.config(0)
        self.phase = signals.LinearPhase(self.base.frequency, self.base.window)
        self.model = pointproc.VonMisesRate(self.base.rate0, self.base.kappa,
                                            self.base.phase_offset, self.phase)
        self.first = None

    def config(self, index):
        return harness.ExperimentConfig.defaults(
            "univar-coupled", master_seed=derive_seed(self.seed, self.name, index), **self.spec)

    def simulate(self, index):
        rng = np.random.default_rng(derive_seed(self.seed, self.name, index, "stage"))
        return pointproc.simulate_poisson(self.model, self.base.window, self.base.trials, rng)

    def analyze(self, spikes):
        plv = unicoupling.estimate_plv(self.phase, spikes)
        total = int(spikes.counts().sum())
        return plv, total, unicoupling.plv_null_test(plv, total)

    def ops(self, index):
        config = self.config(index)
        report = self.op("experiment", harness.run_experiment, config)
        spikes = self.op("simulate", self.simulate, index)
        result = None
        if spikes is None:
            self.skip("analyze")
        else:
            result = self.op("analyze", self.analyze, spikes)
        return config, report, spikes, result

    def law(self):
        b = self.base
        return b.kappa, b.rate0, b.window, b.trials

    def check_round(self, material):
        config, report, spikes, result = material
        if report is not None:
            reps = report.replicates
            plvs = np.asarray(reps["plv_re"]) + 1j * np.asarray(reps["plv_im"])
            self.check(checks.plv_mean, plvs, *self.law())
            self.check(checks.spike_totals, reps["total_spikes"], *self.law())
            if self.first is None:
                self.first = (config, report.body_dict())
        if spikes is not None:
            self.check(checks.spike_trains, spikes.trains, self.base.window, 1, self.base.trials)
        if result is not None:
            plv, total, p_null = result
            self.check(checks.plv_mean, [plv], *self.law())
            self.check(checks.spike_totals, [total], *self.law())
            self.check(checks.probability, p_null, "p_null")

    def finish(self):
        if self.first is None:
            return
        config, body = self.first
        again = self.op("experiment", harness.run_experiment, config)
        if again is not None:
            self.check(checks.same_body, body, again.body_dict())


class MultivarMC(Workload):
    """multivar-null: p = 100 channels, n = 90 units, K = 10, T = 11 s, dt = 1/1024."""

    name = "multivar-mc"
    sizes = {
        "full": {"replicates": 2},
        "tiny": {"channels": 20, "units": 18, "trials": 5, "window": 2.0, "replicates": 2},
    }
    # Full size: the harness's pooled-KS and trace tolerances. The tiny size
    # (p = 20) has too few eigenvalues for them: its trace/p has a standard
    # deviation near sqrt(2 / (p n)) = 0.075, and its KS uses the harness's
    # per-run bound.
    ks_bounds = {"full": 0.05, "tiny": 0.08}
    trace_tols = {"full": 0.10, "tiny": 0.40}

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.base = self.config(0)
        self.model = pointproc.HomogeneousRate(self.base.rate0)
        self.first = None
        self.stage = None

    def config(self, index):
        return harness.ExperimentConfig.defaults(
            "multivar-null", master_seed=derive_seed(self.seed, self.name, index), **self.spec)

    def simulate(self, index):
        b = self.base
        rng = np.random.default_rng(derive_seed(self.seed, self.name, index, "stage"))
        raw = signals.synthesize_oscillations(b.components, b.window, b.dt, b.noise_kappa,
                                              b.channels, rng)
        white = signals.whiten(raw)
        trains = [pointproc.simulate_poisson(self.model, b.window, b.trials, rng).trains[0]
                  for _ in range(b.units)]
        return white, pointproc.SpikeData(window=b.window, trains=trains)

    def analyze(self, data):
        white, spikes = data
        raw = multicoupling.build_coupling_matrix(white, spikes)
        return raw, multicoupling.spectrum(multicoupling.normalize(raw, spikes))

    def ops(self, index):
        config = self.config(index)
        report = self.op("experiment", harness.run_experiment, config)
        data = self.op("simulate", self.simulate, index)
        result = None
        if data is None:
            self.skip("analyze")
        else:
            result = self.op("analyze", self.analyze, data)
        return config, report, data, result

    def check_round(self, material):
        config, report, data, result = material
        if report is not None:
            self.check(checks.traces, report.replicates["trace_over_p"], self.trace_tols[self.size])
            if self.first is None:
                self.first = (config, report.body_dict())
        if result is not None:
            white, spikes = data
            raw, spectrum = result
            b = self.base
            reference = checks.spectrum_reference(
                raw.entries, white.samples.sum(axis=1) * white.dt,
                [sum(len(t) for t in unit) for unit in spikes.trains], b.trials, b.window)
            self.check(checks.spectrum_matches, spectrum.eigenvalues, reference, b.units)
            self.stage = (white, spikes, raw)

    def finish(self):
        b = self.base
        if self.first is not None:
            config, body = self.first
            spectra = []
            original = harness.spectrum

            def capture(*args, **kwargs):
                report = original(*args, **kwargs)
                spectra.append(report.eigenvalues.copy())
                return report

            harness.spectrum = capture
            try:
                again = self.op("experiment", harness.run_experiment, config)
            finally:
                harness.spectrum = original
            if again is not None:
                self.check(checks.same_body, body, again.body_dict())
                self.check(checks.mp_spectra, spectra, b.channels / b.units,
                           self.ks_bounds[self.size], self.trace_tols[self.size])
        if self.stage is not None:
            white, spikes, raw = self.stage
            unit_times = [np.concatenate(unit) for unit in spikes.trains]
            reference = checks.coupling_reference(white.samples, white.dt, unit_times, b.trials)
            self.check(checks.coupling_matches, raw.entries, reference)


class CliRoundTrip(Workload):
    """simulate -> analyze --signals at multivariate size, kappa = 0.15 von Mises coupling."""

    name = "cli-roundtrip"
    warmup = False  # every command is a fresh process
    sizes = {
        "full": {"channels": 100, "units": 90, "trials": 10, "window": 11.0, "kappa": 0.15},
        "tiny": {"channels": 20, "units": 18, "trials": 5, "window": 2.0, "kappa": 0.6},
    }
    dt = 1.0 / 1024.0
    components = (11.0, 12.0, 13.0, 14.0, 15.0)

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        s = self.spec
        self.config_path = workdir / "simulate.json"
        self.config_path.write_text(json.dumps({
            "kind": "vonmises", "window": s["window"], "trials": s["trials"],
            "units": s["units"], "rate0": 20.0, "kappa": s["kappa"],
            "signals": {"components": list(self.components), "channels": s["channels"],
                        "dt": self.dt, "noise_kappa": 10.0, "whiten": True},
        }))
        self.data = workdir / "data"
        self.analysis = workdir / "analysis"
        self.n_samples = round(s["window"] / self.dt)

    def command(self, argv):
        if self.in_process:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_io.main(argv)
        else:
            code = subprocess.run([sys.executable, "-m", "spikefield", *argv],
                                  stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S).returncode
        if code != 0:
            raise RuntimeError(f"spikefield {argv[0]} exited with code {code}")
        return True

    def ops(self, index):
        simulate = ["simulate", "--config", str(self.config_path),
                    "--seed", str(derive_seed(self.seed, self.name, index)), "--out", str(self.data)]
        analyze = ["analyze", "--spikes", str(self.data / "spikes.json"),
                   "--signals", str(self.data / "signals.csv"), "--out", str(self.analysis)]
        if self.op("simulate", self.command, simulate) is None:
            self.skip("analyze")
            return False
        return self.op("analyze", self.command, analyze) is not None

    def replicates_per_s(self) -> float:
        pairs = [s + a for s, a in zip(self.times["simulate"], self.times["analyze"])]
        return 1.0 / statistics.median(pairs)

    def peak_rss_kib(self) -> int:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def spikes_doc(self):
        return json.loads((self.data / "spikes.json").read_text())

    def check_round(self, completed):
        if not completed:
            return
        s = self.spec
        trains = [unit["trials"] for unit in self.spikes_doc()["units"]]
        self.check(checks.spike_trains, trains, s["window"], s["units"], s["trials"])
        spectrum = json.loads((self.analysis / "spectrum.json").read_text())
        self.check(checks.detection, spectrum["eigenvalues"], s["channels"] / s["units"])

    def finish(self):
        s = self.spec
        csv_path = self.data / "signals.csv"
        if not (self.analysis / "spectrum.json").exists():
            return
        try:
            loaded = cli_io.load_signals(csv_path).samples
        except DomainError as exc:
            self.problems.append(f"{self.name}: load_signals rejects the simulated file: {exc}")
            return
        samples = self.check(checks.signals_file, csv_path, loaded,
                             s["channels"], self.n_samples, self.dt)
        if samples is None:
            return
        trains = [unit["trials"] for unit in self.spikes_doc()["units"]]
        coupling = json.loads((self.analysis / "coupling.json").read_text())
        entries = np.asarray(coupling["entries_re"]) + 1j * np.asarray(coupling["entries_im"])
        unit_times = [np.concatenate([np.asarray(t, dtype=float) for t in unit]) for unit in trains]
        reference = checks.coupling_reference(samples, self.dt, unit_times, s["trials"])
        self.check(checks.coupling_matches, entries, reference)
        eigs = checks.spectrum_reference(entries, samples.sum(axis=1) * self.dt,
                                         [len(t) for t in unit_times], s["trials"], s["window"])
        spectrum = json.loads((self.analysis / "spectrum.json").read_text())
        self.check(checks.spectrum_matches, spectrum["eigenvalues"], eigs, s["units"])


WORKLOADS = {cls.name: cls for cls in (UnivarMC, MultivarMC, CliRoundTrip)}


def make(name: str, seed: int, size: str, workdir) -> Workload:
    return WORKLOADS[name](seed, size, workdir)
