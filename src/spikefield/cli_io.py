"""Command-line interface, data-file formats, and configuration parsing.

Spike trains serialize to JSON (ragged, diffable); signals to CSV with a
JSON metadata sidecar (rectangular, stream-friendly). Floats are written
with shortest round-trip formatting, so serialize -> parse is lossless and
the determinism guarantees survive file boundaries.

Exit codes: 0 success, 1 validation error (bad flags, malformed files,
rejected parameters), 2 numerical error. A FAIL verdict inside an
experiment report does not change the exit code.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .errors import DomainError, NumericalError
from .harness import ExperimentConfig, Tolerance, run_experiment
from .multicoupling import build_coupling_matrix, normalize, spectrum
from .pointproc import HomogeneousRate, SinusoidRate, SpikeData, VonMisesRate, simulate_poisson
from .signals import LinearPhase, SignalMatrix, synthesize_oscillations, whiten
from .unicoupling import estimate_plv, plv_asymptotics_vonmises, plv_null_test

__all__ = [
    "save_spikes",
    "load_spikes",
    "save_signals",
    "load_signals",
    "load_experiment_config",
    "main",
]


# ---------------------------------------------------------------------------
# Spike file format: {"t_start": 0, "t_end": T, "units": [{"id", "trials"}]}
# ---------------------------------------------------------------------------

def save_spikes(spikes: SpikeData, path) -> None:
    doc = {
        "t_start": 0.0,
        "t_end": spikes.window,
        "units": [
            {"id": j, "trials": [list(map(float, t)) for t in unit]}
            for j, unit in enumerate(spikes.trains)
        ],
    }
    Path(path).write_text(json.dumps(doc))


def load_spikes(path) -> SpikeData:
    doc = _read_json(path)
    for key in ("t_start", "t_end", "units"):
        if key not in doc:
            raise DomainError(f"{path}: missing required field {key!r}")
    if doc["t_start"] != 0.0:
        raise DomainError(f"{path}: field 't_start' must be 0, got {doc['t_start']!r}")
    window = float(doc["t_end"])
    trains = []
    for u_idx, unit in enumerate(doc["units"]):
        if "trials" not in unit:
            raise DomainError(f"{path}: unit {u_idx} is missing field 'trials'")
        trains.append([np.asarray(t, dtype=float) for t in unit["trials"]])
    spikes = SpikeData(window=window, trains=trains)
    spikes.validate()
    return spikes


# ---------------------------------------------------------------------------
# Signal file format: CSV (time, ch<k>_re, ch<k>_im) + JSON sidecar metadata
# ---------------------------------------------------------------------------

def _sidecar(csv_path) -> Path:
    return Path(csv_path).with_suffix(".json")


def save_signals(signals: SignalMatrix, csv_path) -> None:
    p = signals.n_channels
    header = ["time"]
    for k in range(p):
        header += [f"ch{k}_re", f"ch{k}_im"]
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        times = signals.times
        for i in range(signals.n_samples):
            row = [repr(float(times[i]))]
            for k in range(p):
                z = signals.samples[k, i]
                row += [repr(float(z.real)), repr(float(z.imag))]
            writer.writerow(row)
    meta = {
        "dt": signals.dt,
        "T": signals.window,
        "p": p,
        "whitened": bool(signals.whitened),
    }
    _sidecar(csv_path).write_text(json.dumps(meta))


def load_signals(csv_path) -> SignalMatrix:
    meta = _read_json(_sidecar(csv_path))
    for key in ("dt", "T", "p", "whitened"):
        if key not in meta:
            raise DomainError(f"{_sidecar(csv_path)}: missing required field {key!r}")
    dt, window, p = float(meta["dt"]), float(meta["T"]), int(meta["p"])
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DomainError(f"{csv_path}: empty file") from None
        if len(header) != 1 + 2 * p:
            raise DomainError(
                f"{csv_path}: header has {len(header)} columns, expected {1 + 2 * p} for {p} channels"
            )
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DomainError(f"{csv_path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise DomainError(f"{csv_path}:{lineno}: {exc}") from None
    data = np.asarray(rows)
    if abs(len(data) * dt - window) > 0.5 * dt:
        raise DomainError(
            f"{csv_path}: {len(data)} rows at dt={dt} do not cover T={window}"
        )
    samples = data[:, 1::2].T + 1j * data[:, 2::2].T
    return SignalMatrix(samples, dt=dt, whitened=bool(meta["whitened"]))


def _read_json(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None


# ---------------------------------------------------------------------------
# Experiment config files
# ---------------------------------------------------------------------------

_CONFIG_FIELDS = {f.name for f in fields(ExperimentConfig)}


def load_experiment_config(path) -> ExperimentConfig:
    """Parse an ExperimentConfig from a JSON file, rejecting unknown fields."""
    doc = _read_json(path)
    if "experiment" not in doc:
        raise DomainError(f"{path}: missing required field 'experiment'")
    unknown = set(doc) - _CONFIG_FIELDS
    if unknown:
        raise DomainError(f"{path}: unknown field(s) {sorted(unknown)}")
    experiment = doc.pop("experiment")
    tolerances = {
        name: Tolerance(**spec) for name, spec in doc.pop("tolerances", {}).items()
    }
    for key in ("components", "windows"):
        if key in doc:
            doc[key] = tuple(doc[key])
    try:
        return ExperimentConfig.defaults(experiment, tolerances=tolerances, **doc)
    except TypeError as exc:
        raise DomainError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Simulation config files
# ---------------------------------------------------------------------------

_SIM_KEYS = {
    "kind", "window", "trials", "units", "rate0", "kappa", "phase_offset",
    "frequency", "depth", "harmonic", "signals",
}
_SIGNAL_KEYS = {"components", "channels", "dt", "noise_kappa", "whiten"}


def _build_unit_model(sim: dict, unit_index: int):
    kind = sim.get("kind", "homogeneous")
    rate0 = float(sim.get("rate0", 20.0))
    window = float(sim["window"])
    if kind == "homogeneous":
        return HomogeneousRate(rate0)
    if kind == "vonmises":
        if "frequency" in sim:
            freq = float(sim["frequency"])
        else:
            comps = sim.get("signals", {}).get("components")
            if not comps:
                raise DomainError(
                    "vonmises simulation needs 'frequency' or a signals block with 'components'"
                )
            freq = float(comps[unit_index % len(comps)])
        return VonMisesRate(
            rate0, float(sim.get("kappa", 0.0)), float(sim.get("phase_offset", 0.0)),
            LinearPhase(freq, window),
        )
    if kind == "sinusoid":
        return SinusoidRate(
            rate0, float(sim.get("depth", 0.3)), int(sim.get("harmonic", 1)),
            float(sim.get("phase_offset", 0.0)), window,
        )
    raise DomainError(f"unknown simulation kind {kind!r}")


def _cmd_simulate(args) -> int:
    sim = _read_json(args.config)
    unknown = set(sim) - _SIM_KEYS
    if unknown:
        raise DomainError(f"{args.config}: unknown field(s) {sorted(unknown)}")
    if "window" not in sim or "trials" not in sim:
        raise DomainError(f"{args.config}: 'window' and 'trials' are required")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    window = float(sim["window"])
    trials = int(sim["trials"])
    n_units = int(sim.get("units", 1))

    signals = None
    if "signals" in sim:
        block = sim["signals"]
        unknown = set(block) - _SIGNAL_KEYS
        if unknown:
            raise DomainError(f"{args.config}: unknown signals field(s) {sorted(unknown)}")
        signals = synthesize_oscillations(
            block["components"], window, float(block["dt"]),
            float(block.get("noise_kappa", 0.0)), int(block.get("channels", 1)), rng,
        )
        if block.get("whiten", False):
            signals = whiten(signals)
        save_signals(signals, out / "signals.csv")

    trains = [
        simulate_poisson(_build_unit_model(sim, j), window, trials, rng).trains[0]
        for j in range(n_units)
    ]
    save_spikes(SpikeData(window=window, trains=trains), out / "spikes.json")
    print(f"wrote {out / 'spikes.json'}" + (f" and {out / 'signals.csv'}" if signals else ""))
    return 0


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _parse_phase_flag(text: str, window: float) -> LinearPhase:
    if not text.startswith("linear:"):
        raise DomainError(f"unsupported phase spec {text!r}; expected linear:<frequency>")
    try:
        freq = float(text.split(":", 1)[1])
    except ValueError:
        raise DomainError(f"bad frequency in phase spec {text!r}") from None
    return LinearPhase(freq, window)


def _cmd_analyze(args) -> int:
    if args.signals is None and args.phase is None:
        raise DomainError("analyze needs --signals and/or --phase")
    spikes = load_spikes(args.spikes)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    options = _read_json(args.config) if args.config else {}

    if args.phase is not None:
        phase = _parse_phase_flag(args.phase, spikes.window)
        totals = spikes.counts().sum(axis=1)
        units = []
        for j in range(spikes.n_units):
            total = int(totals[j])
            entry = {"id": j, "total_spikes": total}
            if total == 0:
                entry["plv"] = None
            else:
                plv = estimate_plv(phase, spikes, unit=j)
                rate_hat = total / (spikes.n_trials * spikes.window)
                null_law = plv_asymptotics_vonmises(0.0, 0.0, rate_hat, spikes.window)
                entry.update({
                    "plv_re": plv.real,
                    "plv_im": plv.imag,
                    "plv_modulus": abs(plv),
                    "p_null": plv_null_test(plv, total),
                    "estimated_rate": rate_hat,
                    "null_cov_re": null_law.cov[0, 0],
                })
                if "kappa" in options:
                    law = plv_asymptotics_vonmises(
                        float(options["kappa"]), float(options.get("phase_offset", 0.0)),
                        rate_hat, spikes.window,
                    )
                    z = law.rotated_residuals(np.array([plv]), spikes.n_trials)[0]
                    entry.update({
                        "law_limit_re": law.limit.real,
                        "law_limit_im": law.limit.imag,
                        "z_re": z.real / np.sqrt(law.cov[0, 0]),
                        "z_im": z.imag / np.sqrt(law.cov[1, 1]),
                    })
            units.append(entry)
        doc = {"frequency": phase.frequency, "window": spikes.window, "units": units}
        (out / "univariate.json").write_text(json.dumps(doc, indent=2, sort_keys=True))

    if args.signals is not None:
        signals = load_signals(args.signals)
        if not signals.whitened:
            signals = whiten(signals)
        raw = build_coupling_matrix(signals, spikes)
        (out / "coupling.json").write_text(json.dumps({
            "channels": raw.n_channels,
            "units": raw.n_units,
            "trials": raw.trials,
            "window": raw.window,
            "entries_re": raw.entries.real.tolist(),
            "entries_im": raw.entries.imag.tolist(),
        }, sort_keys=True))
        report = spectrum(normalize(raw, spikes), float(options.get("edge_margin", 0.0)))
        (out / "spectrum.json").write_text(json.dumps({
            "eigenvalues": report.eigenvalues.tolist(),
            "singular_values": report.singular_values.tolist(),
            "alpha": report.alpha,
            "mp_lower_edge": report.mp.lower_edge,
            "mp_upper_edge": report.mp.upper_edge,
            "mp_zero_atom": report.mp.zero_atom,
            "n_significant": report.n_significant,
            "ks_distance": report.ks_distance,
            "edge_margin": report.edge_margin,
        }, indent=2, sort_keys=True))
        from .specfun import mp_density

        with open(out / "esd.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["eigenvalue", "mp_density"])
            for ev in report.eigenvalues:
                writer.writerow([repr(float(ev)), repr(float(mp_density(report.mp, ev)))])
    print(f"analysis written to {out}")
    return 0


def _cmd_experiment(args) -> int:
    config = load_experiment_config(args.config)
    if args.seed is not None:
        config.master_seed = args.seed
    if args.out is not None:
        config.output_dir = args.out
    report = run_experiment(config)
    for line in report.summary_lines():
        print(line)
    status = "all criteria PASS" if report.all_passed else "some criteria FAIL (see report)"
    where = f"; report in {config.output_dir}" if config.output_dir else ""
    print(f"{report.experiment}: {status}{where}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spikefield",
        description="Simulate and analyze spike-field coupling with closed-form laws "
                    "and Marchenko-Pastur significance testing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate spike trains and signals to files")
    p_sim.add_argument("--config", required=True, help="simulation config JSON")
    p_sim.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p_sim.add_argument("--out", required=True, help="output directory")

    p_an = sub.add_parser("analyze", help="estimate coupling from data files")
    p_an.add_argument("--spikes", required=True, help="spike JSON file")
    p_an.add_argument("--signals", help="signal CSV file (with JSON sidecar)")
    p_an.add_argument("--phase", help="phase model, e.g. linear:1.0")
    p_an.add_argument("--config", help="optional analysis options JSON (kappa, edge_margin, ...)")
    p_an.add_argument("--out", required=True, help="output directory")

    p_ex = sub.add_parser("experiment", help="run a named Monte Carlo experiment")
    p_ex.add_argument("--config", required=True, help="experiment config JSON")
    p_ex.add_argument("--seed", type=int, help="override the master seed")
    p_ex.add_argument("--out", help="override the output directory")

    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        return _cmd_experiment(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
