"""Command-line interface, data-file formats, and configuration parsing.

Spike trains serialize to JSON (ragged, diffable); signals to CSV with a
JSON metadata sidecar (rectangular, stream-friendly). Floats are written
with shortest round-trip formatting (``repr``), so serialize -> parse is
lossless, signed zeros included, and the determinism guarantees survive
file boundaries.

CSV files are written in blocks of rows and read with ``numpy.loadtxt``,
so numpy's C code does the per-field work. A malformed signal file is
reported as ``DomainError("<path>:<line>: ...")`` with the file line of
the first bad row (the header is line 1). Every line after the header
must be a data row: a blank line is rejected, not skipped.

Exit codes: 0 success, 1 validation error (bad flags, malformed files,
rejected parameters), 2 numerical error. A FAIL verdict inside an
experiment report does not change the exit code.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DomainError, NumericalError
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
            {"id": j, "trials": [t.tolist() for t in unit]}
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
    if not isinstance(doc["units"], list):
        raise DomainError(f"{path}: field 'units' must be a list")
    trains = []
    for u_idx, unit in enumerate(doc["units"]):
        if not (isinstance(unit, dict) and isinstance(unit.get("trials"), list)):
            raise DomainError(f"{path}: unit {u_idx} needs a list field 'trials'")
        trains.append(unit["trials"])
    try:
        return SpikeData(window=doc["t_end"], trains=trains)
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Signal file format: CSV (time, ch<k>_re, ch<k>_im) + JSON sidecar metadata
# ---------------------------------------------------------------------------

def _sidecar(csv_path) -> Path:
    return Path(csv_path).with_suffix(".json")


_CSV_BLOCK_ROWS = 1024  # rows formatted per write; bounds the Python floats alive at once


def _write_csv(path, header, blocks) -> None:
    """Write a CSV of floats: a header line, then the rows of each 2-D block.

    Every field is ``repr`` of the float and every line ends in CRLF, as
    ``csv.writer`` writes them.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for block in blocks:
            fh.write("".join(",".join(map(repr, row)) + "\r\n" for row in block.tolist()))


def _signal_rows(signals: SignalMatrix):
    """Yield the signal table (time, then re/im per channel) in blocks of rows."""
    p, n = signals.n_channels, signals.n_samples
    times = signals.times
    for start in range(0, n, _CSV_BLOCK_ROWS):
        rows = slice(start, min(start + _CSV_BLOCK_ROWS, n))
        block = np.empty((rows.stop - start, 1 + 2 * p))
        block[:, 0] = times[rows]
        block[:, 1:].view(complex)[:] = signals.samples[:, rows].T
        yield block


def save_signals(signals: SignalMatrix, csv_path) -> None:
    p = signals.n_channels
    header = ["time"] + [f"ch{k}_{part}" for k in range(p) for part in ("re", "im")]
    _write_csv(csv_path, header, _signal_rows(signals))
    meta = {
        "dt": signals.dt,
        "T": signals.window,
        "p": p,
        "whitened": bool(signals.whitened),
    }
    _sidecar(csv_path).write_text(json.dumps(meta))


def _data_lines(fh, csv_path):
    """Yield the lines after the header, rejecting a blank one by its file line."""
    for lineno, line in enumerate(fh, start=2):
        if line.isspace():
            raise DomainError(f"{csv_path}:{lineno}: blank line")
        yield line


def _loadtxt_error(exc: ValueError, csv_path, columns: int) -> DomainError:
    """Turn numpy.loadtxt's row-numbered ValueError into a file-line DomainError.

    numpy counts data rows from 0 in a conversion error ("at row 3, column
    2") and from 1 in a width error ("changed from 5 to 4 at row 7"). A
    width error blames the row where the width changed, so a wrong width
    on the first row is reported there instead.
    """
    msg = str(exc)
    width = re.search(r"columns changed from (\d+) to (\d+) at row (\d+)", msg)
    if width is not None:
        first, later, row = map(int, width.groups())
        lineno, got = (2, first) if first != columns else (row + 1, later)
        return DomainError(f"{csv_path}:{lineno}: expected {columns} fields, got {got}")
    value = re.search(r"(.*) at row (\d+), column (\d+)", msg)
    if value is not None:
        reason, row, column = value.groups()
        return DomainError(f"{csv_path}:{int(row) + 2}: field {column}: {reason}")
    return DomainError(f"{csv_path}: {msg}")


_SIDECAR_KINDS = {"dt": "float", "T": "float", "p": "int", "whitened": "bool"}


def load_signals(csv_path) -> SignalMatrix:
    sidecar = _sidecar(csv_path)
    meta = _fields(_read_json(sidecar), sidecar, _SIDECAR_KINDS, required=_SIDECAR_KINDS)
    dt, window, p = meta["dt"], meta["T"], meta["p"]
    columns = 1 + 2 * p
    with open(csv_path, newline="") as fh:
        header = fh.readline()
        if not header:
            raise DomainError(f"{csv_path}: empty file")
        n_header = len(header.rstrip("\r\n").split(","))
        if n_header != columns:
            raise DomainError(
                f"{csv_path}: header has {n_header} columns, expected {columns} for {p} channels"
            )
        try:
            with warnings.catch_warnings():
                # A header-only file warns "no data"; the row-count check reports it.
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(_data_lines(fh, csv_path), delimiter=",",
                                  comments=None, ndmin=2)
        except DomainError:
            raise
        except ValueError as exc:
            raise _loadtxt_error(exc, csv_path, columns) from None
    if len(data) and data.shape[1] != columns:
        # Every row has the same wrong width, so loadtxt saw no change.
        raise DomainError(f"{csv_path}:2: expected {columns} fields, got {data.shape[1]}")
    if abs(len(data) * dt - window) > 0.5 * dt:
        raise DomainError(
            f"{csv_path}: {len(data)} rows at dt={dt} do not cover T={window}"
        )
    # Viewing each re/im pair as one complex keeps every bit, signed zeros included.
    samples = np.ascontiguousarray(data[:, 1:]).view(complex).T
    return SignalMatrix(samples, dt=dt, whitened=meta["whitened"])


def _read_json(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise DomainError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# The JSON value each field kind accepts, what it reads as, and how an error
# names it. Kinds are spelled as the Python annotations of the fields they
# feed, so ExperimentConfig's and Tolerance's annotations serve directly.
_KINDS = {
    "float": (_is_number, float, "a number"),
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), int, "an integer"),
    "bool": (lambda v: isinstance(v, bool), bool, "true or false"),
    "str": (lambda v: isinstance(v, str), str, "a string"),
    "str | None": (lambda v: v is None or isinstance(v, str), lambda v: v, "a string or null"),
    "tuple": (lambda v: isinstance(v, list) and all(map(_is_number, v)),
              lambda v: tuple(map(float, v)), "a list of numbers"),
    "dict": (lambda v: isinstance(v, dict), dict, "an object"),
}


def _fields(doc: dict, where, kinds: dict, required=()) -> dict:
    """Check a JSON object's keys and value types; return it with its values typed.

    ``kinds`` maps every allowed key to a kind of ``_KINDS``. A float field
    takes any number and reads it as a float; an int field takes only an
    integer, never a truncated 2.5; true and false are never numbers.
    Raises DomainError naming ``where`` and the first bad field.
    """
    if not isinstance(doc, dict):
        raise DomainError(f"{where}: expected a JSON object, got {json.dumps(doc)}")
    unknown = set(doc) - set(kinds)
    if unknown:
        raise DomainError(f"{where}: unknown field(s) {sorted(unknown)}")
    for key in required:
        if key not in doc:
            raise DomainError(f"{where}: missing required field {key!r}")
    for key, value in doc.items():
        accepts, read, name = _KINDS[kinds[key]]
        if not accepts(value):
            raise DomainError(f"{where}: field {key!r} must be {name}, got {json.dumps(value)}")
        try:
            doc[key] = read(value)
        except OverflowError:  # an integer past the float range
            raise DomainError(f"{where}: field {key!r} is too large for a float") from None
    return doc


# ---------------------------------------------------------------------------
# Experiment config files
# ---------------------------------------------------------------------------

_CONFIG_KINDS = {f.name: f.type for f in fields(ExperimentConfig)}
_TOLERANCE_KINDS = {f.name: f.type for f in fields(Tolerance)}


def load_experiment_config(path) -> ExperimentConfig:
    """Parse an ExperimentConfig from a JSON file, rejecting unknown or mistyped fields."""
    doc = _fields(_read_json(path), path, _CONFIG_KINDS, required=("experiment",))
    tolerances = {}
    for name, spec in doc.pop("tolerances", {}).items():
        where = f"{path}: tolerance {name!r}"
        try:
            tolerances[name] = Tolerance(**_fields(spec, where, _TOLERANCE_KINDS,
                                                   required=_TOLERANCE_KINDS))
        except ConfigurationError as exc:
            raise DomainError(f"{where}: {exc}") from None
    return ExperimentConfig.defaults(doc.pop("experiment"), tolerances=tolerances, **doc)


# ---------------------------------------------------------------------------
# Simulation config files
# ---------------------------------------------------------------------------

_SIM_KINDS = {
    "kind": "str", "window": "float", "trials": "int", "units": "int", "rate0": "float",
    "kappa": "float", "phase_offset": "float", "frequency": "float", "depth": "float",
    "harmonic": "int", "signals": "dict",
}
_SIGNAL_KINDS = {
    "components": "tuple", "channels": "int", "dt": "float", "noise_kappa": "float",
    "whiten": "bool",
}


def _build_unit_model(sim: dict, unit_index: int):
    kind = sim.get("kind", "homogeneous")
    rate0 = sim.get("rate0", 20.0)
    window = sim["window"]
    if kind == "homogeneous":
        return HomogeneousRate(rate0)
    if kind == "vonmises":
        if "frequency" in sim:
            freq = sim["frequency"]
        else:
            comps = sim.get("signals", {}).get("components")
            if not comps:
                raise DomainError(
                    "vonmises simulation needs 'frequency' or a signals block with 'components'"
                )
            freq = comps[unit_index % len(comps)]
        return VonMisesRate(
            rate0, sim.get("kappa", 0.0), sim.get("phase_offset", 0.0), LinearPhase(freq, window),
        )
    if kind == "sinusoid":
        return SinusoidRate(
            rate0, sim.get("depth", 0.3), sim.get("harmonic", 1), sim.get("phase_offset", 0.0),
            window,
        )
    raise DomainError(f"unknown simulation kind {kind!r}")


def _cmd_simulate(args) -> int:
    sim = _fields(_read_json(args.config), args.config, _SIM_KINDS, required=("window", "trials"))
    if "signals" in sim:
        sim["signals"] = _fields(sim["signals"], f"{args.config}: signals", _SIGNAL_KINDS,
                                 required=("components", "dt"))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    window, trials = sim["window"], sim["trials"]

    signals = None
    if "signals" in sim:
        block = sim["signals"]
        signals = synthesize_oscillations(
            block["components"], window, block["dt"], block.get("noise_kappa", 0.0),
            block.get("channels", 1), rng,
        )
        if block.get("whiten", False):
            signals = whiten(signals)
        save_signals(signals, out / "signals.csv")

    trains = [
        simulate_poisson(_build_unit_model(sim, j), window, trials, rng).trains[0]
        for j in range(sim.get("units", 1))
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


_OPTION_KINDS = {"kappa": "float", "phase_offset": "float", "edge_margin": "float"}


def _cmd_analyze(args) -> int:
    if args.signals is None and args.phase is None:
        raise DomainError("analyze needs --signals and/or --phase")
    spikes = load_spikes(args.spikes)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    options = _fields(_read_json(args.config), args.config, _OPTION_KINDS) if args.config else {}

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
                    # The ratio-corrected law, as the harness judges the same residual.
                    law = plv_asymptotics_vonmises(
                        options["kappa"], options.get("phase_offset", 0.0), rate_hat,
                        spikes.window, ratio_correction=True,
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
        report = spectrum(normalize(raw, spikes), options.get("edge_margin", 0.0))
        (out / "spectrum.json").write_text(json.dumps({
            "eigenvalues": report.eigenvalues.tolist(),
            "singular_values": report.singular_values.tolist(),
            "alpha": report.mp.alpha,
            "mp_lower_edge": report.mp.lower_edge,
            "mp_upper_edge": report.mp.upper_edge,
            "mp_zero_atom": report.mp.zero_atom,
            "n_significant": report.n_significant,
            "ks_distance": report.ks_distance,
            "edge_margin": report.edge_margin,
        }, indent=2, sort_keys=True))
        from .specfun import mp_density

        esd = np.column_stack([report.eigenvalues, mp_density(report.mp, report.eigenvalues)])
        _write_csv(out / "esd.csv", ["eigenvalue", "mp_density"], [esd])
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
