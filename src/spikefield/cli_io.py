"""Command-line interface, data-file formats, and configuration parsing.

Spike trains serialize to JSON (ragged, diffable); signals to CSV with a
JSON metadata sidecar (rectangular, stream-friendly). Floats are written
with shortest round-trip formatting (``repr``), so serialize -> parse is
lossless, signed zeros included, and the determinism guarantees survive
file boundaries.

Every float written into ``signals.csv``, ``esd.csv`` and ``spikes.json``
goes through one vectorized kernel, ``_floattext.repr_lines``, which
writes the bytes of ``repr(float(v))`` for every value, exactly: an
integer shortest-digits path for 1e-4 <= |v| < 1e15 and ``repr`` itself
for the rest. ``save_spikes`` writes the bytes ``json.dumps`` writes for
the same document, and ``analyze`` writes ``coupling.json`` with
``json.dumps`` itself.

``analyze --signals`` takes the coupling matrix from
``multicoupling.whitened_coupling``, as the multivariate experiments do.
A file marked ``"whitened": true`` is taken as it is, and ``coupling.json``
holds its samples' matrix; for an unwhitened file it holds G^(-1/2) times
that matrix, G the Gram of the samples' piecewise-linear interpolant.
``coupling.json`` keeps every unit's column. A unit with no spike has no
rate to normalize by, so the spectrum is that of the units that spiked:
the bytes the same file without the silent units gives, with alpha =
channels / (units that spiked). ``spectrum.json`` names the silent units in
``silent_units``, and a file with no spiking unit is refused.

CSV files are written in blocks of rows. Each signal file is read once,
straight into the arrays the analysis uses. ``load_signals`` reads every
signal file with ``_floattext.read_rows``, one vectorized reader, into a
(q, 2p) table of the sample columns that the samples view without a copy.
It takes every file ``numpy.loadtxt(delimiter=",")`` takes, to the same
bits: LF, CRLF or lone-CR line ends, the last one optional, and fields
padded with Unicode whitespace, signed or in exponent form. ``load_spikes``
reads every spike file one way: ``json.loads``, the checks of its fields
(``t_start`` 0, ``t_end``, a list ``units`` of objects with a list
``trials``), then the ``SpikeData`` constructor, which checks the window
and every train.

A malformed signal file is reported as ``DomainError("<path>:<line>:
...")`` naming its first bad line in file order (the header is line 1):
a byte that is not UTF-8, a blank line (rejected, not skipped), a line of
the wrong field count, or a field that is not a number. Every line is
checked before the row count: a file of q rows is accepted when
|q * dt - T| <= dt / 2. The time column is read and dropped; the samples
must be finite. The sidecar's ``dt`` and ``T`` must be positive and
finite, and ``p`` at least 1.

Every JSON input (spikes, sidecar, the simulate and experiment configs and
the analyze options) is read by ``_read_json``, which reports as
``DomainError("<path>...")`` a file that cannot be read or is not UTF-8, a
syntax error with its line and column, a document nested too deeply for
the parser and an integer of more digits than ``int()`` converts.

The ``kappa`` option of ``analyze --phase`` adds the z fields of the von
Mises law, which holds over whole cycles only: it is refused when f*T of
the phase over the spikes' window is more than 1e-9 from an integer. Over
whole cycles that law reads the phase only through the expected count
rate0 T I0(kappa), so it is built once per file as the law of one
``_locked_rate`` unit at rate0 = T = 1 over one cycle, where the expected
count per trial is I0(kappa); the null variance ``null_cov_re`` is that
of one uncoupled unit at rate0 = T = 1. The z fields read the kappa law's
``ratio_corrected_cov``, as the harness's variance verdicts do. Every
entry of either covariance scales as 1/(expected count), so each unit
takes it times the law's expected count over the unit's estimated count
per trial, its spike total over K. No baseline rate is formed, so none
rounds to zero at a large kappa and a small mean rate.

Experiment configs. ``experiment --config`` reads one JSON object: the
``experiment``'s name, ``master_seed`` and the parameters its runner
reads, each defaulting to the experiment's published value. The bounds
its verdicts are judged by live only in ``harness.EXPERIMENTS``, and the
report is written only where ``--out`` says, so a config holds neither.
The report body depends on the config alone, whatever directory it is
written to.

Simulation configs. ``simulate --config`` reads one JSON object. Every
kind reads the common keys: ``window`` T and ``trials`` K (both required),
``units`` (default 1), ``kind`` (default "homogeneous") and an optional
``signals`` block of ``components`` and ``dt`` (both required),
``channels`` (default 1), ``noise_kappa`` (default 0, no phase noise) and
``whiten`` (default false). Each kind reads its own unit keys, with these
defaults, and refuses the keys it does not read:

    homogeneous   rate0 20
    vonmises      rate0 20, kappa 0, phase_offset 0, frequency (none)
    sinusoid      rate0 20, depth 0.3, harmonic 1, phase_offset 0

A vonmises unit is locked to ``frequency`` or, with none given, unit j to
component j mod len(components) of the signals block. At kappa = 0 it is
uncoupled and drawn as a homogeneous unit, which spends no thinning
uniforms; its phase_offset is checked but no model reads it. One
generator, numpy's ``default_rng(--seed)`` with a seed >= 0, draws
everything in this order: the signals' phase noise, then unit 0, 1, ...,
each unit all its trials at once (Poisson counts, exponential spacings,
then thinning uniforms unless the unit is homogeneous). An experiment's
replicate i draws the same things in the same order from
``default_rng(replicate_seed(master_seed, i))``. So with an experiment's
parameters (a univariate one as one vonmises unit at its frequency, a
multivariate one as vonmises units over its components, a null's at
kappa 0) and ``--seed replicate_seed(master_seed, i)``, ``simulate``
writes replicate i's draws, and ``analyze`` gives replicate i's
statistics: ``--phase`` its PLV, p-value and spike total, ``--signals``
its spectrum.

Exit codes: 0 success, 1 validation error (bad flags, malformed files,
rejected parameters, an ``--out`` that is not a directory, arrays too
large for memory), 2 numerical error. A FAIL verdict inside an
experiment report does not change the exit code.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .errors import DomainError, NumericalError
from .harness import ExperimentConfig, run_experiment
from .multicoupling import normalize, spectrum, whitened_coupling
from .pointproc import HomogeneousRate, SinusoidRate, SpikeData, _locked_rate, _simulate_units
from .signals import (
    LinearPhase,
    SignalMatrix,
    _check_whole_cycles,
    _check_window,
    synthesize_oscillations,
    whiten,
)
from .specfun import mp_density
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
    """Write the bytes ``json.dumps`` writes for the document

    {"t_start": 0.0, "t_end": T, "units": [{"id": j, "trials": [[t, ...], ...]}, ...]}.
    """
    from ._floattext import repr_lines  # loaded only by the commands that write floats

    blob, lengths = repr_lines(spikes.times[:, None], b"", b", ")
    # Byte bounds of each train, each time followed by ", ".
    bounds = np.zeros(lengths.size + 1, np.int64)
    np.cumsum(lengths, out=bounds[1:])
    bounds = bounds[spikes.offsets].tolist()
    trains = [b"[" + blob[a:z - 2] + b"]" if z > a else b"[]"
              for a, z in zip(bounds[:-1], bounds[1:])]
    k = spikes.n_trials
    units = [b'{"id": %d, "trials": [' % j + b", ".join(trains[j * k:(j + 1) * k]) + b"]}"
             for j in range(spikes.n_units)]
    head = b'{"t_start": 0.0, "t_end": ' + json.dumps(spikes.window).encode() + b', "units": ['
    Path(path).write_bytes(head + b", ".join(units) + b"]}")


def load_spikes(path) -> SpikeData:
    """Read a spike file into a SpikeData: ``json.loads``, then the constructor.

    The file must hold a JSON object with ``t_start`` 0, ``t_end`` and a
    list ``units``, each unit an object with a list ``trials`` of trains;
    other keys and the ids are not read. ``SpikeData(t_end, trains)`` then
    checks the window, the equal trial counts and every train. Each refusal
    is a DomainError that names the path, as are the errors of
    ``_read_json``: a file that cannot be read or is not UTF-8, a JSON
    syntax error, a document nested too deeply for the parser, or an
    integer of more digits than Python converts.
    """
    doc = _read_json(path)
    for key in ("t_start", "t_end", "units"):
        if key not in doc:
            raise DomainError(f"{path}: missing required field {key!r}")
    if not _is_number(doc["t_start"]) or doc["t_start"] != 0.0:
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


_CSV_BLOCK_ROWS = 1024  # rows built and written at once; bounds the float table alive


def _write_csv(path, header, blocks) -> None:
    """Write a CSV of floats: a header line, then the rows of each 2-D block.

    Every field is ``repr`` of the float and every line ends in CRLF, as
    ``csv.writer`` writes them.
    """
    from ._floattext import repr_lines  # loaded only by the commands that write floats

    with open(path, "wb") as fh:
        fh.write(",".join(header).encode() + b"\r\n")
        for block in blocks:
            fh.write(repr_lines(block, b",", b"\r\n")[0])


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


_SIDECAR_KINDS = {"dt": "float", "T": "float", "p": "int", "whitened": "bool"}
_HEADER = re.compile(rb"([^\r\n]*)(?:\r\n?|\n)?")  # the first line, then its line end


def _row_capacity(dt: float, window: float, most: int) -> int:
    """The largest row count q <= most that covers T, |q * dt - T| <= dt / 2, or 0 if none does."""
    q = round(min(window / dt, most + 1))  # past most + 1, no such q fits
    return max((k for k in (q - 1, q, q + 1) if 0 <= k <= most and abs(k * dt - window) <= 0.5 * dt),
               default=0)


def load_signals(csv_path) -> SignalMatrix:
    sidecar = _sidecar(csv_path)
    meta = _fields(_read_json(sidecar), sidecar, _SIDECAR_KINDS, required=_SIDECAR_KINDS)
    for key in ("dt", "T"):
        _check_window(meta[key], f"{sidecar}: field {key!r}")
    if meta["p"] < 1:
        raise DomainError(f"{sidecar}: field 'p' must be at least 1, got {meta['p']}")
    dt, window, p = meta["dt"], meta["T"], meta["p"]
    columns = 1 + 2 * p
    from ._floattext import BadLine, read_rows  # loaded only by the commands that read signals

    with open(csv_path, "rb") as fh:
        first = fh.readline(1 << 16)
        # Read on until the header's line end is known: an LF, or a CR with a byte after it.
        while not (first.endswith(b"\n") or b"\r" in first[:-1]) and (part := fh.readline(1 << 16)):
            first += part
        head = _HEADER.match(first)
        if not head[0]:
            raise DomainError(f"{csv_path}: empty file")
        try:
            n_header = head[1].decode().count(",") + 1
        except UnicodeDecodeError:
            raise _not_utf8(csv_path) from None
        if n_header != columns:
            raise DomainError(
                f"{csv_path}: header has {n_header} columns, expected {columns} for {p} channels"
            )
        # A line holds at least 2 * columns - 1 bytes and a line end, but the last may have none.
        most = (fh.seek(0, 2) - head.end() + 1) // (2 * columns)
        fh.seek(head.end())
        try:
            table, rows, finite = read_rows(fh, _row_capacity(dt, window, most), columns)
        except BadLine as bad:
            raise _bad_line(csv_path, bad, columns) from None
    if abs(rows * dt - window) > 0.5 * dt:
        raise DomainError(f"{csv_path}: {rows} rows at dt={dt} do not cover T={window}")
    # Viewing each re/im pair as one complex keeps every bit, signed zeros included.
    samples = table[:rows].view(complex).T
    if finite and rows >= 2:
        return SignalMatrix._adopt(samples, dt, meta["whitened"])
    # Refused with the constructor's message: too few samples, or one not finite.
    return SignalMatrix(samples, dt=dt, whitened=meta["whitened"])


def _bad_byte(where, line: bytes, exc: UnicodeDecodeError) -> DomainError:
    return DomainError(f"{where}: byte {line[exc.start]:#04x} is not UTF-8")


def _bad_line(csv_path, bad, columns: int) -> DomainError:
    """The error for the first line of a signal file's body that ``read_rows`` refuses."""
    index, text, field = bad.args
    where = f"{csv_path}:{index + 2}"  # the header is line 1
    try:
        line = text.decode()
    except UnicodeDecodeError as exc:
        return _bad_byte(where, text, exc)
    if not line.strip():
        return DomainError(f"{where}: blank line")
    if field is None:
        return DomainError(f"{where}: expected {columns} fields, got {line.count(',') + 1}")
    value = repr(line.split(",")[field])[:100]  # as numpy.loadtxt reports it
    return DomainError(f"{where}: field {field + 1}: could not convert string {value} to float64")


def _not_utf8(path) -> DomainError:
    """The error for a file that is not UTF-8 text, naming the line of its first bad byte."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.decode()
            except UnicodeDecodeError as exc:
                return _bad_byte(f"{path}:{lineno}", line, exc)
    return DomainError(f"{path}: not UTF-8 text")  # the file changed since it was read


def _read_json(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise DomainError(f"{path}: JSON nested too deeply to read") from None
    except ValueError as exc:  # an integer past int()'s digit limit
        raise DomainError(f"{path}: {str(exc).partition(';')[0]}") from None
    if not isinstance(doc, dict):
        raise DomainError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# The JSON value each field kind accepts, what it reads as, and how an error
# names it. Kinds are spelled as the Python annotations of the fields they
# feed, so ExperimentConfig's annotations serve directly.
_KINDS = {
    "float": (_is_number, float, "a number"),
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), int, "an integer"),
    "bool": (lambda v: isinstance(v, bool), bool, "true or false"),
    "str": (lambda v: isinstance(v, str), str, "a string"),
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


def load_experiment_config(path) -> ExperimentConfig:
    """Parse an ExperimentConfig from a JSON file, rejecting unknown or mistyped fields."""
    doc = _fields(_read_json(path), path, _CONFIG_KINDS, required=("experiment",))
    try:
        return ExperimentConfig(**doc)
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Simulation config files
# ---------------------------------------------------------------------------

_SIM_KINDS = {
    "kind": "str", "window": "float", "trials": "int", "units": "int", "signals": "dict",
    "rate0": "float", "kappa": "float", "phase_offset": "float", "frequency": "float",
    "depth": "float", "harmonic": "int",
}
_SIM_COMMON = ("kind", "window", "trials", "units", "signals")  # read by every kind
_SIGNAL_KINDS = {
    "components": "tuple", "channels": "int", "dt": "float", "noise_kappa": "float",
    "whiten": "bool",
}


def _vonmises_models(window, components, rate0, kappa, phase_offset, frequency):
    """One model per locking frequency: ``frequency``, else each signal component."""
    frequencies = components if frequency is None else (frequency,)
    if not frequencies:
        raise DomainError("vonmises simulation needs 'frequency' or a signals block with 'components'")
    return [_locked_rate(rate0, kappa, phase_offset, LinearPhase(f, window)) for f in frequencies]


# Each simulation kind, declared once: the unit keys it reads, with their
# defaults, and the builder of its models from them, called as
# build(window, components, **keys). Unit j takes model j mod len(models).
_SIMULATIONS = {
    "homogeneous": ({"rate0": 20.0}, lambda window, components, **keys: [HomogeneousRate(**keys)]),
    "vonmises": ({"rate0": 20.0, "kappa": 0.0, "phase_offset": 0.0, "frequency": None},
                 _vonmises_models),
    "sinusoid": ({"rate0": 20.0, "depth": 0.3, "harmonic": 1, "phase_offset": 0.0},
                 lambda window, components, **keys: [SinusoidRate(window=window, **keys)]),
}


def _cmd_simulate(args) -> int:
    if args.seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {args.seed}")
    sim = _fields(_read_json(args.config), args.config, _SIM_KINDS, required=("window", "trials"))
    if "signals" in sim:
        sim["signals"] = _fields(sim["signals"], f"{args.config}: signals", _SIGNAL_KINDS,
                                 required=("components", "dt"))
    kind = sim.get("kind", "homogeneous")
    if kind not in _SIMULATIONS:
        raise DomainError(f"unknown simulation kind {kind!r}; expected one of {sorted(_SIMULATIONS)}")
    defaults, build = _SIMULATIONS[kind]
    unread = set(sim) - set(_SIM_COMMON) - set(defaults)
    if unread:
        raise DomainError(f"{args.config}: {kind} simulation reads no field(s) {sorted(unread)}; "
                          f"it reads {sorted([*_SIM_COMMON, *defaults])}")
    rng = np.random.default_rng(args.seed)
    window, trials = sim["window"], sim["trials"]

    # Everything is drawn, signals first, before anything is written.
    signals, block = None, sim.get("signals", {})
    if block:
        signals = synthesize_oscillations(
            block["components"], window, block["dt"], block.get("noise_kappa", 0.0),
            block.get("channels", 1), rng,
        )
        if block.get("whiten", False):
            signals = whiten(signals)
    models = build(window, block.get("components", ()),
                   **{key: sim.get(key, value) for key, value in defaults.items()})
    spikes = _simulate_units(models, sim.get("units", 1), window, trials, rng)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if signals is not None:
        save_signals(signals, out / "signals.csv")
    save_spikes(spikes, out / "spikes.json")
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


_OPTION_KINDS = {"kappa": "float", "phase_offset": "float"}


def _unit_law(kappa, phase_offset):
    """The von Mises law of a unit at rate0 = T = 1 over one cycle: expected count I0(kappa)."""
    phase = LinearPhase(1.0, 1.0)
    return plv_asymptotics_vonmises(phase, _locked_rate(1.0, kappa, phase_offset, phase))


def _cmd_analyze(args) -> int:
    if args.signals is None and args.phase is None:
        raise DomainError("analyze needs --signals and/or --phase")
    options = _fields(_read_json(args.config), args.config, _OPTION_KINDS) if args.config else {}
    # An option needs what gives it an effect: phase_offset needs kappa, which needs --phase.
    for key, needs, given in (("kappa", "--phase", args.phase is not None),
                              ("phase_offset", "'kappa'", "kappa" in options)):
        if key in options and not given:
            raise DomainError(f"{args.config}: option {key!r} needs {needs}")
    spikes = load_spikes(args.spikes)
    # Every output is built before any is written, so a refused input leaves none behind.
    texts, esd = {}, None

    if args.phase is not None:
        phase = _parse_phase_flag(args.phase, spikes.window)
        law, null_law = None, _unit_law(0.0, 0.0)
        if "kappa" in options:  # the von Mises law holds over whole cycles only
            _check_whole_cycles(phase)
            law = _unit_law(options["kappa"], options.get("phase_offset", 0.0))
        totals = spikes.counts().sum(axis=1)
        units = []
        for j in range(spikes.n_units):
            total = int(totals[j])
            entry = {"id": j, "total_spikes": total}
            if total == 0:
                entry["plv"] = None
            else:
                plv = estimate_plv(phase, spikes, unit=j)
                # Each covariance scales as 1 / (expected count): here the unit's
                # estimated count per trial.
                count = total / spikes.n_trials
                entry.update({
                    "plv_re": plv.real,
                    "plv_im": plv.imag,
                    "plv_modulus": abs(plv),
                    "p_null": plv_null_test(plv, total),
                    "estimated_rate": total / (spikes.n_trials * spikes.window),
                    "null_cov_re": null_law.cov[0, 0] * null_law.expected_events / count,
                })
                if law is not None:
                    # Its ratio-corrected covariance, as the harness judges the same residual.
                    var = law.ratio_corrected_cov.diagonal() * law.expected_events / count
                    z = law.rotated_residuals(np.array([plv]), spikes.n_trials)[0]
                    entry.update({
                        "law_limit_re": law.limit.real,
                        "law_limit_im": law.limit.imag,
                        "z_re": z.real / np.sqrt(var[0]),
                        "z_im": z.imag / np.sqrt(var[1]),
                    })
            units.append(entry)
        doc = {"frequency": phase.frequency, "window": spikes.window, "units": units}
        texts["univariate.json"] = json.dumps(doc, indent=2, sort_keys=True)

    if args.signals is not None:
        signals = load_signals(args.signals)
        raw = whitened_coupling(signals, spikes)
        texts["coupling.json"] = json.dumps({
            "channels": raw.n_channels,
            "units": raw.n_units,
            "trials": raw.trials,
            "window": raw.window,
            "entries_re": raw.entries.real.tolist(),
            "entries_im": raw.entries.imag.tolist(),
        }, sort_keys=True)
        silent = np.flatnonzero(spikes.counts().sum(axis=1) == 0).tolist()
        if not silent:
            report = spectrum(normalize(raw, spikes))
        elif len(silent) == spikes.n_units:
            raise DomainError(f"no unit has a spike: all {spikes.n_units} unit(s) are silent")
        else:
            # A silent unit has no rate estimate: the spectrum is that of the file without it.
            active = SpikeData(spikes.window, [train for j, train in enumerate(spikes.trains)
                                               if j not in silent])
            report = spectrum(normalize(whitened_coupling(signals, active), active))
        texts["spectrum.json"] = json.dumps({
            "silent_units": silent,
            "eigenvalues": report.eigenvalues.tolist(),
            "singular_values": report.singular_values.tolist(),
            "alpha": report.mp.alpha,
            "mp_lower_edge": report.mp.lower_edge,
            "mp_upper_edge": report.mp.upper_edge,
            "mp_zero_atom": report.mp.zero_atom,
            "n_significant": report.n_significant,
            "ks_distance": report.ks_distance,
        }, indent=2, sort_keys=True)
        esd = np.column_stack([report.eigenvalues, mp_density(report.mp, report.eigenvalues)])

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (out / name).write_text(text)
    if esd is not None:
        _write_csv(out / "esd.csv", ["eigenvalue", "mp_density"], [esd])
    print(f"analysis written to {out}")
    return 0


def _cmd_experiment(args) -> int:
    config = load_experiment_config(args.config)
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    report = run_experiment(config)
    if args.out is not None:
        report.write(args.out)
    for line in report.summary_lines():
        print(line)
    status = "all criteria PASS" if report.all_passed else "some criteria FAIL (see report)"
    where = f"; report in {args.out}" if args.out else ""
    print(f"{report.experiment}: {status}{where}")
    return 0


def _check_out(path) -> None:
    """Refuse an ``--out`` that is, or lies under, an existing file that is not a directory."""
    where = next((p for p in (Path(path), *Path(path).parents) if p.exists()), Path(path))
    if not where.is_dir():
        raise DomainError(f"--out {path}: {where} is not a directory")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spikefield",
        description="Simulate and analyze spike-field coupling with closed-form laws "
                    "and Marchenko-Pastur significance testing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    doc = __doc__ or ""  # python -OO strips the docstring that holds the config schema
    p_sim = sub.add_parser("simulate", help="simulate spike trains and signals to files",
                           description=doc[doc.find("Simulation configs."):doc.find("\n\nExit codes")],
                           formatter_class=argparse.RawDescriptionHelpFormatter)
    p_sim.add_argument("--config", required=True, help="simulation config JSON")
    p_sim.add_argument("--seed", type=int, default=0, help="master seed, at least 0 (default 0)")
    p_sim.add_argument("--out", required=True, help="output directory")

    p_an = sub.add_parser("analyze", help="estimate coupling from data files")
    p_an.add_argument("--spikes", required=True, help="spike JSON file")
    p_an.add_argument("--signals", help="signal CSV file (with JSON sidecar)")
    p_an.add_argument("--phase", help="phase model, e.g. linear:1.0")
    p_an.add_argument("--config", help="optional options JSON: the law's kappa and phase_offset")
    p_an.add_argument("--out", required=True, help="output directory")

    p_ex = sub.add_parser("experiment", help="run a named Monte Carlo experiment")
    p_ex.add_argument("--config", required=True, help="experiment config JSON")
    p_ex.add_argument("--seed", type=int, help="override the master seed")
    p_ex.add_argument("--out", help="output directory of report.json and the plot CSVs")

    args = parser.parse_args(argv)
    try:
        if args.out is not None:  # before anything is drawn
            _check_out(args.out)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        return _cmd_experiment(args)
    except (DomainError, MemoryError) as exc:  # numpy's MemoryError names the array it missed
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
