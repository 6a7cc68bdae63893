"""Tests for file formats and the command-line interface."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import spikefield
from spikefield import _floattext, cli_io, harness
from spikefield.cli_io import (
    load_experiment_config,
    load_signals,
    load_spikes,
    main,
    save_signals,
    save_spikes,
)
from spikefield.errors import DomainError
from spikefield.harness import EXPERIMENTS, ExperimentConfig, Tolerance, replicate_seed, run_experiment
from spikefield.multicoupling import build_coupling_matrix, normalize, spectrum
from spikefield.pointproc import HomogeneousRate, SpikeData, simulate_poisson
from spikefield.signals import SignalMatrix, synthesize_oscillations, whiten

from oracles import bessel_quadrature, loadtxt_rows, two_step_whitening


def _sample_spikes(units=2, trials=3, seed=0):
    rng = np.random.default_rng(seed)
    trains = [
        simulate_poisson(HomogeneousRate(25.0), 2.0, trials, rng).trains[0]
        for _ in range(units)
    ]
    return SpikeData(window=2.0, trains=trains)


class TestSpikeRoundTrip:
    def test_lossless(self, tmp_path):
        sd = _sample_spikes()
        path = tmp_path / "spikes.json"
        save_spikes(sd, path)
        back = load_spikes(path)
        assert back.window == sd.window
        assert back.n_units == sd.n_units and back.n_trials == sd.n_trials
        for unit_a, unit_b in zip(sd.trains, back.trains):
            for a, b in zip(unit_a, unit_b):
                assert np.array_equal(a, b)  # bit-exact float round trip

    def test_malformed_json_diagnostics(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"t_start": 0,\n  "oops"')
        with pytest.raises(DomainError, match=r"bad\.json:\d+:\d+"):
            load_spikes(path)

    @pytest.mark.parametrize("text", ["5", "[]", '"spikes"'])
    def test_top_level_must_be_an_object(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(DomainError, match=r"bad\.json: expected a JSON object"):
            load_spikes(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"t_start": 0, "units": []}))
        with pytest.raises(DomainError, match="t_end"):
            load_spikes(path)

    def test_unsorted_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "t_start": 0, "t_end": 1.0,
            "units": [{"id": 0, "trials": [[0.5, 0.2]]}],
        }))
        with pytest.raises(DomainError, match="unit 0 trial 0"):
            load_spikes(path)


class TestSpikeFileFormat:
    """``save_spikes`` writes the bytes ``json.dumps`` writes for the same document."""

    @staticmethod
    def _json_dumps(spikes):
        return json.dumps({
            "t_start": 0.0,
            "t_end": spikes.window,
            "units": [{"id": j, "trials": [t.tolist() for t in unit]}
                      for j, unit in enumerate(spikes.trains)],
        })

    def test_empty_trial_and_silent_unit(self, tmp_path):
        spikes = SpikeData(window=2.0, trains=[
            [[0.0, 0.1, 1.5], [], [2.0]],
            [[], [], []],
            [[1e-5, 0.25, 1.0000000000000002], [0.3], []],
        ])
        save_spikes(spikes, tmp_path / "s.json")
        assert (tmp_path / "s.json").read_bytes() == self._json_dumps(spikes).encode()

    def test_no_spikes_at_all(self, tmp_path):
        spikes = SpikeData(window=1.5, trains=[[[]]])
        save_spikes(spikes, tmp_path / "s.json")
        assert (tmp_path / "s.json").read_text() == self._json_dumps(spikes)

    def test_many_spikes_across_blocks(self, tmp_path):
        # More times than one formatting block holds.
        rng = np.random.default_rng(11)
        trains = [simulate_poisson(HomogeneousRate(2000.0), 3.0, 4, rng).trains[0]
                  for _ in range(3)]
        spikes = SpikeData(window=3.0, trains=trains)
        assert spikes.times.size > 2 * _floattext.BLOCK
        save_spikes(spikes, tmp_path / "s.json")
        assert (tmp_path / "s.json").read_text() == self._json_dumps(spikes)


class TestSignalRoundTrip:
    def test_lossless(self, tmp_path):
        rng = np.random.default_rng(1)
        sig = synthesize_oscillations([2.0, 3.0], window=2.0, dt=1 / 64,
                                      phase_noise_kappa=4.0, channels=3, rng=rng)
        path = tmp_path / "signals.csv"
        save_signals(sig, path)
        back = load_signals(path)
        assert back.dt == sig.dt
        assert back.whitened == sig.whitened
        assert np.array_equal(back.samples, sig.samples)

    def test_row_count_checked(self, tmp_path):
        sig = SignalMatrix(np.ones((1, 8), dtype=complex), dt=0.125)
        path = tmp_path / "signals.csv"
        save_signals(sig, path)
        meta = json.loads((tmp_path / "signals.json").read_text())
        meta["T"] = 9.0
        (tmp_path / "signals.json").write_text(json.dumps(meta))
        with pytest.raises(DomainError, match="do not cover"):
            load_signals(path)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_sample_refused(self, tmp_path, text):
        save_signals(SignalMatrix(np.ones((1, 4), dtype=complex), dt=0.25), tmp_path / "s.csv")
        lines = (tmp_path / "s.csv").read_text().splitlines()
        lines[2] = lines[2].replace("1.0", text, 1)
        (tmp_path / "s.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(DomainError, match="signal samples must be finite"):
            load_signals(tmp_path / "s.csv")

    def test_bad_value_diagnostics(self, tmp_path):
        sig = SignalMatrix(np.ones((1, 8), dtype=complex), dt=0.125)
        path = tmp_path / "signals.csv"
        save_signals(sig, path)
        lines = path.read_text().splitlines()
        lines[3] = lines[3].replace(lines[3].split(",")[1], "not-a-number", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DomainError, match=r"signals\.csv:4"):
            load_signals(path)



def _pinned_signals():
    # Signed zeros, the smallest subnormal, huge and inexact values, and
    # negative imaginary parts: every case where a formatter could differ
    # from shortest round-trip repr.
    samples = np.array([
        [complex(-0.0, 1.0), complex(5e-324, -0.1), complex(1e300, -2.5), complex(0.1, -0.0)],
        [complex(1.0, -1e300), complex(-1.5, 0.0), complex(2.0, -5e-324), complex(-0.0, -0.0)],
    ])
    return SignalMatrix(samples, dt=0.1)


def _short_file(tmp_path, text):
    """A one-channel, four-sample signal file whose CSV text (str or bytes) is ``text``."""
    save_signals(SignalMatrix(np.ones((1, 4), dtype=complex), dt=0.25), tmp_path / "signals.csv")
    (tmp_path / "signals.csv").write_bytes(text if isinstance(text, bytes) else text.encode())
    return tmp_path / "signals.csv"


class TestSignalFileFormat:
    """The bytes of signals.csv and how the loader reports a malformed one."""

    def test_bytes_pinned(self, tmp_path):
        sig = _pinned_signals()
        path = tmp_path / "signals.csv"
        save_signals(sig, path)
        assert path.read_bytes() == (
            b"time,ch0_re,ch0_im,ch1_re,ch1_im\r\n"
            b"0.0,-0.0,1.0,1.0,-1e+300\r\n"
            b"0.1,5e-324,-0.1,-1.5,0.0\r\n"
            b"0.2,1e+300,-2.5,2.0,-5e-324\r\n"
            b"0.30000000000000004,0.1,-0.0,-0.0,-0.0\r\n"
        )
        assert json.loads((tmp_path / "signals.json").read_text()) == {
            "dt": 0.1, "T": 0.4, "p": 2, "whitened": False,
        }
        back = load_signals(path)
        assert np.array_equal(back.samples, sig.samples)
        for part in ("real", "imag"):
            assert np.array_equal(np.signbit(getattr(back.samples, part)),
                                  np.signbit(getattr(sig.samples, part)))

    def test_short_row_names_its_line(self, tmp_path):
        path = _short_file(tmp_path, "time,ch0_re,ch0_im\n0.0,1.0,0.0\n0.25,1.0,0.0\n"
                                     "0.5,1.0,0.0\n0.75,1.0\n")
        with pytest.raises(DomainError, match=r"signals\.csv:5: expected 3 fields, got 2"):
            load_signals(path)

    def test_long_row_names_its_line(self, tmp_path):
        path = _short_file(tmp_path, "time,ch0_re,ch0_im\n0.0,1.0,0.0\n0.25,1.0,0.0,7.0\n"
                                     "0.5,1.0,0.0\n0.75,1.0,0.0\n")
        with pytest.raises(DomainError, match=r"signals\.csv:3: expected 3 fields, got 4"):
            load_signals(path)

    def test_short_first_row_names_line_two(self, tmp_path):
        path = _short_file(tmp_path, "time,ch0_re,ch0_im\n0.0,1.0\n0.25,1.0,0.0\n"
                                     "0.5,1.0,0.0\n0.75,1.0,0.0\n")
        with pytest.raises(DomainError, match=r"signals\.csv:2: expected 3 fields, got 2"):
            load_signals(path)

    def test_every_row_one_field_short(self, tmp_path):
        path = _short_file(tmp_path, "time,ch0_re,ch0_im\n0.0,1.0\n0.25,1.0\n0.5,1.0\n0.75,1.0\n")
        with pytest.raises(DomainError, match=r"signals\.csv:2: expected 3 fields, got 2"):
            load_signals(path)

    def test_bad_value_on_last_line(self, tmp_path):
        path = _short_file(tmp_path, "time,ch0_re,ch0_im\r\n0.0,1.0,0.0\r\n0.25,1.0,0.0\r\n"
                                     "0.5,1.0,0.0\r\n0.75,1.0,x\r\n")
        with pytest.raises(DomainError, match=r"signals\.csv:5:.*'x'"):
            load_signals(path)

    def test_blank_line_rejected(self, tmp_path):
        path = _short_file(tmp_path, "time,ch0_re,ch0_im\n0.0,1.0,0.0\n0.25,1.0,0.0\n\n"
                                     "0.5,1.0,0.0\n0.75,1.0,0.0\n")
        with pytest.raises(DomainError, match=r"signals\.csv:4:"):
            load_signals(path)

    def test_header_only(self, tmp_path):
        path = _short_file(tmp_path, "time,ch0_re,ch0_im\r\n")
        with pytest.raises(DomainError, match="0 rows .* do not cover"):
            load_signals(path)

    def test_empty_file(self, tmp_path):
        path = _short_file(tmp_path, "")
        with pytest.raises(DomainError, match="empty file"):
            load_signals(path)

    def test_header_width_checked(self, tmp_path):
        path = _short_file(tmp_path, "time,ch0_re\n0.0,1.0\n")
        with pytest.raises(DomainError, match="header has 2 columns, expected 3"):
            load_signals(path)


def _bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


def _signal_files():
    """Signal matrices of every kind save_signals writes, by name."""
    rng = np.random.default_rng(21)
    bits = rng.integers(0, 2 ** 64, 4_000, dtype=np.uint64).view(np.float64)
    bits = bits[np.isfinite(bits)][:3_000]
    return {
        "pinned": _pinned_signals(),
        "whitened": whiten(synthesize_oscillations([4.0, 5.0], 2.0, 1 / 64, 5.0, 6, rng)),
        "raw": synthesize_oscillations([3.0], 1.0, 1 / 128, 0.5, 3, rng),
        "any bits": SignalMatrix(bits.view(complex).reshape(3, -1), dt=0.25),
        "scaled": SignalMatrix(rng.standard_normal((4, 300)) * 1e9 + 1j * 1e-7, dt=1 / 300),
        "zeros": SignalMatrix(np.zeros((2, 5), complex), dt=0.2),
        # Fields whose point is not the second byte after the sign: "e+" exponents,
        # whole parts of 2 to 16 digits, and no point at all.
        "wide": SignalMatrix(np.array([
            [1.5e300 - 2e16j, 12.5 - 123456.75j, 1e-5 + 5e-324j, 1e22 - 9999999999999998j],
            [-7e15 + 1e100j, 99.25 + 10.0j, -3e-7 - 2.5e-310j, 1234567890.125 + 0j],
        ]), dt=0.25),
    }


# Bodies of a one-channel, four-row signal file in forms save_signals does not
# write: each is read to numpy.loadtxt's bits, or refused on the line it names.
_ODD_BODIES = {
    "lf": b"0.0,1.0,0.0\n0.25,-2.5,1e-05\n0.5,1.5e+300,-0.0\n0.75,0.1,3.0\n",
    "cr": b"0.0,1.0,0.0\r0.25,-2.5,1e-05\r0.5,1.5e+300,-0.0\r0.75,0.1,3.0\r",
    "mixed-line-ends": b"0.0,1.0,0.0\n0.25,-2.5,1e-05\r\n0.5,1.5e+300,-0.0\r0.75,0.1,3.0\r\n",
    "no-final-line-end": b"0.0,1.0,0.0\r\n0.25,-2.5,1e-05\r\n0.5,1.5,-0.0\r\n0.75,0.1,3.0",
    "padding": b" 0.0 ,\t1.0\t, 0.0\n0.25 , -2.5,1e-05 \n0.5,  1.5 ,-0.0\n0.75,0.1,3.0  \n",
    "nbsp": b"0.0,\xc2\xa01.0,0.0\xc2\xa0\n0.25,-2.5,1e-05\n0.5,1.5,-0.0\n0.75,0.1,3.0\n",
    "vertical-tab-and-form-feed": b"0.0,\x0b1.0,0.0\x0c\n0.25,-2.5,1e-05\n0.5,1.5,-0.0\n0.75,0.1,3.0\n",
    "separator-controls": b"\x1c0.0,1.0\x1f,0.0\n0.25,-2.5,1e-05\n0.5,1.5,-0.0\n0.75,0.1,3.0\n",
    "unicode-spaces": b"0.0,\xe3\x80\x801.0,0.0\xe2\x80\xa8\n0.25,-2.5,1e-05\n0.5,1.5,-0.0\n0.75,0.1,3.0\n",
    "signs-and-exponents": b"+0.0,+1.5,-.5\n0.25,5.,1E5\n0.5,.5e-3,1e+22\n0.75,00.5,-0\n",
    "non-finite-times": b"nan,1.0,0.0\n-Infinity,1.0,0.0\n+iNF,1.0,0.0\n-1e400,1.0,0.0\n",
    "long-digits": b"0.0,0.1000000000000000055511151231257827021181583404541015625,1.0\n"
                   b"0.25,123456789012345678901234567890.5,0.0\n0.5,1.5,-0.0\n0.75,0.1,3.0\n",
    "blank-line": b"0.0,1.0,0.0\n\n0.25,-2.5,1e-05\n0.5,1.5,-0.0\n0.75,0.1,3.0\n",
    "whitespace-line": b"0.0,1.0,0.0\r\n \t\r\n0.25,-2.5,1e-05\r\n0.5,1.5,-0.0\r\n0.75,0.1,3.0\r\n",
    "nbsp-line": b"0.0,1.0,0.0\n0.25,-2.5,1e-05\n\xc2\xa0\n0.5,1.5,-0.0\n0.75,0.1,3.0\n",
    "cr-cr-lf": b"0.0,1.0,0.0\r\r\n0.25,-2.5,1e-05\r\n0.5,1.5,-0.0\r\n0.75,0.1,3.0\r\n",
    "byte-between-cr-and-lf": b"0.0,1.0,0.0\r5\n0.25,-2.5,1e-05\n0.5,1.5,-0.0\n0.75,0.1,3.0\n",
    "short-first-row": b"0.0,1.0\n0.25,-2.5,1e-05\n0.5,1.5,-0.0\n0.75,0.1,3.0\n",
    "short-row": b"0.0,1.0,0.0\n0.25,-2.5\n0.5,1.5,-0.0\n0.75,0.1,3.0\n",
    "trailing-comma": b"0.0,1.0,0.0\n0.25,-2.5,1e-05,\n0.5,1.5,-0.0\n0.75,0.1,3.0\n",
    "not-utf8": b"0.0,1.0,0.0\n0.25,\xff2.5,1e-05\n0.5,1.5,-0.0\n0.75,0.1,3.0\n",
    "nul-line": b"0.0,1.0,0.0\n0.25,-2.5,1e-05\n\x00\n0.5,1.5,-0.0\n0.75,0.1,3.0\n",
    "junk-time": b"0.0,1.0,0.0\n1.2.3,-2.5,1e-05\n0.5,1.5,-0.0\n0.75,0.1,3.0\n",
    **{name: b"0.0,1.0,0.0\n0.25,-2.5,1e-05\n0.5,1.5,%s\n0.75,0.1,3.0\n" % field for name, field in [
        ("word", b"x"), ("empty-field", b""), ("underscore", b"1_0"), ("hex", b"0x10"),
        ("inner-minus", b"1-2.0"), ("two-points", b"1.2.3"), ("nul", b"\x00"), ("bare-exponent", b"1e"),
        ("nan-payload", b"nan(1)"), ("quoted", b'"2"'), ("non-ascii", b"\xc3\xa9"),
        ("inner-space", b"1 2"), ("lone-sign", b"-"), ("lone-point", b"."), ("long-junk", b"y" * 200),
        # Bytes next to the digits, which the integer path's digit test must refuse.
        ("colon-fraction", b"1.2:"), ("colon-whole", b":.5"), ("slash", b"1./"), ("minus-point", b"-."),
    ]},
}


class TestSignalReader:
    """load_signals reads every signal file with one reader, to numpy.loadtxt's bits or refusal."""

    @pytest.mark.parametrize("name", list(_signal_files()))
    def test_written_files_skip_loadtxt(self, tmp_path, monkeypatch, name):
        def refuse(*args, **kwargs):
            raise AssertionError("read by numpy.loadtxt")

        sig = _signal_files()[name]
        path = tmp_path / "signals.csv"
        save_signals(sig, path)
        reference = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        monkeypatch.setattr(np, "loadtxt", refuse)
        back = load_signals(path)
        assert np.array_equal(_bits(back.samples), _bits(sig.samples))
        assert np.array_equal(_bits(back.samples.T), _bits(reference[:, 1:]))
        assert (back.dt, back.whitened) == (sig.dt, sig.whitened)

    @pytest.mark.parametrize("end", [b"\n", b"\r", b"\r\n"], ids=["lf", "cr", "crlf"])
    def test_any_header_line_end(self, tmp_path, end):
        # A header ended by a lone CR is followed by a data row, ended by CRLF here.
        sig = _signal_files()["whitened"]
        path = tmp_path / "signals.csv"
        save_signals(sig, path)
        path.write_bytes(path.read_bytes().replace(b"\r\n", end, 1))
        assert np.array_equal(_bits(load_signals(path).samples), _bits(sig.samples))

    @pytest.mark.parametrize("body", list(_ODD_BODIES.values()), ids=list(_ODD_BODIES))
    def test_odd_inputs_read_as_loadtxt_reads_them(self, tmp_path, body):
        expected = loadtxt_rows(body, 3)
        path = _short_file(tmp_path, b"time,ch0_re,ch0_im\r\n" + body)
        if isinstance(expected, tuple):
            line, message = expected
            with pytest.raises(DomainError) as refused:
                load_signals(path)
            assert str(refused.value) == f"{path}:{line + 2}: {message}"
        else:
            assert np.array_equal(_bits(load_signals(path).samples.T), _bits(expected[:, 1:]))

    @pytest.mark.parametrize("rows", [55, 56])
    def test_rows_that_round_t_over_dt_but_miss_t(self, tmp_path, rows):
        # round(T / dt) is 56 here, yet 56 * dt misses T by more than dt / 2: only 55
        # rows cover T, on either path.
        sig = SignalMatrix(np.ones((1, rows), complex), dt=1.1)
        path = tmp_path / "signals.csv"
        save_signals(sig, path)
        (tmp_path / "signals.json").write_text(json.dumps(
            {"dt": 1.1, "T": 61.050000000000004, "p": 1, "whitened": False}))
        if rows == 56:
            with pytest.raises(DomainError, match="56 rows at dt=1.1 do not cover"):
                load_signals(path)
        else:
            assert np.array_equal(load_signals(path).samples, sig.samples)

    @pytest.mark.parametrize("end", [b"\r\n", b"\n"], ids=["crlf", "lf"])
    def test_peak_memory_is_the_samples_and_one_block(self, tmp_path, monkeypatch, end):
        # The reader writes each block's sample columns into the one table the
        # samples view, whatever the line ends. Bound: the samples plus one
        # block's temporaries, at most 12 bytes per byte of READ_BLOCK (the
        # buffer, its separators, and the field kernel's arrays of one entry
        # per field of 18 or more bytes).
        monkeypatch.setattr(_floattext, "READ_BLOCK", 1 << 16)
        sig = synthesize_oscillations([11.0, 13.0], 8.0, 1 / 1024, 5.0, 8,
                                      np.random.default_rng(3))
        path = tmp_path / "signals.csv"
        save_signals(sig, path)
        path.write_bytes(path.read_bytes().replace(b"\r\n", end))
        assert path.stat().st_size > 30 * _floattext.READ_BLOCK  # many blocks
        load_signals(path)  # imports and first-call caches
        tracemalloc.start()
        try:
            back = load_signals(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.samples, sig.samples)
        assert peak < back.samples.nbytes + 12 * _floattext.READ_BLOCK


def _spike_outcome(path):
    """load_spikes's result as (window, n_trials, time bits, offsets), or its error text."""
    try:
        spikes = load_spikes(path)
    except DomainError as exc:
        return str(exc)
    return spikes.window, spikes.n_trials, _bits(spikes.times).tolist(), spikes.offsets.tolist()


def _spike_sets():
    rng = np.random.default_rng(31)
    many = [simulate_poisson(HomogeneousRate(2000.0), 3.0, 4, rng).trains[0] for _ in range(3)]
    wide = np.sort(rng.uniform(0.0, 1e3, 500))
    return {
        "sampled": _sample_spikes(),
        "empty trains": SpikeData(2.0, [[[0.0, 0.1, 1.5], [], [2.0]], [[], [], []],
                                        [[1e-5, 0.25, 1.0000000000000002], [0.3], []]]),
        "one unit, one trial": SpikeData(1.0, [[[0.5]]]),
        "no spikes": SpikeData(1.5, [[[]]]),
        "exponent forms, 0 and T": SpikeData(2.0, [[[-0.0, 1e-300, 1e-7, 5e-05, 9.99e-05, 1e-4,
                                                     1.0, 2.0]], [[0.0, 2.0]]]),
        "whole parts of 1 to 16 digits": SpikeData(1e17, [[list(wide), [12.5, 1e15, 1e16,
                                                                         5.5e16, 1e17]]]),
        "many": SpikeData(3.0, many),
    }


_SPIKE_DOC = ('{"t_start": 0.0, "t_end": 2.0, "units": [{"id": 0, "trials": [[0.5, 1.25], []]}, '
              '{"id": 1, "trials": [[0.125], [1.5, 1.75]]}]}')


def _read_as(window, n_trials, times, offsets):
    """A spike file's expected outcome, in the form of ``_spike_outcome``."""
    return window, n_trials, _bits(np.array(times, dtype=float)).tolist(), offsets


_BASE = _read_as(2.0, 2, [0.5, 1.25, 0.125, 1.5, 1.75], [0, 2, 2, 3, 5])  # _SPIKE_DOC as read


class TestSpikeReader:
    """load_spikes reads every spike file through json.loads and the SpikeData constructor."""

    @pytest.mark.parametrize("name", list(_spike_sets()))
    def test_written_files_read_back(self, tmp_path, name):
        spikes = _spike_sets()[name]
        path = tmp_path / "spikes.json"
        save_spikes(spikes, path)
        assert _spike_outcome(path) == _read_as(spikes.window, spikes.n_trials, spikes.times,
                                                spikes.offsets.tolist())

    @given(st.lists(st.lists(st.lists(st.floats(0.0, 10.0), max_size=6), min_size=2, max_size=2),
                    min_size=1, max_size=3),
           st.sampled_from([10.0, 1e-3, 12345.678]))
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_written_file(self, tmp_path, units, scale):
        trains = [[sorted(set(t * scale / 10.0 for t in trial)) for trial in unit]
                  for unit in units]
        spikes = SpikeData(scale, trains)
        path = tmp_path / "spikes.json"
        save_spikes(spikes, path)
        assert _spike_outcome(path) == _read_as(scale, 2, spikes.times, spikes.offsets.tolist())

    # Each edit of _SPIKE_DOC, and what load_spikes gives for it: the spikes
    # read, or the error that follows the path.
    @pytest.mark.parametrize("old, new, outcome", [
        (", ", ",", _BASE),  # other spacing
        ("]]}]}", "]]}]}\n", _BASE),  # a trailing line end, which json.loads skips
        ("]]}]}", "]]}]} x", ":1:128: Extra data"),  # trailing bytes
        ('{"t_start": 0.0, "t_end": 2.0,', '{"t_end": 2.0, "t_start": 0.0,', _BASE),  # reordered
        ('"t_end": 2.0', '"t_end": 2', _BASE),
        ('"t_start": 0.0', '"t_start": 0', _BASE),
        ('"t_start": 0.0', '"t_start": 1.0', ": field 't_start' must be 0, got 1.0"),
        ("[0.5, 1.25]", "[0, 1]", _read_as(2.0, 2, [0.0, 1.0, 0.125, 1.5, 1.75], [0, 2, 2, 3, 5])),
        ("1.25", "Infinity", ": unit 0 trial 0: event time outside [0, 2.0]"),
        ("1.25", "NaN", ": unit 0 trial 0: event time outside [0, 2.0]"),
        ("1.25", "1e400", ": unit 0 trial 0: event time outside [0, 2.0]"),
        ('"id": 1', '"id": 7', _BASE),
        ('"id": 1', '"id": 01', ":1:90: Expecting ',' delimiter"),
        ('"id": 1', '"id": -1', _BASE),
        ("0.125", "00.125", ":1:105: Expecting ',' delimiter"),  # leading zeros
        ("1.25", "01.25", ":1:70: Expecting ',' delimiter"),
        ("1.25", "-01.25", ":1:71: Expecting ',' delimiter"),
        ("1.25", "+1.25", ":1:69: Expecting value"),
        ("1.25", ".25", ":1:69: Expecting value"),
        ("1.25", "1.", ":1:70: Expecting ',' delimiter"),
        ("1.25", "1.25e", ":1:73: Expecting ',' delimiter"),
        ("[0.5, 1.25]", "[1.25, 0.5]", ": unit 0 trial 0: event times not strictly increasing"),
        ("1.25", "2.5", ": unit 0 trial 0: event time outside [0, 2.0]"),
        ("1.25", "-0.0", ": unit 0 trial 0: event times not strictly increasing"),
        ("1.25", "1.25E-1", ": unit 0 trial 0: event times not strictly increasing"),
        ("1.25", "1.2e+0", _read_as(2.0, 2, [0.5, 1.2, 0.125, 1.5, 1.75], [0, 2, 2, 3, 5])),
        ('"t_end": 2.0', '"t_end": -1.0', ": window must be positive and finite, got -1.0"),
        ('"t_end": 2.0', '"t_end": 1e400', ": window must be positive and finite, got inf"),
        ('"t_end": 2.0', '"t_end": 0.0', ": window must be positive and finite, got 0.0"),
        ('"t_end": 2.0', '"t_end": 2.5e-1', ": unit 0 trial 0: event time outside [0, 0.25]"),
        ("[[0.125], [1.5, 1.75]]", "[[0.125]]", ": unit 1 has 1 trials, unit 0 has 2"),
        ("[[0.125], [1.5, 1.75]]", "[[0.125], [1.5, 1.75], []]",
         ": unit 1 has 3 trials, unit 0 has 2"),
        ("[[0.5, 1.25], []]", "[]", ": unit 1 has 2 trials, unit 0 has 0"),
        ("[[0.125], [1.5, 1.75]]", "[]", ": unit 1 has 0 trials, unit 0 has 2"),
        ("[0.5, 1.25]", "[[0.5], 1.25]",
         ": unit 0 trial 0: event times must be one flat list of numbers"),
        ("[0.5, 1.25]", "[0.5 , 1.25]", _BASE),
        ("[]]}", "[ ]]}", _BASE),
        ("1.25], [", "1.25],  [", _BASE),
        ("[0.5, 1.25]", '["0.5", 1.25]',
         ": unit 0 trial 0: event times must be one flat list of numbers"),
        ('{"id": 1, ', '{"id": 1, "x": 2, ', _BASE),
        ('"units": [', '"x": 1, "units": [', _BASE),
        ('"id": 0, ', "", _BASE),
        ("]}]}", "]}, ]}", ":1:127: Expecting value"),
        ("]]}]}", "]]}x]}", ":1:125: Expecting ',' delimiter"),
        ("]]}]}", "]]}]x", ":1:126: Expecting ',' delimiter"),
        ("1.25], [", "1.25],x[", ":1:75: Expecting value"),
        ("1.25], [", "1.25]x [", ":1:74: Expecting ',' delimiter"),
        ("1.25], [", "1.25], x[", ":1:76: Expecting value"),
        ("1.75]]}", "1.75]x]}", ":1:123: Expecting ',' delimiter"),
        ("[0.5, 1.25]", "[0.5,11.25]", ": unit 0 trial 0: event time outside [0, 2.0]"),
        ('"trials": [[0.125]', '"trials": [x[0.125]', ":1:103: Expecting value"),
        # false == 0.0, so a boolean t_start used to be read as 0.
        ('"t_start": 0.0', '"t_start": false', ": field 't_start' must be 0, got False"),
    ])
    def test_edited_documents(self, tmp_path, old, new, outcome):
        assert old in _SPIKE_DOC
        path = tmp_path / "spikes.json"
        path.write_text(_SPIKE_DOC.replace(old, new, 1))
        expected = f"{path}{outcome}" if isinstance(outcome, str) else outcome
        assert _spike_outcome(path) == expected

    def test_the_base_document_is_the_writers(self, tmp_path):
        path = tmp_path / "spikes.json"
        path.write_text(_SPIKE_DOC)
        assert _spike_outcome(path) == _BASE
        save_spikes(load_spikes(path), tmp_path / "again.json")
        assert (tmp_path / "again.json").read_text() == _SPIKE_DOC


def test_importing_the_cli_loads_no_scipy():
    # Both commands import cli_io at start-up; scipy is loaded only where an
    # experiment's verdict needs it.
    code = ("import sys, spikefield.cli_io; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(Path(spikefield.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"



def test_analyze_phase_without_kappa_loads_no_scipy(tmp_path):
    # Only a kappa option evaluates the von Mises law, whose Bessel ratios
    # come from scipy.special; the PLV and its null test need no scipy.
    save_spikes(_sample_spikes(), tmp_path / "s.json")
    argv = ["analyze", "--spikes", str(tmp_path / "s.json"), "--phase", "linear:1",
            "--out", str(tmp_path / "o")]
    code = (f"import sys; from spikefield.cli_io import main; assert main({argv!r}) == 0; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(Path(spikefield.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.splitlines()[-1] == "[]"


class TestExperimentConfigFile:
    def test_load_with_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "experiment": "univar-null", "replicates": 25, "master_seed": 3,
        }))
        cfg = load_experiment_config(path)
        assert cfg.experiment == "univar-null"
        assert cfg.replicates == 25 and cfg.master_seed == 3
        assert cfg.trials == 5000  # table default preserved

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "univar-null", "nonsense": 1}))
        with pytest.raises(DomainError, match="nonsense"):
            load_experiment_config(path)


_MULTIVAR_SMALL = dict(replicates=2, channels=20, units=18, components=(3.0, 4.0), window=2.0,
                       dt=1 / 256, trials=5)


class TestCliSimulateAnalyze:
    def test_round_trip_coupling_bit_exact(self, tmp_path):
        sim_cfg = tmp_path / "sim.json"
        sim_cfg.write_text(json.dumps({
            "kind": "vonmises", "window": 2.0, "trials": 5, "units": 2,
            "rate0": 30.0, "kappa": 0.4,
            "signals": {"components": [2.0, 3.0], "channels": 4, "dt": 1 / 64,
                        "noise_kappa": 5.0, "whiten": True},
        }))
        out = tmp_path / "data"
        assert main(["simulate", "--config", str(sim_cfg), "--seed", "11", "--out", str(out)]) == 0

        res = tmp_path / "analysis"
        code = main(["analyze", "--spikes", str(out / "spikes.json"),
                     "--signals", str(out / "signals.csv"),
                     "--phase", "linear:2.0", "--out", str(res)])
        assert code == 0

        # The CLI's raw coupling matrix matches an in-process computation
        # on the same files bit-exactly.
        spikes = load_spikes(out / "spikes.json")
        signals = load_signals(out / "signals.csv")
        raw = build_coupling_matrix(signals, spikes)
        doc = json.loads((res / "coupling.json").read_text())
        assert np.array_equal(np.asarray(doc["entries_re"]), raw.entries.real)
        assert np.array_equal(np.asarray(doc["entries_im"]), raw.entries.imag)

        spec = json.loads((res / "spectrum.json").read_text())
        assert spec["alpha"] == pytest.approx(4 / 2)
        uni = json.loads((res / "univariate.json").read_text())
        assert len(uni["units"]) == 2
        assert 0.0 <= uni["units"][0]["p_null"] <= 1.0

    def test_analyze_of_unwhitened_signals_matches_the_two_step_oracle(self, tmp_path):
        # analyze whitens an unwhitened file as the multivariate experiments
        # do, for the interpolant: its spectrum is that of the samples whitened
        # explicitly, first their sample Gram and then their interpolant.
        raw = synthesize_oscillations([3.0, 4.0], 2.0, 1 / 64, 5.0, 6, np.random.default_rng(4))
        sd = _sample_spikes(units=8, trials=3, seed=6)
        save_signals(raw, tmp_path / "signals.csv")
        save_spikes(sd, tmp_path / "s.json")
        assert main(["analyze", "--spikes", str(tmp_path / "s.json"),
                     "--signals", str(tmp_path / "signals.csv"), "--out", str(tmp_path / "o")]) == 0
        got = json.loads((tmp_path / "o" / "spectrum.json").read_text())["eigenvalues"]
        white = SignalMatrix(two_step_whitening(raw.samples)[0], dt=raw.dt, whitened=True)
        expected = spectrum(normalize(build_coupling_matrix(white, sd), sd)).eigenvalues
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * expected[0])

    def test_analyze_phase_totals_per_unit(self, tmp_path):
        trains = _sample_spikes(units=4, trials=3, seed=3).trains
        trains[2] = [np.empty(0) for _ in range(3)]  # a silent unit
        sd = SpikeData(window=2.0, trains=trains)
        save_spikes(sd, tmp_path / "s.json")
        code = main(["analyze", "--spikes", str(tmp_path / "s.json"),
                     "--phase", "linear:1.0", "--out", str(tmp_path / "o")])
        assert code == 0
        uni = json.loads((tmp_path / "o" / "univariate.json").read_text())
        expected = [sum(len(t) for t in unit) for unit in sd.trains]
        assert expected[2] == 0 and len(set(expected)) == 4
        assert [u["total_spikes"] for u in uni["units"]] == expected
        assert [u["id"] for u in uni["units"]] == [0, 1, 2, 3]
        assert uni["units"][2]["plv"] is None
        assert all("plv_re" in u for j, u in enumerate(uni["units"]) if j != 2)

    @pytest.mark.parametrize("doc, message", [
        ({"t_end": 1.0, "units": [{"trials": [[[0.1, 0.2]]]}]}, "unit 0 trial 0: event times"),
        ({"t_end": 1.0, "units": [{"trials": [[math.nan, 0.3]]}]}, "unit 0 trial 0: event time "),
        ({"t_end": 1.0, "units": [{"trials": []}]}, "need at least one trial"),
        ({"t_end": 1.0, "units": [{"trials": [["a"]]}]}, "unit 0 trial 0: event times"),
        ({"t_end": 1.0, "units": [{"trials": [0.5]}]}, "unit 0 trial 0: event times"),
        ({"t_end": "x", "units": [{"trials": [[0.5]]}]}, "window must be"),
        ({"t_end": True, "units": [{"trials": [[0.5]]}]}, "window must be"),
        ({"t_end": 1.0, "units": 5}, "field 'units'"),
        ({"t_end": 1.0, "units": [{"trials": 5}]}, "unit 0 needs a list"),
    ], ids=["nested-trial", "nan-time", "no-trials", "string-time", "scalar-trial",
            "string-window", "bool-window", "units-not-a-list", "trials-not-a-list"])
    def test_analyze_rejects_malformed_spikes(self, tmp_path, capsys, doc, message):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"t_start": 0, **doc}))
        code = main(["analyze", "--spikes", str(path), "--phase", "linear:1",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: {message}")
        assert not (tmp_path / "o" / "univariate.json").exists()

    def test_simulate_rejects_bad_depth(self, tmp_path):
        sim_cfg = tmp_path / "sim.json"
        sim_cfg.write_text(json.dumps({
            "kind": "sinusoid", "window": 1.0, "trials": 3, "depth": 1.5,
        }))
        code = main(["simulate", "--config", str(sim_cfg), "--out", str(tmp_path / "o")])
        assert code == 1

    @pytest.mark.parametrize("text", ["1e400", "-5"])
    def test_simulate_rejects_bad_noise_kappa(self, tmp_path, capsys, text):
        # JSON reads 1e400 as inf, which used to hang the sampler; -5 used
        # to give noiseless signals.
        sim_cfg = tmp_path / "sim.json"
        sim_cfg.write_text(
            '{"kind": "homogeneous", "window": 1.0, "trials": 2, "signals": '
            '{"components": [3.0], "channels": 2, "dt": 0.015625, "noise_kappa": %s}}' % text
        )
        code = main(["simulate", "--config", str(sim_cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: phase_noise_kappa must be in [0, 1e+12], got ")
        assert not (tmp_path / "o" / "signals.csv").exists()

    @pytest.mark.parametrize("kind, locking", [
        ("sinusoid", {}), ("vonmises", {"frequency": 2.0, "kappa": 0.5}),
        ("vonmises", {"frequency": 2.0, "kappa": 0.0}),
    ], ids=["sinusoid", "vonmises", "vonmises-kappa-0"])
    def test_simulate_rejects_a_phase_offset_that_is_not_finite(self, tmp_path, capsys, kind,
                                                                 locking):
        # JSON reads Infinity; a sinusoid rate at an infinite offset used to
        # thin away every spike and exit 0. A sinusoid reads no frequency or kappa.
        # At kappa = 0 the unit is homogeneous and reads no offset; a given one
        # is held to the same rule all the same.
        sim_cfg = tmp_path / "sim.json"
        sim_cfg.write_text(json.dumps({"kind": kind, "window": 1.0, "trials": 3,
                                       "phase_offset": math.inf, **locking}))
        code = main(["simulate", "--config", str(sim_cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: phase offset must be finite, got inf")
        assert not (tmp_path / "o" / "spikes.json").exists()

    @pytest.mark.parametrize("options, message", [
        ({"kappa": 0.5, "phase_offset": math.nan}, "phase offset must be finite, got nan"),
    ], ids=["nan-offset"])
    def test_analyze_rejects_a_law_parameter_out_of_domain(self, tmp_path, capsys, options,
                                                           message):
        # A NaN used to reach univariate.json or spectrum.json, which is not valid JSON.
        save_spikes(_sample_spikes(), tmp_path / "s.json")
        save_signals(synthesize_oscillations([4.0], 2.0, 1 / 32, 5.0, 2, np.random.default_rng(2)),
                     tmp_path / "signals.csv")
        (tmp_path / "opt.json").write_text(json.dumps(options))
        code = main(["analyze", "--spikes", str(tmp_path / "s.json"), "--phase", "linear:1",
                     "--signals", str(tmp_path / "signals.csv"),
                     "--config", str(tmp_path / "opt.json"), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "o" / "spectrum.json").exists()

    def test_analyze_checks_the_law_once_however_silent_the_units(self, tmp_path, capsys):
        # The law is built once per file, before the units: an offset that is not
        # finite was ignored when no unit had a spike to judge.
        doc = {"t_start": 0.0, "t_end": 1.0, "units": [{"id": 0, "trials": [[]]}]}
        (tmp_path / "s.json").write_text(json.dumps(doc))
        (tmp_path / "opt.json").write_text(json.dumps({"kappa": 1.0, "phase_offset": math.inf}))
        code = main(["analyze", "--spikes", str(tmp_path / "s.json"), "--phase", "linear:1",
                     "--config", str(tmp_path / "opt.json"), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: phase offset must be finite, got inf")
        assert not (tmp_path / "o").exists()

    def test_analyze_refuses_a_file_with_no_spiking_unit_before_writing(self, tmp_path, capsys):
        # With no unit to normalize, there is no spectrum, so neither mode writes its output.
        trains = [[np.empty(0) for _ in range(3)] for _ in range(2)]
        save_spikes(SpikeData(window=2.0, trains=trains), tmp_path / "s.json")
        save_signals(synthesize_oscillations([4.0], 2.0, 1 / 32, 5.0, 2, np.random.default_rng(2)),
                     tmp_path / "signals.csv")
        code = main(["analyze", "--spikes", str(tmp_path / "s.json"), "--phase", "linear:1",
                     "--signals", str(tmp_path / "signals.csv"), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "no unit has a spike: all 2 unit(s) are silent" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("whitened", [True, False], ids=["whitened", "unwhitened"])
    def test_silent_units_leave_the_spectrum(self, tmp_path, whitened):
        # The spectrum of a file with silent units is, to the byte, that of the
        # same file without them; only silent_units names them. coupling.json
        # keeps every unit's column, a silent unit's zero.
        raw = synthesize_oscillations([3.0, 4.0], 2.0, 1 / 64, 5.0, 5, np.random.default_rng(4))
        save_signals(whiten(raw) if whitened else raw, tmp_path / "signals.csv")
        trains = _sample_spikes(units=6, trials=3, seed=6).trains
        for j in (1, 4):
            trains[j] = [np.empty(0) for _ in range(3)]
        active = [train for j, train in enumerate(trains) if j not in (1, 4)]
        docs = {}
        for name, units in (("silent", trains), ("removed", active)):
            save_spikes(SpikeData(window=2.0, trains=units), tmp_path / f"{name}.json")
            out = tmp_path / name
            assert main(["analyze", "--spikes", str(tmp_path / f"{name}.json"),
                         "--signals", str(tmp_path / "signals.csv"), "--out", str(out)]) == 0
            docs[name] = json.loads((out / "spectrum.json").read_text())
        assert docs["silent"].pop("silent_units") == [1, 4]
        assert docs["removed"].pop("silent_units") == []
        assert json.dumps(docs["silent"]) == json.dumps(docs["removed"])
        assert docs["silent"]["alpha"] == 5 / 4
        assert (tmp_path / "silent" / "esd.csv").read_bytes() == \
            (tmp_path / "removed" / "esd.csv").read_bytes()
        coupling = json.loads((tmp_path / "silent" / "coupling.json").read_text())
        entries = np.array(coupling["entries_re"]) + 1j * np.array(coupling["entries_im"])
        assert coupling["units"] == 6 and entries.shape == (5, 6)
        assert not entries[:, [1, 4]].any() and entries[:, [0, 2, 3, 5]].all()

    @pytest.mark.parametrize("kind, reads", [
        ("homogeneous", {"rate0"}),
        ("vonmises", {"rate0", "kappa", "phase_offset", "frequency"}),
        ("sinusoid", {"rate0", "depth", "harmonic", "phase_offset"}),
    ])
    def test_each_kind_accepts_exactly_the_unit_keys_it_reads(self, tmp_path, capsys, kind, reads):
        # Each unit key alone, away from its default: a key the kind reads moves
        # the spikes it draws, and any other is refused. The von Mises units are
        # coupled here, so that their frequency and offset reach the model.
        base = {"kind": kind, "window": 1.0, "trials": 3, "units": 2,
                **({"frequency": 1.0, "kappa": 0.5} if kind == "vonmises" else {})}
        probes = {"rate0": 30.0, "kappa": 0.7, "phase_offset": 0.4, "frequency": 2.0, "depth": 0.6,
                  "harmonic": 2}

        def spikes(name, doc):
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
            code = main(["simulate", "--config", str(tmp_path / f"{name}.json"), "--seed", "3",
                         "--out", str(tmp_path / name)])
            return (tmp_path / name / "spikes.json").read_bytes() if code == 0 else None

        reference, accepted = spikes("base", base), set()
        for key, value in probes.items():
            drawn = spikes(key, {**base, key: value})
            if drawn is None:
                assert f"{kind} simulation reads no field(s) ['{key}']" in capsys.readouterr().err
            else:
                assert drawn != reference, key
                accepted.add(key)
        assert accepted == reads == set(cli_io._SIMULATIONS[kind][0])

    def test_simulate_help_states_each_kinds_unit_keys_and_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--help"])
        lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()
                 if line.split()[:1] and line.split()[0] in cli_io._SIMULATIONS}
        for kind, (defaults, _) in cli_io._SIMULATIONS.items():
            for key, value in defaults.items():
                assert f"{key} {'(none)' if value is None else format(value, 'g')}" in lines[kind]

    # Small configs of the experiments simulate can replay: replicate i of each
    # is drawn by simulate at replicate_seed(master_seed, i).
    _REPLICATE_CASES = {
        "univar-null": dict(replicates=2, trials=50),
        "univar-coupled": dict(replicates=2, trials=50),
        "multivar-null": _MULTIVAR_SMALL,
        "multivar-coupled": _MULTIVAR_SMALL,
    }

    @pytest.mark.parametrize("name", sorted(_REPLICATE_CASES))
    def test_simulate_then_analyze_is_replicate_i(self, tmp_path, name):
        # A vonmises unit at kappa = 0 used to spend thinning uniforms that the
        # harness's homogeneous unit does not draw, so the nulls' files held
        # other draws than their replicates.
        i, c = 1, ExperimentConfig(name, **self._REPLICATE_CASES[name])
        replicates = run_experiment(c).replicates
        sim = {"kind": "vonmises", "window": c.window, "trials": c.trials, "rate0": c.rate0}
        for key in ("kappa", "phase_offset"):  # a null sets no kappa: simulate's default 0
            if getattr(c, key) is not None:
                sim[key] = getattr(c, key)
        if name.startswith("univar"):
            sim["frequency"] = c.frequency
            flags = ["--phase", f"linear:{c.frequency!r}"]
        else:
            sim.update(units=c.units, signals={"components": list(c.components), "dt": c.dt,
                                               "channels": c.channels, "noise_kappa": c.noise_kappa})
            flags = ["--signals", str(tmp_path / "d" / "signals.csv")]
        (tmp_path / "sim.json").write_text(json.dumps(sim))
        assert main(["simulate", "--config", str(tmp_path / "sim.json"),
                     "--seed", str(replicate_seed(c.master_seed, i)), "--out", str(tmp_path / "d")]) == 0
        assert main(["analyze", "--spikes", str(tmp_path / "d" / "spikes.json"), *flags,
                     "--out", str(tmp_path / "o")]) == 0
        if name.startswith("univar"):
            (unit,) = json.loads((tmp_path / "o" / "univariate.json").read_text())["units"]
            for key in ("plv_re", "plv_im", "p_null", "total_spikes"):
                assert unit[key] == replicates[key][i], key
        else:
            spec = json.loads((tmp_path / "o" / "spectrum.json").read_text())
            eigs = np.asarray(spec["eigenvalues"])
            got = [eigs[0], spec["ks_distance"], eigs.sum() / eigs.size]
            expected = [replicates[key][i] for key in ("top_eigenvalue", "ks", "trace_over_p")]
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)

    def test_simulate_deterministic(self, tmp_path):
        sim_cfg = tmp_path / "sim.json"
        sim_cfg.write_text(json.dumps({"kind": "homogeneous", "window": 1.0, "trials": 10}))
        main(["simulate", "--config", str(sim_cfg), "--seed", "5", "--out", str(tmp_path / "a")])
        main(["simulate", "--config", str(sim_cfg), "--seed", "5", "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "spikes.json").read_bytes() == \
               (tmp_path / "b" / "spikes.json").read_bytes()

    def test_analyze_needs_something(self, tmp_path):
        sd = _sample_spikes()
        save_spikes(sd, tmp_path / "s.json")
        code = main(["analyze", "--spikes", str(tmp_path / "s.json"), "--out", str(tmp_path / "o")])
        assert code == 1

    def test_experiment_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "experiment": "moment-oracle", "trials": 5000,
        }))
        code = main(["experiment", "--config", str(cfg), "--seed", "9",
                     "--out", str(tmp_path / "rep")])
        assert code == 0
        assert (tmp_path / "rep" / "report.json").exists()
        captured = capsys.readouterr()
        assert "moment-oracle" in captured.out

    def test_experiment_fail_verdict_keeps_exit_zero(self, tmp_path, monkeypatch, capsys):
        # Absurdly tight tolerance guarantees a FAIL verdict; exit stays 0.
        tight = {"moment": Tolerance(1e-9, "se_multiple", "test")}
        monkeypatch.setitem(EXPERIMENTS, "moment-oracle",
                            replace(EXPERIMENTS["moment-oracle"], tolerances=tight))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "moment-oracle", "trials": 2000}))
        assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0
        assert "[FAIL] moment-oracle/" in capsys.readouterr().out

    def test_experiment_report_body_is_the_same_whatever_the_out_dir(self, tmp_path):
        # The output directory used to be a config field, written into the body.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "univar-null", "replicates": 12, "trials": 200}))
        docs = []
        for out in ("a", "b"):
            assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / out)]) == 0
            docs.append(json.loads((tmp_path / out / "report.json").read_text()))
            docs[-1].pop("runtime_seconds")
        assert docs[0] == docs[1]

    def test_unknown_config_field_exits_one(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "univar-null", "bogus": True}))
        assert main(["experiment", "--config", str(cfg)]) == 1

    def test_analyze_law_fields_use_the_ratio_corrected_variance(self, tmp_path):
        # z_re standardizes by the ratio-corrected Re variance, as the harness
        # judges the same residual; z_im and the limit are the paper form's.
        kappa, offset, freq, trials = 0.5, 0.3, 2.0, 3
        sd = _sample_spikes(units=1, trials=trials, seed=5)
        save_spikes(sd, tmp_path / "s.json")
        (tmp_path / "opt.json").write_text(json.dumps({"kappa": kappa, "phase_offset": offset}))
        assert main(["analyze", "--spikes", str(tmp_path / "s.json"), "--phase", "linear:2",
                     "--config", str(tmp_path / "opt.json"), "--out", str(tmp_path / "o")]) == 0
        (unit,) = json.loads((tmp_path / "o" / "univariate.json").read_text())["units"]

        times = sd.unit_times(0)
        plv = np.mean(np.exp(2j * math.pi * freq * times))
        # The expected count per trial is the estimated one: the law's baseline
        # rate0 is the estimated mean rate over I0(kappa).
        expected = times.size / trials
        i0, i1, i2 = (bessel_quadrature(k, kappa) for k in range(3))
        limit = np.exp(1j * offset) * i1 / i0
        z = np.exp(-1j * offset) * math.sqrt(trials) * (plv - limit)
        var_re = (i0 + i2) / (2 * expected * i0) - (i1 / i0) ** 2 / expected
        var_im = (i0 - i2) / (2 * expected * i0)
        assert unit["law_limit_re"] == pytest.approx(limit.real, rel=1e-10)
        assert unit["law_limit_im"] == pytest.approx(limit.imag, rel=1e-10)
        assert unit["z_re"] == pytest.approx(z.real / math.sqrt(var_re), rel=1e-9)
        assert unit["z_im"] == pytest.approx(z.imag / math.sqrt(var_im), rel=1e-9)

    def test_analyze_z_fields_are_standard_on_von_mises_units(self, tmp_path):
        # Each unit is an independent replicate of the law's model, so its z_re
        # and z_im scatter with unit variance. With the mean rate taken as the
        # law's baseline rate0 they scattered with sd sqrt(I0(2)) = 1.51.
        sim = {"kind": "vonmises", "window": 2.0, "trials": 20, "units": 400, "rate0": 20.0,
               "kappa": 2.0, "frequency": 5.0}
        (tmp_path / "sim.json").write_text(json.dumps(sim))
        (tmp_path / "opt.json").write_text(json.dumps({"kappa": 2.0}))
        assert main(["simulate", "--config", str(tmp_path / "sim.json"), "--seed", "7",
                     "--out", str(tmp_path / "d")]) == 0
        assert main(["analyze", "--spikes", str(tmp_path / "d" / "spikes.json"),
                     "--phase", "linear:5", "--config", str(tmp_path / "opt.json"),
                     "--out", str(tmp_path / "o")]) == 0
        units = json.loads((tmp_path / "o" / "univariate.json").read_text())["units"]
        for key in ("z_re", "z_im"):
            assert np.std([unit[key] for unit in units]) == pytest.approx(1.0, abs=0.15)

    @pytest.mark.parametrize("kappa", [400.0, 700.0])
    def test_analyze_law_fields_finite_at_large_kappa(self, tmp_path, kappa):
        # Past kappa ~ 355 the law's I0^2 overflowed: z_re was NaN and z_im -Infinity.
        save_spikes(_sample_spikes(units=1, seed=5), tmp_path / "s.json")
        (tmp_path / "opt.json").write_text(json.dumps({"kappa": kappa}))
        assert main(["analyze", "--spikes", str(tmp_path / "s.json"), "--phase", "linear:2",
                     "--config", str(tmp_path / "opt.json"), "--out", str(tmp_path / "o")]) == 0
        (unit,) = json.loads((tmp_path / "o" / "univariate.json").read_text())["units"]
        assert all(math.isfinite(unit[key]) for key in ("z_re", "z_im", "law_limit_re"))

    @pytest.mark.parametrize("t_end", [1e20, 1e22])
    def test_analyze_law_fields_at_large_kappa_and_tiny_rate(self, tmp_path, t_end):
        # One spike over a long window. A baseline rate of rate_hat / I0(700)
        # was subnormal at t_end = 1e20, which moved z_re by 0.9 %, and zero at
        # 1e22, which exited 1 with "baseline rate must be positive and finite,
        # got 0.0".
        from scipy.special import ive

        doc = {"t_start": 0.0, "t_end": t_end, "units": [{"id": 0, "trials": [[t_end / 2]]}]}
        (tmp_path / "s.json").write_text(json.dumps(doc))
        (tmp_path / "opt.json").write_text(json.dumps({"kappa": 700.0}))
        assert main(["analyze", "--spikes", str(tmp_path / "s.json"), "--phase", "linear:1",
                     "--config", str(tmp_path / "opt.json"), "--out", str(tmp_path / "o")]) == 0
        (unit,) = json.loads((tmp_path / "o" / "univariate.json").read_text())["units"]
        assert all(math.isfinite(unit[key]) for key in ("z_re", "z_im", "law_limit_re"))
        # The ratio-corrected variances at an expected count of one spike per trial.
        e0, e1, e2 = ive((0, 1, 2), 700.0)
        r1, r2 = e1 / e0, e2 / e0
        var_re, var_im = (1 + r2) / 2 - r1 * r1, (1 - r2) / 2
        assert unit["z_re"] == pytest.approx((unit["plv_re"] - r1) / math.sqrt(var_re), rel=1e-6)
        assert unit["z_im"] == pytest.approx(unit["plv_im"] / math.sqrt(var_im), rel=1e-9)

    def test_analyze_null_variance_reads_the_count_per_trial(self, tmp_path):
        # null_cov_re is the uncoupled law's variance at the unit's spike total N
        # over K trials, 1 / (2 N/K), rounded once. Built from a baseline rate
        # N / (K T) times T, it was an ulp off for both units here.
        rng = np.random.default_rng(0)
        trains = [simulate_poisson(HomogeneousRate(25.0), 5.3, 3, rng).trains[0] for _ in range(2)]
        save_spikes(SpikeData(window=5.3, trains=trains), tmp_path / "s.json")
        assert main(["analyze", "--spikes", str(tmp_path / "s.json"), "--phase", "linear:1.3",
                     "--out", str(tmp_path / "o")]) == 0
        units = json.loads((tmp_path / "o" / "univariate.json").read_text())["units"]
        for unit in units:
            assert unit["null_cov_re"] == 1.0 / (2.0 * (unit["total_spikes"] / 3))

    def test_analyze_uncoupled_law_reads_no_offset(self, tmp_path):
        # At kappa = 0 the law is that of a homogeneous unit: limit 0, isotropic,
        # stated in the unrotated frame, so an offset moves no z field.
        save_spikes(_sample_spikes(units=2, seed=5), tmp_path / "s.json")
        docs = []
        for offset in (0.0, 1.0):
            (tmp_path / "opt.json").write_text(json.dumps({"kappa": 0.0, "phase_offset": offset}))
            out = tmp_path / f"o{offset}"
            assert main(["analyze", "--spikes", str(tmp_path / "s.json"), "--phase", "linear:2",
                         "--config", str(tmp_path / "opt.json"), "--out", str(out)]) == 0
            docs.append(json.loads((out / "univariate.json").read_text()))
        assert docs[0] == docs[1]
        for unit in docs[0]["units"]:
            scale = math.sqrt(3 * 2.0 * unit["total_spikes"] / 3)  # sqrt(K) / sqrt(1 / (2 N/K))
            assert unit["z_re"] == pytest.approx(unit["plv_re"] * scale, rel=1e-14)
            assert unit["z_im"] == pytest.approx(unit["plv_im"] * scale, rel=1e-14)

    def test_analyze_phase_of_partial_cycles_needs_no_kappa(self, tmp_path):
        # 1.3 Hz over the 2 s window is 2.6 cycles: the PLV is still estimated,
        # and only the kappa option, whose law needs whole cycles, is refused.
        save_spikes(_sample_spikes(units=1), tmp_path / "s.json")
        assert main(["analyze", "--spikes", str(tmp_path / "s.json"), "--phase", "linear:1.3",
                     "--out", str(tmp_path / "o")]) == 0
        (unit,) = json.loads((tmp_path / "o" / "univariate.json").read_text())["units"]
        assert "plv_re" in unit and "z_re" not in unit


def _run(capsys, argv):
    """Run the CLI; return its exit code and stderr."""
    code = main(argv)
    return code, capsys.readouterr().err


_SIM = {"kind": "homogeneous", "window": 1.0, "trials": 2,
        "signals": {"components": [3.0], "channels": 2, "dt": 0.015625}}
_EXPERIMENT = {"experiment": "univar-null", "replicates": 12, "trials": 200}


class TestTypedFields:
    """Every config, options and sidecar field is checked for its JSON type."""

    @pytest.mark.parametrize("change, message", [
        ({"window": "x"}, "field 'window' must be a number, got \"x\""),
        ({"units": "a"}, "field 'units' must be an integer, got \"a\""),
        ({"rate0": None}, "field 'rate0' must be a number, got null"),
        ({"trials": 2.5}, "field 'trials' must be an integer, got 2.5"),
        ({"trials": True}, "field 'trials' must be an integer, got true"),
        ({"window": 10**400}, "field 'window' is too large for a float"),
        ({"signals": {"channels": 2, "dt": 0.015625}},
         "signals: missing required field 'components'"),
        ({"signals": {**_SIM["signals"], "whiten": "yes"}},
         "signals: field 'whiten' must be true or false, got \"yes\""),
    ], ids=["string-window", "string-units", "null-rate", "fractional-trials", "bool-trials",
            "huge-window", "no-components", "string-whiten"])
    def test_simulate(self, tmp_path, capsys, change, message):
        path = tmp_path / "sim.json"
        path.write_text(json.dumps({**_SIM, **change}))
        code, err = _run(capsys, ["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert (code, err.splitlines()[0]) == (1, f"error: {path}: {message}")
        assert not (tmp_path / "o").exists()

    def test_simulate_reads_integers_in_float_fields(self, tmp_path, capsys):
        for name, window, rate0 in (("ints", 1, 20), ("floats", 1.0, 20.0)):
            (tmp_path / f"{name}.json").write_text(json.dumps({
                "kind": "vonmises", "window": window, "trials": 2, "rate0": rate0, "kappa": 0,
                "signals": {"components": [3], "channels": 2, "dt": 0.015625},
            }))
            assert main(["simulate", "--config", str(tmp_path / f"{name}.json"), "--seed", "4",
                         "--out", str(tmp_path / name)]) == 0
        for file in ("spikes.json", "signals.csv", "signals.json"):
            assert (tmp_path / "ints" / file).read_bytes() == \
                   (tmp_path / "floats" / file).read_bytes()

    @pytest.mark.parametrize("change, message", [
        ({"replicates": "x"}, "field 'replicates' must be an integer"),
        ({"components": 5}, "field 'components' must be a list of numbers, got 5"),
        ({"channels": 3}, "univar-null reads no field(s) ['channels']"),
    ], ids=["string-replicates", "scalar-components", "unread-field"])
    def test_experiment(self, tmp_path, capsys, change, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**_EXPERIMENT, **change}))
        code, err = _run(capsys, ["experiment", "--config", str(path)])
        assert code == 1
        assert err.startswith(f"error: {path}: {message}")

    @pytest.mark.parametrize("options, flag, message", [
        ({"kapa": 0.5}, "--phase", "unknown field(s) ['kapa']"),
        ({"kappa": "0.5"}, "--phase", "field 'kappa' must be a number, got \"0.5\""),
        ({"phase_offset": 0.3}, "--phase", "option 'phase_offset' needs 'kappa'"),
        ({"kappa": 0.5}, "--signals", "option 'kappa' needs --phase"),
        ({"kappa": 0.5, "phase_offset": 0.3}, "--signals", "option 'kappa' needs --phase"),
    ], ids=["unknown-option", "string-kappa", "offset-without-kappa",
            "kappa-without-phase", "offset-without-phase"])
    def test_analyze_options(self, tmp_path, capsys, options, flag, message):
        # Every option is read by one mode of analyze; one the flags leave unused is refused.
        save_spikes(_sample_spikes(), tmp_path / "s.json")
        save_signals(synthesize_oscillations([4.0], 2.0, 1 / 32, 5.0, 2, np.random.default_rng(2)),
                     tmp_path / "signals.csv")
        mode = {"--phase": "linear:1", "--signals": str(tmp_path / "signals.csv")}[flag]
        path = tmp_path / "opt.json"
        path.write_text(json.dumps(options))
        code, err = _run(capsys, [
            "analyze", "--spikes", str(tmp_path / "s.json"), flag, mode,
            "--config", str(path), "--out", str(tmp_path / "o")])
        assert (code, err.splitlines()[0]) == (1, f"error: {path}: {message}")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("change, message", [
        ({"whitened": "no"}, "field 'whitened' must be true or false, got \"no\""),
        ({"whitened": 0}, "field 'whitened' must be true or false, got 0"),
        ({"dt": "x"}, "field 'dt' must be a number, got \"x\""),
        ({"T": None}, "field 'T' must be a number, got null"),
        ({"p": 2.5}, "field 'p' must be an integer, got 2.5"),
        ({"extra": 1}, "unknown field(s) ['extra']"),
        ({"dt": math.inf}, "field 'dt' must be positive and finite, got inf"),
        ({"T": "1e400"}, "field 'T' must be positive and finite, got inf"),
        ({"dt": 0}, "field 'dt' must be positive and finite, got 0.0"),
        ({"T": -1.0}, "field 'T' must be positive and finite, got -1.0"),
        ({"dt": math.nan}, "field 'dt' must be positive and finite, got nan"),
        ({"p": 0}, "field 'p' must be at least 1, got 0"),
        ({"p": -1}, "field 'p' must be at least 1, got -1"),
    ], ids=["string-whitened", "int-whitened", "string-dt", "null-window", "fractional-p",
            "unknown-field", "infinite-dt", "overflowing-window", "zero-dt", "negative-window",
            "nan-dt", "zero-p", "negative-p"])
    def test_signal_sidecar(self, tmp_path, capsys, change, message):
        sd = _sample_spikes()
        save_spikes(sd, tmp_path / "s.json")
        rng = np.random.default_rng(2)
        save_signals(synthesize_oscillations([4.0], 2.0, 1 / 32, 5.0, 2, rng),
                     tmp_path / "signals.csv")
        sidecar = tmp_path / "signals.json"
        # json.dumps writes inf as Infinity; "1e400" goes in as that literal text.
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), **change})
                           .replace('"1e400"', "1e400"))
        code, err = _run(capsys, [
            "analyze", "--spikes", str(tmp_path / "s.json"), "--phase", "linear:1",
            "--signals", str(tmp_path / "signals.csv"), "--out", str(tmp_path / "o")])
        assert (code, err.splitlines()[0]) == (1, f"error: {sidecar}: {message}")
        assert not (tmp_path / "o").exists()  # not even the --phase output


_MULTIVAR = {"experiment": "multivar-null", "replicates": 2, "channels": 4, "units": 4,
             "components": [3.0, 4.0], "window": 2.0, "dt": 1 / 256, "trials": 2}


class TestRefusedConfigs:
    """A refused config or input file exits 1 with one ``error:`` line and writes nothing."""

    @pytest.mark.parametrize("change, message", [
        ({"signals": {**_SIM["signals"], "dt": 0.0}}, "dt must be positive and finite, got 0.0"),
        ({"signals": {**_SIM["signals"], "dt": math.nan}}, "dt must be positive and finite, got nan"),
        ({"signals": {"components": [11.0], "channels": 2, "dt": 0.05}},
         "dt=0.05 undersamples the 11.0 Hz component"),
        ({"kind": "sinusoid", "depth": 1.5}, "modulation depth must lie in [0, 1], got 1.5"),
        ({"signals": {**_SIM["signals"], "channels": 0}}, "need at least one channel"),
        ({"signals": {**_SIM["signals"], "components": []}}, "components must be a nonempty list"),
        ({"units": 0}, "need at least one unit"),
        ({"trials": 0}, "need at least one trial"),
        ({"window": math.inf}, "window must be positive and finite, got inf"),
        ({"kind": "vonmises", "frequency": 1.0, "kappa": math.inf},
         "modulation strength must be >= 0, got inf"),
        ({"kind": "poisson"}, "unknown simulation kind 'poisson'"),
        ({"window": 1e300}, "window 1e+300 at dt=0.015625 is 6.4e+301 samples, too many"),
        ({"signals": {**_SIM["signals"], "dt": 0.03}},
         "window 1.0 is not an integer number of dt=0.03 steps"),
        ({"kind": "vonmises", "frequency": 1e308, "kappa": 0.5},
         "the phase 2*pi*f*T overflows at frequency 1e+308 and window 1.0"),
        ({"kind": "vonmises", "frequency": 1.0, "kappa": 710.0},
         "modulation strength must be at most 700.0, got 710.0"),
        ({"trials": 2**70}, f"trials must be at most {2**60 - 2} for numpy to build an array of "
                            f"one int64 per trial, got {2**70}"),
    ], ids=["zero-dt", "nan-dt", "undersampled", "unit-model-after-signals", "no-channels",
            "no-components", "no-units", "no-trials", "inf-window", "inf-kappa", "unknown-kind",
            "huge-window", "off-grid-window", "overflowing-phase", "huge-kappa",
            "trials-past-numpy"])
    def test_simulate(self, tmp_path, capsys, change, message):
        # Each signals block here is refused before any unit is drawn, and each
        # unit model after the signals are drawn; neither leaves a file behind.
        path = tmp_path / "sim.json"
        path.write_text(json.dumps({**_SIM, **change}))
        code, err = _run(capsys, ["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        self._refused(code, err, message, tmp_path / "o")

    @pytest.mark.parametrize("change, message", [
        ({**_MULTIVAR, "units": 0}, "need at least one unit, got 0"),
        ({**_MULTIVAR, "dt": 0.0}, "dt must be positive and finite, got 0.0"),
        ({**_MULTIVAR, "dt": math.nan}, "dt must be positive and finite, got nan"),
        ({**_MULTIVAR, "experiment": "multivar-coupled", "components": []},
         "components must be a nonempty list of positive finite frequencies, got ()"),
        ({"frequency": math.nan}, "frequency must be positive and finite, got nan"),
        ({"channels": 3, "depth": 0.9}, "univar-null reads no field(s) ['channels', 'depth']"),
        ({"experiment": "no-such-thing"}, "unknown experiment 'no-such-thing'"),
        ({"replicates": 1}, "need at least two replicates"),
        ({"window": math.inf}, "window must be positive and finite, got inf"),
        ({"experiment": "moment-oracle", "replicates": None, "trials": 1},
         "moment-oracle needs at least two trials"),
        ({"experiment": "bias-curve", "trials": 10, "windows": []}, "bias-curve needs windows"),
        ({"frequency": 1e308}, "the phase 2*pi*f*T overflows at frequency 1e+308 and window 5.0"),
        ({"experiment": "univar-coupled", "kappa": 710.0},
         "modulation strength must be at most 700.0, got 710.0"),
        ({**_MULTIVAR, "kappa": 0.5}, "multivar-null reads no field(s) ['kappa']"),
        ({"kappa": 0}, "univar-null reads no field(s) ['kappa']"),
        ({"phase_offset": 0.3}, "univar-null reads no field(s) ['phase_offset']"),
        # The bounds live only in the experiment's entry, and --out names the report's directory.
        ({"tolerances": {"variance": {"value": 0.2, "kind": "relative", "provenance": "loosened"}}},
         "unknown field(s) ['tolerances']"),
        ({"output_dir": "reports"}, "unknown field(s) ['output_dir']"),
        # numpy raised "ValueError: Maximum allowed dimension exceeded" after the build.
        ({"replicates": 2**70}, f"replicates must be at most {2**59 - 1} for numpy to build an "
                                f"array of one complex per replicate, got {2**70}"),
        ({"trials": 2**70}, f"trials must be at most {2**60 - 2} for numpy to build an array of "
                            f"one int64 per trial, got {2**70}"),
    ], ids=["no-units", "zero-dt", "nan-dt", "no-components", "nan-frequency", "unread-fields",
            "unknown-experiment", "one-replicate", "inf-window",
            "one-moment-trial", "no-windows", "overflowing-cycles", "huge-kappa",
            "multivar-null-kappa", "univar-null-kappa", "univar-null-phase-offset", "tolerances", "output-dir", "replicates-past-numpy",
            "trials-past-numpy"])
    def test_experiment(self, tmp_path, capsys, change, message):
        path = tmp_path / "cfg.json"
        doc = {k: v for k, v in {**_EXPERIMENT, **change}.items() if v is not None}
        path.write_text(json.dumps(doc))
        code, err = _run(capsys, ["experiment", "--config", str(path), "--out", str(tmp_path / "o")])
        self._refused(code, err, f"{path}: {message}", tmp_path / "o")

    @pytest.mark.parametrize("phase, options, message", [
        ("linear:inf", None, "frequency must be positive and finite, got inf"),
        ("linear:1e308", None, "the phase 2*pi*f*T overflows at frequency 1e+308 and window 2.0"),
        ("linear:1", {"kappa": 701.0}, "modulation strength must be at most 700.0, got 701.0"),
        ("linear:1.3", {"kappa": 0.5},
         "window 2.0 s must hold an integer number of cycles of 1.3 Hz, got f*T=2.6"),
    ], ids=["inf-frequency", "overflowing-phase", "huge-kappa", "partial-cycles-kappa"])
    def test_analyze(self, tmp_path, capsys, phase, options, message):
        # The phases used to write NaN and Infinity, which are not JSON, into
        # univariate.json; a kappa past the rate model's cap raised a bare
        # OverflowError; the whole-cycles law was applied to 2.6 cycles.
        save_spikes(_sample_spikes(), tmp_path / "s.json")
        argv = ["analyze", "--spikes", str(tmp_path / "s.json"), "--phase", phase,
                "--out", str(tmp_path / "o")]
        if options is not None:
            (tmp_path / "opt.json").write_text(json.dumps(options))
            argv += ["--config", str(tmp_path / "opt.json")]
        code, err = _run(capsys, argv)
        self._refused(code, err, message, tmp_path / "o")

    @pytest.mark.parametrize("change, unread, reads", [
        ({"kappa": 0.5, "depth": 0.3, "harmonic": 4, "frequency": 3.0, "phase_offset": 1.0},
         ["depth", "frequency", "harmonic", "kappa", "phase_offset"], ["rate0"]),
        ({"kind": "sinusoid", "kappa": 0.5, "frequency": 2.0}, ["frequency", "kappa"],
         ["depth", "harmonic", "phase_offset", "rate0"]),
        ({"kind": "vonmises", "kappa": 0.5, "depth": 0.3, "harmonic": 2}, ["depth", "harmonic"],
         ["frequency", "kappa", "phase_offset", "rate0"]),
        ({"kind": "vonmises", "depth": 0.3}, ["depth"],
         ["frequency", "kappa", "phase_offset", "rate0"]),
    ], ids=["homogeneous", "sinusoid", "vonmises", "vonmises-uncoupled"])
    def test_simulate_refuses_a_key_its_kind_does_not_read(self, tmp_path, capsys, change, unread,
                                                           reads):
        # Each was accepted and ignored, exit 0.
        path = tmp_path / "sim.json"
        path.write_text(json.dumps({**_SIM, **change}))
        code, err = _run(capsys, ["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        kind = change.get("kind", "homogeneous")
        common = ["kind", "signals", "trials", "units", "window"]
        self._refused(code, err, f"{path}: {kind} simulation reads no field(s) {unread}; "
                                 f"it reads {sorted(common + reads)}", tmp_path / "o")

    @pytest.mark.parametrize("command", ["simulate", "analyze", "experiment"])
    @pytest.mark.parametrize("out", ["f", "f/sub"], ids=["file", "under-a-file"])
    def test_out_that_is_not_a_directory(self, tmp_path, capsys, monkeypatch, command, out):
        # mkdir raised FileExistsError or NotADirectoryError, experiment only
        # after every replicate had run.
        def no_draws(*args):
            raise AssertionError("a draw ran")

        monkeypatch.setattr(harness, "simulate_poisson", no_draws)
        monkeypatch.setattr(cli_io, "_simulate_units", no_draws)
        (tmp_path / "f").write_text("a file\n")
        (tmp_path / "sim.json").write_text(json.dumps(_SIM))
        (tmp_path / "cfg.json").write_text(json.dumps(_EXPERIMENT))
        save_spikes(_sample_spikes(), tmp_path / "s.json")
        argv = {"simulate": ["--config", str(tmp_path / "sim.json")],
                "analyze": ["--spikes", str(tmp_path / "s.json"), "--phase", "linear:1"],
                "experiment": ["--config", str(tmp_path / "cfg.json")]}[command]
        before = sorted(tmp_path.iterdir())
        code, err = _run(capsys, [command, *argv, "--out", str(tmp_path / out)])
        self._refused(code, err, f"--out {tmp_path / out}: {tmp_path / 'f'} is not a directory",
                      tmp_path / "f" / "sub")
        assert sorted(tmp_path.iterdir()) == before
        assert (tmp_path / "f").read_text() == "a file\n"

    @pytest.mark.parametrize("command", ["simulate", "experiment"])
    def test_a_draw_past_memory(self, tmp_path, capsys, monkeypatch, command):
        # numpy's MemoryError escaped main, as for simulate's 10**12 trials
        # ("Unable to allocate 7.28 TiB"). Whether the host refuses such a
        # request at once depends on its overcommit policy, so a draw raises it here.
        message = "Unable to allocate 7.28 TiB for an array with shape (1000000000000,)"

        def past_memory(*args):
            raise MemoryError(message)

        monkeypatch.setattr(harness, "simulate_poisson", past_memory)
        monkeypatch.setattr(cli_io, "_simulate_units", past_memory)
        (tmp_path / "cfg.json").write_text(json.dumps(_SIM if command == "simulate" else _EXPERIMENT))
        code, err = _run(capsys, [command, "--config", str(tmp_path / "cfg.json"),
                                  "--out", str(tmp_path / "o")])
        self._refused(code, err, message, tmp_path / "o")

    def test_simulate_refuses_a_negative_seed(self, tmp_path, capsys):
        # numpy's default_rng raised a bare "ValueError: expected non-negative integer".
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(_SIM))
        code, err = _run(capsys, ["simulate", "--config", str(path), "--seed", "-1",
                                  "--out", str(tmp_path / "o")])
        self._refused(code, err, "seed must be a non-negative integer, got -1", tmp_path / "o")

    def test_simulate_refuses_a_candidate_count_past_the_poisson_limit(self, tmp_path, capsys):
        # Past numpy's limit its Poisson draw raises a bare "ValueError: lam value too large".
        path = tmp_path / "sim.json"
        path.write_text(json.dumps({"window": 1e300, "trials": 2}))
        code, err = _run(capsys, ["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        self._refused(code, err, "expected candidate count per trial 2e+301", tmp_path / "o")

    def test_experiment_refuses_a_candidate_count_past_the_poisson_limit(self, tmp_path, capsys):
        # Refused where the config is built, so with the config's path.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "bias-curve", "windows": [1e300]}))
        code, err = _run(capsys, ["experiment", "--config", str(path), "--out", str(tmp_path / "o")])
        self._refused(code, err, f"{path}: expected candidate count per trial 3e+301",
                      tmp_path / "o")

    @pytest.mark.parametrize("name, line, old, new", [
        ("s.json", 1, b"{", b'{"extra": "\xff", '),
        ("signals.json", 1, b"{", b'{"extra": "\xff", '),
        ("signals.csv", 1, b"ch0_im", b"ch0_\xff"),
        ("signals.csv", 2, b",", b",\xff"),
        ("signals.csv", 200, b",", b",\xff"),
    ], ids=["spikes-field", "sidecar", "header", "row", "row-past-the-first-buffer"])
    def test_analyze_refuses_a_byte_that_is_not_utf8(self, tmp_path, capsys, name, line, old,
                                                      new):
        # The header is decoded alone, and each row is decoded where the reader
        # refuses it, so a bad byte is named on its own line.
        save_spikes(_sample_spikes(), tmp_path / "s.json")
        rng = np.random.default_rng(2)
        save_signals(synthesize_oscillations([4.0], 2.0, 1 / 128, 5.0, 1, rng),
                     tmp_path / "signals.csv")
        path = tmp_path / name
        lines = path.read_bytes().split(b"\n")
        lines[line - 1] = lines[line - 1].replace(old, new, 1)
        path.write_bytes(b"\n".join(lines))
        code, err = _run(capsys, [
            "analyze", "--spikes", str(tmp_path / "s.json"),
            "--signals", str(tmp_path / "signals.csv"), "--out", str(tmp_path / "o")])
        self._refused(code, err, f"{path}:{line}: byte 0xff is not UTF-8", tmp_path / "o")

    _DEEP, _HUGE = "[" * 100_000, "1" * 5000  # past the parser's nesting and int() digit limits

    @pytest.mark.parametrize("name, text, message", [
        ("s.json", '{"t_start": 0.0, "t_end": 2.0, "units": [{"id": 0, "trials": [' + _DEEP,
         "JSON nested too deeply to read"),
        ("s.json", '{"t_start": 0.0, "t_end": ' + _HUGE + ', "units": []}', "Exceeds the limit ("),
        ("signals.json", '{"dt": 0.0078125, "T": ' + _DEEP, "JSON nested too deeply to read"),
        ("signals.json", '{"dt": 0.0078125, "T": 2.0, "p": ' + _HUGE + ', "whitened": false}',
         "Exceeds the limit ("),
        ("cfg.json", '{"experiment": "bias-curve", "windows": ' + _DEEP,
         "JSON nested too deeply to read"),
        ("cfg.json", '{"experiment": "univar-null", "trials": ' + _HUGE + "}", "Exceeds the limit ("),
    ], ids=["spikes-deep", "spikes-huge-int", "sidecar-deep", "sidecar-huge-int",
            "experiment-deep", "experiment-huge-int"])
    def test_json_past_the_parser_limits(self, tmp_path, capsys, name, text, message):
        # json.loads raises RecursionError and ValueError here, not JSONDecodeError;
        # both escaped main with a traceback.
        save_spikes(_sample_spikes(), tmp_path / "s.json")
        save_signals(synthesize_oscillations([4.0], 2.0, 1 / 128, 5.0, 1, np.random.default_rng(2)),
                     tmp_path / "signals.csv")
        path = tmp_path / name
        path.write_text(text)
        argv = (["experiment", "--config", str(path)] if name == "cfg.json" else
                ["analyze", "--spikes", str(tmp_path / "s.json"),
                 "--signals", str(tmp_path / "signals.csv")])
        code, err = _run(capsys, argv + ["--out", str(tmp_path / "o")])
        self._refused(code, err, f"{path}: {message}", tmp_path / "o")

    @staticmethod
    def _refused(code, err, message, out):
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {message}"), err
        assert "Traceback" not in err
        assert not out.exists()


# sha256 of every file ``simulate`` then ``analyze --signals --phase`` writes at
# a tiny configuration (p = 6, n = 4, K = 3, T = 1 s, dt = 1/64, kappa = 0.8).
# Any change to a number or to a file's formatting moves one of them; a change
# that does so on purpose re-pins here and says so. univariate.json carries the
# law fields of the kappa option, z_re against the ratio-corrected variance;
# it was re-pinned when the law took its Bessel ratios from scipy.special.ive,
# which moved law_limit_re and the z fields by ulps, and again when the law's
# baseline rate became the mean rate over I0(kappa), which scaled the z fields
# by 1/sqrt(I0(0.8)), and again when the law was built once per file and its
# covariance scaled to each unit's count, which moved unit 0's z_re by one ulp.
# spectrum.json was re-pinned here and below when it gained the line
# "silent_units": [], which names the units left out of the spectrum; no other
# byte of it moved.
_CLI_BYTES = {
    "data/spikes.json":
        "f444bf845040717b62e4f182a09a3bb2d8ba6f3606bf70a6a5317597826b546e",
    "data/signals.csv":
        "c50fb77968f4c8d0958554ded851e5cbcddeda002ffac4057301fb0b81b07ca1",
    "data/signals.json":
        "93262a7fcb0587689557aed10ef978aa16807458f81e28832d73bf19fa731e0a",
    "analysis/coupling.json":
        "c4147cb582dc3d32afbe9112b0a972121c3c31447a6c4c2c0a72fa37df9116b5",
    "analysis/spectrum.json":
        "7a022dde9c56d37102c4d0f74580cf0a2b2d20961a2e1356da3b515b4453cd18",
    "analysis/esd.csv":
        "5727928afa64bc012acaae5acbedd97863053d8ca6eb59e03ad0196ef8a93a72",
    "analysis/univariate.json":
        "aa2184cd452b7fc42211cbcb588d2c1cb2639be3e4d0f8fff6e2e3bba4f87cc7",
}

# The same configuration with "whiten": false: the files analyze writes after
# whitening the interpolant of the loaded samples itself, in coupling space.
_UNWHITENED_BYTES = {
    "data/signals.json":
        "11ef643fe2d98ad1d901e3ee2cec4c2ec300b3d4bc50019b7be37af14a140093",
    "analysis/coupling.json":
        "d21f13f81bf8ab83ef5fb21cbb4f15875ab044e5e05cf0441e79bf6888188127",
    "analysis/spectrum.json":
        "47742850b88bcfb00131071d51caa674eae84401fc69b6835716374a2a54b30c",
    "analysis/esd.csv":
        "71ba3802fd2f36ab5205ef9ed03995883ff670a7e4acb8fbdff0aa11ca16a6e4",
}


class TestCliOutputBytes:
    def test_simulate_then_analyze_bytes_pinned(self, tmp_path):
        sim = tmp_path / "sim.json"
        sim.write_text(json.dumps({
            "kind": "vonmises", "window": 1.0, "trials": 3, "units": 4, "rate0": 20.0,
            "kappa": 0.8,
            "signals": {"components": [3.0, 4.0], "channels": 6, "dt": 1 / 64,
                        "noise_kappa": 5.0, "whiten": True},
        }))
        options = tmp_path / "options.json"
        options.write_text(json.dumps({"kappa": 0.8}))
        data, analysis = tmp_path / "data", tmp_path / "analysis"
        assert main(["simulate", "--config", str(sim), "--seed", "7", "--out", str(data)]) == 0
        assert main(["analyze", "--spikes", str(data / "spikes.json"),
                     "--signals", str(data / "signals.csv"), "--phase", "linear:3",
                     "--config", str(options), "--out", str(analysis)]) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in _CLI_BYTES}
        assert digests == _CLI_BYTES

    def test_analyze_of_an_unwhitened_file_bytes_pinned(self, tmp_path):
        # "whiten": false, so analyze whitens: its interpolant Gram reads the loaded
        # samples in their memory layout, and a layout change would move these bits.
        sim = tmp_path / "sim.json"
        sim.write_text(json.dumps({
            "kind": "vonmises", "window": 1.0, "trials": 3, "units": 4, "rate0": 20.0,
            "kappa": 0.8,
            "signals": {"components": [3.0, 4.0], "channels": 6, "dt": 1 / 64,
                        "noise_kappa": 5.0, "whiten": False},
        }))
        data, analysis = tmp_path / "data", tmp_path / "analysis"
        assert main(["simulate", "--config", str(sim), "--seed", "7", "--out", str(data)]) == 0
        assert main(["analyze", "--spikes", str(data / "spikes.json"),
                     "--signals", str(data / "signals.csv"), "--out", str(analysis)]) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in _UNWHITENED_BYTES}
        assert digests == _UNWHITENED_BYTES
