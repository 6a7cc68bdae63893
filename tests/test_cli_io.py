"""Tests for file formats and the command-line interface."""

import hashlib
import json
import math

import numpy as np
import pytest

from spikefield.cli_io import (
    load_experiment_config,
    load_signals,
    load_spikes,
    main,
    save_signals,
    save_spikes,
)
from spikefield.errors import DomainError
from spikefield.multicoupling import build_coupling_matrix
from spikefield.pointproc import HomogeneousRate, SpikeData, simulate_poisson
from spikefield.signals import SignalMatrix, synthesize_oscillations

from oracles import bessel_quadrature


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
    """A one-channel, four-sample signal file whose CSV body is ``text``."""
    save_signals(SignalMatrix(np.ones((1, 4), dtype=complex), dt=0.25), tmp_path / "signals.csv")
    (tmp_path / "signals.csv").write_text(text)
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

    def test_tolerance_override(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "experiment": "univar-null",
            "tolerances": {"variance": {"value": 0.2, "kind": "relative", "provenance": "loosened"}},
        }))
        cfg = load_experiment_config(path)
        assert cfg.tolerances["variance"].value == 0.2
        assert cfg.tolerances["gaussian_ks"].value == 0.03  # others intact


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
        assert capsys.readouterr().err.startswith("error: phase_noise_kappa must be")
        assert not (tmp_path / "o" / "signals.csv").exists()

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

    def test_experiment_fail_verdict_keeps_exit_zero(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        # Absurdly tight tolerance guarantees a FAIL verdict; exit stays 0.
        cfg.write_text(json.dumps({
            "experiment": "moment-oracle", "trials": 2000,
            "tolerances": {"moment": {"value": 1e-9, "kind": "se_multiple",
                                      "provenance": "test"}},
        }))
        assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0

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
        rate_t = times.size / trials  # estimated rate times window
        i0, i1, i2 = (bessel_quadrature(k, kappa) for k in range(3))
        limit = np.exp(1j * offset) * i1 / i0
        z = np.exp(-1j * offset) * math.sqrt(trials) * (plv - limit)
        var_re = (i0 + i2) / (2 * rate_t * i0**2) - (i1 / i0) ** 2 / (rate_t * i0)
        var_im = (i0 - i2) / (2 * rate_t * i0**2)
        assert unit["law_limit_re"] == pytest.approx(limit.real, rel=1e-10)
        assert unit["law_limit_im"] == pytest.approx(limit.imag, rel=1e-10)
        assert unit["z_re"] == pytest.approx(z.real / math.sqrt(var_re), rel=1e-9)
        assert unit["z_im"] == pytest.approx(z.imag / math.sqrt(var_im), rel=1e-9)


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
        ({"tolerances": {"variance": {"v": 1}}}, "tolerance 'variance': unknown field(s) ['v']"),
        ({"tolerances": {"variance": 5}}, "tolerance 'variance': expected a JSON object, got 5"),
        ({"tolerances": {"variance": {"value": 0.05, "kind": "relatve", "provenance": "typo"}}},
         "tolerance 'variance': kind must be one of"),
    ], ids=["string-replicates", "scalar-components", "unknown-tolerance-field",
            "scalar-tolerance", "mistyped-tolerance-kind"])
    def test_experiment(self, tmp_path, capsys, change, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**_EXPERIMENT, **change}))
        code, err = _run(capsys, ["experiment", "--config", str(path)])
        assert code == 1
        assert err.startswith(f"error: {path}: {message}")

    @pytest.mark.parametrize("options, message", [
        ({"kapa": 0.5}, "unknown field(s) ['kapa']"),
        ({"kappa": "0.5"}, "field 'kappa' must be a number, got \"0.5\""),
        ({"edge_margin": None}, "field 'edge_margin' must be a number, got null"),
    ], ids=["unknown-option", "string-kappa", "null-edge-margin"])
    def test_analyze_options(self, tmp_path, capsys, options, message):
        save_spikes(_sample_spikes(), tmp_path / "s.json")
        path = tmp_path / "opt.json"
        path.write_text(json.dumps(options))
        code, err = _run(capsys, [
            "analyze", "--spikes", str(tmp_path / "s.json"), "--phase", "linear:1",
            "--config", str(path), "--out", str(tmp_path / "o")])
        assert (code, err.splitlines()[0]) == (1, f"error: {path}: {message}")

    @pytest.mark.parametrize("change, message", [
        ({"whitened": "no"}, "field 'whitened' must be true or false, got \"no\""),
        ({"whitened": 0}, "field 'whitened' must be true or false, got 0"),
        ({"dt": "x"}, "field 'dt' must be a number, got \"x\""),
        ({"T": None}, "field 'T' must be a number, got null"),
        ({"p": 2.5}, "field 'p' must be an integer, got 2.5"),
        ({"extra": 1}, "unknown field(s) ['extra']"),
    ], ids=["string-whitened", "int-whitened", "string-dt", "null-window", "fractional-p",
            "unknown-field"])
    def test_signal_sidecar(self, tmp_path, capsys, change, message):
        sd = _sample_spikes()
        save_spikes(sd, tmp_path / "s.json")
        rng = np.random.default_rng(2)
        save_signals(synthesize_oscillations([4.0], 2.0, 1 / 32, 5.0, 2, rng),
                     tmp_path / "signals.csv")
        sidecar = tmp_path / "signals.json"
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), **change}))
        code, err = _run(capsys, [
            "analyze", "--spikes", str(tmp_path / "s.json"),
            "--signals", str(tmp_path / "signals.csv"), "--out", str(tmp_path / "o")])
        assert (code, err.splitlines()[0]) == (1, f"error: {sidecar}: {message}")
        assert not (tmp_path / "o" / "coupling.json").exists()


# sha256 of every file ``simulate`` then ``analyze --signals --phase`` writes at
# a tiny configuration (p = 6, n = 4, K = 3, T = 1 s, dt = 1/64, kappa = 0.8).
# Any change to a number or to a file's formatting moves one of them; a change
# that does so on purpose re-pins here and says so. univariate.json carries the
# law fields of the kappa option, z_re against the ratio-corrected variance.
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
        "2e747130fcde579b4df630f4c260a2499bd89a5803cc56bd6cbc21de414cef16",
    "analysis/esd.csv":
        "5727928afa64bc012acaae5acbedd97863053d8ca6eb59e03ad0196ef8a93a72",
    "analysis/univariate.json":
        "3db02c550f1e9178dee8a638f2e3132a50d73af29ee63aa4ef323f9b39ea9f64",
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
