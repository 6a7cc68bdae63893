"""Each check accepts a correct output and rejects a corrupted one.

Run with ``PYTHONPATH=src python3 -m pytest -q perfbench/tests``.
"""

import json
import math

import numpy as np
import pytest

import checks
from checks import CheckError
from spikefield import cli_io, pointproc, signals

P, N, K, T, DT = 6, 4, 3, 1.0, 1.0 / 64.0


@pytest.fixture(scope="module")
def round_trip(tmp_path_factory):
    """A small simulate -> analyze round trip through the CLI, and its files."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "simulate.json"
    config.write_text(json.dumps({
        "kind": "vonmises", "window": T, "trials": K, "units": N, "rate0": 30.0, "kappa": 0.8,
        "signals": {"components": [2.0, 3.0], "channels": P, "dt": DT,
                    "noise_kappa": 5.0, "whiten": True},
    }))
    data, analysis = root / "data", root / "analysis"
    assert cli_io.main(["simulate", "--config", str(config), "--seed", "3", "--out", str(data)]) == 0
    assert cli_io.main(["analyze", "--spikes", str(data / "spikes.json"),
                        "--signals", str(data / "signals.csv"), "--out", str(analysis)]) == 0
    doc = json.loads((data / "spikes.json").read_text())
    trains = [unit["trials"] for unit in doc["units"]]
    coupling = json.loads((analysis / "coupling.json").read_text())
    return {
        "csv": data / "signals.csv",
        "samples": cli_io.load_signals(data / "signals.csv").samples,
        "trains": trains,
        "unit_times": [np.concatenate([np.asarray(t, dtype=float) for t in u]) for u in trains],
        "entries": np.asarray(coupling["entries_re"]) + 1j * np.asarray(coupling["entries_im"]),
        "eigenvalues": np.asarray(json.loads((analysis / "spectrum.json").read_text())["eigenvalues"]),
    }


def _reference_spectrum(rt, entries=None):
    entries = rt["entries"] if entries is None else entries
    return checks.spectrum_reference(entries, rt["samples"].sum(axis=1) * DT,
                                     [len(t) for t in rt["unit_times"]], K, T)


class TestCoupling:
    def test_accepts_program_output(self, round_trip):
        ref = checks.coupling_reference(round_trip["samples"], DT, round_trip["unit_times"], K)
        checks.coupling_matches(round_trip["entries"], ref)

    def test_rejects_one_entry_moved_by_1e_6(self, round_trip):
        ref = checks.coupling_reference(round_trip["samples"], DT, round_trip["unit_times"], K)
        bad = round_trip["entries"].copy()
        bad[2, 1] += 1e-6
        with pytest.raises(CheckError, match="np.interp"):
            checks.coupling_matches(bad, ref)

    def test_reference_uses_the_periodic_extension(self):
        # A spike at T interpolates back to the first sample.
        samples = np.array([[1.0 + 0j, 3.0, 5.0, 7.0]])
        ref = checks.coupling_reference(samples, 0.25, [np.array([0.125, 1.0])], trials=2)
        assert ref[0, 0] == pytest.approx((2.0 + 1.0) / 2)


class TestSpectrum:
    def test_accepts_program_output(self, round_trip):
        checks.spectrum_matches(round_trip["eigenvalues"], _reference_spectrum(round_trip), N)

    def test_rejects_a_dropped_eigenvalue(self, round_trip):
        with pytest.raises(CheckError, match="eigenvalues, expected"):
            checks.spectrum_matches(round_trip["eigenvalues"][:-1], _reference_spectrum(round_trip), N)

    def test_rejects_a_moved_eigenvalue(self, round_trip):
        bad = round_trip["eigenvalues"].copy()
        bad[0] *= 1.0 + 1e-6
        with pytest.raises(CheckError, match="eigvalsh"):
            checks.spectrum_matches(bad, _reference_spectrum(round_trip), N)

    def test_rejects_a_missing_zero(self, round_trip):
        bad = round_trip["eigenvalues"].copy()
        bad[-1] = 1e-300
        with pytest.raises(CheckError, match="exactly zero"):
            checks.spectrum_matches(bad, _reference_spectrum(round_trip), N)


class TestSignalsFile:
    def test_accepts_program_output(self, round_trip):
        got = checks.signals_file(round_trip["csv"], round_trip["samples"], P, round(T / DT), DT)
        assert np.array_equal(got, round_trip["samples"])

    def test_rejects_a_truncated_csv(self, round_trip, tmp_path):
        text = round_trip["csv"].read_text()
        cut = tmp_path / "signals.csv"
        cut.write_text(text[: len(text) // 2])
        with pytest.raises(CheckError):
            checks.signals_file(cut, round_trip["samples"], P, round(T / DT), DT)

    def test_rejects_a_reader_that_differs(self, round_trip):
        bad = round_trip["samples"].copy()
        bad[0, 5] += 1e-12
        with pytest.raises(CheckError, match="independent read"):
            checks.signals_file(round_trip["csv"], bad, P, round(T / DT), DT)

    def test_rejects_an_unwhitened_file(self, tmp_path):
        rng = np.random.default_rng(0)
        raw = signals.synthesize_oscillations([2.0, 3.0], T, DT, 5.0, P, rng)
        cli_io.save_signals(raw, tmp_path / "raw.csv")
        with pytest.raises(CheckError, match="Gram"):
            checks.signals_file(tmp_path / "raw.csv", raw.samples, P, round(T / DT), DT)


class TestSpikeTrains:
    def test_accepts_program_output(self, round_trip):
        checks.spike_trains(round_trip["trains"], T, N, K)

    @pytest.mark.parametrize("trial, match", [
        ([0.5, 0.2], "increase strictly"),
        ([0.2, 0.2], "increase strictly"),
        ([0.2, T + 1e-9], "outside"),
    ])
    def test_rejects(self, trial, match):
        with pytest.raises(CheckError, match=match):
            checks.spike_trains([[trial]], T, 1, 1)


class TestUnivariate:
    KAPPA, RATE, WINDOW, TRIALS = 0.5, 20.0, 5.0, 500

    def _plvs(self, n=8):
        phase = signals.LinearPhase(1.0, self.WINDOW)
        model = pointproc.VonMisesRate(self.RATE, self.KAPPA, 0.0, phase)
        rng = np.random.default_rng(7)
        out, totals = [], []
        for _ in range(n):
            sd = pointproc.simulate_poisson(model, self.WINDOW, self.TRIALS, rng)
            times = np.concatenate(sd.trains[0])
            out.append(np.mean(np.exp(2j * math.pi * times)))
            totals.append(times.size)
        return np.array(out), totals

    def test_accepts_simulated_plvs_and_totals(self):
        plvs, totals = self._plvs()
        checks.plv_mean(plvs, self.KAPPA, self.RATE, self.WINDOW, self.TRIALS)
        checks.spike_totals(totals, self.KAPPA, self.RATE, self.WINDOW, self.TRIALS)

    def test_rejects_a_shifted_mean(self):
        plvs, _ = self._plvs()
        _, sd_re, _ = checks.plv_law(self.KAPPA, self.RATE, self.WINDOW, self.TRIALS)
        with pytest.raises(CheckError, match="real part"):
            checks.plv_mean(plvs + 6 * sd_re, self.KAPPA, self.RATE, self.WINDOW, self.TRIALS)

    def test_rejects_totals_of_another_rate(self):
        _, totals = self._plvs()
        with pytest.raises(CheckError, match="spike total"):
            checks.spike_totals(totals, self.KAPPA, 1.1 * self.RATE, self.WINDOW, self.TRIALS)

    def test_limit_is_the_bessel_ratio(self):
        limit, _, _ = checks.plv_law(0.5, 20.0, 5.0, 100)
        # I1(0.5)/I0(0.5) from the power series.
        i0 = sum((0.25**2) ** m / math.factorial(m) ** 2 for m in range(20))
        i1 = sum(0.25 * (0.25**2) ** m / (math.factorial(m) * math.factorial(m + 1)) for m in range(20))
        assert limit == pytest.approx(i1 / i0, rel=1e-14)

    def test_rejects_different_bodies(self):
        body = {"replicates": {"plv_re": [0.1, 0.2]}}
        checks.same_body(body, json.loads(json.dumps(body)))
        with pytest.raises(CheckError, match="same seed"):
            checks.same_body(body, {"replicates": {"plv_re": [0.1, 0.2000000000000001]}})


class TestMarchenkoPastur:
    def test_cdf_matches_the_closed_form_at_ratio_one(self):
        # alpha = 1: F(x) = (2/pi) (theta + sin(2 theta) / 2), theta = asin(sqrt(x) / 2).
        for x in (0.3, 1.0, 2.5, 3.9):
            theta = math.asin(math.sqrt(x) / 2.0)
            assert checks.mp_cdf(x, 1.0) == pytest.approx(
                (2.0 / math.pi) * (theta + math.sin(2.0 * theta) / 2.0), abs=1e-9)

    def test_cdf_has_the_zero_atom(self):
        assert checks.mp_cdf(0.0, 100 / 90) == pytest.approx(0.1)
        assert checks.mp_cdf(checks.mp_edges(100 / 90)[1], 100 / 90) == 1.0

    def _null_spectra(self, count=4, p=100, n=90):
        rng = np.random.default_rng(11)
        spectra = []
        for _ in range(count):
            y = (rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))) / math.sqrt(2.0)
            eigs = np.linalg.eigvalsh(y @ y.conj().T / n)[::-1]
            eigs[eigs < 1e-10] = 0.0
            spectra.append(eigs)
        return spectra

    def test_accepts_complex_wishart_spectra(self):
        ks = checks.mp_spectra(self._null_spectra(), 100 / 90, ks_bound=0.05)
        assert ks < 0.05

    def test_rejects_scaled_spectra(self):
        spectra = [1.3 * eigs for eigs in self._null_spectra()]
        with pytest.raises(CheckError):
            checks.mp_spectra(spectra, 100 / 90, ks_bound=0.05)

    def test_rejects_a_negative_eigenvalue(self):
        spectra = self._null_spectra()
        spectra[1][-1] = -1e-9
        with pytest.raises(CheckError, match="negative"):
            checks.mp_spectra(spectra, 100 / 90, ks_bound=0.05)

    def test_rejects_a_trace_far_from_one(self):
        with pytest.raises(CheckError, match="trace/p"):
            checks.traces([1.0, 0.81])

    def test_detection(self):
        edge = checks.mp_edges(100 / 90)[1]
        checks.detection([edge + 0.1, 1.0], 100 / 90)
        with pytest.raises(CheckError, match="does not exceed"):
            checks.detection([edge, 1.0], 100 / 90)

    def test_probability(self):
        checks.probability(0.3, "p")
        with pytest.raises(CheckError):
            checks.probability(1.5, "p")
