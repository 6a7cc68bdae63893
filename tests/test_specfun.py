"""Tests for special functions against quadrature oracles and circular statistics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikefield import specfun
from spikefield.errors import DomainError
from spikefield.specfun import (
    mp_cdf,
    mp_density,
    mp_law,
    von_mises_phasor,
    von_mises_sample,
)

from oracles import bessel_quadrature, mp_cdf_mpmath, mp_cdf_quadrature, mp_mass_quadrature


class TestMpLaw:
    def test_edges_alpha_one(self):
        law = mp_law(1.0)
        assert law.lower_edge == 0.0
        assert law.upper_edge == 4.0
        assert law.zero_atom == 0.0

    def test_edges_alpha_quarter(self):
        law = mp_law(0.25)
        assert law.lower_edge == pytest.approx(0.25)
        assert law.upper_edge == pytest.approx(2.25)
        assert law.zero_atom == 0.0

    def test_zero_atom_wide(self):
        law = mp_law(10.0)
        assert law.zero_atom == pytest.approx(0.9)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 100.0 / 90.0, 10.0])
    def test_density_mass(self, alpha):
        # Continuous part integrates to 1 - zero_atom (quadrature oracle).
        law = mp_law(alpha)
        assert mp_mass_quadrature(law) == pytest.approx(1.0 - law.zero_atom, abs=1e-6)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 100.0 / 90.0, 10.0])
    def test_cdf_against_quadrature(self, alpha):
        law = mp_law(alpha)
        for frac in (0.1, 0.35, 0.7, 0.95):
            x = law.lower_edge + frac * (law.upper_edge - law.lower_edge)
            assert mp_cdf(law, x) == pytest.approx(mp_cdf_quadrature(law, x), abs=1e-8)

    @pytest.mark.parametrize("alpha", [0.01, 0.5, 1.0, 100.0 / 90.0, 2.0, 10.0, 100.0])
    def test_cdf_against_mpmath(self, alpha):
        # The closed form to 1e-13 from 1e-12 of the support to 1 - 1e-12, so
        # within 1e-12 of either edge, against a 40-digit integral of the density.
        law = mp_law(alpha)
        for frac in (1e-12, 1e-6, 1e-3, 0.05, 0.3, 0.5, 0.7, 0.95, 1 - 1e-3, 1 - 1e-6, 1 - 1e-12):
            x = law.lower_edge + frac * (law.upper_edge - law.lower_edge)
            assert mp_cdf(law, x) == pytest.approx(mp_cdf_mpmath(alpha, x), rel=0, abs=1e-13)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 100.0 / 90.0, 4.0])
    def test_cdf_array_equals_scalar_calls(self, alpha):
        law = mp_law(alpha)
        xs = np.concatenate((np.linspace(-0.5, law.upper_edge + 0.5, 301),
                             [0.0, law.lower_edge, law.upper_edge]))
        got = mp_cdf(law, xs.reshape(2, -1))
        assert got.shape == (2, xs.size // 2)
        assert got.ravel().tolist() == [mp_cdf(law, x) for x in xs]
        assert isinstance(mp_cdf(law, 1.0), float)

    def test_cdf_boundaries(self):
        law = mp_law(0.5)
        assert mp_cdf(law, -1.0) == 0.0
        assert mp_cdf(law, law.lower_edge) == pytest.approx(law.zero_atom, abs=1e-6)
        assert mp_cdf(law, law.upper_edge) == pytest.approx(1.0, abs=1e-6)
        law_wide = mp_law(4.0)
        assert mp_cdf(law_wide, 0.0) == pytest.approx(law_wide.zero_atom)

    def test_cdf_nondecreasing(self):
        law = mp_law(100.0 / 90.0)
        xs = np.linspace(-0.5, law.upper_edge + 0.5, 200)
        vals = [mp_cdf(law, x) for x in xs]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    @given(alpha=st.floats(min_value=0.05, max_value=20.0))
    @settings(max_examples=40, deadline=None)
    def test_density_nonnegative(self, alpha):
        law = mp_law(alpha)
        xs = np.linspace(-1.0, law.upper_edge + 1.0, 100)
        assert np.all(mp_density(law, xs) >= 0.0)

    def test_rejects_bad_alpha(self):
        with pytest.raises(DomainError):
            mp_law(0.0)
        with pytest.raises(DomainError):
            mp_law(-2.0)
        with pytest.raises(DomainError):
            mp_law(float("nan"))

    def test_rejects_nan_input(self):
        law = mp_law(1.0)
        with pytest.raises(DomainError):
            mp_cdf(law, float("nan"))
        with pytest.raises(DomainError):
            mp_cdf(law, np.array([1.0, float("nan")]))
        with pytest.raises(DomainError):
            mp_density(law, float("nan"))


def _circular_mean(theta):
    return math.atan2(np.mean(np.sin(theta)), np.mean(np.cos(theta)))


def _resultant_length(theta):
    return abs(np.mean(np.exp(1j * theta)))


class TestVonMisesSample:
    def test_kappa_zero_uniform(self):
        rng = np.random.default_rng(7)
        draws = von_mises_sample(0.3, 0.0, rng, size=100_000)
        # KS distance of the empirical CDF against uniform on [-pi, pi).
        s = np.sort(draws)
        grid = (s + math.pi) / (2 * math.pi)
        emp_hi = np.arange(1, len(s) + 1) / len(s)
        emp_lo = np.arange(0, len(s)) / len(s)
        ks = max(np.max(np.abs(emp_hi - grid)), np.max(np.abs(emp_lo - grid)))
        assert ks < 0.01

    def test_kappa_ten_mean(self):
        rng = np.random.default_rng(11)
        mu = 0.8
        draws = von_mises_sample(mu, 10.0, rng, size=100_000)
        assert abs(_circular_mean(draws) - mu) < 0.02

    @pytest.mark.parametrize("kappa", [0.5, 2.0, 10.0])
    def test_resultant_length_matches_bessel_ratio(self, kappa):
        n = 100_000
        rng = np.random.default_rng(int(kappa * 100))
        draws = von_mises_sample(0.0, kappa, rng, size=n)
        i0, i1, i2 = (bessel_quadrature(k, kappa) for k in (0, 1, 2))
        target = i1 / i0
        # Var(Re mean of e^{i theta}) = (1 + I2/I0 - 2 R^2) / (2n)
        se = math.sqrt(max(1e-12, (1.0 + i2 / i0 - 2.0 * target**2) / (2.0 * n)))
        assert abs(_resultant_length(draws) - target) < 3.0 * se

    def test_mirror_symmetry(self):
        n = 200_000
        a = von_mises_sample(0.9, 2.0, np.random.default_rng(5), size=n)
        b = von_mises_sample(-0.9, 2.0, np.random.default_rng(6), size=n)
        bins = np.linspace(-math.pi, math.pi, 41)
        ha, _ = np.histogram(a, bins=bins, density=True)
        hb, _ = np.histogram(-b, bins=bins, density=True)
        # Mirrored histograms agree within Monte Carlo noise.
        assert np.max(np.abs(ha - hb)) < 0.02

    def test_range_and_shape(self):
        rng = np.random.default_rng(0)
        x = von_mises_sample(3.0, 1.0, rng, size=(3, 5))
        assert x.shape == (3, 5)
        assert np.all(x >= -math.pi) and np.all(x < math.pi)
        scalar = von_mises_sample(0.0, 1.0, rng)
        assert isinstance(scalar, float)

    def test_rejects_negative_kappa(self):
        with pytest.raises(DomainError):
            von_mises_sample(0.0, -0.1, np.random.default_rng(0))

    def test_seeded_reproducibility(self):
        a = von_mises_sample(0.2, 4.0, np.random.default_rng(42), size=1000)
        b = von_mises_sample(0.2, 4.0, np.random.default_rng(42), size=1000)
        assert np.array_equal(a, b)

    def test_stream_pinned(self):
        # The first five draws for this seed, as the sampler has produced them
        # since its first version; any change to the batch order moves them.
        draws = von_mises_sample(0.2, 4.0, np.random.default_rng(42), size=5)
        assert draws.tolist() == [
            -0.2056972513816291, -0.7027241328413405, 0.12566773666888453,
            0.0982847795528139, 0.6204309205744414,
        ]

    @pytest.mark.parametrize("sampler", [
        lambda kappa, rng: von_mises_sample(0.0, kappa, rng, size=4),
        lambda kappa, rng: von_mises_phasor(kappa, rng, size=4),
    ], ids=["angle", "phasor"])
    @pytest.mark.parametrize("kappa", [-0.1, math.nan, math.inf, -math.inf, 1e20])
    def test_rejects_bad_concentration(self, sampler, kappa):
        # inf and 1e20 used to loop forever: the envelope parameter r is NaN
        # or rounds to 1, and no candidate is ever accepted.
        with pytest.raises(DomainError, match="concentration"):
            sampler(kappa, np.random.default_rng(0))

    def test_largest_concentration_accepted(self):
        draws = von_mises_sample(0.0, 1e12, np.random.default_rng(0), size=10_000)
        assert np.std(draws) * 1e6 == pytest.approx(1.0, rel=0.03)


class TestVonMisesPhasor:
    @pytest.mark.parametrize("kappa", [1e-3, 0.5, 10.0, 1e3])
    def test_same_stream_as_the_angles(self, kappa):
        z = von_mises_phasor(kappa, np.random.default_rng(9), size=(7, 3001))
        theta = von_mises_sample(0.0, kappa, np.random.default_rng(9), size=(7, 3001))
        assert z.shape == (7, 3001) and z.dtype == complex
        assert np.max(np.abs(z - np.exp(1j * theta))) < 1e-12
        assert np.max(np.abs(np.abs(z) - 1.0)) < 1e-15

    def test_leaves_the_generator_where_the_angles_do(self):
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        von_mises_phasor(10.0, a, size=1000)
        von_mises_sample(0.0, 10.0, b, size=1000)
        assert a.uniform() == b.uniform()

    def test_kappa_zero_uniform_phase(self):
        z = von_mises_phasor(0.0, np.random.default_rng(2), size=100_000)
        theta = von_mises_sample(0.0, 0.0, np.random.default_rng(2), size=100_000)
        assert np.max(np.abs(z - np.exp(1j * theta))) < 1e-12
        assert abs(z.mean()) < 4.0 / math.sqrt(len(z))

    def test_scalar(self):
        z = von_mises_phasor(2.0, np.random.default_rng(1))
        assert isinstance(z, complex)
        assert z == pytest.approx(np.exp(1j * von_mises_sample(0.0, 2.0, np.random.default_rng(1))))


def _unsliced_best_fisher(kappa, rng, n):
    """Oracle: the Best-Fisher core testing each batch's candidates in one pass."""
    tau = 1.0 + math.sqrt(1.0 + 4.0 * kappa * kappa)
    rho = (tau - math.sqrt(2.0 * tau)) / (2.0 * kappa)
    r = (1.0 + rho * rho) / (2.0 * rho)
    cos, sign = np.empty(n), np.empty(n)
    filled = 0
    while filled < n:
        m = int((n - filled) * 1.6) + 8
        u1, u2, u3 = (rng.uniform(size=m) for _ in range(3))
        z = np.cos(math.pi * u1)
        f = (1.0 + r * z) / (r + z)
        c = kappa * (r - f)
        accept = c * (2.0 - c) > u2
        rest = ~accept
        accept[rest] = np.log(c[rest] / u2[rest]) + 1.0 - c[rest] >= 0.0
        keep = np.flatnonzero(accept)[: n - filled]
        cos[filled : filled + len(keep)] = np.clip(f[keep], -1.0, 1.0)
        sign[filled : filled + len(keep)] = np.sign(u3[keep] - 0.5)
        filled += len(keep)
    return cos, sign


class _CountingRng:
    """A generator that counts its ``uniform`` and ``random`` calls."""

    def __init__(self, seed):
        self._rng, self.calls = np.random.default_rng(seed), 0

    def uniform(self, *args, **kwargs):
        self.calls += 1
        return self._rng.uniform(*args, **kwargs)

    def random(self, *args, **kwargs):
        self.calls += 1
        return self._rng.random(*args, **kwargs)


class TestBestFisherSlices:
    # (kappa, seed, n); 2^15 candidates are tested per slice. At kappa = 2,
    # seed 671 accepts fewer than 10 of the first batch's 24 candidates.
    @pytest.mark.parametrize("kappa, seed, n", [
        (10.0, 1, 1), (10.0, 2, 2**15 - 1), (0.5, 3, 2**15), (1e3, 4, 2**15 + 1),
        (10.0, 5, 100_003), (2.0, 671, 10),
    ])
    def test_bit_identical_to_the_unsliced_core(self, monkeypatch, kappa, seed, n):
        def draws(rng):
            return (von_mises_sample(0.3, kappa, rng, size=n).view(np.int64),
                    von_mises_phasor(kappa, rng, size=n).view(np.int64))

        sliced_rng = _CountingRng(seed)
        sliced = draws(sliced_rng)
        monkeypatch.setattr(specfun, "_best_fisher", _unsliced_best_fisher)
        reference_rng = _CountingRng(seed)
        reference = draws(reference_rng)
        for got, expected in zip(sliced, reference):
            assert np.array_equal(got, expected)
        assert sliced_rng.calls == reference_rng.calls
        assert sliced_rng.uniform() == reference_rng.uniform()
        if seed == 671:
            assert sliced_rng.calls > 6  # a second batch in at least one sampler

    @pytest.mark.parametrize("kappa, seed, n", [
        (10.0, 1, 1), (0.5, 3, 2**15), (1e3, 4, 7), (10.0, 5, 100_003), (2.0, 671, 10),
    ])
    def test_uniforms_leave_the_generator_as_uniform_does(self, kappa, seed, n):
        # The core draws with Generator.random(m), the oracle with uniform(size=m):
        # the same values, and the generator left in the same state.
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = specfun._best_fisher(kappa, rng, n)
        expected = _unsliced_best_fisher(kappa, reference_rng, n)
        for a, b in zip(got, expected):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))
        assert rng.bit_generator.state == reference_rng.bit_generator.state
