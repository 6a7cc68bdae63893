"""Tests for special functions against quadrature oracles and circular statistics."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spikefield.errors import DomainError
from spikefield.specfun import (
    bessel_i,
    mp_cdf,
    mp_density,
    mp_law,
    von_mises_phasor,
    von_mises_sample,
)

from oracles import bessel_quadrature, mp_cdf_quadrature, mp_mass_quadrature


class TestBesselI:
    def test_at_zero(self):
        assert bessel_i(0, 0.0) == 1.0
        assert bessel_i(1, 0.0) == 0.0
        assert bessel_i(5, 0.0) == 0.0

    def test_ratio_at_half(self):
        # Frozen from the quadrature oracle: I1(0.5)/I0(0.5).
        ratio = bessel_i(1, 0.5) / bessel_i(0, 0.5)
        assert ratio == pytest.approx(0.24249961258080197, abs=1e-10)

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("x", [0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 14.9, 15.1, 17.0, 20.0])
    def test_against_quadrature(self, order, x):
        expected = bessel_quadrature(order, x)
        assert bessel_i(order, x) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("x", [16.0, 50.0, 200.0, 700.0])
    def test_large_argument_recurrence_consistency(self, x):
        # I_{k-1} - I_{k+1} = (2k/x) I_k ties the Miller branch to the
        # asymptotic branch without overflowing quadrature.
        lhs = bessel_i(0, x) - bessel_i(2, x)
        rhs = (2.0 / x) * bessel_i(1, x)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_higher_order_against_quadrature(self):
        for order in (3, 6):
            for x in (0.5, 8.0, 18.0):
                assert bessel_i(order, x) == pytest.approx(
                    bessel_quadrature(order, x), rel=1e-9
                )

    def test_rejects_negative_argument(self):
        with pytest.raises(DomainError):
            bessel_i(0, -1.0)

    def test_rejects_bad_order(self):
        with pytest.raises(DomainError):
            bessel_i(-1, 1.0)
        with pytest.raises(DomainError):
            bessel_i(1.5, 1.0)

    def test_rejects_overflow_range(self):
        with pytest.raises(OverflowError):
            bessel_i(0, 701.0)

    @given(x=st.floats(min_value=0.1, max_value=20.0))
    @settings(max_examples=60, deadline=None)
    def test_three_term_recurrence(self, x):
        lhs = bessel_i(0, x) - bessel_i(2, x)
        rhs = (2.0 / x) * bessel_i(1, x)
        assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs), 1e-300)

    @given(x=st.floats(min_value=0.0, max_value=100.0))
    @example(x=5e-324)  # smallest subnormal: 0.5*x underflows to zero
    @example(x=2.2250738585072014e-308)  # smallest normal
    @settings(max_examples=60, deadline=None)
    def test_order_monotonicity(self, x):
        i0, i1, i2 = bessel_i(0, x), bessel_i(1, x), bessel_i(2, x)
        assert i0 >= 1.0
        assert i0 >= i1 >= i2 >= 0.0


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
        i0, i1, i2 = (bessel_i(k, kappa) for k in (0, 1, 2))
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
