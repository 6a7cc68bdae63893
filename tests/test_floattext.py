"""Tests for the vectorized float formatter: every value written as ``repr`` writes it."""

from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spikefield import _floattext


def _repr_bytes(values) -> bytes:
    """The reference: repr of every float, one per line."""
    values = np.asarray(values, dtype=float).ravel().tolist()
    return "".join(repr(v) + "\n" for v in values).encode()


def _kernel_bytes(values) -> bytes:
    return _floattext.repr_lines(np.asarray(values, dtype=float).reshape(-1, 1), b"", b"\n")[0]


def _bulk_sets():
    """Seeded sets, about 1.2 M values, across the kernel's fast range and past it."""
    rng = np.random.default_rng(20261019)
    normal = rng.standard_normal(150_000)
    # Random bit patterns between 1e-4 and 1e15, both signs.
    fast_bits = rng.integers(np.float64(1e-4).view(np.int64), np.float64(1e15).view(np.int64),
                             200_000)
    fast_bits[::2] |= np.int64(-(2 ** 63))
    powers = np.concatenate([2.0 ** np.arange(-20, 60), 10.0 ** np.arange(-6, 18)])
    neighbours = np.concatenate([powers, -powers])
    for _ in range(5):
        neighbours = np.concatenate([neighbours, np.nextafter(neighbours, 0.0),
                                     np.nextafter(neighbours, np.inf)])
    return {
        "normal": normal,
        "normal*1e-3": normal * 1e-3,
        "normal*1e3": normal * 1e3,
        "normal*1e9": normal[:50_000] * 1e9,
        "k/1024": np.arange(200_000) / 1024.0,
        "integers": rng.integers(-10 ** 9, 10 ** 9, 100_000).astype(float),
        "rounded to 3 decimals": np.round(rng.uniform(-1000.0, 1000.0, 150_000), 3),
        "fast-range bits": fast_bits.view(np.float64),
        "any bits": rng.integers(0, 2 ** 64, 50_000, dtype=np.uint64).view(np.float64),
        "neighbours of powers of 2 and 10": neighbours,
    }


class TestFloatText:
    """The vectorized formatter writes exactly ``repr(float(v))`` for every float64."""

    @pytest.mark.parametrize("values", list(_bulk_sets().values()), ids=list(_bulk_sets()))
    def test_bulk_sets_match_repr(self, values):
        assert _kernel_bytes(values) == _repr_bytes(values)

    def test_bulk_sets_are_large_and_mostly_fast(self):
        sets = _bulk_sets()
        assert sum(v.size for v in sets.values()) >= 1_000_000
        # The integer path settles N(0,1) values, and with repr's digits, but
        # for rare exact ties; repr formats those.
        normal = np.abs(sets["normal"])
        normal = normal[normal >= 1e-4]
        bits = normal.view(np.uint64)
        c, t, exact = _floattext.shortest(bits, _floattext.decade(bits).astype(np.int64))
        assert exact.mean() > 0.999
        for v, digits, zeros in list(zip(normal[exact].tolist(), c[exact].tolist(),
                                         t[exact].tolist()))[:2000]:
            expected = repr(v).replace(".", "").lstrip("0").ljust(17, "0")
            assert (str(digits), 17 - zeros) == (expected, len(expected.rstrip("0")))

    def test_decade_is_exact(self):
        sets = _bulk_sets()
        values = np.abs(np.concatenate([sets["neighbours of powers of 2 and 10"],
                                        sets["fast-range bits"][:20_000]]))
        values = values[(values >= 1e-4) & (values < 1e15)]
        decades = _floattext.decade(values.view(np.uint64)).tolist()
        assert decades == [Decimal(v).adjusted() for v in values.tolist()]

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    @example([0.0, -0.0, 5e-324, 1e-4, 9.999999999999999e-05, 1e15, 999999999999999.9, 0.1, 0.5])
    def test_any_floats_match_repr(self, values):
        assert _kernel_bytes(values) == _repr_bytes(values)

    @given(st.lists(st.floats(min_value=1e-4, max_value=1e15), min_size=1, max_size=40),
           st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_fast_range_floats_match_repr(self, values, negate):
        values = -np.array(values) if negate else np.array(values)
        assert _kernel_bytes(values) == _repr_bytes(values)

    def test_rows_joined_like_a_csv(self):
        values = np.random.default_rng(3).standard_normal((7, 5))
        values[2, 3], values[4, 0] = 0.0, np.nan
        text, lengths = _floattext.repr_lines(values, b",", b"\r\n")
        rows = values.tolist()
        assert text == "".join(",".join(map(repr, row)) + "\r\n" for row in rows).encode()
        expected = [len(repr(v)) + (2 if j == 4 else 1) for row in rows for j, v in enumerate(row)]
        assert lengths.tolist() == expected
