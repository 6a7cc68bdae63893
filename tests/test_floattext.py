"""Tests for floats as text: written as ``repr`` writes them, read as ``numpy.loadtxt`` reads them."""

import io
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spikefield import _floattext, cli_io
from spikefield.cli_io import save_signals
from spikefield.signals import SignalMatrix

from oracles import loadtxt_rows


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


def _csv(fields, columns: int) -> bytes:
    """CRLF lines of ``columns`` fields, each line after a time field, as in a signal file."""
    fields = fields + ["1.5"] * (-len(fields) % columns)
    return b"".join(",".join(["0.0", *fields[i:i + columns]]).encode() + b"\r\n"
                    for i in range(0, len(fields), columns))


class _CountingNumber:
    """Stands in for the reader's number pattern and counts the fields it is asked about."""

    def __init__(self, pattern):
        self.pattern, self.fields = pattern, 0

    def fullmatch(self, text):
        self.fields += 1
        return self.pattern.fullmatch(text)


def _read_like_loadtxt(fields, columns=3, monkeypatch=None):
    """Read the fields as CSV rows with read_rows and with numpy.loadtxt; require the same bits.

    Returns how many fields the reader left to float().
    """
    fields = list(fields)
    text = _csv(fields, columns)
    counter = _CountingNumber(_floattext._NUMBER)
    if monkeypatch is not None:
        monkeypatch.setattr(_floattext, "_NUMBER", counter)
    got, count, finite = _floattext.read_rows(io.BytesIO(text), text.count(b"\n"), columns + 1)
    expected = loadtxt_rows(text, columns + 1)[:, 1:]
    assert (got.shape, count, finite) == (expected.shape, len(expected), True)
    bad = np.flatnonzero(got.view(np.uint64).ravel() != expected.view(np.uint64).ravel())
    assert bad.size == 0, [fields[i] for i in bad[:5]]
    return counter.fields


def _near_ties(values):
    """Short decimals next to the midpoints between each float and the next one up."""
    out = []
    with localcontext() as ctx:
        ctx.prec = 60
        for a, b in zip(values.tolist(), np.nextafter(values, np.inf).tolist()):
            mid = (Decimal(a) + Decimal(b)) / 2
            for digits in (16, 17, 18, 19):
                rounded = Decimal(format(mid, f".{digits - 1}e"))
                step = Decimal(1).scaleb(rounded.adjusted() - digits + 1)
                for k in (-1, 0, 1):
                    text = format(rounded + k * step, "f")
                    out.append(text if "." in text else text + ".0")
    return out


# Fields the reader takes whole: each as numpy.loadtxt reads it, by float() where
# the integer test cannot settle it.
_ODD_FIELDS = [
    "00.5", "5.", "-0.0", "0.0", "-0.000", "0.000123456789012345678", "1e-05", "1.5e+300",
    "-1.5e+300", "5e-324", "-5e-324", "2.2250738585072014e-308", "2.225073858507201e-308",
    "-.5", ".5", "+1.5", "1E5", "0000000000000000.1", "0.00000000000000000000001",
    "123456789012345678.5", "9007199254740993.0", "9007199254740992.5", "0.1",
    "0.30000000000000004", "1234567890123456.7", "4503599627370496.5", "1.0", "2.0",
    "0.5", "0.25", "1024.0", "0.0001", "0.00009999999999999999", "999999999999999.9",
    "1e15", "1e+16", "1.7976931348623157e+308", "12345678901234567.5",
    "1234567890123456.5", "-9876543210987654.25",
    "0.1000000000000000055511151231257827021181583404541015625",
]


# Fields of a CSV line: numbers as repr writes them and in other forms,
# padded with Unicode whitespace or not, nan and infinities, and junk.
_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: repr(v).encode()),
    st.sampled_from([b"+1.5", b".5", b"5.", b"1E5", b"-0.0", b"00.5", b"-.5e-3", b"1e400"]),
)
_SPECIAL = st.sampled_from([b"nan", b"-inf", b"Infinity", b"+NaN", b"iNf"])
_JUNK = st.sampled_from([b"", b"x", b"1e", b"1_0", b"0x10", b".", b"-", b"1.2.3", b"1 2", b"\x00",
                         b"\xc3\xa9", b"\xff", b"nan(1)", b'"2"', b"--1"])
_PADDING = st.sampled_from([b"", b"", b"", b" ", b"\t", b"\xc2\xa0", b"\x0b", b"\x1c", b"\xe3\x80\x80"])
_FIELD = st.tuples(_PADDING, st.one_of(_NUMBERS, _NUMBERS, _SPECIAL, _JUNK), _PADDING).map(b"".join)
_LINES = st.one_of(st.lists(_FIELD, min_size=3, max_size=3), st.lists(_FIELD, max_size=5),
                   st.just([b""]), st.just([b" \t"])).map(b",".join)
_ENDS = st.sampled_from([b"\r\n", b"\n", b"\r"])


class TestReadRows:
    """read_rows reads the writer's CSV rows to the bits numpy.loadtxt reads from them."""

    @pytest.mark.parametrize("values", list(_bulk_sets().values()), ids=list(_bulk_sets()))
    def test_bulk_sets_through_save_signals(self, values, tmp_path):
        values = values[np.isfinite(values)]
        q = values.size // 10
        samples = values[:10 * q].view(complex).reshape(5, q)
        save_signals(SignalMatrix(samples, dt=1e-3), tmp_path / "signals.csv")
        text = (tmp_path / "signals.csv").read_bytes()
        data = text[text.index(b"\n") + 1:]
        got, count, finite = _floattext.read_rows(io.BytesIO(data), q, 11)
        assert (count, finite) == (q, True)
        assert np.array_equal(got.view(np.uint64), loadtxt_rows(data, 11)[:, 1:].view(np.uint64))
        assert np.array_equal(got.view(complex).T, samples)

    def test_normal_samples_take_the_integer_path(self, monkeypatch):
        values = np.random.default_rng(5).standard_normal(60_000)
        left = _read_like_loadtxt(map(repr, values.tolist()), 6, monkeypatch)
        assert left <= np.count_nonzero(np.abs(values) < 1e-4)  # written with an exponent

    def test_zeros_keep_their_sign_on_the_integer_path(self, monkeypatch):
        assert _read_like_loadtxt(["0.0", "-0.0", "00.000", "-0.0000000000000000000"] * 3, 4,
                                  monkeypatch) == 0

    def test_near_ties(self, monkeypatch):
        rng = np.random.default_rng(11)
        values = np.abs(rng.standard_normal(2_000)) * 10.0 ** rng.integers(-4, 15, 2_000)
        values = np.concatenate([values, 2.0 ** np.arange(-13, 50) * 1.5])
        fields = _near_ties(values)
        left = _read_like_loadtxt(fields, 4, monkeypatch)
        assert left < len(fields) / 2  # the rest went through the integer test

    def test_long_significands(self):
        rng = np.random.default_rng(12)
        fields = []
        for length in range(18, 26):
            for _ in range(300):
                digits = "".join(map(str, rng.integers(0, 10, length)))
                point = int(rng.integers(1, 17))
                sign = "-" if rng.random() < 0.5 else ""
                fields += [sign + digits[:point] + "." + digits[point:], sign + "0." + digits]
        _read_like_loadtxt(fields, 5)

    def test_odd_fields(self):
        _read_like_loadtxt(_ODD_FIELDS * 3, 3)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_any_finite_floats_written_by_repr(self, values):
        _read_like_loadtxt(map(repr, values), 3)

    @given(st.lists(st.tuples(st.booleans(), st.text("0123456789", min_size=1, max_size=18),
                              st.text("0123456789", min_size=1, max_size=24)),
                    min_size=1, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_any_plain_decimals(self, parts):
        _read_like_loadtxt([("-" if neg else "") + whole + "." + fraction
                            for neg, whole, fraction in parts], 2)

    @pytest.mark.parametrize("capacity", [0, 1, 2, 3, 10 ** 6])
    def test_capacity_keeps_the_leading_rows(self, capacity):
        # Every line is read and counted; the table keeps the first ``capacity`` of them.
        got, count, finite = _floattext.read_rows(io.BytesIO(b"1.0,2.0\r\n3.0,4.0\r\n"), capacity, 2)
        assert (got.shape, count, finite) == ((capacity, 1), 2, True)
        assert got[:2, 0].tolist() == [2.0, 4.0][:capacity]

    @given(st.lists(st.tuples(_LINES, _ENDS), max_size=8), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_any_text_reads_as_loadtxt_reads_it(self, lines, final_end):
        # The bits numpy.loadtxt reads, or a refusal of the first line off the
        # grammar: loadtxt reads the lines before it, and refuses the text that
        # ends with it on that line, with the same message past the first line
        # (on the first, loadtxt converts the fields before it counts them). A
        # refused text is one loadtxt refuses too.
        body = b"".join(line + end for line, end in lines)
        if lines and not final_end:
            body = body[:-len(lines[-1][1])]
        expected = loadtxt_rows(body, 3)
        try:
            got, count, finite = _floattext.read_rows(io.BytesIO(body), 8, 3)
        except _floattext.BadLine as bad:
            assert isinstance(expected, tuple)
            line, text, _ = bad.args
            through = body.splitlines(keepends=True)[:line + 1]
            assert text == through[-1].rstrip(b"\r\n")
            index, message = loadtxt_rows(b"".join(through), 3)
            assert index == line
            if index:
                assert str(cli_io._bad_line("s.csv", bad, 3)) == f"s.csv:{index + 2}: {message}"
        else:
            assert not isinstance(expected, tuple), expected
            assert count == len(expected)
            if count:
                assert np.array_equal(got[:count].view(np.uint64), expected[:, 1:].view(np.uint64))
                assert finite == bool(np.isfinite(expected[:, 1:]).all())

    @pytest.mark.parametrize("block", [7, 64])
    def test_blocks_split_inside_a_line(self, monkeypatch, block):
        # Blocks of 7 bytes hold no whole line, so the buffer grows until one fits.
        monkeypatch.setattr(_floattext, "READ_BLOCK", block)
        values = np.random.default_rng(13).standard_normal(600) * 1e3
        text = _csv(list(map(repr, values.tolist())), 3)
        got, count, _ = _floattext.read_rows(io.BytesIO(text), 200, 4)
        assert count == 200 and np.array_equal(got.ravel(), values)

    @pytest.mark.parametrize("fields", [
        ["1.5e+300", "-2.5e+16", "1e+22"],  # an exponent's '+' sits inside its field
        ["12.5", "-1234567.25", "9999999999999999.5", "10.0"],  # whole parts of 2 to 16 digits
        ["1e-05", "5e-324", "-7E3", "12"],  # no point at all
    ], ids=["exponent-plus", "long-whole-parts", "no-point"])
    def test_fields_off_the_first_guess(self, fields):
        _read_like_loadtxt(fields * 5, 4)
