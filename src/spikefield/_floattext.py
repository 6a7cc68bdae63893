"""Floats as text, both ways: ``repr`` bytes for whole float64 arrays, and floats from such files.

Writing. ``repr_lines`` is the one path by which the CLI turns floats into
text (``signals.csv``, ``esd.csv`` and the spike times of ``spikes.json``).
Its contract: every value is written exactly as ``repr`` writes it.
``float_rows`` gives each value's bytes. Its fast path covers finite
values with 1e-4 <= |v| < 1e15 (repr's fixed notation, short of 1e15)
whose mantissa is not a power of two: ``shortest`` finds the shortest
round-trip digits with integer arithmetic on whole blocks, and the values
are laid out by sign and decimal exponent. Everything else (zeros,
subnormals, other magnitudes, infinities, NaN, powers of two) and every
value ``shortest`` cannot settle (an exact tie between two candidates, a
carry into the next decade) goes through ``repr`` itself, so the output
never differs from it.

Reading. ``read_rows`` is the one reader of a ``signals.csv`` body, and
reads the bits ``numpy.loadtxt(delimiter=",", comments=None)`` reads from
the same lines. Its field kernel, ``read_fields``, reads the bytes between
given starts and ends. Fields of the form ``-?D.D`` (at most 16 digits
before the point, 22 after and 18 in all, unless the part before the point
is zero) take an integer path: the estimate float(d) / 10^f, with d the
digits and f the digits after the point, or the float one ulp from it
toward the decimal, when an exact integer test puts the decimal inside
that float's rounding interval (``_settled``). That covers every field
repr writes in fixed notation below 2^52, powers of two aside, and zeros
keep their sign. The kernel leaves every other field (exponent forms,
subnormals, powers of two, longer digit strings, anything off the form)
to ``_lines``, which converts it with ``float()``: that is the
``PyOS_string_to_double`` which numpy.loadtxt uses.

The reader's grammar: a line ends at LF, at CRLF or at a lone CR, and the
last line end is optional; the fields of a line are separated by ``,``
and there are as many as the caller says. A field off the integer path is
decoded as UTF-8 and stripped of Unicode whitespace, as loadtxt strips
it, and must then match ``_NUMBER``: loadtxt's plain decimal number,
``[-+]?([0-9]+.?[0-9]*|.[0-9]+)([eE][-+]?[0-9]+)?``, or a signed ``nan``,
``inf`` or ``infinity`` in any case (so ``1_0`` and ``0x10`` are
refused). The reader raises ``BadLine`` for the first line off this
grammar in file order, with its bytes and its bad field if it has one;
every line is checked. It reports whether the fields it keeps are finite,
and leaves that rule to its caller. The table is allocated once, at the
caller's capacity, and the file is read in blocks of whole lines
(``READ_BLOCK`` bytes) into one reused buffer, so no temporary spans the
whole file.

``cli_io`` imports this module where it writes or reads floats, so the
commands that do neither do not load it.
"""

from __future__ import annotations

import re

import numpy as np

_ROW = 32  # bytes per formatted value: the longest repr (24) and a separator, in whole words
_U64 = np.uint64
_SIGN_OFF = _U64((1 << 63) - 1)
_MANTISSA = _U64((1 << 52) - 1)
_LOW32 = _U64(0xFFFFFFFF)
# The fast path covers repr's fixed notation from 1e-4 up to 1e15, where the
# shift s of ``shortest`` stays between 2 and 47. Its biased binary exponents
# are 1009..1072. For each: the decimal exponent floor(log10) of its smallest
# float, and the power of ten at which that exponent goes up by one. Comparing
# a value with the float nearest a power of ten is exact here: for 10^-4 to
# 10^-1 that float lies above the power, and no float lies in between.
_EXP_MIN, _EXP_MAX = 1009, 1072
_DECADE = np.array([len(str(2 ** (b - 1023))) - 1 if b >= 1023 else -len(str(2 ** (1023 - b)))
                    for b in range(_EXP_MIN, _EXP_MAX + 1)], dtype=np.int8)
_NEXT_DECADE = np.array([float(f"1e{d + 1}") for d in _DECADE.tolist()])
_POW5 = np.array([5 ** j for j in range(23)], dtype=np.uint64)
# The four ASCII digits of 0..9999 as one word each, in memory order, built
# from the 100 digit pairs without large temporaries.
_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), np.uint8).reshape(100, 2)
_QUADS = np.empty((100, 100, 4), np.uint8)
_QUADS[:, :, :2] = _PAIRS[:, None]
_QUADS[:, :, 2:] = _PAIRS[None, :]
_QUADS = _QUADS.view(np.uint32).ravel()
_FALLBACK = 63  # sort key of the values repr formats
_PREFIX_MASKS = np.arange(_ROW) < np.arange(_ROW + 1)[:, None]


def decade(magnitude):
    """floor(log10(v)) as int8 for the bits of positive floats v, exact for 1e-4 <= v < 1e15."""
    exponent = (magnitude >> _U64(52)).view(np.int64)
    np.clip(exponent, _EXP_MIN, _EXP_MAX, out=exponent)
    exponent -= _EXP_MIN
    tens = _DECADE.take(exponent)
    tens += magnitude.view(np.float64) >= _NEXT_DECADE.take(exponent)
    return tens


def scaled(magnitude, j):
    """x * 10^j as 2m * 5^j / 2^s, exactly: ``(2m, 5^j, s)`` for the bits of positive normal floats.

    m is the mantissa with its implicit bit; ``j`` lies in 0..22.
    """
    s = 1076 - (magnitude >> _U64(52)).view(np.int64) - j
    m2 = ((magnitude & _MANTISSA) | _U64(1 << 52)) << _U64(1)
    return m2, _POW5.take(j), s


def shortest(magnitude, decade):
    """Shortest round-trip digits of positive floats in the fast range, by integer arithmetic.

    ``decade`` is each value's floor(log10). Returns ``(c, t, exact)``: the
    digits as the 17-digit integer ``c`` (the value is c * 10^(decade - 16))
    with ``t`` trailing zeros, and whether they are repr's. A value is not
    when two candidates tie for nearest or when rounding carries into the
    next decade; the caller formats those with repr.

    This is the interval method of Steele & White, Gay and Ryu (Adams 2018,
    PLDI): x * 10^j is 2m * 5^j / 2^s exactly (``scaled``); the
    reals that read back as x fill (x - ulp/2, x + ulp/2), closed when m is
    even; the shortest digits are the multiple of the largest power of ten
    inside that interval, and among several, the one nearest x.
    """
    m2, p, s = scaled(magnitude, 16 - decade)  # x * 10^j = 2m * 5^j / 2^s, j = 16 - decade
    # The 128-bit product hi:lo = 2m * 5^j (below 2^101), from 32-bit limbs.
    a0, a1 = m2 & _LOW32, m2 >> _U64(32)
    p0, p1 = p & _LOW32, p >> _U64(32)
    low = a0 * p0
    mid = a0 * p1
    mid += a1 * p0
    mid += low >> _U64(32)
    lo = low & _LOW32
    lo |= mid << _U64(32)
    hi = a1 * p1
    hi += mid >> _U64(32)
    su = s.view(np.uint64)
    whole = hi << (_U64(64) - su)
    whole |= lo >> su
    whole = whole.view(np.int64)  # floor(x * 10^j), in [10^16, 10^17) (checked below)
    half = np.left_shift(1, s - 1)
    below = (half << 1) - 1
    r = (lo & below.view(np.uint64)).view(np.int64)  # the fraction, in units of 2^-s
    p = p.view(np.int64)  # half an ulp, in the same units
    # The interval's integer bounds. Its ends, (2m +- 1) * 5^j / 2^s, have odd
    # numerators, so neither is an integer and whether it is closed never matters.
    hi_int = (r + p) >> s
    hi_int += whole
    lo_int = (r - p) >> s
    lo_int += whole + 1

    # t = 0: the nearest integer, inside since the interval is wider than 1.
    # t = 1: the interval, narrower than 23, holds q*10 and maybe q*10 - 10.
    q = hi_int // 10
    tens = q * 10
    has = tens >= lo_int
    fives = tens - 5
    second = tens - 10 >= lo_int
    c = np.where(has, tens - 10 * (second & (whole < fives)), whole + (r > half))
    tie = np.where(has, second & (whole == fives) & (r == 0), r == half)
    t = has.astype(np.intp)
    # t >= 2: one multiple of 10^t fits, the largest at most hi_int.
    h = q // 10
    at = np.flatnonzero(h * 100 >= lo_int)
    h, lo_at, scale = h.take(at), lo_int.take(at), 100
    while at.size:
        t[at] += 1
        c[at] = h * scale
        tie[at] = False
        h = h // 10
        scale *= 10
        keep = np.flatnonzero(h * scale >= lo_at)
        at, h, lo_at = at.take(keep), h.take(keep), lo_at.take(keep)
    exact = ~tie & (whole >= 10 ** 16) & (c < 10 ** 17)  # a wrong decade would show here
    return c, t, exact


def _digits(c):
    """(n, 20) uint8: three spare bytes, then the 17 ASCII digits of each c < 10^17."""
    top = c // 10 ** 16
    rest = c - top * 10 ** 16
    upper = (rest // 10 ** 8).astype(np.int32)
    lower = (rest - upper * 10 ** 8).astype(np.int32)
    quads = np.empty((len(c), 5), np.uint32)  # four digits per word, in memory order
    quads[:, 0] = _QUADS.take(top)
    for column, part in ((1, upper), (3, lower)):
        high = part // 10 ** 4
        quads[:, column] = _QUADS.take(high)
        quads[:, column + 1] = _QUADS.take(part - high * 10 ** 4)
    return quads.view(np.uint8)


def float_rows(values):
    """``repr(float(v))`` of every element of a 1-D float64 array, as bytes in rows.

    Returns ``(rows, lengths)``: row i of the ``(n, _ROW)`` uint8 array starts
    with the ASCII bytes of repr(values[i]), ``lengths[i]`` of them; the rest
    of the row is unspecified. Finite values with 1e-4 <= |v| < 1e15 whose
    mantissa is not a power of two take the integer path of ``shortest``;
    everything else (zeros, subnormals, other magnitudes, infinities, NaN,
    powers of two) and each value ``shortest`` cannot settle goes through
    ``repr`` itself, so every row is repr's bytes.

    Values are sorted by (sign, decimal exponent), which fixes where the
    sign, the point and the zeros after it go; 17 zero-padded digits supply
    the trailing zeros and the ".0", and each length cuts off the rest.
    """
    n = values.size
    bits = values.view(np.uint64)
    magnitude = bits & _SIGN_OFF
    size = magnitude.view(np.float64)
    fast = (size >= 1e-4) & (size < 1e15) & ((bits & _MANTISSA) != 0)
    key = decade(magnitude)
    key += 4  # decade -4..14 as 0..18, plus 32 for a negative value
    key = key.view(np.uint8)
    key |= (bits >> _U64(63)).astype(np.uint8) << 5
    key[~fast] = _FALLBACK
    order = np.argsort(key, kind="stable")
    counts = np.bincount(key, minlength=_FALLBACK + 1)
    groups = np.flatnonzero(counts[:_FALLBACK])
    sizes = counts[groups]
    n_fast = int(sizes.sum())

    c, t, exact = shortest(magnitude.take(order[:n_fast]),
                            np.repeat((groups & 31) - 4, sizes))
    digits = _digits(c)
    significant = 17 - t
    rows = np.empty((n, _ROW), np.uint8)
    lengths = np.empty(n, np.intp)
    start = 0
    for group, stop in zip(groups.tolist(), np.cumsum(sizes).tolist()):
        part = slice(start, stop)
        row, length, d, sig = rows[part], lengths[part], digits[part], significant[part]
        sign, point = group >> 5, (group & 31) - 3  # point: digits before the point
        if sign:
            row[:, 0] = ord("-")
        if point >= 1:
            row[:, sign:sign + point] = d[:, 3:3 + point]
            row[:, sign + point] = ord(".")
            row[:, sign + point + 1:sign + 18] = d[:, 3 + point:]
            np.maximum(sig, point + 1, out=length)
            length += sign + 1
        else:
            lead = b"0." + b"0" * -point
            row[:, sign:sign + len(lead)] = np.frombuffer(lead, np.uint8)
            row[:, sign + len(lead):sign + len(lead) + 17] = d[:, 3:]
            np.add(sig, sign + len(lead), out=length)
        start = stop

    slow = np.concatenate([np.flatnonzero(~exact), np.arange(n_fast, n)])
    if slow.size:
        # Repeats (zeros, say) are formatted once; the bits keep -0.0 apart from 0.0.
        distinct, which = np.unique(bits.take(order.take(slow)), return_inverse=True)
        texts = [repr(v).encode() for v in distinct.view(np.float64).tolist()]
        table = np.zeros((len(texts), _ROW), np.uint8)
        for i, text in enumerate(texts):
            table[i, :len(text)] = np.frombuffer(text, np.uint8)
        rows[slow] = table[which]
        lengths[slow] = np.array(list(map(len, texts)))[which]

    unsort = np.empty(n, np.intp)
    unsort[order] = np.arange(n)
    return rows.view(np.uint64).take(unsort, axis=0).view(np.uint8), lengths.take(unsort)


# Values formatted at once (256 KiB per int64 work array): of 4,096 to 65,536,
# the fastest for a whole signal file.
BLOCK = 1 << 15


def repr_lines(values, sep: bytes, end: bytes):
    """Each row of a 2-D float64 array as its elements' reprs joined by ``sep``, then ``end``.

    Returns the bytes of every row, one after the other, and the byte count
    of each element with the separator or end that follows it. ``sep`` and
    ``end`` are at most eight bytes, the room a row has past the longest repr.
    """
    n_rows, n_cols = values.shape
    step = max(1, BLOCK // max(n_cols, 1))
    texts, counts = [], [np.empty(0, np.intp)]
    for start in range(0, n_rows, step):
        block = np.ascontiguousarray(values[start:start + step], dtype=np.float64)
        rows, lengths = float_rows(block.reshape(-1))
        flat = rows.reshape(-1)
        free = (np.arange(0, flat.size, _ROW) + lengths).reshape(block.shape)  # after each repr
        lengths = lengths.reshape(block.shape)
        for columns, tail in ((slice(0, -1), sep), (slice(-1, None), end)):
            for i, byte in enumerate(tail):
                flat[free[:, columns] + i] = byte
            lengths[:, columns] += len(tail)
        lengths = lengths.reshape(-1)
        texts.append(rows[_PREFIX_MASKS.take(lengths, axis=0)].tobytes())
        counts.append(lengths)
    return b"".join(texts), np.concatenate(counts)


# -- reading -----------------------------------------------------------------

READ_BLOCK = 1 << 18  # bytes read and parsed at once; their temporaries take about 8 times that
_PAD = 24  # bytes before each block, so that every digit window starts inside it
_TAIL = 8  # bytes after the read area: a field's first guess at its point may look 2 past its end
# For L = 0..8: the mask of an 8-byte window's last L bytes (its high bytes, read little-endian).
_KEEP = np.array([((1 << 64) - 1) ^ ((1 << 8 * (8 - n)) - 1) for n in range(9)], np.uint64)
_SEVENTY_SIXES = _U64(0x7676767676767676)
_HIGH_BITS = _U64(0x8080808080808080)
_ASCII_ZEROS = _U64(0x3030303030303030)
_PAIRS_MASK = _U64(0x000000FF000000FF)
_PAIRS_HIGH = _U64(100 + (1000000 << 32))
_PAIRS_LOW = _U64(1 + (10000 << 32))
_MAX_WHOLE, _MAX_FRACTION = 16, 22  # digits before and after the point; 10^22 is exact
# 10^k as int64, wrapped past 10^18 where only discarded fields use it, and as floats.
_POW10 = np.array([10 ** k % (1 << 64) for k in range(_MAX_FRACTION + 1)], np.uint64)
_POW10 = _POW10.view(np.int64)
_POW10F = np.array([float(10 ** k) for k in range(_MAX_FRACTION + 1)])
# What numpy.loadtxt reads as a float once a field is stripped, and float() alike: a
# plain decimal number, or a signed nan, inf or infinity in any case.
_NUMBER = re.compile(r"[-+]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?|nan|inf(?:inity)?)",
                     re.ASCII | re.IGNORECASE)


def _eight_digits(words, end, count):
    """The number in the ``count`` (0..8) bytes before each ``end``, and whether all are digits.

    The SWAR parse of Lemire 2021 (Softw. Pract. Exper. 51:1700) on each
    field's 8-byte window, with the bytes before its digits cleared. XOR
    with '0' maps a digit byte to its value and every other byte above 9.
    """
    keep = _KEEP.take(count)
    w = words[end - 8]
    w ^= _ASCII_ZEROS
    w &= keep
    test = w + _SEVENTY_SIXES  # a byte above 9 sets its high bit, here or in w
    test |= w
    test &= _HIGH_BITS
    ok = test == 0
    test = w >> _U64(8)
    w *= _U64(10)
    w += test  # the value of each digit pair, in every other byte
    test = w >> _U64(16)
    test &= _PAIRS_MASK
    test *= _PAIRS_LOW
    w &= _PAIRS_MASK
    w *= _PAIRS_HIGH
    w += test
    w >>= _U64(32)
    return w.view(np.int64), ok


def _settled(magnitude, d, fraction):
    """Whether each float is the one nearest d * 10^-fraction, and whether it lies below it.

    With x * 10^fraction = 2m * 5^f / 2^s (``scaled``, f = fraction), the
    residual 2^s * d - 2m * 5^f is 2^s * 10^f * (decimal - x), and half an
    ulp of x is 5^f in the same units: x is nearest when |residual| < 5^f.
    The residual is even and 5^f odd when s >= 1, so the decimal is never a
    tie. Both terms pass 2^64, but the residual is taken modulo 2^64: for a
    float within k ulps of the decimal it is below 2k * 5^22 < 2^63 in
    size, so the modular value is exact. The callers' floats lie within 3.
    Exact for normal floats whose mantissa is not a power of two, with
    1 <= s <= 63; the rest read False.
    """
    m2, p, s = scaled(magnitude, fraction)
    fast = ((magnitude & _MANTISSA) != 0) & (s >= 1) & (s <= 63)
    residual = d.view(np.uint64) << s.view(np.uint64)
    residual -= m2 * p
    residual = residual.view(np.int64)
    p = p.view(np.int64)
    return fast & (residual < p) & (residual > -p), residual > 0


def _points(block, starts, ends, negative):
    """Each field's point: at start + 1 + sign where one digit precedes it, else searched.

    Only the fields where that guess misses are searched, up to ``_MAX_WHOLE``
    digits on; a field without a point there gets its end.
    """
    dots = starts + negative
    dots += 1
    at = np.flatnonzero(block.take(dots) != ord("."))
    if at.size:
        pos, stop = dots.take(at), ends.take(at)
        dots[at] = stop
        for _ in range(_MAX_WHOLE - 1):
            pos += 1
            live = np.flatnonzero(pos < stop)
            at, pos, stop = at.take(live), pos.take(live), stop.take(live)
            hit = block.take(pos) == ord(".")
            dots[at[hit]] = pos[hit]
            miss = ~hit
            if not miss.any():
                break
            at, pos, stop = at[miss], pos[miss], stop[miss]
    return dots


def read_fields(block, starts, ends):
    """The float64 value of each field ``block[starts[i]:ends[i]]`` on the integer path.

    The field kernel of ``read_rows``; its one caller is ``_lines``. Fields
    of the form -?D.D, in the digit limits of the module docstring, take
    the integer path. Returns ``(values, left)``: ``left`` holds, in order,
    the indices of every other field, which the caller converts. Each field's
    first byte lies at least 24 bytes into ``block``, so that every digit
    window starts inside it, and ``block`` holds at least two bytes past
    each field's end.
    """
    negative = block.take(starts) == ord("-")
    dots = _points(block, starts, ends, negative)

    # Digits, in 8-byte windows: the whole part ending at the point, in one
    # window and a second where it is longer; the fraction in two windows
    # ending at the field's end and a third for the rest before them.
    whole = dots - starts - negative
    fraction = ends - dots - 1
    ok = (whole >= 1) & (whole <= _MAX_WHOLE)
    ok &= (fraction >= 1) & (fraction <= _MAX_FRACTION)
    words = np.ndarray((block.size - 7,), "<u8", block, 0, (1,))
    count = np.clip(whole, 0, _MAX_WHOLE)
    digits, ok_part = _eight_digits(words, dots, np.minimum(count, 8))
    ok &= ok_part
    longer = np.flatnonzero(count > 8)
    if longer.size:
        part, ok_part = _eight_digits(words, dots.take(longer) - 8, count.take(longer) - 8)
        part *= 10 ** 8
        digits[longer] += part
        ok[longer] &= ok_part
    part, ok_part = _eight_digits(words, ends, np.clip(fraction, 0, 8))
    ok &= ok_part
    d, ok_part = _eight_digits(words, ends - 8, np.clip(fraction - 8, 0, 8))
    ok &= ok_part
    d *= 10 ** 8
    d += part
    part, ok_part = _eight_digits(words, ends - 16, np.clip(fraction - 16, 0, 8))
    ok &= ok_part
    ok &= (whole + fraction <= 18) | ((digits == 0) & (part < 922))  # so that d < 2^63
    part *= 10 ** 16
    d += part
    np.maximum(fraction, 0, out=fraction)
    np.minimum(fraction, _MAX_FRACTION, out=fraction)
    digits *= _POW10.take(fraction)
    d += digits  # every digit of the field, exact where ok

    # The value: the nearest float to d / 10^fraction, or one next to it.
    magnitude = (d.astype(np.float64) / _POW10F.take(fraction)).view(np.uint64)
    done, below = _settled(magnitude, d, fraction)
    done &= ok
    zero = ok & (d == 0)
    done |= zero
    step = np.flatnonzero(ok & ~done)
    if step.size:
        nearer = magnitude.take(step) - _U64(1)
        nearer += below.take(step).astype(np.uint64) << _U64(1)
        again, _ = _settled(nearer, d.take(step), fraction.take(step))
        magnitude[step[again]] = nearer[again]
        done[step[again]] = True
    magnitude |= negative.astype(np.uint64) << _U64(63)
    return magnitude.view(np.float64), np.flatnonzero(~done)


_CR, _LF, _COMMA = ord("\r"), ord("\n"), ord(",")


class BadLine(ValueError):
    """The first line ``read_rows`` refuses.

    Its args: the line's index among the lines read, its bytes without the
    line end, and its bad field's index, or None when its field count is
    what is wrong.
    """


def _lines(buf, seps, ends_at, columns, first):
    """The fields of the whole lines at the start of a padded buffer, as a (lines, columns) table.

    ``seps`` are the positions of the lines' commas, CRs and LFs, and
    ``ends_at`` the indices of the CRs and LFs among them; the last one
    ends the last line. A CR followed by an LF ends one line. Returns the
    table, where the next line starts, and whether every field after each
    line's first is finite. Raises ``BadLine`` for the first line whose
    field count is not ``columns`` or whose field is off the grammar, its
    index counted from ``first``.
    """
    at = seps.take(ends_at)  # each line end's first byte
    ending = buf.take(at)
    lf = (ending == _LF) & (buf.take(at - 1) == _CR)
    if lf.any():  # the LF of a CR LF ends no field
        seps = np.delete(seps, ends_at[lf])
        ends_at = (ends_at - np.cumsum(lf))[~lf]
        at, ending = at[~lf], ending[~lf]
    nxt = at + 1 + ((ending == _CR) & (buf.take(at + 1) == _LF))  # where each next line starts

    def bad(line, field=None):
        return BadLine(first + line, buf[nxt[line - 1] if line else _PAD:at[line]].tobytes(), field)

    # Up to the first line of another width, line i ends at entry (i + 1) * columns - 1.
    wrong = np.flatnonzero(ends_at != np.arange(columns - 1, columns * ends_at.size, columns))
    n = int(wrong[0]) if wrong.size else ends_at.size  # the lines before the first of another width
    ends = seps[:n * columns]
    starts = np.empty_like(ends)
    starts[:1] = _PAD
    starts[1:] = ends[:-1] + 1
    starts[columns::columns] = nxt[:max(n - 1, 0)]  # each later line's first field
    values, left = read_fields(buf, starts, ends)
    for i in left.tolist():  # the fields the integer path left, as numpy.loadtxt reads them
        try:
            field = buf[starts[i]:ends[i]].tobytes().decode().strip()
        except UnicodeDecodeError:
            field = ""
        if _NUMBER.fullmatch(field) is None:
            raise bad(*divmod(i, columns))
        values[i] = float(field)
    if wrong.size:
        raise bad(n)
    finite = np.isfinite(values.take(left[left % columns > 0])).all()  # the fields kept
    return values.reshape(n, columns), int(nxt[-1]), bool(finite)


def read_rows(fh, capacity: int, columns: int):
    """Read the CSV lines in the rest of a binary file, each of ``columns`` fields.

    Returns ``(table, count, finite)``: a (capacity, columns - 1) float64
    table whose leading rows hold each line's fields after its first (a
    signal file's time column, read and dropped), with the bits
    ``numpy.loadtxt`` reads from them; the number of lines, which may exceed
    the capacity (the rows past it are read and checked, not kept); and
    whether every kept field is finite. Raises ``BadLine`` for the first
    line off the grammar of the module docstring. The table is allocated
    once, and each block of lines is read into one reused buffer and
    written into the table once.
    """
    table = np.empty((capacity, columns - 1))
    # A pad of '0's, which no scan stops at, before the bytes read; a spare tail after them.
    buf = np.full(_PAD + READ_BLOCK + _TAIL, ord("0"), np.uint8)
    count = kept = 0  # lines read; bytes of a partial line after the pad
    finite = True
    while True:
        size = _PAD + kept
        got = fh.readinto(memoryview(buf)[size:buf.size - _TAIL])
        if not got:
            if not kept:
                return table, count, finite
            buf[size] = _LF  # the last line's end, which a file may omit
            got = 1
        size += got
        block = buf[:size]
        # Commas, CRs and LFs end a field; the other bytes below '-' ('+', space,
        # tab and the other control bytes) belong to one.
        seps = np.flatnonzero(block < ord("-"))
        kinds = block.take(seps)
        separates = (kinds == _COMMA) | (kinds == _LF) | (kinds == _CR)
        if not separates.all():
            seps, kinds = seps[separates], kinds[separates]
        ends_at = np.flatnonzero(kinds != _COMMA)
        if ends_at.size and seps[ends_at[-1]] == size - 1 and kinds[ends_at[-1]] == _CR:
            ends_at = ends_at[:-1]  # a CR in the last byte read may begin a CR LF
        if not ends_at.size:  # no whole line yet: read on, into a larger buffer when full
            kept = size - _PAD
            if size == buf.size - _TAIL:
                buf = np.concatenate([buf, np.full(buf.size, ord("0"), np.uint8)])
            continue
        values, start, ok = _lines(buf, seps[:ends_at[-1] + 1], ends_at, columns, count)
        table[count:count + len(values)] = values[:max(capacity - count, 0), 1:]
        count += len(values)
        finite = finite and ok
        kept = size - start
        buf[_PAD:_PAD + kept] = buf[start:size]
