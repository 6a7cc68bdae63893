"""Floats as text: the bytes of ``repr(float(v))`` for a whole float64 array at once.

``repr_lines`` is the one path by which the CLI turns floats into text
(``signals.csv``, ``esd.csv`` and the spike times of ``spikes.json``).
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

``cli_io`` imports this module where it writes floats, so the commands
that write none do not load it.
"""

from __future__ import annotations

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
_POW5 = np.array([5 ** j for j in range(21)], dtype=np.uint64)
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


def shortest(magnitude, decade):
    """Shortest round-trip digits of positive floats in the fast range, by integer arithmetic.

    ``decade`` is each value's floor(log10). Returns ``(c, t, exact)``: the
    digits as the 17-digit integer ``c`` (the value is c * 10^(decade - 16))
    with ``t`` trailing zeros, and whether they are repr's. A value is not
    when two candidates tie for nearest or when rounding carries into the
    next decade; the caller formats those with repr.

    This is the interval method of Steele & White, Gay and Ryu (Adams 2018,
    PLDI): x * 10^j is 2m * 5^j / 2^s exactly, with m the mantissa; the
    reals that read back as x fill (x - ulp/2, x + ulp/2), closed when m is
    even; the shortest digits are the multiple of the largest power of ten
    inside that interval, and among several, the one nearest x.
    """
    j = 16 - decade
    s = 1076 - (magnitude >> _U64(52)).view(np.int64) - j  # x * 10^j = 2m * 5^j / 2^s
    p = _POW5.take(j)
    mantissa = magnitude & _MANTISSA
    m2 = (mantissa | _U64(1 << 52)) << _U64(1)
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
    ``end`` are at most two bytes.
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
