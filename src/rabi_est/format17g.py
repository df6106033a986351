"""Text of float64 arrays as ``format(v, ".17g")`` writes it, a whole array
at a time: the number formatter of the CSV writer in ``table``.

``table`` imports it, so every scan and curve op loads it to write its table,
and no other op does. Apart from ``table``, each stays below the parser's
4,096-token step (see ``tests/test_records.py``): one module holding both
(5,183 tokens) left a cold 500 x 500 fisher-scan run's peak RSS at 33.81 ->
33.85 MB (3 of 10 pairs lower), where the two lowered it 33.92 -> 33.61 MB.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

# A finite x != 0 prints as the 17-digit integer D = round(x * 10**(16 - E))
# (half to even) with 10**16 <= D < 10**17 and decimal exponent E: positional
# for -4 <= E < 17, scientific otherwise, trailing zeros dropped. _digits17
# evaluates x * 10**k as a double-double: Dekker's exact product x * hi plus
# x * lo, where hi + lo is 10**k to within 8 * 2**-106 relative. For
# |x * 10**k| < 2**60 the sum is then within 2**-41 of the exact product, so
# its rounding is certain unless its fraction lies within _TIE_BOUND of 1/2.
# Those values, exact ties among them, go to format.
_SPLIT = 134217729.0      # 2**27 + 1: splits a float64 into two 26-bit halves
_FAST_EXP = 280           # 10**-_FAST_EXP <= |x| < 10**_FAST_EXP: fast path
_TIE_BOUND = 2.0**-40     # a fraction this near 1/2 is not certified
_POW_MIN = 16 - _FAST_EXP - 1  # the powers 10**k that exponent fixes can ask for
_POW_MAX = 16 + _FAST_EXP + 2
_TEN16, _TEN17 = 10**16, 10**17
# Text rows hold the longest text, -d.dddddddddddddddde-ddd, and its comma;
# 32 bytes is a row size that numpy's take copies in one move.
_WIDTH = 32
# Text classes, the order in which _format_17g lays rows out: positional
# 2 * (E + 4) + negative, scientific _SCI + negative, then the literals and
# the values left to format.
_SCI = 42
_LITERALS = ("nan", "inf", "-inf", "0", "-0")
_SLOW = _SCI + 2 + len(_LITERALS)
_DOT, _ZERO, _MINUS = ord("."), ord("0"), ord("-")


def _split(a: np.ndarray, high=None, low=None) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split a = high + low into halves whose products are exact."""
    high = np.multiply(a, _SPLIT, out=high)
    low = np.subtract(high, a, out=low)
    high -= low
    return high, np.subtract(a, high, out=low)


def _product_error(ab, a_halves, b_halves, out=None):
    """a * b - ab for ab = fl(a * b), exactly (Dekker's two-product), from
    the halves of a and b, which it overwrites."""
    (a_high, a_low), (b_high, b_low) = a_halves, b_halves
    out = np.subtract(np.multiply(a_high, b_high, out=out), ab, out=out)
    for term in (np.multiply(a_high, b_low, out=a_high), np.multiply(b_high, a_low, out=b_high),
                 np.multiply(b_low, a_low, out=b_low)):
        out += term
    return out


@functools.cache
def _format_tables() -> tuple[np.ndarray, ...]:
    """Powers of ten 10**k = hi + lo for _POW_MIN <= k <= _POW_MAX, with hi
    split; the ASCII digits of 0000..9999 as one uint32 word each, then the
    same with trailing zeros as NUL; and the trailing zero counts. Built on
    first use, so that importing costs nothing.

    For k >= 0, hi and lo are the correctly rounded 10**k and remainder
    (within 2**-106). For k < 0 they are the double-double reciprocal of
    10**-k: hi = fl(1 / H), lo = hi * (1 - hi * (H + L)) with the residual
    from an exact product, within 8 * 2**-106.
    """
    up_hi, up_lo, power = [], [], 1
    for _ in range(max(_POW_MAX, -_POW_MIN) + 1):
        up_hi.append(float(power))
        up_lo.append(float(power - int(up_hi[-1])))
        power *= 10
    up_hi, up_lo = np.array(up_hi), np.array(up_lo)
    big, small = up_hi[1 : 1 - _POW_MIN], up_lo[1 : 1 - _POW_MIN]  # 10**m, m = 1, 2, ...
    inverse = 1.0 / big
    one = inverse * big
    residual = (1.0 - one) - _product_error(one, _split(inverse), _split(big))
    residual -= inverse * small
    hi = np.concatenate([inverse[::-1], up_hi[: _POW_MAX + 1]])
    lo = np.concatenate([(inverse * residual)[::-1], up_lo[: _POW_MAX + 1]])
    digit = np.arange(_ZERO, _ZERO + 10, dtype=np.uint8)
    chars = np.empty((10, 10, 10, 10, 4), np.uint8)
    for j in range(4):
        chars[..., j] = digit[(slice(None),) + (None,) * (3 - j)]
    chars = chars.reshape(-1, 4)
    tail = chars == _ZERO  # trailing zeros: zeros with only zeros after them
    for j in (2, 1, 0):
        tail[:, j] &= tail[:, j + 1]
    quads = np.concatenate([chars, chars * ~tail])
    zeros = tail[:, 0].astype(np.uint8) + tail[:, 1] + tail[:, 2] + tail[:, 3]
    return hi, *_split(hi), lo, quads.view(np.uint32).ravel(), zeros


def _format_scratch(size: int, frame: int = 0) -> SimpleNamespace:
    """_format_17g's scratch for up to ``size`` values (laid out there): 7
    float and 6 int64 rows, text classes and their order, digit words, two
    rows of byte counts; and a join frame of 2 x ``frame`` bytes over f."""
    f = np.empty(max(7 * size, -(-frame // 4)))
    return SimpleNamespace(f=f[: 7 * size].reshape(7, size), frame=f.view(np.uint8)[: 2 * frame].reshape(2, -1),
                           i=np.empty((6, size), np.int64), code=np.empty(size, np.int8), ramp=np.arange(size),
                           order=np.empty(size, np.intp), words=np.empty((size, 5), np.uint32),
                           used=np.empty((2, size), np.uint8))


def _digits17(x: np.ndarray, exp: np.ndarray, out=None) -> tuple[np.ndarray, np.ndarray]:
    """round(x * 10**(16 - exp)) as int64 for positive x, and where that
    rounding is not certified; in ``out`` (digits, index, float registers)."""
    n = x.size
    digits, k, f = out or (np.empty(n, np.int64), np.empty(n, np.intp), np.empty((6, n)))
    digits, k, (prod, high, low, b_high, b_low, err) = digits[:n], k[:n], f[:6, :n]
    hi, hi_high, hi_low, lo = _format_tables()[:4]
    np.subtract(16 - _POW_MIN, exp, out=k)
    np.multiply(x, hi.take(k, out=err, mode="clip"), out=prod)
    b_halves = hi_high.take(k, out=b_high, mode="clip"), hi_low.take(k, out=b_low, mode="clip")
    _product_error(prod, _split(x, high, low), b_halves, out=err)
    whole, step = np.floor(prod, out=high), b_high
    prod -= whole
    err += np.multiply(x, lo.take(k, out=low, mode="clip"), out=low)
    prod += err  # the rest
    np.floor(prod, out=step)
    frac = np.subtract(prod, step, out=prod)
    np.add(step, 1.0, out=step, where=frac > 0.5)
    digits[...], k[...] = whole, step
    digits += k
    frac -= 0.5
    return digits, np.abs(frac, out=frac) <= _TIE_BOUND


def _decimal(x: np.ndarray, out) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """17-digit D and exponent E of positive x in the fast range, and where
    they are not certified; in ``out`` (int64 rows for E, D and an index, six
    float rows to work in). log10 may miss E by one near a power of ten: D
    then leaves [10**16, 10**17), and E moves."""
    exp, digits, k = out[0][:, : x.size]
    log = np.log10(x, out=out[1][0, : x.size])
    exp[...] = np.floor(log, out=log)
    digits, unsure = _digits17(x, exp, (digits, k, out[1]))
    low = np.flatnonzero(digits <= _TEN16)
    if low.size:
        # D <= 10**16 at E: the value is below 10**E unless D at E - 1
        # rounds up to 10**17, which is D = 10**16 at E after all.
        down, down_unsure = _digits17(x[low], exp[low] - 1)
        carry = down >= _TEN17
        digits[low] = np.where(carry, _TEN16, down)
        exp[low] -= ~carry
        unsure[low] |= down_unsure
    high = np.flatnonzero(digits > _TEN17)
    if high.size:
        digits[high], up_unsure = _digits17(x[high], exp[high] + 1)
        exp[high] += 1
        unsure[high] |= up_unsure
    top = digits == _TEN17  # rounding carried into an 18th digit
    digits[top] = _TEN16
    exp[top] += 1
    return digits, exp, unsure


def _digit_chars(digits: np.ndarray, out) -> tuple[np.ndarray, np.ndarray]:
    """The 17 ASCII digits of each D with its trailing zeros as NUL, and how
    many digits remain without them; in ``out`` (float and int64 rows to work
    in, the counts' uint8 row, digit words). (A NUL | "0" is "0" again.)"""
    *_, quads, zeros = _format_tables()
    n = digits.size
    upper, lower, mid, low_high, lead, product = out[0][:, :n]
    quotient, remainder, group = out[1][:, :n]
    trailing, words = out[2][:n], out[3][:n]
    np.divmod(digits, 10**8, out=(quotient, remainder))
    upper[...], lower[...] = quotient, remainder  # below 2**53: exact
    for a, b in ((upper, mid), (lower, low_high), (mid, lead)):
        np.floor(np.divide(a, 1e4, out=b), out=b)
    # The groups of 1 + 4 * 4 digits, last first: lower - 1e4 * low_high,
    # low_high, upper - 1e4 * mid, mid - 1e4 * lead, lead.
    for a, b in ((lower, low_high), (upper, mid), (mid, lead)):
        a -= np.multiply(b, 1e4, out=product)
    # A group after which only 0000s follow takes the second half of the
    # table, the trailing zeros as NUL; the zeros run on only through 0000s.
    trailing[...] = 0
    for j, part in zip((4, 3, 2, 1, 0), (lower, low_high, upper, mid, lead)):
        group[...] = part
        run = trailing == 16 - 4 * j
        index = np.multiply(run, 10_000, out=remainder)
        index += group
        words[:, j] = quads.take(index, mode="clip")
        if j:
            trailing += np.where(run, zeros.take(group), 0)
    return words.view(np.uint8)[:, 3:], np.subtract(17, trailing, out=trailing)


def _format_17g(values, out=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """format(v, ".17g") and a comma for every value as float64, as
    NUL-padded rows of ``_WIDTH`` bytes; the bytes each row uses; and the
    row of each value; in ``out`` (text rows, rows, scratch) if given.

    Values in the fast range take the certified array path; nan, +-inf and
    +-0 come from a literal table; the rest, and fast values whose rounding
    is not certified, are formatted one by one by ``format``. Rows are laid
    out sorted by text class, so that each class is written by slices, the
    certified values, which alone need digits, first; the writer gathers
    them back into value order. The bytes used live in the scratch.
    """
    # Scratch rows, each reused once read for the last time: |x| in f[6];
    # _decimal's work in i[0:3] and f[0:6]; then text classes and places in
    # i[2]; certified places, E and D in i[3:6]; _digit_chars' work as _decimal's.
    x = np.asarray(values, dtype=float).ravel()
    m = x.size
    text, back, s = out or (np.empty((m, _WIDTH), np.uint8), np.empty(m, np.intp), _format_scratch(m))
    text, back, used, code, order = text[:m], back[:m], s.used[0, :m], s.code[:m], s.order[:m]
    mag = np.abs(x, out=s.f[6, :m])
    fast = (mag >= 10.0**-_FAST_EXP) & (mag < 10.0**_FAST_EXP)
    other = np.flatnonzero(~fast)
    if other.size:
        mag = x.take(np.flatnonzero(fast), out=s.f[6, : m - other.size])
        np.abs(mag, out=mag)
    digits, exp, unsure = _decimal(mag, (s.i[:3], s.f[:6]))
    negative = np.signbit(x)
    cls = np.add(exp, 4, out=s.i[2, : mag.size])  # positional: 2 * (E + 4) + negative
    cls *= 2
    cls[(exp < -4) | (exp >= 17)] = _SCI
    cls += negative[fast] if other.size else negative
    cls[unsure] = _SLOW
    code[fast] = cls
    if other.size:
        y, sign = x[other], negative[other]
        literal = np.where(np.isinf(y), _SCI + 3 + sign, np.where(y == 0, _SCI + 5 + sign, _SLOW))
        code[other] = np.where(np.isnan(y), _SCI + 2, literal)
    order[...] = np.argsort(code, kind="stable")
    sure = order[: np.count_nonzero(code < _SCI + 2)]  # the certified values sort first
    if other.size:  # their places among the fast values
        place = np.subtract(np.cumsum(fast, out=s.i[2, :m]), 1, out=s.i[2, :m])
        sure = place.take(sure, out=s.i[3, : sure.size])
    exp = exp.take(sure, out=s.i[4, : sure.size])
    chars, shown = _digit_chars(digits.take(sure, out=s.i[5, : sure.size]), (s.f[:6], s.i[:3], s.used[1], s.words))
    text.fill(0)
    counts = np.bincount(code, minlength=_SLOW + 1)
    ends = np.cumsum(counts).tolist()
    for c in np.flatnonzero(counts).tolist():
        rows = slice(ends[c] - int(counts[c]), ends[c])
        sign = c % 2 if c < _SCI + 2 else 0
        if c < _SCI:  # positional
            e = c // 2 - 4
            if e >= 0:  # ddd.ddd
                np.bitwise_or(chars[rows, : e + 1], _ZERO, out=text[rows, sign : sign + e + 1])
                text[rows, sign + e + 1] = _DOT  # the comma goes here if no digit follows
                text[rows, sign + e + 2 : sign + 18] = chars[rows, e + 1 :]
                np.add(shown[rows], shown[rows] > e + 1, out=used[rows])
                np.maximum(used[rows], e + 1, out=used[rows])
            else:  # 0.000ddd
                text[rows, sign : sign + 1 - e] = _ZERO
                text[rows, sign + 1] = _DOT
                text[rows, sign + 1 - e : sign + 18 - e] = chars[rows]
                np.add(shown[rows], 1 - e, out=used[rows])
        elif c < _SCI + 2:  # d.ddde+dd
            text[rows, sign] = chars[rows, 0]
            text[rows, sign + 1] = _DOT
            text[rows, sign + 2 : sign + 18] = chars[rows, 1:]
            mantissa = np.where(shown[rows] > 1, shown[rows] + 1, 1)
            power = np.abs(exp[rows], out=s.i[1, rows])
            three = power >= 100
            suffix = np.full((power.size, 5), ord("e"), np.uint8)
            suffix[:, 1] = np.where(exp[rows] < 0, _MINUS, ord("+"))
            suffix[:, 2:] = _format_tables()[4][power].view(np.uint8).reshape(-1, 4)[:, 1:]
            suffix[~three, 2:4] = suffix[~three, 3:5]
            suffix[~three, 4] = 0
            at = np.multiply(s.ramp[rows], _WIDTH, out=s.i[0, rows])
            at += mantissa + sign
            for j in range(5):
                text.ravel()[at] = suffix[:, j]
                at += 1
            used[rows] = mantissa + 4 + three
        elif c < _SLOW:
            word = _LITERALS[c - _SCI - 2].encode("ascii")
            text[rows, : len(word)] = np.frombuffer(word, np.uint8)
            used[rows] = len(word)
            continue
        else:
            for i, v in zip(range(rows.start, rows.stop), x[order[rows]].tolist()):
                word = format(v, ".17g").encode("ascii")
                text[i, : len(word)] = np.frombuffer(word, np.uint8)
                used[i] = len(word)
            continue
        if sign:
            text[rows, 0] = _MINUS
            used[rows] += 1
    at = np.multiply(s.ramp[:m], _WIDTH, out=s.i[0, :m])
    text.ravel()[np.add(at, used, out=at)] = ord(",")
    used += 1
    back[order] = s.ramp[:m]
    return text, used, back
