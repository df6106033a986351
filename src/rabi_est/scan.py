"""Grid-scan engine behind the landscape and curve outputs.

Scans never abort on a bad cell: failures are encoded in a per-cell status
column (the figures these scans feed contain excluded regions by design).
A table keeps it as integer codes into the status names. Importing this
module loads only the ``dynamics`` and ``fisher`` kernels of the Fisher
landscape; the other scans import what they run when they run: the ML root
surfaces ``frequentist``, the Bayesian Fisher scan and the MMSE curve
``posterior`` and ``priors``, and the MAP curve ``priors`` alone.
The Fisher landscape and the ML root surfaces are tables drawn by blocks:
``GridTable.to_csv`` runs their closed-form kernels on at most
``_KERNEL_CELLS`` cells at a time, from the cells' flat indices, into
buffers allocated once per call, so no array the size of the grid exists.
The kernels are elementwise: the values are those of one whole-grid call
bit for bit. The ML boundary column depends on the count rate alone and
is computed once per xbar axis value.
The MMSE curve computes each prior's column as one batch of posteriors in a
single quadrature. The Bayesian Fisher scan runs its cells one after
another in row-major order, rebuilding a Jeffreys prior for each cell's
drive; a cell whose Jeffreys prior information diverges fails from the
closed-form zeros of sqrt(CFI), before any quadrature.

The ML root-surface statuses summarize the sign analysis of the two
inversion roots: ``Complex`` (no real distinct roots), ``NegativeRejected``
(the smaller root is negative and discarded; the larger may or may not
survive), ``Ambiguous`` (both roots positive) and ``Unambiguous`` (the
smaller root sits exactly on the zero boundary).
"""

from __future__ import annotations

import functools
import math
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from .dynamics import FieldConfig, dprob_domega0, prob_detect
from .errors import DomainError, EstimationError, record
from .fisher import fisher_values

if TYPE_CHECKING:
    from .priors import Prior

__all__ = [
    "Axis",
    "GridTable",
    "fisher_scan",
    "ml_root_scan",
    "bayes_scan",
    "mmse_curve",
    "map_curve",
]

_AXIS_NAMES = ("omega", "b0", "theta", "omega0", "xbar")
_FIELD_AXES = ("omega", "b0", "theta")
STATUS_OK = "ok"
# Status vocabularies of the closed-form scans, indexed by integer status code.
_FISHER_STATUSES = (STATUS_OK, "degenerate_probability", "scaled_cfi_zero")
_FISHER_COLUMNS = ("cfi_raw", "qfi_raw", "gap_raw", "cfi_scaled", "qfi_scaled", "gap_scaled",
                   "n_required")
_ROOT_STATUSES = ("Unambiguous", "Complex", "NegativeRejected", "Ambiguous")
_MAP_STATUSES = (STATUS_OK, "dprob_zero")
# Cells per block that a GridTable formats and writes at a time.
_CSV_CHUNK = 8192
# Cells per kernel call at most: glibc trims the temporaries of 8192-cell
# calls off the top of the heap, and every block faults them in again.
_KERNEL_CELLS = 4096
# Bytes of CSV text per write at most: below glibc's default 128 KiB mmap
# threshold, so a slice's buffers come from the heap instead of mmap.
_WRITE_BYTES = 120 * 1024


@record
class Axis:
    """A linearly spaced scan axis."""

    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self) -> None:
        if self.name not in _AXIS_NAMES:
            raise DomainError(f"axis name must be one of {_AXIS_NAMES}, got {self.name!r}")
        if not self.start < self.stop:
            raise DomainError(f"axis {self.name}: start must be < stop")
        if not self.count >= 2:
            raise DomainError(f"axis {self.name}: count must be >= 2, got {self.count}")
        if self.name == "b0" and self.start <= 0:
            raise DomainError("axis b0 must start above 0")
        if self.name == "theta" and not (0.0 < self.start and self.stop < math.pi):
            raise DomainError("axis theta must stay strictly inside (0, pi)")
        if self.name == "xbar" and not (0.0 <= self.start and self.stop <= 1.0):
            raise DomainError("axis xbar must stay inside [0, 1]")

    @property
    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


class GridTable:
    """Rectangular scan output: axis columns, value columns, per-cell status.

    A table draws its cells in row-major order from a block function
    ``cells(block, index)``: given a slice of the cells and their index
    along each axis, it returns their value columns by name and their
    status codes, each a code into ``status_names``. A column that depends
    on one axis index alone may instead be given once, as its values along
    that axis (``along``: name -> (axis number, values)). ``to_csv`` calls
    it on at most ``_KERNEL_CELLS`` cells at a time. A scan that computes
    its cells up front passes a block function over its stored columns
    (``_stored``).
    """

    def __init__(self, axes, names, status_names, cells, metadata=None, along=None):
        self.axes = tuple(axes)
        self._names = list(names)
        self.status_names = tuple(status_names)
        self.metadata = {} if metadata is None else metadata
        self._cells = cells
        self._along = {} if along is None else along

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(ax.count for ax in self.axes)

    @property
    def n_cells(self) -> int:
        return math.prod(self.shape)

    def header(self) -> list[str]:
        return [ax.name for ax in self.axes] + self._names + ["status"]

    def to_csv(self, fp) -> None:
        """Comma-separated output: header row, LF endings, and for every
        number exactly the text of ``format(v, ".17g")`` (see _format_17g).

        Rows go out in row-major order by blocks of ``_CSV_CHUNK`` rows, in
        slices of at most ``_WRITE_BYTES``. Text that repeats is made once, in
        value order: axis values, status names and a column given along one
        axis. A block of a column equal bit for bit to an earlier column's
        shares its text (at omega = 1 the scaled Fisher columns are the raw
        ones); the signs of zeros and NaNs count. Buffers are allocated once
        per call, for min(_CSV_CHUNK, n_cells) rows: values and codes, a text
        slot per distinct column of a block, the formatter's scratch and the
        join frame. The block function fills the values ``_KERNEL_CELLS`` at a
        time, each piece let go as copied. A slice is one ``fp.write`` of str.
        """
        fp.write(",".join(self.header()) + "\n")
        shape, along, size = self.shape, self._along, min(_CSV_CHUNK, self.n_cells)
        # A field is (k, text rows in index order, width) for the kth index:
        # axis indices, then status codes; or (None, column name, _WIDTH).
        fields = [(k, *_in_order(ax.values)) for k, ax in enumerate(self.axes)]
        fields += [(along[name][0], *_in_order(along[name][1])) if name in along else (None, name, _WIDTH)
                   for name in self._names]
        status = np.array([(s + "\n").encode("utf-8") for s in self.status_names])  # NUL-padded rows
        fields.append((len(shape), status.view(np.uint8).reshape(len(status), -1), status.itemsize))
        row = sum(width for *_, width in fields)
        scratch, slots = _format_scratch(size, min(size * row, max(_WRITE_BYTES, row))), []
        computed = [name for name in self._names if name not in along]
        values, codes = dict(zip(computed, np.empty((len(computed), size)))), np.empty(size, np.intp)
        for cells, index in _blocks(shape):
            for start in range(0, m := cells.stop - cells.start, _KERNEL_CELLS):
                part = slice(start, min(start + _KERNEL_CELLS, m))
                piece, codes[part] = self._cells(slice(cells.start + part.start, cells.start + part.stop),
                                                 tuple(i[part] for i in index))
                for name in computed:  # let go as copied, before the next piece's are computed
                    values[name][part] = piece.pop(name)
            index, made, distinct = (*index, codes[:m]), [], []  # distinct: (bits, text) of a column
            for k, source, width in fields:
                if k is not None:
                    made.append((source, width, index[k]))
                    continue
                bits = values[source][:m].view(np.uint64)
                text = next((t for b, t in distinct if np.array_equal(b, bits)), None)
                if text is None:  # formatted into the block's next slot
                    if len(distinct) == len(slots):
                        slots.append((np.empty((size, _WIDTH), np.uint8), np.empty(size, np.intp)))
                    text, used, rows = _format_17g(bits.view(float), (*slots[len(distinct)], scratch))
                    distinct.append((bits, text := (text, int(used.max()), rows)))
                made.append(text)
            _join_fields(made, scratch.frame, fp)
            index = made = distinct = bits = None  # let go before the next block's are made


# Text of float64 values as format(v, ".17g") writes it, for whole arrays.
#
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


def _in_order(values) -> tuple[np.ndarray, int]:
    """The text rows of ``_format_17g`` in value order, and their width."""
    text, used, rows = _format_17g(values)
    return text[rows], int(used.max())


def _join_fields(fields: list[tuple[np.ndarray, int, np.ndarray]], frame: np.ndarray, fp) -> None:
    """CSV rows from NUL-padded text rows, one (text, width, rows) triple per
    field, where output row j takes the field's text row rows[j]: the fields
    side by side, each cut to its width, NULs dropped. Slices of at most
    ``_WRITE_BYTES`` are joined in ``frame`` (text, then its mask of text
    bytes), each one ``fp.write`` of str. (No text holds a NUL.)"""
    total, count = sum(width for _, width, _ in fields), fields[0][2].size
    step = max(1, _WRITE_BYTES // total)
    for start in range(0, count, step):
        part, mask = frame[:, : min(step, count - start) * total].reshape(2, -1, total)
        offset = 0
        for text, width, rows in fields:
            part[:, offset : offset + width] = np.take(text, rows[start : start + len(part)], axis=0)[:, :width]
            offset += width
        fp.write(part[np.not_equal(part, 0, out=mask.view(bool))].tobytes().decode("utf-8"))


def _blocks(shape: tuple[int, ...]) -> Iterator[tuple[slice, tuple[np.ndarray, ...]]]:
    """The cells of a grid of this shape in row-major order, by blocks of
    ``_CSV_CHUNK``: each block's slice of the cells and its cells' index
    along each axis."""
    cells = math.prod(shape)
    for start in range(0, cells, _CSV_CHUNK):
        block = slice(start, min(start + _CSV_CHUNK, cells))
        yield block, np.unravel_index(np.arange(block.start, block.stop), shape)


def _stored(columns: dict, codes: np.ndarray):
    """The block function (see ``GridTable``) of whole stored columns and
    status codes."""
    return lambda block, index: ({name: c[block] for name, c in columns.items()}, codes[block])


def _cell_fields(cfg: FieldConfig, axes: Sequence[Axis]):
    """A function from a block's cell indices along the axes (``_blocks``)
    to its cells' parameters as attributes: arrays along the axes (the
    values of a meshgrid) and cfg's omega, b0 and theta otherwise."""
    values = [ax.values for ax in axes]
    fixed = {name: getattr(cfg, name) for name in _FIELD_AXES}
    return lambda index: SimpleNamespace(**fixed | {ax.name: v[i] for ax, v, i in zip(axes, values, index)})


def fisher_scan(
    cfg: FieldConfig,
    omega0: float,
    axes: tuple[Axis, Axis],
    accuracy: float = 0.001,
) -> GridTable:
    """Fisher landscape over two field-parameter axes at a fixed frequency.

    Emits raw (t = 1) and omega^2-scaled CFI/QFI/gap plus the sample count
    needed for the target accuracy. Cells where the CFI degenerates, or where
    the scaling or the sample-size relation is undefined, carry a status.
    """
    names = [ax.name for ax in axes]
    if len(axes) != 2 or any(n not in _FIELD_AXES for n in names) or names[0] == names[1]:
        raise DomainError("fisher_scan needs two distinct axes among omega, b0, theta")
    if not accuracy > 0:
        raise DomainError(f"accuracy must be positive, got {accuracy}")

    fields_of = _cell_fields(cfg, axes)

    def cells(block, index):
        fields = fields_of(index)
        cfi, qfi = fisher_values(fields, omega0)
        scale = fields.omega * fields.omega  # the scaled columns: raw * omega^2
        values = {}
        for name, raw in (("cfi", cfi), ("qfi", qfi), ("gap", qfi - cfi)):
            values[f"{name}_raw"], values[f"{name}_scaled"] = raw, raw * scale
        with np.errstate(divide="ignore", invalid="ignore"):
            values["n_required"] = n_required = 1.0 / (accuracy * values["cfi_scaled"])
        return values, np.select([np.isnan(cfi), ~np.isfinite(n_required)], [1, 2], 0)

    return GridTable(
        axes,
        _FISHER_COLUMNS,
        _FISHER_STATUSES,
        cells,
        metadata={
            "operation": "fisher_scan",
            "omega0": omega0,
            "accuracy": accuracy,
            "fixed": _fixed_echo(cfg, names),
        },
    )


def ml_root_scan(cfg: FieldConfig, axes: tuple[Axis, Axis]) -> GridTable:
    """Root surfaces of the ML inversion over (b0 or omega) x count rate.

    The boundary_b0 column reports the field strength at which the sinc
    constraint holds with equality for each cell's count rate.
    """
    names = [ax.name for ax in axes]
    if len(axes) != 2 or "xbar" not in names:
        raise DomainError("ml_root_scan needs an xbar axis and one of b0, omega")
    other = names[0] if names[1] == "xbar" else names[1]
    if other not in ("b0", "omega"):
        raise DomainError("ml_root_scan varies xbar against b0 or omega")
    xbar_axis = axes[names.index("xbar")]
    if not (0.0 < xbar_axis.start and xbar_axis.stop < 1.0):
        raise DomainError("ml_root_scan needs its xbar axis strictly inside (0, 1)")

    from .frequentist import ROOTS_REAL, ml_roots

    fields_of = _cell_fields(cfg, axes)

    def cells(block, index):
        fields = fields_of(index)
        root_plus, root_minus, inversion = ml_roots(fields.xbar, fields)
        codes = np.select([inversion != ROOTS_REAL, root_minus < 0.0, root_minus > 0.0], [1, 2, 3], 0)
        return {"root_plus": root_plus, "root_minus": root_minus}, codes

    boundary = np.sqrt(xbar_axis.values) / abs(np.sin(cfg.theta))
    return GridTable(
        axes,
        ("root_plus", "root_minus", "boundary_b0"),
        _ROOT_STATUSES,
        cells,
        metadata={"operation": "ml_root_scan", "fixed": _fixed_echo(cfg, names)},
        along={"boundary_b0": (names.index("xbar"), boundary)},
    )


def bayes_scan(
    cfg: FieldConfig,
    prior: Prior,
    axes: tuple[Axis, Axis],
    n: int,
) -> GridTable:
    """Prior-averaged Fisher landscape over two field-parameter axes. A cell
    whose averages fail carries NaN and the error's name as its status."""
    from .posterior import bayes_fisher
    from .priors import Prior, PriorKind, check_information

    names = [ax.name for ax in axes]
    if len(axes) != 2 or any(nm not in _FIELD_AXES for nm in names) or names[0] == names[1]:
        raise DomainError("bayes_scan needs two distinct axes among omega, b0, theta")
    if not n >= 1:
        raise DomainError(f"n must be >= 1, got {n}")
    cols = np.full((3, math.prod(ax.count for ax in axes)), math.nan)
    codes = np.zeros(cols.shape[1], np.int8)
    statuses = {STATUS_OK: 0}
    jeffreys = prior.kind is PriorKind.JEFFREYS  # it depends on the drive: rebuilt per cell
    fields_of = _cell_fields(cfg, axes)
    for cells, index in _blocks(tuple(ax.count for ax in axes)):
        fields = fields_of(index)
        drives = np.broadcast_arrays(*(getattr(fields, name) for name in _FIELD_AXES))
        for i, drive in zip(range(cells.start, cells.stop), zip(*(d.tolist() for d in drives))):
            try:
                cell = FieldConfig(*drive)
                if jeffreys:  # a divergent cell fails before its prior's quadrature
                    check_information(cell, prior.window)
                bf = bayes_fisher(cell, Prior.jeffreys(prior.window, cell) if jeffreys else prior, n)
                cols[:, i] = bf.bayes_cfi, bf.bayes_qfi, bf.bayes_gap
            except EstimationError as exc:
                codes[i] = statuses.setdefault(f"error:{type(exc).__name__}", len(statuses))
    columns = dict(zip(("bayes_cfi", "bayes_qfi", "bayes_gap"), cols))
    return GridTable(
        axes,
        columns,
        statuses,
        _stored(columns, codes),
        metadata={
            "operation": "bayes_scan",
            "n": n,
            "prior": _prior_echo(prior),
            "fixed": _fixed_echo(cfg, names),
        },
    )


def mmse_curve(
    cfg: FieldConfig,
    priors: Sequence[Prior],
    n: int,
    xbar_axis: Axis,
) -> GridTable:
    """Posterior-mean estimate against the average count rate, one column per
    prior. Fractional counts k = n*xbar enter the likelihood exponents so the
    count rate can be treated as a continuous abscissa. Each prior's column
    is one batch of posteriors (see ``posterior.mmse_many``); a failing cell
    is NaN, and its status names the error of the last prior that failed."""
    from .frequentist import Dataset
    from .posterior import PosteriorSpec, mmse_many

    if xbar_axis.name != "xbar":
        raise DomainError("mmse_curve needs an xbar axis")
    if not priors:
        raise DomainError("mmse_curve needs at least one prior")
    # n * xbar can round above an n that a float does not hold; k stays <= n.
    data = [Dataset(n=n, k=min(n * float(x), n)) for x in xbar_axis.values]
    codes = np.zeros(len(data), np.int8)
    statuses = {STATUS_OK: 0}
    columns = {}
    for j, prior in enumerate(priors):
        twins = [p.kind for p in priors[:j]].count(prior.kind)  # mmse_uniform, mmse_uniform_2, ...
        name = f"mmse_{prior.kind.value}" + (f"_{twins + 1}" if twins else "")
        results = mmse_many([PosteriorSpec(data=d, cfg=cfg, prior=prior) for d in data])
        for i, result in enumerate(results):
            if isinstance(result, EstimationError):
                codes[i] = statuses.setdefault(f"error:{type(result).__name__}", len(statuses))
        columns[name] = np.array([math.nan if isinstance(r, EstimationError) else r for r in results])
    return GridTable(
        (xbar_axis,),
        columns,
        statuses,
        _stored(columns, codes),
        metadata={
            "operation": "mmse_curve",
            "n": n,
            "priors": [_prior_echo(p) for p in priors],
            "fixed": _fixed_echo(cfg, []),
        },
    )


def map_curve(
    cfg: FieldConfig,
    prior: Prior,
    n: int,
    omega0_axis: Axis,
) -> GridTable:
    """Count rate solving the MAP stationarity condition at each frequency.

    Consumers recover MAP candidates as the frequencies where a horizontal
    line at the observed count rate crosses the curve. Cells where the
    probability slope vanishes are excluded by status (the stationarity form
    divides by it). A companion column drops the 1/n prior term, which is the
    infinite-sample limit and reduces to the detection probability.
    """
    from .priors import _DP_FLOOR, PriorKind, map_stationarity_lhs

    if omega0_axis.name != "omega0":
        raise DomainError("map_curve needs an omega0 axis")
    if not n >= 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if prior.kind not in (PriorKind.JEFFREYS, PriorKind.GAUSSIAN):
        raise DomainError("map_curve applies to the Jeffreys and Gaussian priors")
    omega0s = omega0_axis.values
    xbar = map_stationarity_lhs(cfg, prior, n, omega0s)
    xbar_inf = np.asarray(prob_detect(cfg, omega0s), dtype=float)
    dp = np.asarray(dprob_domega0(cfg, omega0s), dtype=float)
    codes = ((np.abs(dp) < _DP_FLOOR) | ~np.isfinite(xbar)).astype(np.int8)
    columns = {"xbar": xbar, "xbar_n_inf": xbar_inf}
    return GridTable(
        (omega0_axis,),
        columns,
        _MAP_STATUSES,
        _stored(columns, codes),
        metadata={
            "operation": "map_curve",
            "n": n,
            "prior": _prior_echo(prior),
            "fixed": _fixed_echo(cfg, ["omega0"]),
        },
    )


def _fixed_echo(cfg: FieldConfig, varied_names: Sequence[str]) -> dict:
    return {name: getattr(cfg, name) for name in _FIELD_AXES if name not in varied_names}


def _prior_echo(prior: Prior) -> dict:
    from .priors import PriorKind

    out = {"kind": prior.kind.value, "window": [prior.window.lower, prior.window.upper]}
    if prior.kind is PriorKind.GAUSSIAN:
        out["mean"], out["sigma"] = prior.mean, prior.sigma
    if prior.kind is PriorKind.JEFFREYS:
        out["normalizer"] = prior.normalizer
    return out
