"""Grid-scan engine behind the landscape and curve outputs.

Scans never abort on a bad cell: failures are encoded in a per-cell status
column (the figures these scans feed contain excluded regions by design).
A table keeps it as integer codes into the status names. Importing this
module loads only the ``dynamics`` and ``fisher`` kernels of the Fisher
landscape; the other scans import what they run when they run: the ML root
surfaces ``frequentist``, the Bayesian ones ``posterior`` and ``priors``.
The Fisher landscape and the ML root surfaces run their closed-form kernels
one block of ``_CSV_CHUNK`` cells at a time, on coordinates taken from the
block's flat cell indices, and write each block into preallocated columns:
the kernels are elementwise, so the values are those of one whole-grid
call bit for bit, and no grid-sized array exists besides the columns.
``GridTable.to_csv`` formats a table by the same blocks of rows and writes
each block in slices of under 128 KiB.
The MMSE curve computes each prior's column as one batch of posteriors in a
single quadrature. The Bayesian Fisher scan runs its cells one after
another in row-major order, rebuilding a Jeffreys prior for each cell's
drive.

The ML root-surface statuses summarize the sign analysis of the two
inversion roots: ``Complex`` (no real distinct roots), ``NegativeRejected``
(the smaller root is negative and discarded; the larger may or may not
survive), ``Ambiguous`` (both roots positive) and ``Unambiguous`` (the
smaller root sits exactly on the zero boundary).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from .dynamics import FieldConfig, dprob_domega0, prob_detect
from .errors import DomainError, EstimationError
from .fisher import fisher_values

if TYPE_CHECKING:
    from .numerics import Tolerance
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
# Cells per kernel block of the closed-form scans, and rows formatted per
# chunk by GridTable.to_csv.
_CSV_CHUNK = 8192
# Bytes of joined CSV text per fp.write at most: below glibc's default
# 128 KiB mmap threshold, so each slice's buffers come from and go back to
# the heap instead of being mapped and unmapped.
_WRITE_BYTES = 120 * 1024


@dataclass(frozen=True)
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

    ``status`` is one name per cell, kept as its code into ``status_names``,
    or with ``status_names`` those codes; it reads back as the names.
    """

    def __init__(self, axes, columns, status, metadata=None, status_names=None):
        self.axes = tuple(axes)
        self.columns = columns
        self.metadata = {} if metadata is None else metadata
        n = self.n_cells
        for name, col in [*self.columns.items(), ("status", status)]:
            if len(col) != n:
                raise DomainError(f"column {name!r} has {len(col)} cells, expected {n}")
        if status_names is None:
            index = {s: i for i, s in enumerate(dict.fromkeys(status))}
            status = np.fromiter(map(index.__getitem__, status), np.min_scalar_type(len(index)), n)
            status_names = index
        self.status_names = tuple(status_names)
        self.status_codes = np.asarray(status)
        if not 0 <= self.status_codes.min() <= self.status_codes.max() < len(self.status_names):
            raise DomainError(f"status codes must index the {len(self.status_names)} status names")

    @property
    def status(self) -> list[str]:
        return np.array(self.status_names, dtype=object)[self.status_codes].tolist()

    @property
    def n_cells(self) -> int:
        out = 1
        for ax in self.axes:
            out *= ax.count
        return out

    def header(self) -> list[str]:
        return [ax.name for ax in self.axes] + list(self.columns) + ["status"]

    def to_csv(self, fp) -> None:
        """Comma-separated output: header row, LF endings, and for every
        number exactly the text of ``format(v, ".17g")``.

        Rows go out in row-major cell order, formatted by chunks of
        ``_CSV_CHUNK`` rows and written by row slices of a chunk, each
        ``fp.write`` and the frame it is joined in at most ``_WRITE_BYTES``
        (under 128 KiB). Text that repeats is made once and gathered per
        chunk: axis values, status names and, in a 2-axis table, a column
        whose bits depend on one axis index alone, formatted at that axis's
        length. A chunk of another column that equals an earlier column's
        bit for bit shares its text (in units where omega = 1, the scaled
        Fisher columns are the raw ones); bits compare as integers, so the
        signs of zeros and NaNs count. Numbers are formatted as arrays
        (``_format_17g``): a double-double product gives each value's 17
        significant digits with a proven error bound, and a value goes to
        ``format`` itself when that bound cannot decide its rounding or its
        exponent lies near the ends of the float64 range. Every other value
        gets the digits, exponent and layout that ``format`` gives it, so the
        bytes are those of one ``format`` call per number.
        """
        fp.write(",".join(self.header()) + "\n")
        shape = tuple(ax.count for ax in self.axes)
        # Each field is (k, its text, used bytes and the text row of each
        # kth index: axis indices, then status codes) or (None, column bits).
        fields = [(k, _format_17g(ax.values)) for k, ax in enumerate(self.axes)]
        for c in self.columns.values():
            bits = np.asarray(c, dtype=float).view(np.uint64)
            k, along = _sole_axis(bits, shape)
            fields.append((k, _format_17g(along.view(float))) if k is not None else (None, bits))
        fields.append((len(shape), _status_fields(self.status_names)))
        for cells, index in _blocks(shape):
            index = (*index, self.status_codes[cells])
            made = []
            distinct: list = []  # (bits, text) of this chunk's columns so far
            for k, source in fields:
                if k is not None:
                    text, used, rows = source
                    made.append((text, used, rows[index[k]]))
                    continue
                bits = source[cells]
                text = next((t for b, t in distinct if np.array_equal(b, bits)), None)
                if text is None:
                    text = _format_17g(bits.view(float))
                    distinct.append((bits, text))
                made.append(text)
            # The previous chunk's text is let go only now that this chunk's
            # is made. Freed first, its memory tends to lie at the top of the
            # heap, which glibc then returns to the OS, only to fault the
            # same pages in again for the next chunk.
            row = made
            for text in _join_fields(row):
                fp.write(text)


def _sole_axis(bits: np.ndarray, shape: tuple[int, ...]):
    """(k, its bits along axis k) when a 2-axis column depends on the axis-k
    index alone, else (None, None); two rows or columns reject most early."""
    if len(shape) == 2:
        grid = bits.reshape(shape)
        for k in (1, 0):
            first = grid.take([0], axis=1 - k)
            if np.array_equal(grid.take([1], axis=1 - k), first) and (grid == first).all():
                return k, first.ravel()
    return None, None


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


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split a = high + low into halves whose products are exact."""
    big = _SPLIT * a
    high = big - (big - a)
    return high, a - high


def _product_error(a, b, a_halves, b_halves):
    """a * b - fl(a * b), exactly (Dekker's two-product)."""
    (a_high, a_low), (b_high, b_low) = a_halves, b_halves
    return ((a_high * b_high - a * b) + a_high * b_low + a_low * b_high) + a_low * b_low


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
    residual = (1.0 - inverse * big) - _product_error(inverse, big, _split(inverse), _split(big))
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
    zeros = tail[:, 0].astype(np.intp) + tail[:, 1] + tail[:, 2] + tail[:, 3]
    return hi, *_split(hi), lo, quads.view(np.uint32).ravel(), zeros


def _digits17(x: np.ndarray, exp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """round(x * 10**(16 - exp)) as int64 for positive x, and where that
    rounding is not certified."""
    k = 16 - _POW_MIN - exp
    hi, hi_high, hi_low, lo = (t.take(k) for t in _format_tables()[:4])
    prod = x * hi
    err = _product_error(x, hi, _split(x), (hi_high, hi_low))
    whole = np.floor(prod)
    rest = (prod - whole) + (err + x * lo)
    step = np.floor(rest)
    frac = rest - step
    digits = whole.astype(np.int64) + step.astype(np.int64) + (frac > 0.5)
    return digits, np.abs(frac - 0.5) <= _TIE_BOUND


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """17-digit D and exponent E of positive x in the fast range, and where
    they are not certified. log10 may miss E by one near a power of ten;
    the digits then leave [10**16, 10**17) and E is taken one step over."""
    exp = np.floor(np.log10(x)).astype(np.int64)
    digits, unsure = _digits17(x, exp)
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


def _digit_chars(digits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 ASCII digits of each D with its trailing zeros as NUL, and
    how many digits remain without them. (A NUL | "0" is "0" again.)"""
    *_, quads, zeros = _format_tables()
    upper, lower = np.divmod(digits, 10**8)
    upper, lower = upper.astype(float), lower.astype(float)  # below 2**53: exact
    mid, low_high = np.floor(upper / 1e4), np.floor(lower / 1e4)
    lead = np.floor(mid / 1e4)
    groups = np.empty((5, digits.size), np.intp)  # 1 + 4 * 4 digits
    for j, group in enumerate(
        [lead, mid - 1e4 * lead, upper - 1e4 * mid, low_high, lower - 1e4 * low_high]
    ):
        groups[j] = group
    trailing = zeros[groups[4]]
    for j in (3, 2, 1):  # the zeros run on into group j only through 0000s
        trailing = np.where(trailing == 16 - 4 * j, trailing + zeros[groups[j]], trailing)
    # From the group that holds the last nonzero digit on, the digits come
    # with their trailing zeros as NUL: the second half of the table.
    last = 4 - trailing // 4
    words = np.empty((digits.size, 5), np.uint32)
    for j in range(5):
        words[:, j] = quads[groups[j] + 10_000 * (last <= j)]
    return words.view(np.uint8)[:, 3:], 17 - trailing


def _format_17g(values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """format(v, ".17g") and a comma for every value as float64, as
    NUL-padded rows of ``_WIDTH`` bytes; the bytes each row uses; and the
    row of each value.

    Values in the fast range take the certified array path; nan, +-inf and
    +-0 come from a literal table; the rest, and fast values whose rounding
    is not certified, are formatted one by one by ``format``. Rows are laid
    out sorted by text class, so that each class is written by slices, and
    the certified values, which alone need digits, come first; the writer
    gathers them back into value order a write slice at a time.
    """
    x = np.asarray(values, dtype=float).ravel()
    mag = np.abs(x)
    fast = (mag >= 10.0**-_FAST_EXP) & (mag < 10.0**_FAST_EXP)
    digits, exp, unsure = _decimal(mag[fast])
    negative = np.signbit(x)
    code = np.empty(x.size, np.int8)
    code[fast] = np.where(unsure, _SLOW,
                          np.where((exp >= -4) & (exp < 17), 2 * (exp + 4), _SCI) + negative[fast])
    other = np.flatnonzero(~fast)
    if other.size:
        y, sign = x[other], negative[other]
        literal = np.where(np.isinf(y), _SCI + 3 + sign, np.where(y == 0, _SCI + 5 + sign, _SLOW))
        code[other] = np.where(np.isnan(y), _SCI + 2, literal)
    order = np.argsort(code, kind="stable")
    sure = order[: np.count_nonzero(code < _SCI + 2)]  # the certified values sort first
    if other.size:  # their places among the fast values
        sure = (np.cumsum(fast) - 1)[sure]
    chars, shown = _digit_chars(digits[sure])
    exp = exp[sure]
    text = np.zeros((x.size, _WIDTH), np.uint8)
    used = np.empty(x.size, np.intp)
    counts = np.bincount(code, minlength=_SLOW + 1)
    ends = np.cumsum(counts).tolist()
    for c in np.flatnonzero(counts).tolist():
        rows = slice(ends[c] - int(counts[c]), ends[c])
        sign = c % 2 if c < _SCI + 2 else 0
        if c < _SCI:  # positional
            e = c // 2 - 4
            if e >= 0:  # ddd.ddd
                text[rows, sign : sign + e + 1] = chars[rows, : e + 1] | _ZERO
                text[rows, sign + e + 1] = _DOT  # the comma goes here if no digit follows
                text[rows, sign + e + 2 : sign + 18] = chars[rows, e + 1 :]
                used[rows] = np.where(shown[rows] > e + 1, shown[rows] + 1, e + 1)
            else:  # 0.000ddd
                text[rows, sign : sign + 1 - e] = _ZERO
                text[rows, sign + 1] = _DOT
                text[rows, sign + 1 - e : sign + 18 - e] = chars[rows]
                used[rows] = 1 - e + shown[rows]
        elif c < _SCI + 2:  # d.ddde+dd
            text[rows, sign] = chars[rows, 0]
            text[rows, sign + 1] = _DOT
            text[rows, sign + 2 : sign + 18] = chars[rows, 1:]
            mantissa = np.where(shown[rows] > 1, shown[rows] + 1, 1)
            power = np.abs(exp[rows])
            three = power >= 100
            suffix = np.zeros((power.size, 5), np.uint8)
            suffix[:, 0] = ord("e")
            suffix[:, 1] = np.where(exp[rows] < 0, _MINUS, ord("+"))
            suffix[:, 2:] = _format_tables()[4][power].view(np.uint8).reshape(-1, 4)[:, 1:]
            suffix[~three, 2:4] = suffix[~three, 3:5]
            suffix[~three, 4] = 0
            at = np.arange(rows.start, rows.stop) * _WIDTH + sign + mantissa
            for j in range(5):
                text.ravel()[at + j] = suffix[:, j]
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
    text.ravel()[np.arange(x.size) * _WIDTH + used] = ord(",")
    back = np.empty_like(order)
    back[order] = np.arange(order.size)
    return text, used + 1, back


def _status_fields(names: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """UTF-8 text and LF of each status name as NUL-padded rows, the bytes
    each row uses, and the row of each name (its code)."""
    words = [(s + "\n").encode("utf-8") for s in names]
    used = np.array([len(w) for w in words], np.intp)
    table = np.zeros((len(words), max(used, default=0)), np.uint8)
    for row, word in zip(table, words):
        row[: len(word)] = np.frombuffer(word, np.uint8)
    return table, used, np.arange(len(words))


def _join_fields(fields: list[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> Iterator[str]:
    """CSV rows from NUL-padded text rows, one (text, used, rows) triple per
    field, where output row j takes the field's text row rows[j]: the fields
    side by side, each cut to its longest text row, and the NUL padding
    dropped. The rows are gathered and joined by slices in one reused frame
    of at most ``_WRITE_BYTES``, and each slice's text is yielded as one
    string. (No number or status text holds a NUL.)"""
    widths = [int(used.max()) for _, used, _ in fields]
    count = fields[0][2].size
    step = max(1, _WRITE_BYTES // sum(widths))
    frame = np.empty((min(step, count), sum(widths)), np.uint8)
    for start in range(0, count, step):
        part = frame[: min(step, count - start)]
        offset = 0
        for (text, _, rows), width in zip(fields, widths):
            part[:, offset : offset + width] = np.take(text, rows[start : start + len(part)], axis=0)[:, :width]
            offset += width
        yield part[part != 0].tobytes().decode("utf-8")


def _blocks(shape: tuple[int, ...]) -> Iterator[tuple[slice, tuple[np.ndarray, ...]]]:
    """The cells of a grid of this shape in row-major order, by blocks of
    ``_CSV_CHUNK``: each block's slice of the cells and its cells' index
    along each axis."""
    cells = math.prod(shape)
    for start in range(0, cells, _CSV_CHUNK):
        block = slice(start, min(start + _CSV_CHUNK, cells))
        yield block, np.unravel_index(np.arange(block.start, block.stop), shape)


def _cell_blocks(cfg: FieldConfig, axes: Sequence[Axis]) -> Iterator[tuple[slice, SimpleNamespace]]:
    """The blocks of the axes' grid (``_blocks``): each block's slice and its
    cells' parameters as attributes, arrays along the axes (the values of a
    meshgrid) and cfg's omega, b0 and theta otherwise."""
    values = [ax.values for ax in axes]
    fixed = {name: getattr(cfg, name) for name in _FIELD_AXES}
    for block, index in _blocks(tuple(ax.count for ax in axes)):
        yield block, SimpleNamespace(**fixed | {ax.name: v[i] for ax, v, i in zip(axes, values, index)})


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

    n_cells = math.prod(ax.count for ax in axes)
    columns = {name: np.empty(n_cells) for name in _FISHER_COLUMNS}
    codes = np.empty(n_cells, np.int8)
    for cells, fields in _cell_blocks(cfg, axes):
        cfi, qfi = fisher_values(fields, omega0)
        scale = fields.omega * fields.omega  # the scaled columns: raw * omega^2
        for name, raw in (("cfi", cfi), ("qfi", qfi), ("gap", qfi - cfi)):
            columns[f"{name}_raw"][cells] = raw
            np.multiply(raw, scale, out=columns[f"{name}_scaled"][cells])
        n_required = columns["n_required"][cells]
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(1.0, accuracy * columns["cfi_scaled"][cells], out=n_required)
        codes[cells] = np.select([np.isnan(cfi), ~np.isfinite(n_required)], [1, 2], 0)

    return GridTable(
        axes=tuple(axes),
        columns=columns,
        status=codes,
        status_names=_FISHER_STATUSES,
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

    n_cells = math.prod(ax.count for ax in axes)
    columns = {name: np.empty(n_cells) for name in ("root_plus", "root_minus", "boundary_b0")}
    codes = np.empty(n_cells, np.int8)
    for cells, fields in _cell_blocks(cfg, axes):
        root_plus, root_minus, inversion = ml_roots(fields.xbar, fields)
        columns["root_plus"][cells] = root_plus
        columns["root_minus"][cells] = root_minus
        columns["boundary_b0"][cells] = np.sqrt(fields.xbar) / abs(np.sin(fields.theta))
        codes[cells] = np.select([inversion != ROOTS_REAL, root_minus < 0.0, root_minus > 0.0], [1, 2, 3], 0)

    return GridTable(
        axes=tuple(axes),
        columns=columns,
        status=codes,
        status_names=_ROOT_STATUSES,
        metadata={"operation": "ml_root_scan", "fixed": _fixed_echo(cfg, names)},
    )


def bayes_scan(
    cfg: FieldConfig,
    prior: Prior,
    axes: tuple[Axis, Axis],
    n: int,
    tol: Tolerance | None = None,
) -> GridTable:
    """Prior-averaged Fisher landscape over two field-parameter axes; the
    quadrature tolerance defaults to ``numerics.DEFAULT_TOL``. A cell whose
    averages fail carries NaN and the error's name as its status."""
    from .numerics import DEFAULT_TOL
    from .posterior import bayes_fisher
    from .priors import Prior, PriorKind

    tol = DEFAULT_TOL if tol is None else tol
    names = [ax.name for ax in axes]
    if len(axes) != 2 or any(nm not in _FIELD_AXES for nm in names) or names[0] == names[1]:
        raise DomainError("bayes_scan needs two distinct axes among omega, b0, theta")
    if not n >= 1:
        raise DomainError(f"n must be >= 1, got {n}")
    cols = np.full((math.prod(ax.count for ax in axes), 3), math.nan)
    status = [STATUS_OK] * len(cols)
    jeffreys = prior.kind is PriorKind.JEFFREYS  # it depends on the drive: rebuilt per cell
    for cells, fields in _cell_blocks(cfg, axes):
        drives = np.broadcast_arrays(*(getattr(fields, name) for name in _FIELD_AXES))
        for i, drive in zip(range(cells.start, cells.stop), zip(*(d.tolist() for d in drives))):
            try:
                cell = FieldConfig(*drive)
                bf = bayes_fisher(cell, Prior.jeffreys(prior.window, cell) if jeffreys else prior, n, tol)
                cols[i] = bf.bayes_cfi, bf.bayes_qfi, bf.bayes_gap
            except EstimationError as exc:
                status[i] = f"error:{type(exc).__name__}"
    return GridTable(
        axes=tuple(axes),
        columns={
            "bayes_cfi": cols[:, 0],
            "bayes_qfi": cols[:, 1],
            "bayes_gap": cols[:, 2],
        },
        status=status,
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
    tol: Tolerance | None = None,
) -> GridTable:
    """Posterior-mean estimate against the average count rate, one column per
    prior. Fractional counts k = n*xbar enter the likelihood exponents so the
    count rate can be treated as a continuous abscissa. Each prior's column
    is one batch of posteriors (see ``posterior.mmse_many``); a failing cell
    is NaN, and its status names the error of the last prior that failed.
    The quadrature tolerance defaults to ``numerics.DEFAULT_TOL``."""
    from .frequentist import Dataset
    from .numerics import DEFAULT_TOL
    from .posterior import PosteriorSpec, mmse_many

    tol = DEFAULT_TOL if tol is None else tol
    if xbar_axis.name != "xbar":
        raise DomainError("mmse_curve needs an xbar axis")
    if not priors:
        raise DomainError("mmse_curve needs at least one prior")
    data = [Dataset(n=n, k=n * float(x)) for x in xbar_axis.values]
    status = [STATUS_OK] * len(data)
    columns = {}
    for prior in priors:
        base = name = f"mmse_{prior.kind.value}"
        suffix = 2
        while name in columns:
            name = f"{base}_{suffix}"
            suffix += 1
        results = mmse_many([PosteriorSpec(data=d, cfg=cfg, prior=prior, quad_tol=tol) for d in data])
        for i, result in enumerate(results):
            if isinstance(result, EstimationError):
                status[i] = f"error:{type(result).__name__}"
        columns[name] = np.array([math.nan if isinstance(r, EstimationError) else r for r in results])
    return GridTable(
        axes=(xbar_axis,),
        columns=columns,
        status=status,
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
    from .posterior import _DP_FLOOR, map_stationarity_lhs
    from .priors import PriorKind

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
    return GridTable(
        axes=(omega0_axis,),
        columns={"xbar": xbar, "xbar_n_inf": xbar_inf},
        status=codes,
        status_names=_MAP_STATUSES,
        metadata={
            "operation": "map_curve",
            "n": n,
            "prior": _prior_echo(prior),
            "fixed": _fixed_echo(cfg, ["omega0"]),
        },
    )


def _fixed_echo(cfg: FieldConfig, varied_names: Sequence[str]) -> dict:
    return {
        name: getattr(cfg, name)
        for name in _FIELD_AXES
        if name not in varied_names
    }


def _prior_echo(prior: Prior) -> dict:
    from .priors import PriorKind

    out = {
        "kind": prior.kind.value,
        "window": [prior.window.lower, prior.window.upper],
    }
    if prior.kind is PriorKind.GAUSSIAN:
        out["mean"] = prior.mean
        out["sigma"] = prior.sigma
    if prior.kind is PriorKind.JEFFREYS:
        out["normalizer"] = prior.normalizer
    return out
