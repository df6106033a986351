"""Scan tables and their CSV writer: ``Axis``, ``GridTable``, the block
functions that scans give a table, and the echoes of a field and a prior
that tables carry in their metadata.

Every scan and curve op loads this module, and with it ``format17g``, the
writer's number formatter, and ``errors``. ``cli`` loads it to parse an
``--axis`` flag. It imports no kernel: each scan module brings its own.

A table keeps per-cell statuses as integer codes into its status names.
The Fisher landscape and the ML root surfaces are tables drawn by blocks:
``GridTable.to_csv`` runs their closed-form kernels on at most
``_KERNEL_CELLS`` cells at a time, from the cells' flat indices, into
buffers allocated once per call, so no array the size of the grid exists.
The kernels are elementwise: the values are those of one whole-grid call
bit for bit. A column that depends on one axis alone, such as the ML
boundary, is given once along that axis and formatted once per axis value.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from .errors import DomainError, record
from .format17g import _WIDTH, _format_17g, _format_scratch

if TYPE_CHECKING:
    from .dynamics import FieldConfig
    from .priors import Prior

__all__ = ["Axis", "GridTable"]

_AXIS_NAMES = ("omega", "b0", "theta", "omega0", "xbar")
_FIELD_AXES = ("omega", "b0", "theta")
STATUS_OK = "ok"
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
