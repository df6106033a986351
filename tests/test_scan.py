import importlib.util
import io
import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabi_est import curves, format17g, posterior, priors, scan
from rabi_est import table as tables
from rabi_est.curves import map_curve, mmse_curve
from rabi_est.dynamics import FieldConfig
from rabi_est.errors import DomainError
from rabi_est.fisher import fisher_values
from rabi_est.frequentist import ROOTS_REAL, Dataset, ml_roots
from rabi_est.posterior import PosteriorSpec, mmse
from rabi_est.priors import Prior, SupportWindow
from rabi_est.scan import bayes_scan, fisher_scan, ml_root_scan
from rabi_est.table import Axis, GridTable

CFG = FieldConfig(omega=1.0, b0=1.0, theta=math.pi / 2)


def read_table(table: GridTable) -> tuple[dict, np.ndarray]:
    """The whole grid's value columns and status codes, drawn from the
    table's block function a block at a time."""
    columns = {name: np.empty(table.n_cells) for name in table.header()[len(table.axes) : -1]}
    codes = np.empty(table.n_cells, np.int8)
    for block, index in tables._blocks(table.shape):
        values, codes[block] = table._cells(block, index)
        for name, column in columns.items():
            k, along = table._along.get(name, (None, None))
            column[block] = values[name] if k is None else along[index[k]]
    return columns, codes


def table_columns(table: GridTable) -> dict:
    return read_table(table)[0]


def table_codes(table: GridTable) -> np.ndarray:
    return read_table(table)[1]


def table_status(table: GridTable) -> list[str]:
    return [table.status_names[code] for code in table_codes(table).tolist()]


def reference_csv(table: GridTable) -> str:
    """Row by row, one format(v, ".17g") per numeric cell."""
    grids = np.meshgrid(*[ax.values for ax in table.axes], indexing="ij")
    cols = [g.ravel() for g in grids] + list(table_columns(table).values())
    lines = [",".join(table.header())]
    status = table_status(table)
    for i in range(table.n_cells):
        lines.append(",".join([format(c[i], ".17g") for c in cols] + [status[i]]))
    return "\n".join(lines) + "\n"


def stored_table(axes, columns: dict, status: list) -> GridTable:
    """A GridTable over whole stored columns, with one status name per cell."""
    names = tuple(dict.fromkeys(status))
    codes = np.array([names.index(s) for s in status], np.int8)
    columns = {name: np.asarray(c, dtype=float) for name, c in columns.items()}
    return GridTable(axes, list(columns), names, tables._stored(columns, codes))


def to_csv_text(table: GridTable) -> str:
    out = io.StringIO()
    table.to_csv(out)
    return out.getvalue()


class RecordingFile(io.StringIO):
    """A text file that records the length of every write."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(len(text))
        return super().write(text)


class TestToCsv:
    @pytest.mark.parametrize("chunk", [1, 4, 8192])
    def test_matches_per_cell_format(self, chunk, monkeypatch):
        monkeypatch.setattr(tables, "_CSV_CHUNK", chunk)
        axes = (Axis("b0", 0.1, 0.7, 3), Axis("omega", -1.0, 1.0 / 3.0, 3))
        special = np.array([math.nan, math.inf, -math.inf, -0.0, 1e-300, 0.1, -2.5e17, 1.0, 3.0])
        table = stored_table(
            axes=axes,
            columns={"a": special, "b": special[::-1].copy()},
            status=["ok", "error:DivergentInformation", "ok", "Complex", "ok", "ok", "x", "ok", "ok"],
        )
        # Rows of this table take 108 bytes of the join's frame: 1 byte
        # writes one row per slice and 400 bytes three rows, so slice
        # boundaries fall inside chunks of 4 and 8192 rows.
        for write_bytes in (1, 400, tables._WRITE_BYTES):
            monkeypatch.setattr(tables, "_WRITE_BYTES", write_bytes)
            text = to_csv_text(table)
            assert text == reference_csv(table)
        assert [line.split(",")[2] for line in text.splitlines()[1:]] == [
            "nan", "inf", "-inf", "-0", "1e-300", "0.10000000000000001", "-2.5e+17", "1", "3",
        ]

    def test_chunk_without_a_fast_value(self, monkeypatch):
        # The first chunk of column "a" holds only literals, the second
        # literals and values outside the fast range: neither has digits to
        # compute.
        monkeypatch.setattr(tables, "_CSV_CHUNK", 5)
        column = np.array([math.nan, math.inf, -math.inf, 0.0, -0.0,
                           5e-324, -1e-300, 1e300, -math.nan, 0.0])
        table = stored_table(axes=(Axis("b0", 0.5, 5.0, 10),), columns={"a": column},
                             status=["ok"] * 10)
        assert to_csv_text(table) == reference_csv(table)
        assert formatted(column[:5]) == ["nan", "inf", "-inf", "0", "-0"]

    def test_equal_columns_share_their_text(self, monkeypatch):
        # Column "b" equals "a" in the first chunk only; "c" and "d" differ
        # from "a" in the first chunk only, by the sign of a zero and by the
        # sign bit of a NaN.
        monkeypatch.setattr(tables, "_CSV_CHUNK", 4)
        a = np.array([0.5, math.nan, 0.0, 1e-5, 2.0, 3.0, -1.0, 7.25])
        b = np.concatenate([a[:4], a[4:] + 1.0])
        c = np.where(a == 0.0, -0.0, a)
        d = np.where(np.isnan(a), -math.nan, a)
        calls = []
        original = tables._format_17g

        def counting(values, *out):
            calls.append(len(values))
            return original(values, *out)

        monkeypatch.setattr(tables, "_format_17g", counting)
        table = stored_table(axes=(Axis("b0", 0.5, 5.0, 8),), columns={"a": a, "b": b, "c": c, "d": d},
                             status=["ok"] * 8)
        assert to_csv_text(table) == reference_csv(table)
        # The axis, then the distinct columns per chunk: a, c, d; then a, b.
        assert calls == [8, 4, 4, 4, 4, 4]

    @staticmethod
    def one_axis_columns() -> dict:
        """Columns of a 3 x 4 grid: constant along axis 0, along axis 1,
        along both, and one column each constant but for one cell whose zero,
        or whose NaN, has the other sign bit."""
        per_row = np.array([0.5, math.nan, -0.0])[:, None]   # by the axis-0 index
        per_col = np.array([1e-5, 0.0, 3.0, 2.5e17])         # by the axis-1 index
        along0 = np.broadcast_to(per_col, (3, 4)).ravel()
        along1 = np.broadcast_to(per_row, (3, 4)).ravel()
        zero, nan = along0.copy(), along1.copy()
        zero[5] = -0.0
        nan[6] = -math.nan
        assert zero.tobytes() != along0.tobytes() and nan.tobytes() != along1.tobytes()
        return {"along0": along0, "along1": along1, "both": np.full(12, 0.1),
                "zero": zero, "nan": nan}

    @pytest.mark.parametrize("chunk", [1, 4, 8192])
    def test_columns_constant_along_an_axis(self, chunk, monkeypatch):
        monkeypatch.setattr(tables, "_CSV_CHUNK", chunk)
        table = stored_table(axes=(Axis("b0", 0.1, 0.7, 3), Axis("omega", -1.0, 1.0, 4)),
                             columns=self.one_axis_columns(), status=["ok"] * 12)
        text = to_csv_text(table)
        assert text == reference_csv(table)
        assert [line.split(",")[5] for line in text.splitlines()[5:8]] == [
            "1.0000000000000001e-05", "-0", "3"]

    def test_ml_roots_boundary_is_formatted_once(self, monkeypatch):
        # boundary_b0 depends on the count rate alone: it is formatted once,
        # at the xbar axis's length, wherever that axis stands.
        monkeypatch.setattr(tables, "_CSV_CHUNK", 500)
        calls = []
        original = tables._format_17g
        monkeypatch.setattr(tables, "_format_17g",
                            lambda values, *out: calls.append(len(values)) or original(values, *out))
        for axes in [(Axis("b0", 0.1, 5.0, 40), Axis("xbar", 0.001, 0.999, 30)),
                     (Axis("xbar", 0.001, 0.999, 30), Axis("omega", -3.0, 3.0, 40))]:
            calls.clear()
            table = ml_root_scan(CFG, axes)
            assert to_csv_text(table) == reference_csv(table)
            # The axes and boundary_b0, then root_plus and root_minus chunk
            # by chunk (they share the text of an all-NaN chunk).
            assert calls[:3] == [axes[0].count, axes[1].count, 30]
            assert set(calls[3:]) == {500, 200}

    def test_fisher_scan_at_unit_omega_formats_each_distinct_column_once(self, monkeypatch):
        # With omega = 1 the scaled columns are the raw ones bit for bit.
        table = fisher_scan(CFG, 2.0, (Axis("b0", 0.1, 5.0, 7), Axis("theta", 0.01, 3.13, 5)))
        calls = []
        original = tables._format_17g
        monkeypatch.setattr(tables, "_format_17g", lambda values, *out: calls.append(1) or original(values, *out))
        assert to_csv_text(table) == reference_csv(table)
        distinct = {table_columns(table)[name].tobytes() for name in table_columns(table)}
        assert len(calls) == len(table.axes) + len(distinct) < len(table.axes) + len(table_columns(table))

    def test_fisher_scan_matches_per_cell_format(self):
        table = fisher_scan(CFG, 2.0, (Axis("b0", 0.1, 5.0, 7), Axis("theta", 0.01, 3.13, 5)))
        assert to_csv_text(table) == reference_csv(table)

    def test_ml_roots_scan_matches_per_cell_format(self, monkeypatch):
        # NaN-heavy, with negative roots, over several chunks. The fourth
        # status, Unambiguous, needs a root of exactly 0 and no grid cell has one.
        monkeypatch.setattr(tables, "_CSV_CHUNK", 500)
        table = ml_root_scan(CFG, (Axis("b0", 0.1, 5.0, 40), Axis("xbar", 0.001, 0.999, 40)))
        assert set(table_status(table)) == {"Complex", "NegativeRejected", "Ambiguous"}
        assert (table_columns(table)["root_minus"] < 0).any()
        assert np.isnan(table_columns(table)["root_minus"]).mean() > 0.3
        assert to_csv_text(table) == reference_csv(table)

    @pytest.mark.parametrize("write_bytes", [1, 4096, tables._WRITE_BYTES])
    def test_writes_slices_of_at_most_write_bytes(self, write_bytes, monkeypatch):
        monkeypatch.setattr(tables, "_WRITE_BYTES", write_bytes)
        table = fisher_scan(CFG, 2.0, (Axis("b0", 0.1, 5.0, 30), Axis("theta", 0.01, 3.13, 40)))
        out = RecordingFile()
        table.to_csv(out)
        assert out.getvalue() == reference_csv(table)
        rows = out.writes[1:]  # after the header
        assert len(rows) > math.ceil(table.n_cells / tables._CSV_CHUNK)
        if write_bytes == 1:
            assert len(rows) == table.n_cells  # one row per write
        else:
            assert max(rows) <= write_bytes < 128 * 1024

    def test_every_byte_goes_through_write(self, tmp_path):
        # The bench's tracer counts the bytes of an op's output with a file
        # wrapper that sees only write and writelines and hands every other
        # attribute to the file the CLI opened: the byte count is the file's
        # size only if every row goes through write.
        spec = importlib.util.spec_from_file_location(
            "bench_tracer", Path(__file__).resolve().parents[1] / "bench" / "tracer.py")
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        table = fisher_scan(CFG, 2.0, (Axis("b0", 0.1, 5.0, 90), Axis("theta", 0.01, 3.13, 100)))
        assert table.n_cells > tables._CSV_CHUNK
        path = tmp_path / "out.csv"
        with open(path, "w", encoding="utf-8", newline="\n") as fp:
            counting = tracer._CountingFile(fp)
            table.to_csv(counting)
        assert counting.bytes == path.stat().st_size
        assert path.read_text(encoding="utf-8") == reference_csv(table)


class TestGridTableStatus:
    def test_names_are_coded_once(self, monkeypatch):
        # A scan codes each status name once, as its cells fail: here the
        # posteriors of the counts 2 and 8 of mmse_curve.
        ratio = posterior.log_likelihood_ratio
        monkeypatch.setattr(posterior, "log_likelihood_ratio", lambda n, k, p, dp, ref: np.where(
            (k == 2.0) | (k == 8.0), np.nan, ratio(n, k, p, dp, ref)))
        table = mmse_curve(CFG, [Prior.uniform(FIG5_WINDOW)], 8, Axis("xbar", 0.0, 1.0, 5))
        assert table.status_names == ("ok", "error:DomainError")
        assert table_codes(table).tolist() == [0, 1, 0, 0, 1]
        assert table_status(table) == ["ok", "error:DomainError", "ok", "ok", "error:DomainError"]

    def test_codes_with_names(self):
        codes = np.array([2, 0, 1], np.int8)
        table = GridTable((Axis("b0", 0.5, 5.0, 3),), [], ("a", "b", "c"), tables._stored({}, codes))
        assert table_status(table) == ["c", "a", "b"]
        assert to_csv_text(table) == reference_csv(table)


def formatted(values) -> list[str]:
    """The formatter's text of each value, without the comma it appends."""
    text, used, rows = format17g._format_17g(np.asarray(values, dtype=float))
    return [bytes(text[r, : used[r] - 1]).decode("ascii") for r in rows.tolist()]


def expected(values) -> list[str]:
    return [format(v, ".17g") for v in np.asarray(values, dtype=float).tolist()]


def powers_of_ten() -> list[float]:
    """Every float64 power of ten, 1e-323 to 1e308."""
    return [float(f"1e{k}") for k in range(-323, 309)]


def carries() -> list[float]:
    """Powers of ten whose float64 lies below the power but whose 17-digit
    rounding carries up to it (D = 10**17 before the exponent moves)."""
    out = []
    for k in range(-323, 309):
        x = float(f"1e{k}")
        digits = Fraction(x) * Fraction(10) ** (16 - (k - 1))
        if Fraction(x) < Fraction(10) ** k and round(digits) == 10**17:
            out.append(x)
    return out


def exact_ties() -> list[float]:
    """Values x = m * 2**(E - 17), m odd, in [10**E, 10**(E + 1)): their
    17-digit decimal D = x * 10**(16 - E) = m * 5**(16 - E) / 2 ends in
    exactly 1/2. Such an m fits in 53 bits for E = -7 .. 15 only."""
    out = []
    rng = np.random.default_rng(17)
    for e in range(-7, 16):
        lo = 2**17 * 5**e if e >= 0 else Fraction(2**17, 5**-e)
        hi = min(10 * lo, 2**53)
        first = math.ceil(lo) | 1
        picks = [first, first + 2] + [int(m) | 1 for m in rng.integers(first, hi, 6)]
        out += [math.ldexp(m, e - 17) for m in picks if m < hi]
    return out


def near_ties(e: int, q: int) -> list[float]:
    """Values m * 2**q (53-bit m) in [10**E, 10**(E + 1)) whose exact D =
    x * 10**(16 - E) = m * a / b has a fraction within _TIE_BOUND / 4 of 1/2
    but not on it: m = (b // 2 + d) / a mod b for small d."""
    c = Fraction(2) ** q * Fraction(10) ** (16 - e)
    a, b = c.numerator, c.denominator
    lo = max(2**52, math.ceil(Fraction(10) ** e / Fraction(2) ** q))
    hi = min(2**53, math.ceil(Fraction(10) ** (e + 1) / Fraction(2) ** q))
    out = []
    for d in range(-40, 41):
        r = (b // 2 + d) * pow(a, -1, b) % b
        m = r + -(-(lo - r) // b) * b
        if m < hi:
            frac = m * c - math.floor(m * c)
            if 0 < abs(frac - Fraction(1, 2)) <= Fraction(format17g._TIE_BOUND) / 4:
                out.append(math.ldexp(m, q))
    return out


def decimal(values):
    """format17g._decimal of the values, in rows of its own."""
    x = np.array(values)
    return format17g._decimal(x, (np.empty((3, x.size), np.int64), np.empty((6, x.size))))


class TestFormat17g:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=500))
    def test_raw_bit_patterns(self, bits):
        x = np.array(bits, dtype=np.uint64).view(np.float64)
        assert formatted(x) == expected(x)

    def test_specials_and_subnormals(self):
        tiny = [5e-324, 1e-323, 2.2250738585072009e-308, 2.2250738585072014e-308, 1e-310]
        values = [math.nan, math.inf, -math.inf, 0.0, -0.0, *tiny, *[-v for v in tiny]]
        assert formatted(values) == expected(values)
        assert formatted([math.nan, -math.inf, -0.0])[:3] == ["nan", "-inf", "-0"]

    def test_powers_of_ten_and_neighbours(self):
        p = np.array(powers_of_ten())
        values = np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, math.inf)])
        values = np.concatenate([values, -values])
        assert formatted(values) == expected(values)

    def test_rounding_carries_to_ten_to_the_seventeen(self):
        values = carries()
        assert len(values) >= 10
        assert formatted(values) == expected(values)
        assert all(s.startswith("1e") or s.strip("0.") == "1" for s in formatted(values))

    @pytest.mark.parametrize("switch", [1e-4, 1e17])
    def test_positional_scientific_switches(self, switch):
        # E = -5 | -4 at 1e-4 and E = 16 | 17 at 1e17: 20 float64 steps on
        # each side, and their negatives.
        below, above = [math.nextafter(switch, 0.0)], [switch]
        for _ in range(19):
            below.append(math.nextafter(below[-1], 0.0))
            above.append(math.nextafter(above[-1], math.inf))
        for side, scientific in ((below, switch < 1), (above, switch > 1)):
            values = side + [-v for v in side]
            assert formatted(values) == expected(values)
            assert all(("e" in t) == scientific for t in formatted(values))

    def test_exact_ties_go_to_format_and_round_half_even(self):
        ties = exact_ties()
        assert len(ties) >= 150
        _, exp, unsure = decimal(ties)
        assert unsure.all()
        assert formatted(ties) == expected(ties)
        for x, e, text in zip(ties, exp.tolist(), formatted(ties)):
            exact = Fraction(x) * Fraction(10) ** (16 - e)
            assert exact.denominator == 2
            # Decimal(text) * 10**(16 - E) is D; Fraction's round is half to even.
            assert Decimal(text).scaleb(16 - e) == round(exact)

    @pytest.mark.parametrize(("e", "q"), [(-6, -71), (-5, -69), (-4, -65), (-3, -62), (35, 64), (36, 67)])
    def test_near_ties_go_to_format(self, e, q):
        # Within the bound of 1/2 the double-double cannot decide the
        # rounding, so such values must not take the fast path.
        values = near_ties(e, q)
        assert len(values) >= 3
        _, exp, unsure = decimal(values)
        assert (exp == e).all() and unsure.all()
        assert formatted(values) == expected(values)

    @pytest.mark.parametrize("nudge", [-1e-9, 1e-9])
    def test_exponent_off_by_one_is_corrected(self, nudge, monkeypatch):
        # log10 may land on the wrong side of an integer near a power of
        # ten; a nudged log10 makes every such value start one exponent off.
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda x, out=None: np.add(log10(x, out=out), nudge, out=out))
        p = np.array(powers_of_ten()[30:-30] + carries())
        values = np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, math.inf)])
        assert formatted(values) == expected(values)

    def test_power_table_within_its_error_bound(self):
        # The certified bound rests on hi + lo = 10**k within 8 * 2**-106
        # relative, |lo| <= 2**-52 * hi, and hi split exactly.
        hi, hi_high, hi_low, lo, *_ = format17g._format_tables()
        u = Fraction(1, 2**53)
        for k, h, hh, hl, low in zip(range(format17g._POW_MIN, format17g._POW_MAX + 1), hi.tolist(),
                                     hi_high.tolist(), hi_low.tolist(), lo.tolist()):
            power = Fraction(10) ** k
            assert abs(power - Fraction(h) - Fraction(low)) <= 8 * u**2 * power
            assert abs(low) <= 2 * u * h
            assert hh + hl == h

    def test_import_builds_no_tables(self):
        code = ("import rabi_est.cli; from rabi_est import format17g, scan; "
                "print(format17g._format_tables.cache_info().currsize)")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60, check=True)
        assert out.stdout.strip() == "0"


def whole_grid(cfg, axes):
    """The cell coordinates of the axes' grid as one meshgrid, and the field
    parameters as array attributes."""
    grids = np.meshgrid(*[ax.values for ax in axes], indexing="ij")
    varied = {ax.name: g.ravel() for ax, g in zip(axes, grids)}
    return varied, SimpleNamespace(**{name: varied.get(name, getattr(cfg, name))
                                      for name in ("omega", "b0", "theta")})


def whole_grid_fisher(cfg, omega0, axes, accuracy=0.001):
    """fisher_scan's columns and codes from one kernel call on the whole grid."""
    varied, fields = whole_grid(cfg, axes)
    cfi, qfi = fisher_values(fields, omega0)
    scale = varied.get("omega", np.full_like(cfi, cfg.omega)) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        n_required = 1.0 / (accuracy * (cfi * scale))
    columns = {"cfi_raw": cfi, "qfi_raw": qfi, "gap_raw": qfi - cfi, "cfi_scaled": cfi * scale,
               "qfi_scaled": qfi * scale, "gap_scaled": (qfi - cfi) * scale, "n_required": n_required}
    return columns, np.select([np.isnan(cfi), ~np.isfinite(n_required)], [1, 2], 0)


def whole_grid_roots(cfg, axes):
    """ml_root_scan's columns and codes from one kernel call on the whole grid."""
    varied, fields = whole_grid(cfg, axes)
    xbar = varied["xbar"]
    plus, minus, inversion = ml_roots(xbar, fields)
    columns = {"root_plus": plus, "root_minus": minus,
               "boundary_b0": np.sqrt(xbar) / abs(np.sin(cfg.theta)) * np.ones_like(xbar)}
    return columns, np.select([inversion != ROOTS_REAL, minus < 0.0, minus > 0.0], [1, 2, 3], 0)


def assert_same_bits(table: GridTable, columns: dict, codes: np.ndarray) -> None:
    assert list(table_columns(table)) == list(columns)
    for name, column in columns.items():
        assert np.array_equal(table_columns(table)[name].view(np.uint64), column.view(np.uint64)), name
    assert table_codes(table).tolist() == codes.tolist()


# Blocks of one cell, of 7 cells (which straddle grid rows), and of the
# default size over a grid of more than one default block.
BLOCKS = pytest.mark.parametrize("block, count", [(1, 21), (7, 21), (tables._CSV_CHUNK, 93)])


class TestCellBlocks:
    @BLOCKS
    def test_fisher_scan_across_zero_omega(self, block, count, monkeypatch):
        monkeypatch.setattr(tables, "_CSV_CHUNK", block)
        axes = (Axis("omega", -1.0, 1.0, count), Axis("theta", 0.5, 2.5, count + 2))
        columns, codes = whole_grid_fisher(CFG, 2.0, axes)
        assert 2 in codes  # omega = 0 lies on the axis: scaled_cfi_zero
        assert_same_bits(fisher_scan(CFG, 2.0, axes), columns, codes)

    @BLOCKS
    def test_fisher_scan_with_degenerate_cells(self, block, count, monkeypatch):
        monkeypatch.setattr(tables, "_CSV_CHUNK", block)
        cfg = FieldConfig(omega=3.0, b0=1.0, theta=math.pi / 2)
        axes = (Axis("b0", math.pi / 2 - 0.5, math.pi / 2 + 0.5, count),
                Axis("omega", 0.5, 1.5, count + 2))
        columns, codes = whole_grid_fisher(cfg, 1.0 + 1e-7, axes, accuracy=0.01)
        assert 1 in codes and np.isnan(columns["cfi_raw"]).any()  # degenerate_probability
        assert_same_bits(fisher_scan(cfg, 1.0 + 1e-7, axes, accuracy=0.01), columns, codes)

    @BLOCKS
    def test_fisher_scan_at_fixed_omega(self, block, count, monkeypatch):
        monkeypatch.setattr(tables, "_CSV_CHUNK", block)
        cfg = FieldConfig(omega=0.7, b0=1.0, theta=math.pi / 2)
        axes = (Axis("b0", 0.1, 5.0, count), Axis("theta", 0.01, 3.13, count + 2))
        assert_same_bits(fisher_scan(cfg, 2.0, axes), *whole_grid_fisher(cfg, 2.0, axes))

    @BLOCKS
    @pytest.mark.parametrize("other", ["b0", "omega"])
    def test_ml_root_scan(self, block, count, other, monkeypatch):
        monkeypatch.setattr(tables, "_CSV_CHUNK", block)
        axes = (Axis(other, 0.1, 5.0, count) if other == "b0" else Axis(other, -3.0, 3.0, count),
                Axis("xbar", 0.001, 0.999, count + 2))
        columns, codes = whole_grid_roots(CFG, axes)
        assert {1, 2, 3} <= set(codes.tolist())
        assert_same_bits(ml_root_scan(CFG, axes), columns, codes)
        assert_same_bits(ml_root_scan(CFG, axes[::-1]), *whole_grid_roots(CFG, axes[::-1]))

    def test_fisher_scan_and_csv_memory_does_not_grow_with_the_grid(self, traced_peak):
        # Beyond its own columns, a scan written to CSV needs the same memory
        # whatever the grid's size: its kernels and its writer work by blocks.
        def excess(count):
            def run():
                table = fisher_scan(CFG, 2.0, (Axis("b0", 0.1, 5.0, count), Axis("theta", 0.01, 3.13, count)))
                with open(os.devnull, "w") as fp:
                    table.to_csv(fp)
                return sum(c.nbytes for c in table_columns(table).values()) + table_codes(table).nbytes

            peak, columns = traced_peak(run)
            return peak - columns

        assert excess(600) <= excess(300) + 2**20

    @pytest.mark.parametrize("scan_of", [
        lambda count: fisher_scan(CFG, 2.0, (Axis("b0", 0.1, 5.0, count), Axis("theta", 0.01, 3.13, count))),
        lambda count: ml_root_scan(CFG, (Axis("b0", 0.1, 5.0, count), Axis("xbar", 0.001, 0.999, count))),
    ], ids=["fisher_scan", "ml_root_scan"])
    def test_scan_and_csv_total_memory_does_not_grow_with_the_grid(self, scan_of, traced_peak):
        # All the memory that a scan written to CSV takes, output columns
        # included: its table computes, formats and writes one block at a time.
        def peak(count):
            def run():
                with open(os.devnull, "w") as fp:
                    scan_of(count).to_csv(fp)

            return traced_peak(run)[0]

        assert peak(600) <= peak(300) + 2**20


class TestWriterMemory:
    """``to_csv`` allocates its buffers once per call, sized to one block or
    to a shorter table, and lets a block's values go before the next."""

    def test_fisher_table_of_four_blocks(self, traced_peak):
        # All seven value columns differ (omega != 1). The writer's buffers
        # are a text slot of 8192 rows of 40 bytes per column (2.2 MiB), the
        # formatter's scratch (1.1 MiB) and a block's values and codes (0.5
        # MiB); the kernels' temporaries for 4096 cells add ~0.6 MiB, 4.5 MiB
        # in all. Holding a second block's values and text while the next
        # block was made took 7.3 MiB.
        cfg = FieldConfig(omega=0.7, b0=1.0, theta=math.pi / 2)
        table = fisher_scan(cfg, 2.0, (Axis("b0", 0.1, 5.0, 150), Axis("theta", 0.01, 3.13, 170)))
        assert table.n_cells > 3 * tables._CSV_CHUNK
        format17g._format_tables()

        def run():
            with open(os.devnull, "w") as fp:
                table.to_csv(fp)

        assert traced_peak(run)[0] <= 5 * 2**20

    @pytest.mark.parametrize("chunk, piece", [(7, 3), (8, 8), (tables._CSV_CHUNK, tables._KERNEL_CELLS)])
    def test_block_function_runs_on_pieces(self, chunk, piece, monkeypatch):
        # The block function sees at most _KERNEL_CELLS cells at a time; a
        # piece may end inside a block, and the pieces fill it in order.
        monkeypatch.setattr(tables, "_CSV_CHUNK", chunk)
        monkeypatch.setattr(tables, "_KERNEL_CELLS", piece)
        table = ml_root_scan(CFG, (Axis("b0", 0.1, 5.0, 93), Axis("xbar", 0.001, 0.999, 95)))
        expect, calls, cells = reference_csv(table), [], table._cells
        table._cells = lambda block, index: calls.append((block.start, block.stop)) or cells(block, index)
        assert to_csv_text(table) == expect
        assert [start for start, _ in calls] == [0] + [stop for _, stop in calls[:-1]]
        assert calls[-1][1] == table.n_cells and max(stop - start for start, stop in calls) == piece

    def test_short_table_takes_buffers_of_its_length(self, traced_peak, monkeypatch):
        # The Fig. 5 curve's 101 rows: its text slots and the formatter's
        # scratch are 101 rows long, not _CSV_CHUNK (whose scratch alone is
        # 1.1 MiB).
        sizes = []
        original = tables._format_17g

        def recording(values, *out):
            if out:
                text, rows, scratch = out[0]
                sizes.append((len(text), len(rows), len(scratch.order), scratch.f.shape[1]))
            return original(values, *out)

        monkeypatch.setattr(tables, "_format_17g", recording)
        priors = [Prior.uniform(FIG5_WINDOW), Prior.gaussian(FIG5_WINDOW, 10.0, 2.0)]
        table = mmse_curve(CFG, priors, 8, Axis("xbar", 0.0, 1.0, 101))
        format17g._format_tables()
        peak, text = traced_peak(to_csv_text, table)
        assert text == reference_csv(table)
        assert len(sizes) == 2 and set(sizes) == {(101, 101, 101, 101)}
        assert peak < 2**17


class TestFisherScanStatus:
    def test_zero_drive_frequency_scales_cfi_to_zero(self):
        # omega = 0 in the middle column scales every CFI by omega^2 = 0.
        table = fisher_scan(CFG, 2.0, (Axis("omega", -1.0, 1.0, 3), Axis("theta", 0.5, 2.5, 3)))
        assert table_status(table) == ["ok"] * 3 + ["scaled_cfi_zero"] * 3 + ["ok"] * 3
        assert np.all(table_columns(table)["cfi_raw"] > 0.0)

    def test_probability_pinned_at_one_is_degenerate(self):
        # b0 sin(theta) = pi/2 and a detuning of 1e-7 put the detection
        # probability within the guard of 1 at the centre cell only.
        table = fisher_scan(
            CFG,
            1.0 + 1e-7,
            (Axis("b0", math.pi / 2 - 0.5, math.pi / 2 + 0.5, 3), Axis("omega", 0.5, 1.5, 3)),
        )
        expect = ["ok"] * 9
        expect[4] = "degenerate_probability"
        assert table_status(table) == expect
        assert np.isnan(table_columns(table)["cfi_raw"][4])


class TestMlRootScanStatus:
    def test_known_cells(self):
        # xbar = 0.2 inverts to s ~ 2.07 > b = 1: real roots omega -+ 2 sqrt(s^2 - 1),
        # the smaller one negative at omega = 1 and positive at omega = 5.
        # xbar = 0.9 gives sinc(s) > sinc(b), so s < b and the roots are complex.
        table = ml_root_scan(CFG, (Axis("omega", 1.0, 5.0, 2), Axis("xbar", 0.2, 0.9, 2)))
        assert table_status(table) == ["NegativeRejected", "Complex", "Ambiguous", "Complex"]
        minus = table_columns(table)["root_minus"]
        assert minus[0] < 0.0 < minus[2]
        assert np.isnan(minus[1]) and np.isnan(minus[3])


def test_bayes_scan_statuses():
    # Each cell rebuilds the Jeffreys prior for its own drive; a cell whose
    # prior information diverges fails alone and holds NaN.
    prior = Prior.jeffreys(SupportWindow(1.5, 5.0), CFG)
    axes = (Axis("b0", 0.5, 3.0, 3), Axis("omega", -3.0, 3.0, 3))
    table = bayes_scan(CFG, prior, axes, n=8)
    assert {"ok", "error:DivergentInformation"} == set(table_status(table))
    ok = np.array(table_status(table)) == "ok"
    for column in table_columns(table).values():
        assert np.isfinite(column[ok]).all() and np.isnan(column[~ok]).all()


def test_divergent_bayes_scan_cell_runs_no_quadrature(monkeypatch):
    # A Jeffreys cell whose prior information diverges fails from the
    # closed-form zeros of sqrt(CFI), before its normalizer's quadrature; a
    # cell that answers runs three (normalizer, prior information, averages).
    calls = []
    for module in (priors, posterior):
        monkeypatch.setattr(module, "integrate",
                            lambda *args, original=module.integrate: calls.append(1) or original(*args))
    prior = Prior.jeffreys(SupportWindow(1.5, 5.0), CFG)
    calls.clear()
    table = bayes_scan(CFG, prior, (Axis("b0", 0.5, 3.0, 3), Axis("omega", -3.0, 3.0, 3)), n=8)
    divergent = table_status(table).count("error:DivergentInformation")
    assert divergent == 4 and table_status(table).count("ok") == 5
    assert len(calls) == 3 * 5


def no_cell(*args):
    raise AssertionError("a cell ran")


def test_bayes_scan_rejects_n_below_one(monkeypatch):
    monkeypatch.setattr(posterior, "bayes_fisher", no_cell)
    prior = Prior.uniform(SupportWindow(1.5, 5.0))
    with pytest.raises(DomainError, match="n must be >= 1"):
        bayes_scan(CFG, prior, (Axis("b0", 0.5, 3.0, 3), Axis("omega", -3.0, 3.0, 3)), n=0)


def test_map_curve_rejects_n_below_one(monkeypatch):
    monkeypatch.setattr(priors, "map_stationarity_lhs", no_cell)
    prior = Prior.gaussian(SupportWindow(0.1, 100.0), 10.0, 2.0)
    with pytest.raises(DomainError, match="n must be >= 1"):
        map_curve(CFG, prior, 0, Axis("omega0", 0.15, 12.15, 241))


B0, THETA, XBAR = Axis("b0", 0.5, 3.0, 3), Axis("theta", 0.5, 2.5, 3), Axis("xbar", 0.1, 0.9, 3)
UNIFORM = Prior.uniform(SupportWindow(0.1, 100.0))


@pytest.mark.parametrize("call, message", [
    (lambda: Axis("phi", 0.0, 1.0, 3), "axis name must be one of ('omega', 'b0', 'theta', 'omega0', 'xbar'), "
                                       "got 'phi'"),
    (lambda: Axis("b0", 1.0, 1.0, 3), "axis b0: start must be < stop"),
    (lambda: Axis("b0", 0.5, 1.0, 1), "axis b0: count must be >= 2, got 1"),
    (lambda: Axis("b0", 0.0, 1.0, 3), "axis b0 must start above 0"),
    (lambda: Axis("theta", 0.5, math.pi, 3), "axis theta must stay strictly inside (0, pi)"),
    (lambda: Axis("xbar", 0.0, 1.5, 3), "axis xbar must stay inside [0, 1]"),
    (lambda: fisher_scan(CFG, 2.0, (B0, B0)), "fisher_scan needs two distinct axes among omega, b0, theta"),
    (lambda: fisher_scan(CFG, 2.0, (B0, THETA), accuracy=0.0), "accuracy must be positive, got 0.0"),
    (lambda: ml_root_scan(CFG, (B0, THETA)), "ml_root_scan needs an xbar axis and one of b0, omega"),
    (lambda: ml_root_scan(CFG, (THETA, XBAR)), "ml_root_scan varies xbar against b0 or omega"),
    (lambda: ml_root_scan(CFG, (B0, Axis("xbar", 0.0, 0.9, 3))),
     "ml_root_scan needs its xbar axis strictly inside (0, 1)"),
    (lambda: bayes_scan(CFG, UNIFORM, (B0, XBAR), n=8),
     "bayes_scan needs two distinct axes among omega, b0, theta"),
    (lambda: mmse_curve(CFG, [UNIFORM], 8, B0), "mmse_curve needs an xbar axis"),
    (lambda: mmse_curve(CFG, [], 8, XBAR), "mmse_curve needs at least one prior"),
    (lambda: map_curve(CFG, UNIFORM, 8, XBAR), "map_curve needs an omega0 axis"),
    (lambda: map_curve(CFG, UNIFORM, 8, Axis("omega0", 0.15, 12.15, 5)),
     "map_curve applies to the Jeffreys and Gaussian priors"),
], ids=["axis-name", "axis-order", "axis-count", "axis-b0", "axis-theta", "axis-xbar", "fisher-axes",
        "fisher-accuracy", "roots-xbar", "roots-other", "roots-xbar-range", "bayes-axes", "mmse-axis",
        "mmse-priors", "map-axis", "map-prior"])
def test_refusal(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert type(info.value) is DomainError and str(info.value) == message


FIG5_WINDOW = SupportWindow(0.1, 100.0)


class TestMmseCurve:
    def test_golden_curve_integrates_each_prior_once(self, monkeypatch):
        # The Fig. 5 curve: 101 count rates, each prior's column one batch.
        priors = [Prior.uniform(FIG5_WINDOW), Prior.jeffreys(FIG5_WINDOW, CFG),
                  Prior.gaussian(FIG5_WINDOW, 10.0, 2.0)]
        calls = {"integrate": 0, "integrate_owners": []}

        def one_owner(f, lo, hi):
            calls["integrate"] += 1

        def owners(f, lo, hi, owner, owners, original=posterior.integrate_owners):
            calls["integrate_owners"].append(owners)
            return original(f, lo, hi, owner, owners=owners)

        monkeypatch.setattr(posterior, "integrate", one_owner)
        monkeypatch.setattr(posterior, "integrate_owners", owners)
        table = mmse_curve(CFG, priors, 8, Axis("xbar", 0.0, 1.0, 101))
        assert calls == {"integrate": 0, "integrate_owners": [101, 101, 101]}
        assert table_status(table) == ["ok"] * 101

    def test_failing_cell_keeps_its_own_status(self, monkeypatch):
        # The integrand turns non-finite for the posteriors at xbar = 0.5
        # (k = 4) alone; the other cells keep the values of lone posteriors.
        priors = [Prior.uniform(FIG5_WINDOW), Prior.gaussian(FIG5_WINDOW, 10.0, 2.0)]
        axis = Axis("xbar", 0.0, 1.0, 5)
        alone = [[mmse(PosteriorSpec(data=Dataset(8, 8 * float(x)), cfg=CFG, prior=prior))
                  for x in axis.values] for prior in priors]
        ratio = posterior.log_likelihood_ratio
        monkeypatch.setattr(posterior, "log_likelihood_ratio",
                            lambda n, k, p, dp, ref: np.where(k == 4.0, np.nan, ratio(n, k, p, dp, ref)))
        table = mmse_curve(CFG, priors, 8, axis)
        assert table_status(table) == ["ok", "ok", "error:DomainError", "ok", "ok"]
        for column, expect in zip(table_columns(table).values(), alone):
            assert np.isnan(column[2])
            assert [column[i] for i in (0, 1, 3, 4)] == [expect[i] for i in (0, 1, 3, 4)]


class TestScanNames:
    """``scan`` still names the table classes and the curves, which live in
    ``table`` and ``curves``; a scan op loads no curve."""

    def test_scan_names_the_objects_of_table_and_curves(self):
        assert scan.Axis is tables.Axis and scan.GridTable is tables.GridTable
        assert scan.mmse_curve is curves.mmse_curve and scan.map_curve is curves.map_curve
        assert set(scan.__all__) <= set(dir(scan))
        with pytest.raises(AttributeError, match="no_such_scan"):
            getattr(scan, "no_such_scan")

    def test_import_loads_no_curve(self):
        code = ("import sys; import rabi_est.scan; "
                "print(sorted(m for m in sys.modules if m.startswith('rabi_est')))")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60, check=True)
        assert out.stdout.strip() == str(["rabi_est", "rabi_est.dynamics", "rabi_est.errors",
                                          "rabi_est.format17g", "rabi_est.scan", "rabi_est.table"])
