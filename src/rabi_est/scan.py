"""Grid-scan engine behind the landscape and curve outputs.

Scans never abort on a bad cell: failures are encoded in a per-cell status
column (the figures these scans feed contain excluded regions by design).
The MMSE curve computes each prior's column as one batch of posteriors in a
single quadrature. The Bayesian Fisher scan accepts a ``workers`` count and
farms its cells out to processes, with results reassembled in row-major
cell order so the output is identical for any worker count.

The ML root-surface statuses summarize the sign analysis of the two
inversion roots: ``Complex`` (no real distinct roots), ``NegativeRejected``
(the smaller root is negative and discarded; the larger may or may not
survive), ``Ambiguous`` (both roots positive) and ``Unambiguous`` (the
smaller root sits exactly on the zero boundary).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

from .dynamics import FieldConfig, dprob_domega0, prob_detect
from .errors import DomainError, EstimationError
from .fisher import cfi_values, qfi_values
from .frequentist import ROOTS_REAL, Dataset, ml_roots
from .numerics import DEFAULT_TOL, Tolerance
from .posterior import PosteriorSpec, bayes_fisher, map_stationarity_lhs, mmse_many
from .priors import Prior, PriorKind

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
_ROOT_STATUSES = ("Unambiguous", "Complex", "NegativeRejected", "Ambiguous")
_MAP_STATUSES = (STATUS_OK, "dprob_zero")
# Rows formatted per write by GridTable.to_csv.
_CSV_CHUNK = 8192


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


@dataclass
class GridTable:
    """Rectangular scan output: axis columns, value columns, per-cell status."""

    axes: tuple[Axis, ...]
    columns: dict[str, np.ndarray]
    status: list[str]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = self.n_cells
        for name, col in self.columns.items():
            if len(col) != n:
                raise DomainError(f"column {name!r} has {len(col)} cells, expected {n}")
        if len(self.status) != n:
            raise DomainError(f"status column has {len(self.status)} cells, expected {n}")

    @property
    def n_cells(self) -> int:
        out = 1
        for ax in self.axes:
            out *= ax.count
        return out

    def header(self) -> list[str]:
        return [ax.name for ax in self.axes] + list(self.columns) + ["status"]

    def to_csv(self, fp) -> None:
        """Comma-separated output: header row, LF endings, 17 significant digits.

        Rows are written in row-major cell order, a chunk of rows per write.
        Axis values repeat across the grid, so each is formatted only once.
        """
        fp.write(",".join(self.header()) + "\n")
        labels = [
            np.array([format(v, ".17g") for v in ax.values.tolist()], dtype=object)
            for ax in self.axes
        ]
        shape = tuple(ax.count for ax in self.axes)
        cols = list(self.columns.values())
        line = ",".join(["%s"] * len(labels) + ["%.17g"] * len(cols) + ["%s"]) + "\n"
        for start in range(0, self.n_cells, _CSV_CHUNK):
            stop = min(start + _CSV_CHUNK, self.n_cells)
            index = np.unravel_index(np.arange(start, stop), shape)
            rows = zip(
                *[lab[i].tolist() for lab, i in zip(labels, index)],
                *[c[start:stop].tolist() for c in cols],
                self.status[start:stop],
            )
            fp.write("".join([line % row for row in rows]))


def _status_column(codes: np.ndarray, names: tuple[str, ...]) -> list[str]:
    """Per-cell status strings for integer codes; cells share the name objects.

    The codes, an object array and the list coexist here, each as long as
    the scan, so callers pass int8 codes to keep that peak small.
    """
    return np.array(names, dtype=object)[codes].tolist()


def _cell_grids(axes: Sequence[Axis]) -> dict[str, np.ndarray]:
    grids = np.meshgrid(*[ax.values for ax in axes], indexing="ij")
    return {ax.name: g.ravel() for ax, g in zip(axes, grids)}


def _field_arrays(cfg: FieldConfig, varied: dict[str, np.ndarray]) -> SimpleNamespace:
    """Field parameters as (possibly array-valued) attributes for the
    closed-form evaluators; fixed values come from cfg."""
    return SimpleNamespace(
        omega=varied.get("omega", cfg.omega),
        b0=varied.get("b0", cfg.b0),
        theta=varied.get("theta", cfg.theta),
    )


def _run_cells(fn: Callable, args: list, workers: int) -> list:
    if workers <= 1 or len(args) < 4:
        return [fn(a) for a in args]
    # Imported here, so that importing the package loads no multiprocessing.
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(args) // (8 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, args, chunksize=chunk))


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

    varied = _cell_grids(axes)
    fields = _field_arrays(cfg, varied)
    cfi_raw = cfi_values(fields, np.full_like(varied[names[0]], omega0))
    qfi_raw = qfi_values(fields, np.full_like(varied[names[0]], omega0))
    gap_raw = qfi_raw - cfi_raw
    omega_col = varied.get("omega", np.full_like(cfi_raw, cfg.omega))
    scale = omega_col**2
    cfi_scaled = cfi_raw * scale
    qfi_scaled = qfi_raw * scale
    gap_scaled = gap_raw * scale
    with np.errstate(divide="ignore", invalid="ignore"):
        n_required = 1.0 / (accuracy * cfi_scaled)

    codes = np.select([np.isnan(cfi_raw), ~np.isfinite(n_required)], [1, 2], 0).astype(np.int8)
    status = _status_column(codes, _FISHER_STATUSES)

    return GridTable(
        axes=tuple(axes),
        columns={
            "cfi_raw": cfi_raw,
            "qfi_raw": qfi_raw,
            "gap_raw": gap_raw,
            "cfi_scaled": cfi_scaled,
            "qfi_scaled": qfi_scaled,
            "gap_scaled": gap_scaled,
            "n_required": n_required,
        },
        status=status,
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

    varied = _cell_grids(axes)
    xbar = varied["xbar"]
    fields = _field_arrays(cfg, varied)
    root_plus, root_minus, inversion = ml_roots(xbar, fields)
    codes = np.select(
        [inversion != ROOTS_REAL, root_minus < 0.0, root_minus > 0.0], [1, 2, 3], 0
    ).astype(np.int8)
    status = _status_column(codes, _ROOT_STATUSES)
    sin_theta = abs(np.sin(fields.theta))

    return GridTable(
        axes=tuple(axes),
        columns={
            "root_plus": root_plus,
            "root_minus": root_minus,
            "boundary_b0": np.sqrt(xbar) / sin_theta * np.ones_like(xbar),
        },
        status=status,
        metadata={"operation": "ml_root_scan", "fixed": _fixed_echo(cfg, names)},
    )


def _prior_for_cell(prior: Prior, cfg: FieldConfig) -> Prior:
    """Jeffreys priors depend on the drive, so they are rebuilt per cell."""
    if prior.kind is PriorKind.JEFFREYS:
        return Prior.jeffreys(prior.window, cfg)
    return prior


def _bayes_cell(args) -> tuple[float, float, float, str]:
    prior, cfg_kwargs, n, tol = args
    try:
        cfg = FieldConfig(**cfg_kwargs)
        cell_prior = _prior_for_cell(prior, cfg)
        bf = bayes_fisher(cfg, cell_prior, n, tol)
        return bf.bayes_cfi, bf.bayes_qfi, bf.bayes_gap, STATUS_OK
    except EstimationError as exc:
        return math.nan, math.nan, math.nan, f"error:{type(exc).__name__}"


def bayes_scan(
    cfg: FieldConfig,
    prior: Prior,
    axes: tuple[Axis, Axis],
    n: int,
    tol: Tolerance = DEFAULT_TOL,
    workers: int = 1,
) -> GridTable:
    """Prior-averaged Fisher landscape over two field-parameter axes."""
    names = [ax.name for ax in axes]
    if len(axes) != 2 or any(nm not in _FIELD_AXES for nm in names) or names[0] == names[1]:
        raise DomainError("bayes_scan needs two distinct axes among omega, b0, theta")
    varied = _cell_grids(axes)
    args = []
    for i in range(varied[names[0]].size):
        cfg_kwargs = {
            name: float(varied[name][i]) if name in varied else getattr(cfg, name)
            for name in _FIELD_AXES
        }
        args.append((prior, cfg_kwargs, n, tol))
    results = _run_cells(_bayes_cell, args, workers)
    cols = np.array([[r[0], r[1], r[2]] for r in results], dtype=float)
    return GridTable(
        axes=tuple(axes),
        columns={
            "bayes_cfi": cols[:, 0],
            "bayes_qfi": cols[:, 1],
            "bayes_gap": cols[:, 2],
        },
        status=[r[3] for r in results],
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
    tol: Tolerance = DEFAULT_TOL,
) -> GridTable:
    """Posterior-mean estimate against the average count rate, one column per
    prior. Fractional counts k = n*xbar enter the likelihood exponents so the
    count rate can be treated as a continuous abscissa. Each prior's column
    is one batch of posteriors (see ``posterior.mmse_many``); a failing cell
    is NaN, and its status names the error of the last prior that failed."""
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
    if omega0_axis.name != "omega0":
        raise DomainError("map_curve needs an omega0 axis")
    if prior.kind not in (PriorKind.JEFFREYS, PriorKind.GAUSSIAN):
        raise DomainError("map_curve applies to the Jeffreys and Gaussian priors")
    omega0s = omega0_axis.values
    xbar = map_stationarity_lhs(cfg, prior, n, omega0s)
    xbar_inf = np.asarray(prob_detect(cfg, omega0s), dtype=float)
    dp = np.asarray(dprob_domega0(cfg, omega0s), dtype=float)
    codes = ((np.abs(dp) < 1e-12) | ~np.isfinite(xbar)).astype(np.int8)
    status = _status_column(codes, _MAP_STATUSES)
    return GridTable(
        axes=(omega0_axis,),
        columns={"xbar": xbar, "xbar_n_inf": xbar_inf},
        status=status,
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
