"""The landscape scans: the Fisher landscape and the ML root surfaces over
two axes, and the prior-averaged (Bayesian) Fisher landscape.

Scans never abort on a bad cell: failures are encoded in a per-cell status
column (the figures these scans feed contain excluded regions by design).
Importing this module loads ``table``, whose writer draws the tables, and
``dynamics``. Each scan imports its kernels when it runs: the Fisher
landscape ``fisher``, the ML root surfaces ``frequentist``, and the
Bayesian Fisher scan ``posterior`` and ``priors``. The ``fisher-scan`` and
``ml-roots`` ops compute no cell before the writer asks for it (see
``GridTable``); the ML boundary column depends on the count rate alone and
is given once per xbar axis value. The Bayesian Fisher scan runs its cells
one after another in row-major order, rebuilding a Jeffreys prior for each
cell's drive; a cell whose Jeffreys prior information diverges fails from
the closed-form zeros of sqrt(CFI), before any quadrature.

The ML root-surface statuses summarize the sign analysis of the two
inversion roots: ``Complex`` (no real distinct roots), ``NegativeRejected``
(the smaller root is negative and discarded; the larger may or may not
survive), ``Ambiguous`` (both roots positive) and ``Unambiguous`` (the
smaller root sits exactly on the zero boundary).

``Axis``, ``GridTable`` and the curves of ``curves`` are still named here,
the curves loaded on first access (PEP 562), so callers that reach them
through ``scan`` (the benchmark's tracer wraps them by attribute) keep
working and a scan op never loads ``curves``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .dynamics import FieldConfig
from .errors import DomainError, EstimationError
from .table import _FIELD_AXES, STATUS_OK, Axis, GridTable, _blocks, _cell_fields, _fixed_echo, _prior_echo, _stored

if TYPE_CHECKING:
    from .priors import Prior

__all__ = ["Axis", "GridTable", "fisher_scan", "ml_root_scan", "bayes_scan", "mmse_curve", "map_curve"]

# Status vocabularies of the closed-form scans, indexed by integer status code.
_FISHER_STATUSES = (STATUS_OK, "degenerate_probability", "scaled_cfi_zero")
_FISHER_COLUMNS = ("cfi_raw", "qfi_raw", "gap_raw", "cfi_scaled", "qfi_scaled", "gap_scaled",
                   "n_required")
_ROOT_STATUSES = ("Unambiguous", "Complex", "NegativeRejected", "Ambiguous")


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

    from .fisher import fisher_values

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


def __getattr__(name: str):
    if name not in ("mmse_curve", "map_curve"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import curves

    value = globals()[name] = getattr(curves, name)
    return value
