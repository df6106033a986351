"""The curves over one axis: the MMSE estimate against the count rate and
the MAP stationarity curve against the frequency.

The ``mmse-curve`` and ``map-curve`` ops load this module and ``table``,
and no landscape scan. ``mmse_curve`` imports ``frequentist`` and
``posterior`` when it runs; ``map_curve`` imports ``priors`` alone. The MMSE
curve computes each prior's column as one batch of posteriors in a single
quadrature. A failing cell is kept, with its status, as in every table.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .dynamics import FieldConfig, dprob_domega0, prob_detect
from .errors import DomainError, EstimationError
from .table import STATUS_OK, Axis, GridTable, _fixed_echo, _prior_echo, _stored

if TYPE_CHECKING:
    from .priors import Prior

__all__ = ["mmse_curve", "map_curve"]

_MAP_STATUSES = (STATUS_OK, "dprob_zero")


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
