"""Self-contained numerical kernel: adaptive Clenshaw-Curtis quadrature
and inverse sinc.

All routines are pure functions of their arguments and safe for concurrent
use. They call their functions only with 1-D numpy arrays, a batch of points
at a time, which they evaluate elementwise (numpy ufunc expressions
qualify); an integrand may stack several such components into one (C, m)
array. :func:`integrate_owners` computes many such integrals, one per
owner, in one adaptive loop: its integrand also receives the owner of each
point, and each owner's result is what :func:`integrate` gives it alone.
The bracketed maximizer ``_refine``, which does the same for many brackets
of many owners, lives in ``map_estimator`` beside its one estimator, so a
run that maximizes nothing never compiles it. One grid-peak rule,
``_grid_maxima``, serves the MAP workspaces of a posterior batch (a row
per posterior) and :func:`local_maxima`, a grid search over one function
before ``_refine`` that only the tests and ``bench/tracer.py`` use.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DomainError, NonConvergence, record

__all__ = [
    "LocalMaximum",
    "integrate",
    "integrate_owners",
    "inv_sinc_values",
    "local_maxima",
]

# Bisections of an interval's first panel, at most: 60 reach ~1e-18 of it.
_MAX_DEPTH = 60
# Hard cap on the number of panels an owner holds at once (memory guard).
_MAX_INTERVALS = 2_000_000
# Most points per call of an integrand, which bounds its temporaries.
_CHUNK = 4096
# The absolute and relative tolerance of every quadrature and bracket search:
# an integral I is done when its error estimate is within max(_TOL, _TOL * |I|).
_TOL = 1e-10


@record
class LocalMaximum:
    """A refined local maximum; ``boundary`` marks an interval endpoint."""

    x: float
    boundary: bool = False


# The 17 Clenshaw-Curtis nodes on [0, 1] and, per node, the 17-point weight and
# its difference from the 9-point weight (a panel's error estimate). Literals:
# their formula (tests/oracles.clenshaw_curtis) would run a BLAS call at import.
_NODES = np.array([
    0.0, 0.009607359798384785, 0.03806023374435663, 0.08426519384872738, 0.1464466094067262, 0.22221488349019886,
    0.3086582838174551, 0.40245483899193585, 0.49999999999999994, 0.5975451610080641, 0.6913417161825448,
    0.777785116509801, 0.8535533905932737, 0.9157348061512727, 0.9619397662556434, 0.9903926402016152, 1.0,
])
_RULES = np.array([
    [0.00196078431372549, -0.005975723622782446], [0.018684351418602814, 0.018684351418602814],
    [0.03774116577157592, -0.035368158836433156], [0.054452776290945464, 0.054452776290945464],
    [0.06947823418411654, -0.07020430549842314], [0.08158633214085165, 0.08158633214085165],
    [0.09073689211824668, -0.09012203724199822], [0.09625693230646282, 0.09625693230646282],
    [0.09820506291094527, -0.09862033391445155], [0.09625693230646282, 0.09625693230646282],
    [0.09073689211824669, -0.0901220372419982], [0.08158633214085168, 0.08158633214085168],
    [0.06947823418411654, -0.07020430549842314], [0.05445277629094546, 0.05445277629094546],
    [0.03774116577157593, -0.035368158836433176], [0.018684351418602835, 0.018684351418602835],
    [0.0019607843137254936, -0.005975723622782442],
])


def integrate_owners(f: Callable, lo, hi, owner, owners: int | None = None):
    """Adaptive Clenshaw-Curtis quadrature of ``f`` over the intervals
    [lo, hi] (equal-length arrays), summed per owner: interval i belongs to
    owner[i], an index in 0 .. O-1 (O is ``owners``, by default one more
    than the largest index).

    ``f(x, o)`` maps m points and the owners of their intervals to m values
    or to a (C, m) array of C components. Each interval starts as one panel.
    A panel's estimate is the 17-point rule, whose nodes include the panel
    ends, and its error estimate the distance to the nested 9-point rule.
    Each owner keeps its own panels and its own global error budget per
    component: while some component's errors sum to more than
    max(_TOL, _TOL*|its integral|), each round bisects, per component,
    the owner's panels of largest error until the rest sum to at most half of
    that. An owner stops when its budget is met or it fails: at the depth cap
    or its subdivision budget (NonConvergence), or on a non-finite value
    (DomainError). Every round evaluates the new panels of all owners
    together, at most _CHUNK points a call. Every step is local to an owner,
    so its integrals are bit for bit those it gets alone.

    Returns the integrals, (O,) or (O, C) with NaN for a failed owner, and
    per owner None or the error it failed with. An owner without an interval
    integrates to 0.
    """
    lo_a = np.atleast_1d(np.asarray(lo, dtype=float))
    hi_a = np.atleast_1d(np.asarray(hi, dtype=float))
    own = np.atleast_1d(np.asarray(owner, dtype=np.intp))
    if lo_a.ndim != 1 or lo_a.shape != hi_a.shape or not np.all(lo_a < hi_a):
        raise DomainError(f"integration bounds require lo < hi, got [{lo}, {hi}]")
    if own.shape != lo_a.shape or (own < 0).any():
        raise DomainError("each interval needs an owner index >= 0")
    shape = []
    step = _CHUNK // _NODES.size

    def panels(a, b, o):
        """Estimates and error estimates of f on the panels [a, b], (C, P)
        each, and a mask of the panels with a non-finite value."""
        if a.size > step:
            return tuple(np.concatenate(v, axis=-1) for v in zip(*[
                panels(a[i:i + step], b[i:i + step], o[i:i + step]) for i in range(0, a.size, step)]))
        x = a + (b - a) * _NODES[:, None]
        x[0], x[-1] = a, b
        o = np.full(x.size, o[0]) if o.size and (o == o[0]).all() else np.broadcast_to(o, x.shape).ravel()
        fx = np.asarray(f(x.ravel(), o))
        shape[:] = fx.shape[:-1]
        fx = fx.reshape(len(fx) if shape else 1, _NODES.size, a.size)
        # einsum sums a panel's nodes in one fixed order wherever the panel
        # sits in the batch; a BLAS product need not.
        est = np.einsum("cjp,jr->rcp", fx, _RULES) * (b - a)
        return est[0], np.abs(est[1]), ~np.isfinite(fx).all(axis=(0, 1))

    order = np.argsort(own, kind="stable")
    a, b, own = lo_a[order], hi_a[order], own[order]
    depth = np.zeros(a.size, dtype=int)
    value, err, bad = panels(a, b, own)
    fresh = own
    result = np.zeros((int(own.max(initial=-1)) + 1 if owners is None else owners, len(value)))
    failures = [None] * len(result)
    component = np.arange(len(value))[:, None]

    def fail(ids, error):
        for o in ids.tolist():
            failures[o] = error
        result[ids] = np.nan

    while a.size:
        if bad.any():
            gone = np.zeros(len(result), dtype=bool)
            gone[fresh[bad]] = True
            fail(np.flatnonzero(gone), DomainError("integrand is not finite on the integration interval"))
            a, b, own, depth, value, err = (v[..., ~gone[own]] for v in (a, b, own, depth, value, err))
            if not a.size:
                break
        # The panels stay sorted by owner, each owner's in the order a run
        # of its own would give them.
        if own[0] != own[-1]:
            first = np.concatenate(([True], own[1:] != own[:-1]))
            starts, row = np.flatnonzero(first), np.cumsum(first) - 1
        else:
            starts, row = np.zeros(1, dtype=np.intp), np.zeros(a.size, dtype=np.intp)
        total = np.add.reduceat(value, starts, axis=1)
        eps = np.maximum(_TOL, _TOL * np.abs(total))
        live = ~(np.add.reduceat(err, starts, axis=1) <= eps).all(axis=0)
        partial = not live.all()
        if partial:
            result[own[starts[~live]]] = total[:, ~live].T
            if not live.any():
                break
        # Per owner and component, the running sum of the errors in
        # ascending order; the panels past half the budget are bisected.
        by_err = err.argsort(axis=1, kind="stable")
        if starts.size > 1:
            by_err = by_err[component, row[by_err].argsort(axis=1, kind="stable")]
            eps = eps[:, row]
        running = err[component, by_err]
        bounds = starts.tolist() + [a.size]
        for s, e in zip(bounds[:-1], bounds[1:]):
            np.cumsum(running[:, s:e], axis=1, out=running[:, s:e])
        split = np.zeros(a.size, dtype=bool)
        split[by_err[running > 0.5 * eps]] = True
        if partial:
            split &= live[row]
        deep = split & (depth >= _MAX_DEPTH)
        if deep.any() or a.size + np.count_nonzero(split) > _MAX_INTERVALS:
            lost = np.zeros(starts.size, dtype=bool)
            lost[row[deep]] = True
            fail(own[starts[lost]], NonConvergence(
                f"adaptive Clenshaw-Curtis did not converge within depth {_MAX_DEPTH}"))
            count = np.bincount(row, minlength=starts.size) + np.bincount(row[split], minlength=starts.size)
            crowded = live & ~lost & (count > _MAX_INTERVALS)
            fail(own[starts[crowded]], NonConvergence("adaptive Clenshaw-Curtis exceeded the subdivision budget"))
            live &= ~(lost | crowded)
            partial = True
            split &= live[row]
            if not live.any():
                break
        keep = live[row] & ~split if partial else ~split
        mid = 0.5 * (a[split] + b[split])
        new_a, new_b = np.concatenate([a[split], mid]), np.concatenate([mid, b[split]])
        fresh, deeper = own[split], depth[split] + 1
        fresh, deeper = np.concatenate([fresh, fresh]), np.concatenate([deeper, deeper])
        new_value, new_err, bad = panels(new_a, new_b, fresh)
        a, b = np.concatenate([a[keep], new_a]), np.concatenate([b[keep], new_b])
        own, depth = np.concatenate([own[keep], fresh]), np.concatenate([depth[keep], deeper])
        value = np.concatenate([value[:, keep], new_value], axis=1)
        err = np.concatenate([err[:, keep], new_err], axis=1)
        if np.count_nonzero(live) > 1:
            # Stable by owner, in place: each owner's kept panels, left halves, right halves.
            order = np.argsort(own, kind="stable")
            for v in (a, b, own, depth, value, err):
                v[...] = v[..., order]
    return (result if shape else result[:, 0]), failures


def integrate(f: Callable, lo, hi):
    """Adaptive Clenshaw-Curtis quadrature of ``f`` summed over the intervals
    [lo, hi] (floats, or equal-length arrays of interval ends): the one-owner
    case of :func:`integrate_owners`, with ``f`` called as f(x).

    ``f`` maps m points to m values (the result is a float) or to a (C, m)
    array of C components (the result has C integrals). Raises
    NonConvergence at the depth cap or the subdivision budget, DomainError on
    non-finite values.
    """
    owner = np.zeros(np.size(lo), dtype=np.intp)
    values, failures = integrate_owners(lambda x, _: f(x), lo, hi, owner, owners=1)
    if failures[0] is not None:
        raise failures[0]
    return float(values[0]) if values.ndim == 1 else values[0]


def inv_sinc_values(y: np.ndarray) -> np.ndarray:
    """Inverse of sin(x)/x restricted to the branch [0, pi], elementwise.

    sinc decreases monotonically from 1 to 0 on this branch. Newton steps
    start from the series root sqrt(6(1 - y)), capped by pi/(1 + y) near
    y = 0; a step that leaves the bracket of the iterates so far falls back
    to bisection, so every iterate stays inside [0, pi]. Six steps reach
    rounding. The endpoints are exact (1 -> 0, 0 -> pi). Raises DomainError
    if any y lies outside [0, 1].
    """
    y = np.asarray(y, dtype=float)
    if not np.all((y >= 0.0) & (y <= 1.0)):
        raise DomainError("inv_sinc_values requires every y in [0, 1]")
    x = np.minimum(np.sqrt(6.0 * (1.0 - y)), math.pi / (1.0 + y))
    lo, hi = np.zeros_like(y), np.full_like(y, math.pi)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(6):
            sin = np.sin(x)
            gap = sin / x - y
            lo, hi = np.where(gap > 0.0, x, lo), np.where(gap < 0.0, x, hi)
            # The two terms of the slope cancel near 0: take its series there.
            slope = np.where(x < 1e-2, x * (x * x / 30.0 - 1.0 / 3.0),
                             (x * np.cos(x) - sin) / (x * x))
            step = x - gap / slope
            x = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
    return np.where(y == 1.0, 0.0, np.where(y == 0.0, math.pi, x))


def _grid_maxima(gy: np.ndarray):
    """The rows and grid indices i of the interior local maxima of each row
    of gy, the maximum at i + 1; and whether each row falls from its ends."""
    mid, left, right = gy[:, 1:-1], gy[:, :-2], gy[:, 2:]
    rows, i = np.nonzero((mid >= left) & (mid >= right) & ((mid > left) | (mid > right)))
    return rows, i, np.stack([gy[:, 0] > gy[:, 1], gy[:, -1] > gy[:, -2]], axis=1)


def local_maxima(
    f: Callable,
    lo: float,
    hi: float,
    grid_points: int,
) -> list[LocalMaximum]:
    """All local maxima of ``f`` on [lo, hi], located on a grid and refined.

    Every call of ``f`` takes an array: one for the grid, one per step of
    the refinement, which polishes all interior grid peaks together, each
    confined to one grid cell on each side (which prevents jumping between
    modes), and at most one to merge duplicates. Endpoints enter as
    boundary candidates when the function is maximal there. Results are
    sorted ascending.
    """
    from .map_estimator import _refine

    if grid_points < 3:
        raise DomainError(f"grid_points must be >= 3, got {grid_points}")
    if not lo < hi:
        raise DomainError(f"search interval requires lo < hi, got [{lo}, {hi}]")
    xs = np.linspace(lo, hi, grid_points)
    ys = np.asarray(f(xs), dtype=float)
    cell = xs[1] - xs[0]
    _, i, (falls,) = _grid_maxima(ys[None])
    found = [LocalMaximum(float(x)) for x in _refine(lambda x, _: f(x), xs[i], xs[i + 2],
                                                     np.zeros(i.size, dtype=np.intp))] if i.size else []
    found += [LocalMaximum(float(x), boundary=True) for x in xs[[0, -1]][falls]]

    # Plateau detection can report one peak twice from adjacent cells.
    found.sort(key=lambda m: m.x)
    at = np.array([m.x for m in found])
    vals = f(at) if np.any(np.diff(at) < 0.5 * cell) else None
    kept: list[int] = []
    for j, m in enumerate(found):
        if kept and abs(m.x - found[kept[-1]].x) < 0.5 * cell:
            if vals[j] > vals[kept[-1]]:
                kept[-1] = j
        else:
            kept.append(j)
    return [found[j] for j in kept]
