"""MAP estimator: every local maximum of the log posterior, for batches of
posteriors, from the same workspaces as their evidence (see ``posterior``).
The workspaces hold all it evaluates, the batch's log joint and its ratio to
the modes, and it numbers each posterior's brackets and maxima by the
posterior's index in the batch, as they do. Only the MAP paths load it:
``posterior.map_estimate``, the one-spec entry, and the MAP trials of
``montecarlo`` import it when they run.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .dynamics import dprob_domega0
from .errors import EstimationError, record
from .numerics import _TOL
from .posterior import PosteriorSpec, _by_batch, _moments_many, _workspaces
from .priors import _DP_FLOOR, map_stationarity_lhs

__all__ = ["MapMaximum", "MapResult", "map_many"]

# MAP candidates closer than this, relative to max(1, |omega0|), are one
# maximum: refinements of one maximum agree far better, and distinct maxima
# of the log joint come this close only for n far beyond 1e10.
_MERGE = 1e-6
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@record
class MapMaximum:
    value: float
    log_posterior: float
    second_derivative: float
    boundary: bool
    stationarity_residual: float


@record
class MapResult:
    maxima: tuple[MapMaximum, ...]

    @property
    def best(self) -> MapMaximum:
        return max(self.maxima, key=lambda m: m.log_posterior)


def map_many(specs: Sequence[PosteriorSpec]) -> list:
    """MapResult of each spec, or the EstimationError that computing it
    raises; batched as in mmse_many, each result bit for bit that of
    map_estimate.

    The candidates come from the posterior's workspace: the brackets around
    the local maxima of the log joint on its grid (a window end is a
    boundary maximum where the log joint falls from it) and those of its
    sharp peaks. Every bracket is cut at the zeros of dp/domega0 inside it,
    so a zero of sqrt(CFI) gets one bracket on each side; golden section
    with Newton polish finds the maximum of each piece, all pieces of all
    specs in lockstep. A piece's maximum counts if it lies inside the piece,
    and a cut if both pieces beside it rise into it; candidates closer than
    _MERGE are one. The stationarity equations are demoted to a consistency
    residual (they admit spurious solutions at posterior minima); boundary
    maxima skip it and the curvature test.
    """
    return _by_batch(specs, _map_batch)


def _map_batch(specs: Sequence[PosteriorSpec]) -> list:
    """map_many of specs that share field, prior and n."""
    spaces = _workspaces(specs, grid_maxima=True)
    out = _moments_many(spaces)
    held = np.array([not isinstance(moments, EstimationError) for moments in out])
    if not held.any():
        return out
    g = spaces.joint
    cfg, prior, n, w = g.cfg, g.prior, g.n, g.prior.window
    # Each held spec's brackets, sorted by owner: sharp peaks and grid maxima.
    a, b, owner = (np.concatenate(v) for v in zip(spaces.sharp, spaces.maxima))
    order = np.argsort(owner, kind="stable")
    order = order[held[owner[order]]]
    a, b, owner = a[order], b[order], owner[order]
    # A window end is a boundary maximum where the log joint falls from it.
    end_own, side = np.nonzero(spaces.edges & held[:, None])
    end_x = np.array([w.lower, w.upper])[side]

    # Cut the brackets at the zeros of dp/domega0 strictly inside them.
    cuts = spaces.cuts
    first = np.searchsorted(cuts, a, "right")
    inside = np.searchsorted(cuts, b, "left") - first
    bracket = np.repeat(np.arange(a.size), inside + 1)
    pos = np.arange(bracket.size) - np.repeat(np.cumsum(inside) - inside + np.arange(a.size), inside + 1)
    padded = np.concatenate([[-np.inf], cuts, [np.inf]])
    lo = np.where(pos == 0, a[bracket], padded[first[bracket] + pos])
    hi = np.where(pos == inside[bracket], b[bracket], padded[first[bracket] + pos + 1])
    own = owner[bracket]
    x = _refine(g, lo, hi, own, polish=spaces.log_ratio) if lo.size else lo
    g_x, g_lo, g_hi = np.split(g(np.concatenate([x, lo, hi]), np.tile(own, 3)), 3)
    inner = (g_x > g_lo) & (g_x > g_hi)
    shared = np.zeros(x.size, dtype=bool)
    shared[:-1] = ~(g_x[:-1] > g_hi[:-1]) & ~(g_x[1:] > g_lo[1:]) & (pos[1:] > 0)
    x, own, value = (np.concatenate([v[inner], c[shared]])
                     for v, c in ((x, hi), (own, own), (g_x, g_hi)))
    keep = np.isfinite(value)
    x, own, value = x[keep], own[keep], value[keep]
    # One maximum found from several brackets: keep its highest refinement.
    order = np.lexsort((x, own))
    x, own, value = x[order], own[order], value[order]
    apart = np.ones(x.size, dtype=bool)
    apart[1:] = (own[1:] != own[:-1]) | (x[1:] - x[:-1] > _MERGE * np.maximum(1.0, np.abs(x[1:])))
    group = np.cumsum(apart)
    best = np.lexsort((-value, group))
    best = best[np.diff(group[best], prepend=0) > 0]

    x = np.concatenate([x[best], end_x])
    own = np.concatenate([own[best], end_own])
    boundary = np.arange(x.size) >= best.size
    order = np.lexsort((x, own))
    x, own, boundary = x[order], own[order], boundary[order]
    inner = ~boundary
    xi = x[inner]
    h = np.minimum(np.maximum(1e-4, 1e-5 * np.abs(xi)), 0.45 * np.minimum(xi - w.lower, w.upper - xi))
    # One call for the log joint at every maximum and the curvature stencil
    # of the interior ones.
    at = np.concatenate([x, xi + h, xi - h]), np.concatenate([own, own[inner], own[inner]])
    g_x, g_up, g_down = np.split(g(*at), [x.size, x.size + xi.size])
    second = np.full(x.size, math.nan)
    second[inner] = (g_up - 2.0 * g_x[inner] + g_down) / (h * h)
    residual = np.full(x.size, math.nan)
    if n > 0:
        tested = inner & (np.abs(dprob_domega0(cfg, x)) > _DP_FLOOR)
        xbar = np.array([spec.data.xbar for spec in specs])
        lhs = map_stationarity_lhs(cfg, prior, n, x[tested])
        residual[tested] = np.abs(lhs - xbar[own[tested]])
    log_evidence = np.array([m[0] + math.log(m[1]) if ok else math.nan for m, ok in zip(out, held.tolist())])
    log_post = g_x - log_evidence[own]
    found = [MapMaximum(*fields) for fields in zip(
        x.tolist(), log_post.tolist(), second.tolist(), boundary.tolist(), residual.tolist())]
    bounds = np.searchsorted(own, np.arange(len(specs) + 1)).tolist()
    for j in np.flatnonzero(held).tolist():
        out[j] = MapResult(maxima=tuple(found[bounds[j]:bounds[j + 1]]))
    return out


def _refine(f: Callable, a: np.ndarray, b: np.ndarray, owner: np.ndarray,
            polish: Callable | None = None) -> np.ndarray:
    """The maxima of f on the brackets [a, b], f unimodal on each.

    ``f(x, o)`` takes points and the owners of their brackets (``owner``),
    as in ``numerics.integrate_owners``. Golden-section search narrows all
    brackets in lockstep to a thousandth of their width (or to the
    tolerance), each step one call of f on the new points of the brackets
    still open. Guarded Newton steps take it from there to the maximum; a
    five-point gradient stencil keeps their truncation bias at O(h^4), with
    h at most a sixteenth of the distance to the nearer bracket end, where
    f may be singular. They evaluate ``polish`` if given: f up to a constant
    per owner, dearer but rounded far less. Per bracket, the arithmetic is
    that of a one-bracket search.
    """
    lo, hi = a, b
    a, b = a.copy(), b.copy()
    target = np.maximum(_TOL, _TOL * np.maximum(np.abs(a), np.abs(b)))

    def still_open(k):
        scale = np.maximum(np.maximum(np.abs(a[k]), np.abs(b[k])), 1.0)
        return k[(b[k] - a[k]) > np.maximum(np.maximum(target[k], 1e-9 * scale), 1e-3 * (hi[k] - lo[k]))]

    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = np.split(np.asarray(f(np.concatenate([x1, x2]), np.tile(owner, 2)), dtype=float), 2)
    k = still_open(np.arange(a.size))
    while k.size:
        keep_left = f1[k] >= f2[k]
        left, right = k[keep_left], k[~keep_left]
        b[left], x2[left], f2[left] = x2[left], x1[left], f1[left]
        x1[left] = b[left] - _INVPHI * (b[left] - a[left])
        a[right], x1[right], f1[right] = x1[right], x2[right], f2[right]
        x2[right] = a[right] + _INVPHI * (b[right] - a[right])
        f1[left], f2[right] = np.split(np.asarray(
            f(np.concatenate([x1[left], x2[right]]), np.concatenate([owner[left], owner[right]])),
            dtype=float), [left.size])
        k = still_open(k)

    x = 0.5 * (a + b)
    h = np.minimum(1e-4 * np.maximum(1.0, np.abs(x)), np.minimum(x - lo, hi - x) / 16.0)
    k = np.arange(x.size)
    for _ in range(3):
        k = k[(lo[k] + 2.0 * h[k] < x[k]) & (x[k] < hi[k] - 2.0 * h[k])]
        if not k.size:
            break
        xk, hk = x[k], h[k]
        stencil = xk + np.array([[-2.0], [-1.0], [0.0], [1.0], [2.0]]) * hk
        fm2, fm1, f0, fp1, fp2 = np.asarray((polish or f)(stencil.ravel(), np.tile(owner[k], 5)),
                                            dtype=float).reshape(5, -1)
        grad = (fm2 - 8.0 * fm1 + 8.0 * fp1 - fp2) / (12.0 * hk)
        curv = (fp1 - 2.0 * f0 + fm1) / (hk * hk)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = -grad / curv
        go = (curv < 0.0) & np.isfinite(grad) & (np.abs(step) <= hi[k] - lo[k])
        k, xk, step = k[go], xk[go], step[go]
        x[k] = np.minimum(np.maximum(xk + step, lo[k]), hi[k])
        k = k[~(np.abs(x[k] - xk) < 1e-14 * np.maximum(1.0, np.abs(xk)))]
    return x
