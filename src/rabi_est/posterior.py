"""Bayesian layer: normalized posterior, MMSE and MAP estimators, and the
prior-averaged (Bayesian) Fisher quantities.

Each posterior costs one adaptive quadrature, whose vector integrand gives
the evidence and the first moment together. The integrand is the joint
density divided by its value at the mode, so large trial counts cannot
underflow it, and it is evaluated through ratios against the mode that keep
its rounding noise below the quadrature tolerance up to n = 1e10 and beyond.
The mass is located two ways. A fixed grid over the window finds posteriors
broader than a few of its cells. The closed-form structure of p finds the
rest: p is monotone between the zeros of dp/domega0, so the likelihood can
peak only at a root of p = xbar or at an end of such a piece. Each peak too
sharp for the grid gets its own interval, so the answer does not depend on
whether a grid point happens to fall near it. The regions are cut at the
closed-form zeros of dp/domega0 as well: there a fractional count leaves a
cusp |omega0 - z|^(2k) and the Jeffreys density a kink, and a panel rule
converges fast toward such a point only when it is a panel end.

What depends only on the field and the prior (the grid, ln p, ln(1 - p) and
the log prior on it, and the pieces) is computed once per pair and cached.
Posteriors that share field, prior, n and tolerance form a batch
(:func:`mmse_many`, :func:`map_many`): their peaks are polished together,
and one quadrature integrates them all, each with its own panels and error
budget, so every member's values are bit for bit those of its own
:func:`mmse` or :func:`map_estimate`. A single posterior is a batch of one.
The MAP candidates come from the same workspace as the evidence: the maxima
of the log joint on its grid and the brackets of its sharp peaks, cut at the
zeros of dp/domega0, where a Jeffreys prior vanishes between two modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .dynamics import (
    FieldConfig,
    dprob_domega0,
    prob_detect,
    prob_detect_change,
    prob_pieces,
)
from .errors import DomainError, EstimationError, EvidenceUnderflow
from .fisher import fisher_values
from .frequentist import (
    Dataset,
    _log_binom,
    _log_likelihood_logs,
    log_likelihood_counts,
    log_likelihood_ratio,
)
from .numerics import DEFAULT_TOL, Tolerance, _refine, integrate, integrate_owners
from .priors import Prior, PriorKind, log_density, prior_fisher, prior_score, truncated_density

__all__ = [
    "PosteriorSpec",
    "MapMaximum",
    "MapResult",
    "BayesFisher",
    "posterior_log_density",
    "mmse",
    "mmse_many",
    "map_estimate",
    "map_many",
    "map_stationarity_lhs",
    "bayes_fisher",
]

# Resolution of the stabilization/mass-location grid over the window.
_GRID_POINTS = 8193
# Halving steps below one grid cell that measure a sharp peak's region; the
# smallest is ~1e-11 of the window for the default grid.
_LADDER_STEPS = 30
# Safeguarded Newton steps that polish a root of p = xbar in its grid cell.
_NEWTON_STEPS = 6
# Most posteriors in one quadrature, which bounds its memory.
_BATCH = 256
# Shifted-integrand values below this threshold carry no numerical mass.
_MASS_FLOOR_LOG = math.log(1e-18)
# Probability-derivative magnitudes below this make the stationarity form 0/0.
_DP_FLOOR = 1e-12
# MAP candidates closer than this, relative to max(1, |omega0|), are one
# maximum: refinements of one maximum agree far better, and distinct maxima
# of the log joint come this close only for n far beyond 1e10.
_MERGE = 1e-6


@dataclass(frozen=True)
class PosteriorSpec:
    """Immutable inputs of one posterior: data, drive configuration, prior."""

    data: Dataset
    cfg: FieldConfig
    prior: Prior
    quad_tol: Tolerance = DEFAULT_TOL


@dataclass(frozen=True)
class MapMaximum:
    value: float
    log_posterior: float
    second_derivative: float
    boundary: bool
    stationarity_residual: float

    @property
    def inconclusive(self) -> bool:
        """Second-derivative test too close to zero to classify the point."""
        return not self.boundary and abs(self.second_derivative) < 1e-8


@dataclass(frozen=True)
class MapResult:
    maxima: tuple[MapMaximum, ...]

    @property
    def best(self) -> MapMaximum:
        return max(self.maxima, key=lambda m: m.log_posterior)


@dataclass(frozen=True)
class BayesFisher:
    bayes_cfi: float
    bayes_qfi: float
    bayes_gap: float


def _log_joint(spec: PosteriorSpec, omega0):
    """Log likelihood plus log prior, the unnormalized log posterior."""
    lik = log_likelihood_counts(spec.data.n, spec.data.k, prob_detect(spec.cfg, omega0))
    return lik + log_density(spec.prior, omega0)


def _distinct(x: np.ndarray) -> np.ndarray:
    """The sorted distinct values of x. (np.unique would do, but imports
    numpy.ma on first use: ~15 ms and ~1.5 MB for each process.)"""
    x = np.sort(x)
    return x[np.concatenate([[True], x[1:] > x[:-1]])]


@lru_cache(maxsize=16)
def _grid(cfg: FieldConfig, prior: Prior):
    """What every posterior on one field and prior shares: the mass grid xs
    over the window; ln p, ln(1 - p) and the log prior on it; the pieces
    (lo, hi) of the window between the zeros of dp/domega0; and the grid
    merged with the piece ends, with p there."""
    w = prior.window
    xs = np.linspace(w.lower, w.upper, _GRID_POINTS)
    p = prob_detect(cfg, xs)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p, log_q = np.log(p), np.log1p(-p)
    pieces = prob_pieces(cfg, w.lower, w.upper)
    xm = _distinct(np.concatenate([xs, pieces[0]]))
    grid = xs, log_p, log_q, log_density(prior, xs), *pieces, xm, prob_detect(cfg, xm)
    for values in grid:
        values.setflags(write=False)  # shared by every caller
    return grid


def _peaks(specs: Sequence[PosteriorSpec]) -> list:
    """For each spec (all on one field and prior), every point where the log
    joint may peak more sharply than the grid resolves.

    p is monotone on each piece of the window between the closed-form zeros
    of dp/domega0, so there the likelihood peaks at the root of p = xbar, if
    it has one, or else at an end of the piece. Each root lies in a cell of
    the grid merged with the piece ends where p - xbar changes sign. From
    the secant through the cell's ends, Newton steps that shrink the cell,
    and fall back to its midpoint when they leave it, take all roots of all
    specs to rounding together. The Gaussian prior mean, clipped to the
    window, joins them.
    """
    cfg, prior = specs[0].cfg, specs[0].prior
    *_, lo, hi, xm, pm = _grid(cfg, prior)
    xbar = [spec.data.xbar if spec.data.n > 0 else math.nan for spec in specs]
    cells = [np.flatnonzero((pm[:-1] > r) != (pm[1:] > r)) for r in xbar]
    i = np.concatenate(cells)
    r = np.repeat(xbar, [c.size for c in cells])
    a, b, rising = xm[i], xm[i + 1], pm[i] <= r
    x = a - (pm[i] - r) * (b - a) / (pm[i + 1] - pm[i])
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_STEPS):
            gap = prob_detect(cfg, x) - r
            a, b = np.where((gap <= 0.0) == rising, x, a), np.where((gap <= 0.0) == rising, b, x)
            step = np.where(gap == 0.0, x, x - gap / dprob_domega0(cfg, x))
            x = np.where((step >= a) & (step <= b), step, 0.5 * (a + b))
    w = prior.window
    mean = [[min(max(prior.mean, w.lower), w.upper)]] if prior.kind is PriorKind.GAUSSIAN else []
    out = []
    for spec, roots in zip(specs, np.split(x, np.cumsum([c.size for c in cells])[:-1])):
        found = ([roots, lo, hi] if spec.data.n > 0 else []) + mean
        out.append(_distinct(np.concatenate(found)) if found else np.empty(0))
    return out


def _workspace(spec: PosteriorSpec, peaks: np.ndarray):
    """The posterior mode, its log joint, the intervals carrying the mass,
    and the brackets of the sharp peaks.

    The mode is the maximizer of the log joint over a fixed grid and the
    closed-form peaks (see _peaks). The grid's runs of numerically relevant
    mass, padded by two cells, resolve the posterior wherever it stays
    broader than a cell. A peak with mass that the grid cannot resolve gets its own
    region, out to the nearest step of a ladder halving from one cell at
    which the log joint has fallen by the mass floor or left the window,
    split at the peak so that the quadrature seeds on it whatever grid run
    it falls in. The regions are cut again at the zeros of dp/domega0, where
    a fractional count leaves a cusp and the Jeffreys density a kink.
    """
    w = spec.prior.window
    xs, log_p, log_q, log_prior, piece_lo, *_ = _grid(spec.cfg, spec.prior)
    g = _log_likelihood_logs(spec.data.n, spec.data.k, log_p, log_q) + log_prior
    g_peaks = _log_joint(spec, peaks)
    values = np.concatenate([g, g_peaks])
    mode, shift = float(np.concatenate([xs, peaks])[values.argmax()]), float(values.max())
    if not math.isfinite(shift):
        raise EvidenceUnderflow("posterior density vanishes everywhere on the window")
    # Active grid points at most four apart share a run: their pads meet.
    idx = np.flatnonzero(g - shift > _MASS_FLOOR_LOG)
    first = idx[np.diff(idx, prepend=-5) > 4]
    last = idx[np.diff(idx, append=_GRID_POINTS + 4) > 4]
    # A peak whose log joint falls by the mass floor before the nearest
    # grid point on either side inside the window is sharp.
    padded = np.concatenate([[np.nan], g, [np.nan]])
    beside = np.stack([padded[np.searchsorted(xs, peaks, "left")],
                       padded[np.searchsorted(xs, peaks, "right") + 1]])
    sharp = (g_peaks - shift > _MASS_FLOOR_LOG) & np.any(
        g_peaks - beside >= -_MASS_FLOOR_LOG, axis=0)
    center, g_center = peaks[sharp], g_peaks[sharp]
    cell = xs[1] - xs[0]
    rungs = cell * 0.5 ** np.arange(_LADDER_STEPS - 1, -1, -1)
    pts = center[:, None] + np.array([-1.0, 1.0])[:, None, None] * rungs
    drop = g_center[:, None] - _log_joint(spec, pts.ravel()).reshape(pts.shape)
    fallen = (drop >= -_MASS_FLOOR_LOG) | (pts < w.lower) | (pts > w.upper)
    reach = np.where(fallen.any(axis=-1), rungs[fallen.argmax(axis=-1)], cell)
    sharp_lo, sharp_hi = np.maximum(center - reach[0], w.lower), np.minimum(center + reach[1], w.upper)
    lo = np.concatenate([xs[np.maximum(first - 2, 0)], sharp_lo])
    hi = np.concatenate([xs[np.minimum(last + 2, _GRID_POINTS - 1)], sharp_hi])
    cuts = _distinct(np.concatenate([lo, hi, center, piece_lo]))
    mid = 0.5 * (cuts[:-1] + cuts[1:])
    covered = np.any((lo[:, None] < mid) & (mid < hi[:, None]), axis=0)
    return mode, shift, cuts[:-1][covered], cuts[1:][covered], sharp_lo, sharp_hi


def _workspaces(specs: Sequence[PosteriorSpec]) -> list:
    """_workspace of each spec (all on one field and prior), or the
    EstimationError it raises."""
    out: list = []
    for spec, peaks in zip(specs, _peaks(specs)):
        try:
            out.append(_workspace(spec, peaks))
        except EstimationError as exc:
            out.append(exc)
    return out


def _log_ratio_to_mode(specs: Sequence[PosteriorSpec], held: list, mode):
    """f(x, o): the log joint of specs[held[o]] at x minus its value at
    mode[o], the likelihood ratio through the change of p from there. Near
    the mode its rounding stays far below that of the log joint itself
    (~1e-6 at n = 1e10)."""
    cfg, prior, n = specs[0].cfg, specs[0].prior, specs[0].data.n
    mode = np.array(mode)
    k = np.array([specs[j].data.k for j in held], dtype=float)
    ref, prior_at_mode = prob_detect(cfg, mode), log_density(prior, mode)

    def f(x: np.ndarray, o: np.ndarray) -> np.ndarray:
        p, dp = prob_detect(cfg, x), prob_detect_change(cfg, x, mode, o)
        return log_likelihood_ratio(n, k[o], p, dp, ref[o]) + log_density(prior, x) - prior_at_mode[o]

    return f


def _moments_many(specs: Sequence[PosteriorSpec], spaces: list | None = None) -> list:
    """For each spec, the log joint at the mode, the evidence and the first
    moment, or the EstimationError that computing them raises. The specs
    share field, prior, n and tolerance; ``spaces`` are their _workspaces,
    if already at hand.

    Each integral is one of [v, x v] with v = exp(log joint - its value at
    the mode), from _log_ratio_to_mode. One quadrature
    computes them all, each posterior with its own panels and error budget,
    so a batch of one (through ``integrate``) gives every member's values bit
    for bit.
    """
    spec = specs[0]
    cfg, prior, n, tol = spec.cfg, spec.prior, spec.data.n, spec.quad_tol
    out = list(_workspaces(specs) if spaces is None else spaces)
    held = [j for j, space in enumerate(out) if not isinstance(space, EstimationError)]
    if not held:
        return out
    mode, shift, lo, hi = zip(*(out[j][:4] for j in held))
    log_ratio = _log_ratio_to_mode(specs, held, mode)

    def integrand(x: np.ndarray, o: np.ndarray) -> np.ndarray:
        v = np.exp(log_ratio(x, o))
        return np.stack([v, x * v])

    if len(specs) == 1:
        try:
            values, failures = [integrate(lambda x: integrand(x, np.zeros(x.size, dtype=np.intp)),
                                          lo[0], hi[0], tol)], [None]
        except EstimationError as exc:
            values, failures = [(math.nan, math.nan)], [exc]
    else:
        owner = np.repeat(np.arange(len(held)), [r.size for r in lo])
        values, failures = integrate_owners(integrand, np.concatenate(lo), np.concatenate(hi),
                                            owner, tol, owners=len(held))
    for j, s, (z, first), exc in zip(held, shift, values, failures):
        if exc is None and not z > 0.0:
            exc = EvidenceUnderflow("posterior evidence is zero within tolerance")
        out[j] = exc if exc is not None else (s, z, first)
    return out


@lru_cache(maxsize=128)
def _moments(spec: PosteriorSpec):
    """Log joint at the mode, evidence and first moment: a batch of one."""
    result, = _moments_many([spec])
    if isinstance(result, EstimationError):
        raise result
    return result


def _log_evidence(spec: PosteriorSpec) -> float:
    shift, z, _ = _moments(spec)
    return shift + math.log(z)


def posterior_log_density(spec: PosteriorSpec, omega0):
    """Log of the normalized posterior density at omega0 (inside the window),
    elementwise."""
    w = spec.prior.window
    x = np.asarray(omega0, dtype=float)
    if not (np.all(x >= w.lower) and np.all(x <= w.upper)):
        raise DomainError(f"omega0 outside the window [{w.lower}, {w.upper}]")
    return _log_joint(spec, x) - _log_evidence(spec)


def mmse(spec: PosteriorSpec) -> float:
    """Posterior mean, the minimum mean-square error estimate.

    The ratio of the first moment to the evidence from one quadrature,
    clamped to the window (the mathematical value cannot leave it).
    """
    return _mean(spec, _moments(spec))


def _mean(spec: PosteriorSpec, moments) -> float:
    _, z, first = moments
    w = spec.prior.window
    return min(max(first / z, w.lower), w.upper)


def _by_batch(specs: Sequence[PosteriorSpec], run) -> list:
    """run(batch) on the specs in batches that share field, prior, n and
    tolerance, at most _BATCH specs each; its results in the order of specs."""
    groups: dict = {}
    for j, spec in enumerate(specs):
        groups.setdefault((spec.cfg, spec.prior, spec.data.n, spec.quad_tol), []).append(j)
    out: list = [None] * len(specs)
    for members in groups.values():
        for start in range(0, len(members), _BATCH):
            batch = members[start:start + _BATCH]
            for j, result in zip(batch, run([specs[j] for j in batch])):
                out[j] = result
    return out


def mmse_many(specs: Sequence[PosteriorSpec]) -> list:
    """mmse of each spec, or the EstimationError that mmse(spec) raises.

    The specs that share field, prior, n and tolerance are integrated
    together, up to _BATCH of them in one quadrature; each value is bit for
    bit the one mmse(spec) returns.
    """
    return _by_batch(specs, lambda batch: [
        m if isinstance(m, EstimationError) else _mean(spec, m)
        for spec, m in zip(batch, _moments_many(batch))])


def map_stationarity_lhs(cfg: FieldConfig, prior: Prior, n: float, omega0):
    """Left side of the MAP stationarity equation, which equals xbar at any
    stationary point of the log posterior with nonvanishing probability slope:

        p - p (1 - p) score / (n p'),

    with score = d log(prior)/d omega0. A zero score (the uniform prior)
    leaves p itself, also where p' = 0, so MAP reduces to ML. Accepts arrays.
    """
    x = np.asarray(omega0, dtype=float)
    p = prob_detect(cfg, x)
    score = prior_score(prior, x)
    with np.errstate(divide="ignore", invalid="ignore"):
        correction = p * (1.0 - p) * score / (n * dprob_domega0(cfg, x))
    return p - np.where(score == 0.0, 0.0, correction)


def map_estimate(spec: PosteriorSpec, grid_points: int = 2001) -> MapResult:
    """All local maxima of the log posterior: map_many of one spec."""
    result, = map_many([spec], grid_points)
    if isinstance(result, EstimationError):
        raise result
    return result


def map_many(specs: Sequence[PosteriorSpec], grid_points: int = 2001) -> list:
    """MapResult of each spec, or the EstimationError that computing it
    raises; batched as in mmse_many, each result bit for bit that of
    map_estimate.

    The candidates come from the posterior's workspace: the brackets around
    the local maxima of the log joint on its grid (a window end is a
    boundary maximum where the log joint falls from it) and those of its
    sharp peaks. A ``grid_points`` above the workspace grid's adds a grid
    that dense. Every bracket is cut at the zeros of dp/domega0 inside it,
    so a zero of sqrt(CFI) gets one bracket on each side; golden section
    with Newton polish finds the maximum of each piece, all pieces of all
    specs in lockstep. A piece's maximum counts if it lies inside the piece,
    and a cut if both pieces beside it rise into it; candidates closer than
    _MERGE are one. The stationarity equations are demoted to a consistency
    residual (they admit spurious solutions at posterior minima); boundary
    maxima skip it and the curvature test. The inconclusive-curvature flag
    follows the |second derivative| < 1e-8 rule.
    """
    if grid_points < 101:
        raise DomainError(f"grid_points must be >= 101, got {grid_points}")
    return _by_batch(specs, lambda batch: _map_batch(batch, grid_points))


def _map_batch(specs: Sequence[PosteriorSpec], grid_points: int) -> list:
    """map_many of specs that share field, prior, n and tolerance."""
    spec = specs[0]
    cfg, prior, n, w = spec.cfg, spec.prior, spec.data.n, spec.prior.window
    spaces = _workspaces(specs)
    out = _moments_many(specs, spaces)
    held = [j for j, moments in enumerate(out) if not isinstance(moments, EstimationError)]
    if not held:
        return out
    k = np.array([specs[j].data.k for j in held], dtype=float)
    log_binom = np.array([_log_binom(n, kj) for kj in k])

    def g(x, o):
        """The log joint of spec held[o] at x, elementwise."""
        p = prob_detect(cfg, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            lik = _log_likelihood_logs(n, k[o], np.log(p), np.log1p(-p), log_binom[o])
        return lik + log_density(prior, x)

    xs, log_p, log_q, log_prior, piece_lo, *_ = _grid(cfg, prior)
    dense = np.linspace(w.lower, w.upper, grid_points) if grid_points > _GRID_POINTS else None
    a, b, owner, end_own, end_x = [], [], [], [], []
    for o, j in enumerate(held):  # a grid at a time keeps the temporaries small
        grids = [(xs, _log_likelihood_logs(n, k[o], log_p, log_q) + log_prior)]
        if dense is not None:
            grids.append((dense, g(dense, np.full(grid_points, o))))
        lo_o, hi_o = [spaces[j][4]], [spaces[j][5]]
        for gx, gy in grids:
            mid, left, right = gy[1:-1], gy[:-2], gy[2:]
            i = np.flatnonzero((mid >= left) & (mid >= right) & ((mid > left) | (mid > right)))
            lo_o.append(gx[i])
            hi_o.append(gx[i + 2])
        # A window end is a boundary maximum where the log joint falls from it.
        edges = np.any([(gy[0] > gy[1], gy[-1] > gy[-2]) for _, gy in grids], axis=0)
        end_x += [edge for edge, rises in zip((w.lower, w.upper), edges) if rises]
        end_own += [o] * int(edges.sum())
        a.append(np.concatenate(lo_o))
        b.append(np.concatenate(hi_o))
        owner.append(np.full(a[-1].size, o))
    a, b, owner = (np.concatenate(v) for v in (a, b, owner))

    # Cut the brackets at the zeros of dp/domega0 strictly inside them.
    cuts = piece_lo[1:]
    first = np.searchsorted(cuts, a, "right")
    inside = np.searchsorted(cuts, b, "left") - first
    bracket = np.repeat(np.arange(a.size), inside + 1)
    pos = np.arange(bracket.size) - np.repeat(np.cumsum(inside) - inside + np.arange(a.size), inside + 1)
    padded = np.concatenate([[-np.inf], cuts, [np.inf]])
    lo = np.where(pos == 0, a[bracket], padded[first[bracket] + pos])
    hi = np.where(pos == inside[bracket], b[bracket], padded[first[bracket] + pos + 1])
    own = owner[bracket]
    ratio = _log_ratio_to_mode(specs, held, [spaces[j][0] for j in held])
    x = _refine(g, lo, hi, own, spec.quad_tol, polish=ratio) if lo.size else lo
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
    own = np.concatenate([own[best], np.array(end_own, dtype=np.intp)])
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
        xbar = np.array([specs[j].data.xbar for j in held])
        lhs = map_stationarity_lhs(cfg, prior, n, x[tested])
        residual[tested] = np.abs(lhs - xbar[own[tested]])
    log_evidence = np.array([out[j][0] + math.log(out[j][1]) for j in held])
    log_post = g_x - log_evidence[own]
    found = [MapMaximum(*fields) for fields in zip(
        x.tolist(), log_post.tolist(), second.tolist(), boundary.tolist(), residual.tolist())]
    bounds = np.searchsorted(own, np.arange(len(held) + 1)).tolist()
    for o, j in enumerate(held):
        out[j] = MapResult(maxima=tuple(found[bounds[o]:bounds[o + 1]]))
    return out


def bayes_fisher(cfg: FieldConfig, prior: Prior, n: int, tol: Tolerance = DEFAULT_TOL) -> BayesFisher:
    """Prior-averaged Fisher quantities.

    bayes_cfi and bayes_qfi each add the prior's own information divided by
    the trial count; the gap is the plain prior average of (QFI - CFI), since
    that contribution cancels. Averages use the window-renormalized prior, in
    one quadrature of the three on the pieces between the zeros of dp/domega0,
    cut again at a Gaussian prior's mean.
    """
    if not n >= 1:
        raise DomainError(f"trial count n must be >= 1, got {n}")
    # Fails fast, before the averages, when the prior information diverges.
    info = prior_fisher(prior, tol)
    w = prior.window

    def integrand(x: np.ndarray) -> np.ndarray:
        cfi, qfi = fisher_values(cfg, x)
        cfi = np.nan_to_num(cfi, nan=0.0)
        return np.stack([cfi, qfi, qfi - cfi]) * truncated_density(prior, x)

    cuts = np.concatenate(prob_pieces(cfg, w.lower, w.upper))
    if prior.kind is PriorKind.GAUSSIAN:
        # A prior narrower than the node spacing of a piece is found from
        # its mean at a panel end.
        cuts = np.append(cuts, min(max(prior.mean, w.lower), w.upper))
    cuts = _distinct(cuts)
    mean_cfi, mean_qfi, mean_gap = map(float, integrate(integrand, cuts[:-1], cuts[1:], tol))
    return BayesFisher(
        bayes_cfi=mean_cfi + info / n,
        bayes_qfi=mean_qfi + info / n,
        bayes_gap=mean_gap,
    )
