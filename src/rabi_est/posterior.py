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

What depends only on the field and the window (the grid, ln p and ln(1 - p)
on it, and the pieces) is computed once per pair, cached and read for every
prior; a batch takes its log prior on the grid once. Posteriors that share
field, prior and n form a batch (:func:`mmse_many`, ``map_estimator.map_many``),
and one pass finds the workspaces of all its members: their log joints on the
grid, a block of members at a time, one log-joint call for the peaks of all
members and one for all their ladders, and their mass regions as arrays cut
by member. One quadrature then integrates them all, each with its own panels
and error budget. Every step is elementwise per member, so each member's
values are bit for bit those of its own :func:`mmse` or :func:`map_estimate`;
a single posterior is a batch of one and takes the same path.

The MAP estimator lives in ``map_estimator``, which only the MAP paths load.
:func:`map_estimate` stays here as the one-spec entry and imports it when
called. Its candidates come from the same workspaces as the evidence
(``_workspaces`` with ``grid_maxima``): the maxima of the log joint on its
grid and the brackets of its sharp peaks. The Fisher kernels, which only
:func:`bayes_fisher` and the Jeffreys prior use, are imported where called.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .dynamics import (
    FieldConfig,
    dprob_domega0,
    prob_detect,
    prob_detect_change,
    prob_pieces,
)
from .errors import DomainError, EstimationError, EvidenceUnderflow, record
from .frequentist import Dataset, _log_binom, _log_likelihood_logs, log_likelihood_ratio
from .numerics import integrate, integrate_owners
from .priors import Prior, PriorKind, SupportWindow, log_density, prior_fisher, truncated_density

if TYPE_CHECKING:
    from .map_estimator import MapResult

__all__ = [
    "PosteriorSpec",
    "BayesFisher",
    "mmse",
    "mmse_many",
    "map_estimate",
    "bayes_fisher",
]

# Resolution of the stabilization/mass-location grid over the window.
_GRID_POINTS = 8193
# Halving steps below one grid cell that measure a sharp peak's region; the
# smallest is ~1e-11 of the window for the default grid.
_LADDER_STEPS = 30
# Safeguarded Newton steps that polish a root of p = xbar in its grid cell.
_NEWTON_STEPS = 6
# Most posteriors in one quadrature, which bounds its memory: ~10 KiB of
# working set per posterior (3.1 MiB traced at 256, uniform prior, n = 8).
_BATCH = 256
# Most bytes in one block of per-spec grid rows, two rows of the mass grid.
# Blocks of 1 MiB ran slower, as they leave the cache between passes, and
# blocks of 512 KiB ran up to ~20% faster but raised a trial run's peak RSS.
_BLOCK_BYTES = 1 << 17
# Shifted-integrand values below this threshold carry no numerical mass.
_MASS_FLOOR_LOG = math.log(1e-18)


@record
class PosteriorSpec:
    """Immutable inputs of one posterior: data, drive configuration, prior."""

    data: Dataset
    cfg: FieldConfig
    prior: Prior


@record
class BayesFisher:
    bayes_cfi: float
    bayes_qfi: float
    bayes_gap: float


def _distinct(x: np.ndarray) -> np.ndarray:
    """The sorted distinct values of x. (np.unique would do, but imports
    numpy.ma on first use: ~15 ms and ~1.5 MB for each process.)"""
    x = np.sort(x)
    return x[np.concatenate([[True], x[1:] > x[:-1]])]


@lru_cache(maxsize=16)
def _grid(cfg: FieldConfig, w: SupportWindow):
    """What every posterior on one field and window shares, whatever its
    prior: the mass grid xs over the window w; ln p and ln(1 - p) on it; the
    pieces (lo, hi) of the window between the zeros of dp/domega0; and the
    grid merged with the piece ends, with p there."""
    xs = np.linspace(w.lower, w.upper, _GRID_POINTS)
    p = prob_detect(cfg, xs)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p, log_q = np.log(p), np.log1p(-p)
    pieces = prob_pieces(cfg, w.lower, w.upper)
    xm = _distinct(np.concatenate([xs, pieces[0]]))
    grid = xs, log_p, log_q, *pieces, xm, prob_detect(cfg, xm)
    for values in grid:
        values.setflags(write=False)  # shared by every caller
    return grid


class _LogJoint:
    """The log joints (log likelihood plus log prior, the unnormalized log
    posteriors) of specs that share field, prior and n, and the log prior on the mass grid."""

    def __init__(self, specs: Sequence[PosteriorSpec]):
        spec = specs[0]
        self.cfg, self.prior, self.n = spec.cfg, spec.prior, spec.data.n
        self.k = np.array([each.data.k for each in specs], dtype=float)
        self.log_binom = np.array([_log_binom(self.n, k) for k in self.k.tolist()])
        self.log_prior = log_density(self.prior, _grid(self.cfg, self.prior.window)[0])

    def __call__(self, x: np.ndarray, o: np.ndarray) -> np.ndarray:
        """The log joint of spec o[i] at x[i], elementwise."""
        p = prob_detect(self.cfg, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            lik = _log_likelihood_logs(self.n, self.k[o], np.log(p), np.log1p(-p), self.log_binom[o])
        return lik + log_density(self.prior, x)

    def on_grid(self, rows: np.ndarray) -> np.ndarray:
        """The log joints of specs ``rows`` on the mass grid, one row each."""
        _, log_p, log_q, *_ = _grid(self.cfg, self.prior.window)
        g = _log_likelihood_logs(self.n, self.k[rows, None], log_p, log_q, self.log_binom[rows, None])
        g += self.log_prior
        return g


def _blocks(count: int, row_bytes: int):
    """The indices of count rows of row_bytes each, in blocks of at most
    _BLOCK_BYTES (at least one row)."""
    size = max(1, _BLOCK_BYTES // row_bytes)
    return (np.arange(start, min(start + size, count)) for start in range(0, count, size))


def _by_owner(x: np.ndarray, owner: np.ndarray):
    """The distinct (owner, x) pairs, sorted by owner and then by x, and
    the position of each input pair among them."""
    order = np.lexsort((x, owner))
    x, owner = x[order], owner[order]
    keep = np.ones(x.size, dtype=bool)
    keep[1:] = (owner[1:] != owner[:-1]) | (x[1:] > x[:-1])
    at = np.empty(x.size, dtype=np.intp)
    at[order] = np.cumsum(keep) - 1
    return x[keep], owner[keep], at


def _grid_maxima(gy: np.ndarray):
    """The rows and grid indices i of the interior local maxima of each row
    of gy, the maximum at i + 1; and whether each row falls from its ends."""
    mid, left, right = gy[:, 1:-1], gy[:, :-2], gy[:, 2:]
    rows, i = np.nonzero((mid >= left) & (mid >= right) & ((mid > left) | (mid > right)))
    return rows, i, np.stack([gy[:, 0] > gy[:, 1], gy[:, -1] > gy[:, -2]], axis=1)


def _peaks(specs: Sequence[PosteriorSpec]):
    """Every point where the log joint of a spec (all on one field, prior
    and n) may peak more sharply than the grid resolves, and its owner (the
    spec's index), sorted by owner and ascending for each.

    p is monotone on each piece of the window between the closed-form zeros
    of dp/domega0, so there the likelihood peaks at the root of p = xbar, if
    it has one, or else at an end of the piece. Each root lies in a cell of
    the grid merged with the piece ends where p - xbar changes sign. From
    the secant through the cell's ends, Newton steps that shrink the cell,
    and fall back to its midpoint when they leave it, take all roots of all
    specs to rounding together. The Gaussian prior mean, clipped to the
    window, joins them.
    """
    cfg, prior, n = specs[0].cfg, specs[0].prior, specs[0].data.n
    *_, lo, hi, xm, pm = _grid(cfg, prior.window)
    shared = [lo, hi] if n > 0 else []
    if prior.kind is PriorKind.GAUSSIAN:
        w = prior.window
        shared.append([min(max(prior.mean, w.lower), w.upper)])
    shared = np.concatenate(shared) if shared else np.empty(0)
    count = len(specs)
    xbar = np.array([spec.data.xbar if n > 0 else math.nan for spec in specs])
    roots, i = [], []
    for rows in _blocks(count, pm.nbytes):
        above = pm > xbar[rows, None]
        r, c = np.nonzero(above[:, :-1] != above[:, 1:])
        roots.append(rows[r])
        i.append(c)
    roots, i = np.concatenate(roots), np.concatenate(i)
    r = xbar[roots]
    a, b, rising = xm[i], xm[i + 1], pm[i] <= r
    x = a - (pm[i] - r) * (b - a) / (pm[i + 1] - pm[i])
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_STEPS):
            gap = prob_detect(cfg, x) - r
            a, b = np.where((gap <= 0.0) == rising, x, a), np.where((gap <= 0.0) == rising, b, x)
            step = np.where(gap == 0.0, x, x - gap / dprob_domega0(cfg, x))
            x = np.where((step >= a) & (step <= b), step, 0.5 * (a + b))
    return _by_owner(np.concatenate([np.tile(shared, count), x]),
                     np.concatenate([np.repeat(np.arange(count), shared.size), roots]))[:2]


def _runs(g: np.ndarray, shift: np.ndarray):
    """The row and the first and last grid index of each run of grid points
    where a row of g lies within the mass floor of its shift (none in rows
    whose shift is not finite). Points at most four apart share a run: the
    pads of two cells that widen a run then meet."""
    # Each row padded with an inactive point at each end.
    active = np.zeros((g.shape[0], g.shape[1] + 2), dtype=bool)
    with np.errstate(invalid="ignore"):  # inf - inf in the rows of failing specs
        np.greater(g - shift[:, None], _MASS_FLOOR_LOG, out=active[:, 1:-1])
    r, c = np.nonzero(active[:, 1:] != active[:, :-1])
    r, first, last = r[::2], c[::2], c[1::2] - 1
    new = np.ones(r.size + 1, dtype=bool)
    new[1:-1] = (r[1:] != r[:-1]) | (first[1:] - last[:-1] > 4)
    return r[new[:-1]], first[new[:-1]], last[new[1:]]


def _ladders(joint: _LogJoint, center: np.ndarray, g_center: np.ndarray, owner: np.ndarray,
             cell: float, w):
    """The region of each sharp peak: out from its center to the nearest
    step of a ladder halving from one cell at which the log joint has fallen
    by the mass floor or left the window w, on each side."""
    rungs = cell * 0.5 ** np.arange(_LADDER_STEPS - 1, -1, -1)
    pts = center[:, None] + np.array([-1.0, 1.0])[:, None, None] * rungs
    at = joint(pts.ravel(), np.broadcast_to(owner[:, None], pts.shape).ravel()).reshape(pts.shape)
    fallen = (g_center[:, None] - at >= -_MASS_FLOOR_LOG) | (pts < w.lower) | (pts > w.upper)
    reach = np.where(fallen.any(axis=-1), rungs[fallen.argmax(axis=-1)], cell)
    return np.maximum(center - reach[0], w.lower), np.minimum(center + reach[1], w.upper)


@record
class _Workspaces:
    """The workspaces of a batch of specs (all on one field, prior and n).
    Each spec has a mode and the log joint there (shift), or the error that
    fails it (errors); the arrays of (lo, hi, owner) triples hold the
    owner's index and are sorted by owner. The mode, shift, maxima and edges
    of a failing spec mean nothing."""

    errors: list
    mode: np.ndarray
    shift: np.ndarray
    regions: tuple  # the intervals carrying the mass, ascending
    sharp: tuple  # the brackets of the sharp peaks
    # With grid_maxima, the brackets of the local maxima on the grid, and
    # whether the log joint falls from each window end, (specs, 2).
    maxima: tuple | None
    edges: np.ndarray | None


def _workspaces(specs: Sequence[PosteriorSpec], grid_maxima: bool = False) -> _Workspaces:
    """The posterior modes, their log joints, the intervals carrying the
    mass and the brackets of the sharp peaks of specs that share field,
    prior and n; a spec whose log joint is nowhere finite fails with
    EvidenceUnderflow, and all of them with DomainError where n is too large
    for the likelihood (see frequentist._log_binom).

    The mode is the maximizer of the log joint over a fixed grid and the
    closed-form peaks (see _peaks), the first grid point on a tie. The grid's
    runs of numerically relevant mass, padded by two cells, resolve the
    posterior wherever it stays broader than a cell. A peak with mass that
    the grid cannot resolve gets its own region, out to the nearest step of
    a ladder halving from one cell at which the log joint has fallen by the
    mass floor or left the window, split at the peak so that the quadrature
    seeds on it whatever grid run it falls in. The regions are cut again at
    the zeros of dp/domega0, where a fractional count leaves a cusp and the
    Jeffreys density a kink.

    The grid log joints are taken a block of specs at a time (see _blocks),
    with their local maxima for MAP if ``grid_maxima``; every other step is
    one array pass over all peaks, ladders and regions of the batch.
    """
    w = specs[0].prior.window
    xs, _, _, piece_lo, *_ = _grid(specs[0].cfg, w)
    count, last = len(specs), _GRID_POINTS - 1
    try:
        joint = _LogJoint(specs)
    except DomainError as exc:  # an n beyond the likelihood's range fails every spec
        return _Workspaces(errors=[exc] * count, mode=None, shift=None, regions=None, sharp=None,
                           maxima=None, edges=None)
    peaks, owner = _peaks(specs)
    g_peaks = joint(peaks, owner)
    # Each spec's highest peak, the first of equals.
    top = np.lexsort((-g_peaks, owner))
    top = top[np.diff(owner[top], prepend=-1) > 0]
    peak_max = np.full(count, -np.inf)
    peak_max[owner[top]] = g_peaks[top]
    peak_at = np.full(count, np.nan)
    peak_at[owner[top]] = peaks[top]
    # The grid points beside each peak: below it, and above it.
    at_left = np.searchsorted(xs, peaks, "left") - 1
    at_right = np.searchsorted(xs, peaks, "right")
    beside = np.full((2, peaks.size), np.nan)
    bounds = np.searchsorted(owner, np.arange(count + 1)).tolist()
    mode, shift = np.empty(count), np.empty(count)
    run_lo, run_hi, run_own, max_rows, max_i, falls = [], [], [], [], [], []
    for rows in _blocks(count, xs.nbytes):
        g = joint.on_grid(rows)
        i = g.argmax(axis=1)
        grid_max = g[np.arange(rows.size), i]
        on_peak = peak_max[rows] > grid_max
        mode[rows] = np.where(on_peak, peak_at[rows], xs[i])
        shift[rows] = np.where(on_peak, peak_max[rows], grid_max)
        r, first, end = _runs(g, shift[rows])
        run_lo.append(xs[np.maximum(first - 2, 0)])
        run_hi.append(xs[np.minimum(end + 2, last)])
        run_own.append(rows[r])
        mine = slice(bounds[rows[0]], bounds[rows[-1] + 1])
        o, left, right = owner[mine] - rows[0], at_left[mine], at_right[mine]
        beside[0, mine] = np.where(left >= 0, g[o, np.maximum(left, 0)], np.nan)
        beside[1, mine] = np.where(right <= last, g[o, np.minimum(right, last)], np.nan)
        if grid_maxima:
            r, i, ends = _grid_maxima(g)
            max_rows.append(rows[r])
            max_i.append(i)
            falls.append(ends)
    # A peak whose log joint falls by the mass floor before the nearest
    # grid point on either side inside the window is sharp. (None is in a
    # failing spec, whose shift is not finite.)
    with np.errstate(invalid="ignore"):
        sharp = (g_peaks - shift[owner] > _MASS_FLOOR_LOG) & np.any(
            g_peaks - beside >= -_MASS_FLOOR_LOG, axis=0)
    center, sharp_own = peaks[sharp], owner[sharp]
    sharp_lo, sharp_hi = _ladders(joint, center, g_peaks[sharp], sharp_own, xs[1] - xs[0], w)

    lo = np.concatenate(run_lo + [sharp_lo])
    hi = np.concatenate(run_hi + [sharp_hi])
    lo_own = np.concatenate(run_own + [sharp_own])
    cuts, cut_own, at = _by_owner(
        np.concatenate([lo, hi, center, np.tile(piece_lo, count)]),
        np.concatenate([lo_own, lo_own, sharp_own, np.repeat(np.arange(count), piece_lo.size)]))
    # Neighbouring cuts j, j + 1 bound a region where an interval spans them.
    spans = np.cumsum(np.bincount(at[:lo.size], minlength=cuts.size)
                      - np.bincount(at[lo.size:2 * lo.size], minlength=cuts.size))
    pair = np.flatnonzero(spans > 0)

    maxima = edges = None
    if grid_maxima:
        max_rows, max_i = np.concatenate(max_rows), np.concatenate(max_i)
        maxima, edges = (xs[max_i], xs[max_i + 2], max_rows), np.concatenate(falls)
    return _Workspaces(
        errors=[None if good else EvidenceUnderflow("posterior density vanishes everywhere on the window")
                for good in np.isfinite(shift).tolist()],
        mode=mode,
        shift=shift,
        regions=(cuts[pair], cuts[pair + 1], cut_own[pair]),
        sharp=(sharp_lo, sharp_hi, sharp_own),
        maxima=maxima,
        edges=edges,
    )


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


def _moments_many(specs: Sequence[PosteriorSpec], spaces: _Workspaces | None = None) -> list:
    """For each spec, the log joint at the mode, the evidence and the first
    moment, or the EstimationError that computing them raises. The specs
    share field, prior and n; ``spaces`` is their _workspaces, if already at
    hand.

    Each integral is one of [v, x v] with v = exp(log joint - its value at
    the mode), from _log_ratio_to_mode. One ``integrate_owners`` call
    computes them all, for a batch of one too, each posterior with its own
    panels and error budget, so each member's values are bit for bit those
    of its batch of one.
    """
    spaces = _workspaces(specs) if spaces is None else spaces
    out = list(spaces.errors)
    held = [j for j, exc in enumerate(out) if exc is None]
    if not held:
        return out
    lo, hi, owner = spaces.regions
    log_ratio = _log_ratio_to_mode(specs, held, spaces.mode[held])

    def integrand(x: np.ndarray, o: np.ndarray) -> np.ndarray:
        v = np.exp(log_ratio(x, o))
        return np.stack([v, x * v])

    rank = np.cumsum([exc is None for exc in out]) - 1
    values, failures = integrate_owners(integrand, lo, hi, rank[owner], owners=len(held))
    for j, s, (z, first), exc in zip(held, spaces.shift[held].tolist(), values, failures):
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
    """run(batch) on the specs in batches that share field, prior and n, at
    most _BATCH specs each; its results in the order of specs."""
    groups: dict = {}
    for j, spec in enumerate(specs):
        groups.setdefault((spec.cfg, spec.prior, spec.data.n), []).append(j)
    out: list = [None] * len(specs)
    for members in groups.values():
        for start in range(0, len(members), _BATCH):
            batch = members[start:start + _BATCH]
            for j, result in zip(batch, run([specs[j] for j in batch])):
                out[j] = result
    return out


def mmse_many(specs: Sequence[PosteriorSpec]) -> list:
    """mmse of each spec, or the EstimationError that mmse(spec) raises.

    The specs that share field, prior and n are integrated together, up to
    _BATCH of them in one quadrature; each value is bit for bit the one
    mmse(spec) returns.
    """
    return _by_batch(specs, lambda batch: [
        m if isinstance(m, EstimationError) else _mean(spec, m)
        for spec, m in zip(batch, _moments_many(batch))])


def map_estimate(spec: PosteriorSpec) -> MapResult:
    """All local maxima of the log posterior: ``map_estimator.map_many`` of
    one spec, which this call imports."""
    from .map_estimator import map_many

    result, = map_many([spec])
    if isinstance(result, EstimationError):
        raise result
    return result


def bayes_fisher(cfg: FieldConfig, prior: Prior, n: int) -> BayesFisher:
    """Prior-averaged Fisher quantities.

    bayes_cfi and bayes_qfi each add the prior's own information divided by
    the trial count; the gap is the plain prior average of (QFI - CFI), since
    that contribution cancels. Averages use the window-renormalized prior, in
    one quadrature of the three on the pieces between the zeros of dp/domega0,
    cut again at a Gaussian prior's mean.
    """
    from .fisher import fisher_values

    if not n >= 1:
        raise DomainError(f"trial count n must be >= 1, got {n}")
    # Fails fast, before the averages, when the prior information diverges.
    info = prior_fisher(prior)
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
    mean_cfi, mean_qfi, mean_gap = map(float, integrate(integrand, cuts[:-1], cuts[1:]))
    return BayesFisher(
        bayes_cfi=mean_cfi + info / n,
        bayes_qfi=mean_qfi + info / n,
        bayes_gap=mean_gap,
    )
