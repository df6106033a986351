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
(:func:`mmse_many`): their peaks are polished together, and one quadrature
integrates them all, each with its own panels and error budget, so every
member's values are bit for bit those of its own :func:`mmse`. A single
posterior is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
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
from .fisher import cfi_values, qfi_values
from .frequentist import Dataset, _log_likelihood_logs, log_likelihood_counts, log_likelihood_ratio
from .numerics import DEFAULT_TOL, Tolerance, integrate, integrate_owners, local_maxima
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
    """The posterior mode, its log joint and the intervals carrying the mass.

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
    lo = np.concatenate([xs[np.maximum(first - 2, 0)], np.maximum(center - reach[0], w.lower)])
    hi = np.concatenate([xs[np.minimum(last + 2, _GRID_POINTS - 1)],
                         np.minimum(center + reach[1], w.upper)])
    cuts = _distinct(np.concatenate([lo, hi, center, piece_lo]))
    mid = 0.5 * (cuts[:-1] + cuts[1:])
    covered = np.any((lo[:, None] < mid) & (mid < hi[:, None]), axis=0)
    return mode, shift, cuts[:-1][covered], cuts[1:][covered]


def _moments_many(specs: Sequence[PosteriorSpec]) -> list:
    """For each spec, the log joint at the mode, the evidence and the first
    moment, or the EstimationError that computing them raises. The specs
    share field, prior, n and tolerance.

    Each integral is one of [v, x v] with v = exp(log joint - its value at
    the mode): the likelihood ratio against the mode, through the change of p
    from there, times the prior's ratio. Near the mode its rounding stays far
    below that of the log joint itself (~1e-6 at n = 1e10). One quadrature
    computes them all, each posterior with its own panels and error budget,
    so a batch of one (through ``integrate``) gives every member's values bit
    for bit.
    """
    spec = specs[0]
    cfg, prior, n, tol = spec.cfg, spec.prior, spec.data.n, spec.quad_tol
    out: list = [None] * len(specs)
    held, regions = [], []
    for j, (member, peaks) in enumerate(zip(specs, _peaks(specs))):
        try:
            regions.append(_workspace(member, peaks))
            held.append(j)
        except EstimationError as exc:
            out[j] = exc
    if not held:
        return out
    mode, shift, lo, hi = zip(*regions)
    mode = np.array(mode)
    k = np.array([specs[j].data.k for j in held], dtype=float)
    ref, prior_at_mode = prob_detect(cfg, mode), log_density(prior, mode)

    def integrand(x: np.ndarray, o: np.ndarray) -> np.ndarray:
        p, dp = prob_detect(cfg, x), prob_detect_change(cfg, x, mode[o])
        lik = log_likelihood_ratio(n, k[o], p, dp, ref[o])
        v = np.exp(lik + log_density(prior, x) - prior_at_mode[o])
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


def mmse_many(specs: Sequence[PosteriorSpec]) -> list:
    """mmse of each spec, or the EstimationError that mmse(spec) raises.

    The specs that share field, prior, n and tolerance are integrated
    together, up to _BATCH of them in one quadrature; each value is bit for
    bit the one mmse(spec) returns.
    """
    groups: dict = {}
    for j, spec in enumerate(specs):
        groups.setdefault((spec.cfg, spec.prior, spec.data.n, spec.quad_tol), []).append(j)
    out: list = [None] * len(specs)
    for members in groups.values():
        for start in range(0, len(members), _BATCH):
            batch = members[start:start + _BATCH]
            for j, result in zip(batch, _moments_many([specs[j] for j in batch])):
                out[j] = result if isinstance(result, EstimationError) else _mean(specs[j], result)
    return out


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
    """All local maxima of the log posterior, grid-located and refined.

    The stationarity equations are demoted to a consistency residual (they
    admit spurious solutions at posterior minima); the maximization itself is
    a grid search with golden-section polish. Boundary maxima are flagged and
    skip the stationarity test. The inconclusive-curvature flag follows the
    |second derivative| < 1e-8 rule. Each field is one array call over all
    peaks.
    """
    if grid_points < 101:
        raise DomainError(f"grid_points must be >= 101, got {grid_points}")
    w = spec.prior.window

    g = partial(_log_joint, spec)
    peaks = local_maxima(g, w.lower, w.upper, grid_points, spec.quad_tol)
    x = np.array([peak.x for peak in peaks])
    inner = ~np.array([peak.boundary for peak in peaks], dtype=bool)
    xi = x[inner]
    h = np.minimum(np.maximum(1e-4, 1e-5 * np.abs(xi)), 0.45 * np.minimum(xi - w.lower, w.upper - xi))
    # One call for the log joint at every peak and the curvature stencil of
    # the interior ones.
    g_x, g_up, g_down = np.split(g(np.concatenate([x, xi + h, xi - h])), [x.size, x.size + xi.size])
    second = np.full(x.size, math.nan)
    second[inner] = (g_up - 2.0 * g_x[inner] + g_down) / (h * h)
    residual = np.full(x.size, math.nan)
    if spec.data.n > 0:
        tested = inner & (np.abs(dprob_domega0(spec.cfg, x)) > _DP_FLOOR)
        lhs = map_stationarity_lhs(spec.cfg, spec.prior, spec.data.n, x[tested])
        residual[tested] = np.abs(lhs - spec.data.xbar)
    log_post = g_x - _log_evidence(spec)
    return MapResult(maxima=tuple(
        MapMaximum(value=peak.x, log_posterior=float(log_post[j]), second_derivative=float(second[j]),
                   boundary=peak.boundary, stationarity_residual=float(residual[j]))
        for j, peak in enumerate(peaks)))


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
        cfi, qfi = np.nan_to_num(cfi_values(cfg, x), nan=0.0), qfi_values(cfg, x)
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
