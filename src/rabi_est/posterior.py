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
whether a grid point happens to fall near it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .dynamics import (
    FieldConfig,
    dprob_domega0,
    prob_detect,
    prob_detect_change,
    prob_stationary_points,
)
from .errors import DomainError, EvidenceUnderflow
from .fisher import cfi_values, qfi_values
from .frequentist import Dataset, log_likelihood_counts, log_likelihood_ratio
from .numerics import DEFAULT_TOL, Tolerance, integrate, local_maxima
from .priors import Prior, PriorKind, log_density, prior_fisher, prior_score, truncated_density

__all__ = [
    "PosteriorSpec",
    "MapMaximum",
    "MapResult",
    "BayesFisher",
    "posterior_log_density",
    "mmse",
    "map_estimate",
    "map_stationarity_lhs",
    "bayes_fisher",
]

# Resolution of the stabilization/mass-location grid over the window.
_GRID_POINTS = 8193
# Halving steps below one grid cell that measure a sharp peak's region; the
# smallest is ~1e-11 of the window for the default grid.
_LADDER_STEPS = 30
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


def _peaks(spec: PosteriorSpec) -> np.ndarray:
    """Every point where the log joint may peak more sharply than the grid
    resolves.

    p is monotone between the closed-form zeros of dp/domega0, so on each
    such piece of the window the likelihood peaks at the root of p = xbar,
    if it has one, or else at an end of the piece. The Gaussian prior mean,
    clipped to the window, joins them.
    """
    cfg, w, n = spec.cfg, spec.prior.window, spec.data.n
    peaks = []
    if n > 0:
        stationary, _ = prob_stationary_points(cfg, w.lower, w.upper)
        ends = _distinct(np.concatenate([[w.lower], stationary, [w.upper]]))
        lo, hi = ends[:-1], ends[1:]
        gap_lo = prob_detect(cfg, lo) - spec.data.xbar
        gap_hi = prob_detect(cfg, hi) - spec.data.xbar
        # Pieces span a few units: 12 halvings bracket a root to ~1e-3, and
        # Newton steps kept inside the bracket take it to rounding.
        a, b = lo, hi
        for _ in range(12):
            mid = 0.5 * (a + b)
            right = (prob_detect(cfg, mid) > spec.data.xbar) == (gap_lo > 0.0)
            a, b = np.where(right, mid, a), np.where(right, b, mid)
        x = 0.5 * (a + b)
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(3):
                step = (prob_detect(cfg, x) - spec.data.xbar) / dprob_domega0(cfg, x)
                x = np.clip(np.where(np.isnan(step), x, x - step), a, b)
        peaks += [x[(gap_lo > 0.0) != (gap_hi > 0.0)], ends]
    if spec.prior.kind is PriorKind.GAUSSIAN:
        peaks.append([min(max(spec.prior.mean, w.lower), w.upper)])
    return _distinct(np.concatenate(peaks)) if peaks else np.empty(0)


def _workspace(spec: PosteriorSpec):
    """The mode of the posterior and the intervals carrying its mass.

    The mode is the maximizer of the log joint over a fixed grid and the
    closed-form peaks. The grid's runs of numerically relevant mass, padded
    by two cells, resolve the posterior wherever it stays broader than a
    cell. A peak with mass that the grid cannot resolve gets its own
    region, out to the nearest step of a ladder halving from one cell at
    which the log joint has fallen by the mass floor or left the window,
    split at the peak so that the quadrature seeds on it whatever grid run
    it falls in.
    """
    w = spec.prior.window
    xs = np.linspace(w.lower, w.upper, _GRID_POINTS)
    g = _log_joint(spec, xs)
    peaks = _peaks(spec)
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
    cuts = _distinct(np.concatenate([lo, hi, center]))
    mid = 0.5 * (cuts[:-1] + cuts[1:])
    covered = np.any((lo[:, None] < mid) & (mid < hi[:, None]), axis=0)
    return mode, cuts[:-1][covered], cuts[1:][covered]


@lru_cache(maxsize=128)
def _moments(spec: PosteriorSpec):
    """Log joint at the mode, evidence and first moment, from one quadrature
    of [v, x v] with v = exp(log joint - its value at the mode).

    v is the likelihood ratio against the mode, through the change of p from
    there, times the prior's ratio: near the mode its rounding stays far
    below that of the log joint itself (~1e-6 at n = 1e10).
    """
    mode, lo, hi = _workspace(spec)
    n, k, prior = spec.data.n, spec.data.k, spec.prior
    ref = float(prob_detect(spec.cfg, mode))
    prior_at_mode = float(log_density(prior, mode))

    def integrand(x: np.ndarray) -> np.ndarray:
        p, dp = prob_detect(spec.cfg, x), prob_detect_change(spec.cfg, x, mode)
        lik = log_likelihood_ratio(n, k, p, dp, ref)
        v = np.exp(lik + log_density(prior, x) - prior_at_mode)
        return np.stack([v, x * v])

    z, first = integrate(integrand, lo, hi, spec.quad_tol)
    if not z > 0.0:
        raise EvidenceUnderflow("posterior evidence is zero within tolerance")
    return float(_log_joint(spec, mode)), z, first


def _log_evidence(spec: PosteriorSpec) -> float:
    shift, z, _ = _moments(spec)
    return shift + math.log(z)


def posterior_log_density(spec: PosteriorSpec, omega0):
    """Log of the normalized posterior density at omega0 (inside the window).

    Accepts scalar or array input.
    """
    w = spec.prior.window
    x = np.asarray(omega0, dtype=float)
    if not (np.all(x >= w.lower) and np.all(x <= w.upper)):
        raise DomainError(f"omega0 outside the window [{w.lower}, {w.upper}]")
    out = _log_joint(spec, x) - _log_evidence(spec)
    return float(out) if x.ndim == 0 else out


def mmse(spec: PosteriorSpec) -> float:
    """Posterior mean, the minimum mean-square error estimate.

    The ratio of the first moment to the evidence from one quadrature,
    clamped to the window (the mathematical value cannot leave it).
    """
    _, z, first = _moments(spec)
    w = spec.prior.window
    return min(max(first / z, w.lower), w.upper)


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
    |second derivative| < 1e-8 rule.
    """
    if grid_points < 101:
        raise DomainError(f"grid_points must be >= 101, got {grid_points}")
    w = spec.prior.window

    g = partial(_log_joint, spec)
    peaks = local_maxima(g, w.lower, w.upper, grid_points, spec.quad_tol)
    log_z = _log_evidence(spec)
    xbar = spec.data.xbar if spec.data.n > 0 else math.nan
    entries = []
    for peak in peaks:
        x = peak.x
        h = max(1e-4, 1e-5 * abs(x))
        if not peak.boundary:
            h = min(h, 0.45 * (x - w.lower), 0.45 * (w.upper - x))
            second = (g(x + h) - 2.0 * g(x) + g(x - h)) / (h * h)
        else:
            second = math.nan
        residual = math.nan
        if (
            not peak.boundary
            and spec.data.n > 0
            and abs(float(dprob_domega0(spec.cfg, x))) > _DP_FLOOR
        ):
            lhs = map_stationarity_lhs(spec.cfg, spec.prior, spec.data.n, x)
            residual = abs(float(lhs) - xbar)
        entries.append(
            MapMaximum(
                value=x,
                log_posterior=g(x) - log_z,
                second_derivative=second,
                boundary=peak.boundary,
                stationarity_residual=residual,
            )
        )
    return MapResult(maxima=tuple(entries))


def bayes_fisher(cfg: FieldConfig, prior: Prior, n: int, tol: Tolerance = DEFAULT_TOL) -> BayesFisher:
    """Prior-averaged Fisher quantities.

    bayes_cfi and bayes_qfi each add the prior's own information divided by
    the trial count; the gap is the plain prior average of (QFI - CFI), since
    that contribution cancels. Averages use the window-renormalized prior.
    """
    if not n >= 1:
        raise DomainError(f"trial count n must be >= 1, got {n}")
    # Fails fast, before the averages, when the prior information diverges.
    info = prior_fisher(prior, tol)
    w = prior.window

    def avg(values_fn) -> float:
        def integrand(x: np.ndarray) -> np.ndarray:
            vals = np.nan_to_num(values_fn(x), nan=0.0)
            return vals * truncated_density(prior, x)

        return integrate(integrand, w.lower, w.upper, tol)

    mean_cfi = avg(lambda x: cfi_values(cfg, x))
    mean_qfi = avg(lambda x: qfi_values(cfg, x))
    mean_gap = avg(lambda x: qfi_values(cfg, x) - np.nan_to_num(cfi_values(cfg, x), nan=0.0))
    return BayesFisher(
        bayes_cfi=mean_cfi + info / n,
        bayes_qfi=mean_qfi + info / n,
        bayes_gap=mean_gap,
    )
