"""Bayesian layer: normalized posterior, MMSE and MAP estimators, and the
prior-averaged (Bayesian) Fisher quantities.

All posterior integrals are stabilized by subtracting the maximum of
(log likelihood + log prior) over a fixed evaluation grid before
exponentiation; large trial counts would otherwise underflow the integrand.
The same grid locates the regions carrying numerically relevant mass, so the
adaptive quadrature is pointed at the (possibly very narrow) likelihood peaks
instead of hunting for them across the whole window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .dynamics import FieldConfig, dprob_domega0, prob_detect
from .errors import DomainError, EvidenceUnderflow
from .fisher import cfi_values, qfi_values
from .frequentist import Dataset, log_likelihood_counts
from .numerics import DEFAULT_TOL, Tolerance, integrate, local_maxima
from .priors import Prior, log_density, prior_fisher, prior_score, truncated_density

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


@lru_cache(maxsize=128)
def _workspace(spec: PosteriorSpec):
    """Stabilization shift and mass-carrying subintervals for one spec."""
    w = spec.prior.window
    xs = np.linspace(w.lower, w.upper, _GRID_POINTS)
    g = _log_joint(spec, xs)
    shift = float(np.max(g))
    if not math.isfinite(shift):
        raise EvidenceUnderflow("posterior density vanishes everywhere on the window")
    active = (g - shift) > _MASS_FLOOR_LOG
    # Pad each active run by two grid cells and merge overlapping runs.
    idx = np.flatnonzero(active)
    regions: list[tuple[float, float]] = []
    if idx.size:
        breaks = np.flatnonzero(np.diff(idx) > 1)
        starts = np.concatenate([[idx[0]], idx[breaks + 1]])
        stops = np.concatenate([idx[breaks], [idx[-1]]])
        for s, e in zip(starts, stops):
            lo = xs[max(s - 2, 0)]
            hi = xs[min(e + 2, _GRID_POINTS - 1)]
            if regions and lo <= regions[-1][1]:
                regions[-1] = (regions[-1][0], float(hi))
            else:
                regions.append((float(lo), float(hi)))
    if not regions:
        raise EvidenceUnderflow("posterior density vanishes everywhere on the window")
    return shift, tuple(regions)


def _shifted_integral(spec: PosteriorSpec, weight=None) -> float:
    """Integral of weight(x) * exp(log_joint - shift) over the mass regions."""
    shift, regions = _workspace(spec)

    def integrand(x: np.ndarray) -> np.ndarray:
        vals = np.exp(_log_joint(spec, x) - shift)
        return vals if weight is None else weight(x) * vals

    return sum(integrate(integrand, lo, hi, spec.quad_tol) for lo, hi in regions)


@lru_cache(maxsize=128)
def _log_evidence(spec: PosteriorSpec) -> float:
    shift, _ = _workspace(spec)
    z = _shifted_integral(spec)
    if not z > 0.0:
        raise EvidenceUnderflow("posterior evidence is zero within tolerance")
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

    Computed as a ratio of two stabilized quadratures, then clamped to the
    window (the mathematical value cannot leave it).
    """
    num = _shifted_integral(spec, weight=lambda x: x)
    den = _shifted_integral(spec)
    if not den > 0.0:
        raise EvidenceUnderflow("posterior evidence is zero within tolerance")
    w = spec.prior.window
    return min(max(num / den, w.lower), w.upper)


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
