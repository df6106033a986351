"""Frequentist estimators: the MVU estimator of the detection probability and
the maximum-likelihood estimator of the transition frequency.

The ML inversion exploits the closed detection-probability formula: with
S = inv_sinc(sqrt(xbar)/(b0 |sin theta|)) the candidate frequencies are the
two roots of a quadratic,

    omega0_hat = omega - 2 b0 cos(theta) +/- 2 sqrt(S^2 - b0^2 sin^2(theta)),

valid on the principal sinc branch. :func:`ml_roots` evaluates it over
arrays; :func:`ml_estimate` is its single-rate view.
Negative roots are rejected (the transition frequency is positive); two
positive roots leave the estimate ambiguous and the choice to the caller,
which matches the experimental procedure of retuning the drive until one
root turns negative.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .dynamics import FieldConfig
from .errors import (
    DegenerateData,
    DomainError,
    NoRealRoot,
    SincDomainViolated,
    record,
)
from .numerics import inv_sinc_values

__all__ = [
    "Dataset",
    "RootStatus",
    "Ambiguity",
    "Root",
    "EstimateResult",
    "mvu_p1",
    "ml_roots",
    "ml_estimate",
    "log_likelihood_ratio",
]


@record
class Dataset:
    """Sufficient statistic of the binary record: n trials, k photon counts.

    k is an integer for real data; fractional counts are accepted so curve
    scans can treat the average count rate as a continuous abscissa. n = 0
    encodes the no-data case used by posterior sanity checks (the likelihood
    is then constant).
    """

    n: int
    k: float

    def __post_init__(self) -> None:
        if not self.n >= 0:
            raise DomainError(f"trial count n must be >= 0, got {self.n}")
        if not 0 <= self.k <= self.n:
            raise DomainError(f"count k must lie in [0, n], got k={self.k}, n={self.n}")

    @property
    def xbar(self) -> float:
        if self.n == 0:
            raise DomainError("xbar is undefined for an empty dataset")
        return self.k / self.n


class RootStatus(str, Enum):
    ACCEPTED = "Accepted"
    REJECTED_NEGATIVE = "RejectedNegative"
    BOUNDARY = "Boundary"


class Ambiguity(str, Enum):
    UNAMBIGUOUS = "Unambiguous"
    AMBIGUOUS = "Ambiguous"


@record
class Root:
    value: float
    status: RootStatus


@record
class EstimateResult:
    roots: tuple[Root, ...]
    ambiguity: Ambiguity


def mvu_p1(data: Dataset) -> float:
    """Minimum-variance unbiased estimate of the detection probability: k/n."""
    return data.xbar


# Inversion codes of ml_roots.
ROOTS_REAL = 0
ROOTS_SINC_VIOLATED = 1
ROOTS_COMPLEX = 2


def _sinc_inverse(xbar, cfg: FieldConfig):
    """S on the principal sinc branch (NaN where sqrt(xbar) exceeds
    b0 |sin theta|) and b0 |sin theta|, elementwise."""
    bsin = cfg.b0 * np.abs(np.sin(cfg.theta))
    ratio = np.sqrt(xbar) / bsin
    ok = ratio <= 1.0
    s = np.full(np.shape(ratio), np.nan)
    s[ok] = inv_sinc_values(ratio[ok])
    return s, bsin


def ml_roots(xbar, cfg: FieldConfig):
    """Both ML inversion roots and an int8 code per count rate, elementwise.

    ``cfg`` may hold arrays that broadcast against ``xbar``. The code is
    ROOTS_REAL where the roots are real and distinct, ROOTS_SINC_VIOLATED
    where the sinc inverse is undefined and ROOTS_COMPLEX where the quadratic
    discriminant is nonpositive; the roots are NaN wherever it is not
    ROOTS_REAL.
    """
    s, bsin = _sinc_inverse(np.asarray(xbar, dtype=float), cfg)
    disc = s * s - bsin * bsin
    real = disc > 0.0
    code = np.select([np.isnan(s), ~real], [ROOTS_SINC_VIOLATED, ROOTS_COMPLEX],
                     ROOTS_REAL).astype(np.int8)
    center = cfg.omega - 2.0 * cfg.b0 * np.cos(cfg.theta)
    delta = np.sqrt(np.where(real, disc, np.nan))
    return center + 2.0 * delta, center - 2.0 * delta, code


def ml_estimate(xbar: float, cfg: FieldConfig) -> EstimateResult:
    """Maximum-likelihood candidates for the transition frequency.

    Raises DegenerateData for xbar = 0 (the likelihood is then independent of
    the frequency), SincDomainViolated when the sinc inverse is undefined and
    NoRealRoot when the quadratic discriminant is nonpositive. An observed
    rate of exactly 1 always fails one of the latter two conditions.
    """
    if not 0.0 <= xbar <= 1.0:
        raise DomainError(f"xbar must lie in [0, 1], got {xbar}")
    if xbar == 0.0:
        raise DegenerateData("xbar = 0 carries no information about the frequency")
    plus, minus, code = ml_roots(xbar, cfg)
    if code == ROOTS_SINC_VIOLATED:
        raise SincDomainViolated(
            f"sqrt(xbar)={math.sqrt(xbar):.6g} exceeds b0*|sin theta|="
            f"{cfg.b0 * abs(math.sin(cfg.theta)):.6g}"
        )
    if code == ROOTS_COMPLEX:
        raise NoRealRoot("S^2 - b0^2 sin^2(theta) <= 0; estimates are not real and distinct")
    if xbar == 1.0:
        raise DegenerateData("xbar = 1 carries no information about the frequency")

    roots = []
    for value in (float(plus), float(minus)):
        if value > 0.0:
            status = RootStatus.ACCEPTED
        elif value < 0.0:
            status = RootStatus.REJECTED_NEGATIVE
        else:
            status = RootStatus.BOUNDARY
        roots.append(Root(value=value, status=status))
    n_accepted = sum(1 for r in roots if r.status is RootStatus.ACCEPTED)
    ambiguity = Ambiguity.AMBIGUOUS if n_accepted == 2 else Ambiguity.UNAMBIGUOUS
    return EstimateResult(roots=tuple(roots), ambiguity=ambiguity)


def _log_binom(n: float, k: float) -> float:
    """ln C(n, k); DomainError where ln n! overflows a float (n above ~2.5e305)."""
    try:
        return math.lgamma(n + 1.0) - math.lgamma(k + 1.0) - math.lgamma(n - k + 1.0)
    except OverflowError:
        raise DomainError(f"trial count n = {float(n):g} is too large for the likelihood: "
                          "ln n! overflows a float above n ~ 2.5e305") from None


def _log_likelihood_logs(n: float, k, log_p, log_q, log_binom) -> np.ndarray:
    """Binomial log-likelihood k ln(p) + (n - k) ln(1 - p) + ln C(n, k) from
    ln p, ln(1 - p) and ln C(n, k) (``_log_binom``), elementwise; one grid
    of p can share its logs among many counts. The binomial coefficient uses
    log-gamma, so fractional counts are allowed. Probabilities pinned at 0
    or 1 give -inf unless the counts agree exactly."""
    with np.errstate(invalid="ignore"):
        term1 = np.where(k == 0.0, 0.0, k * log_p)
        term2 = np.where(k == n, 0.0, (n - k) * log_q)
    vals = log_binom + term1
    vals += term2
    return np.fmax(vals, -np.inf)  # NaN -> -inf


def _log_ratio(num, den, diff):
    """ln(num/den) given diff = num - den: log1p(diff/den) near 1, where it
    keeps the precision of a small diff, and ln(num/den) elsewhere."""
    u = diff / den
    return np.where(np.abs(u) < 0.5, np.log1p(u), np.log(num / den))


def log_likelihood_ratio(n: float, k, p1, dp, ref) -> np.ndarray:
    """ln L(p) - ln L(ref) = k ln(p/ref) + (n-k) ln((1-p)/(1-ref)),
    elementwise (in k and ref too), given p and dp = p - ref each to its own
    precision.

    Near p = ref the terms come from dp and keep their rounding far below 1,
    also at n = 1e10, where ln L reaches ~n in size and rounds to ~n*1e-16.
    -inf where a probability pinned at 0 or 1 conflicts with the counts.
    """
    p = np.asarray(p1, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = (np.where(k > 0, k * _log_ratio(p, ref, dp), 0.0)
                + np.where(k < n, (n - k) * _log_ratio(1.0 - p, 1.0 - ref, -dp), 0.0))
    return np.where(np.isnan(vals), -np.inf, vals)


