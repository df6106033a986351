"""Prior distributions over the transition frequency.

Three families: a flat window prior, the reparametrization-invariant prior
proportional to the square root of the classical Fisher information, and an
informative Gaussian. Priors are immutable after construction (the Jeffreys
normalizer is computed once, at construction) and safe to share.

The Gaussian log-density is the untruncated normal; downstream posterior
quadrature truncates to the window and renormalizes, while its Fisher
information keeps the textbook untruncated value 1/sigma^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dynamics import FieldConfig, _detuning, prob_pieces, prob_stationary_points, q_factor
from .errors import DegenerateSupport, DivergentInformation, DomainError
from .fisher import cfi_values
from .numerics import DEFAULT_TOL, Tolerance, integrate

__all__ = [
    "PriorKind",
    "SupportWindow",
    "Prior",
    "log_density",
    "prior_score",
    "prior_fisher",
    "jeffreys_normalizer",
    "window_mass",
    "truncated_density",
]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# A zero of sqrt(CFI) this close to the window (relative to the window's
# magnitude) is inside it to within the rounding of its closed form.
_ZERO_SLACK = 1e-14


class PriorKind(str, Enum):
    UNIFORM = "uniform"
    JEFFREYS = "jeffreys"
    GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class SupportWindow:
    """Frequency window [lower, upper] the estimate is known to lie in."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not 0.0 < self.lower < self.upper:
            raise DomainError(
                f"window requires 0 < lower < upper, got [{self.lower}, {self.upper}]"
            )

    @property
    def width(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True)
class Prior:
    kind: PriorKind
    window: SupportWindow
    mean: float | None = None
    sigma: float | None = None
    field: FieldConfig | None = None
    normalizer: float | None = None

    @classmethod
    def uniform(cls, window: SupportWindow) -> "Prior":
        return cls(kind=PriorKind.UNIFORM, window=window)

    @classmethod
    def jeffreys(
        cls, window: SupportWindow, field: FieldConfig, tol: Tolerance = DEFAULT_TOL
    ) -> "Prior":
        norm = jeffreys_normalizer(field, window, tol)
        return cls(kind=PriorKind.JEFFREYS, window=window, field=field, normalizer=norm)

    @classmethod
    def gaussian(cls, window: SupportWindow, mean: float, sigma: float) -> "Prior":
        if not sigma > 0:
            raise DomainError(f"sigma must be positive, got {sigma}")
        return cls(kind=PriorKind.GAUSSIAN, window=window, mean=mean, sigma=sigma)


def jeffreys_normalizer(
    field: FieldConfig, window: SupportWindow, tol: Tolerance = DEFAULT_TOL
) -> float:
    """Quadrature of sqrt(CFI) over the window, on the pieces between the
    stationary points of p, whose ends hold its kinks (the zeros of sqrt(CFI)).

    Isolated degenerate points (probability pinned at 1) contribute nothing
    and are zeroed out of the integrand. Raises DegenerateSupport when the
    integral is indistinguishable from zero at the requested tolerance.
    """

    def integrand(x: np.ndarray) -> np.ndarray:
        vals = cfi_values(field, x)
        return np.sqrt(np.nan_to_num(vals, nan=0.0))

    norm = integrate(integrand, *prob_pieces(field, window.lower, window.upper), tol)
    if norm <= tol.abs_tol:
        raise DegenerateSupport(
            "sqrt(CFI) integrates to zero on the window; Jeffreys prior undefined"
        )
    return norm


def log_density(prior: Prior, omega0):
    """Natural log of the prior density; -inf outside the window for the
    uniform and Jeffreys families. Elementwise."""
    x = np.asarray(omega0, dtype=float)
    w = prior.window
    if prior.kind is PriorKind.UNIFORM:
        inside = (x >= w.lower) & (x <= w.upper)
        vals = np.where(inside, -math.log(w.width), -np.inf)
    elif prior.kind is PriorKind.GAUSSIAN:
        z = (x - prior.mean) / prior.sigma
        vals = -0.5 * z * z - math.log(prior.sigma) - _LOG_SQRT_2PI
    else:
        inside = (x >= w.lower) & (x <= w.upper)
        f = cfi_values(prior.field, x)
        f = np.nan_to_num(f, nan=0.0)
        with np.errstate(divide="ignore"):
            vals = 0.5 * np.log(f) - math.log(prior.normalizer)
        vals = np.where(inside, vals, -np.inf)
    return vals


def prior_score(prior: Prior, omega0):
    """Derivative of the log prior density, d log pi / d omega0, elementwise.

    Uniform: 0. Gaussian: -(omega0 - mean)/sigma^2. Jeffreys: up to a
    constant the log-density is log|d| + log|sin h - h cos h| - 2 log q
    - 1/2 log(q^2 - 4 b^2 sin^2 h), with d the detuning, h = q/2 and
    b = b0 sin(theta); the chain rule runs through d' = -1, q' = -d/q and
    h' = q'/2. Infinite at the zeros of sqrt(CFI). The window is not checked.
    """
    x = np.asarray(omega0, dtype=float)
    if prior.kind is PriorKind.UNIFORM:
        return np.zeros_like(x)
    if prior.kind is PriorKind.GAUSSIAN:
        return -(x - prior.mean) / prior.sigma**2
    cfg = prior.field
    b = cfg.b0 * np.sin(cfg.theta)
    d = _detuning(cfg, x)
    q = q_factor(cfg, x)
    h = 0.5 * q
    s = np.sin(h)
    c = np.cos(h)
    dq = -d / q
    dh = 0.5 * dq
    resid = q * q - 4.0 * b * b * s * s
    with np.errstate(divide="ignore", invalid="ignore"):
        return (
            -1.0 / d
            + h * s * dh / (s - h * c)
            - 2.0 * dq / q
            - (q * dq - 4.0 * b * b * s * c * dh) / resid
        )


def prior_fisher(prior: Prior, tol: Tolerance = DEFAULT_TOL) -> float:
    """Fisher information of the prior itself.

    Uniform: identically zero. Gaussian: the untruncated closed form
    1/sigma^2. Jeffreys: quadrature of (dlog density)^2 * density over the
    window. The integral diverges logarithmically when sqrt(CFI) has a zero
    in the closed window; that is decided from the closed-form zeros before
    any quadrature, and raised as DivergentInformation.
    """
    if prior.kind is PriorKind.UNIFORM:
        return 0.0
    if prior.kind is PriorKind.GAUSSIAN:
        return 1.0 / prior.sigma**2

    w = prior.window
    slack = _ZERO_SLACK * max(1.0, abs(w.lower), abs(w.upper))
    points, zero = prob_stationary_points(prior.field, w.lower - slack, w.upper + slack)
    if zero.any():
        raise DivergentInformation(
            f"sqrt(CFI) vanishes at omega0={float(points[zero][0])!r} in the window "
            f"[{w.lower}, {w.upper}]; the Jeffreys prior information diverges"
        )

    def integrand(x: np.ndarray) -> np.ndarray:
        d = prior_score(prior, x)
        return d * d * np.exp(log_density(prior, x))

    return integrate(integrand, *prob_pieces(prior.field, w.lower, w.upper), tol)


def window_mass(prior: Prior) -> float:
    """Prior probability mass inside the window (1 except for the Gaussian)."""
    if prior.kind is not PriorKind.GAUSSIAN:
        return 1.0
    w = prior.window
    scale = prior.sigma * math.sqrt(2.0)
    return 0.5 * (
        math.erf((w.upper - prior.mean) / scale) - math.erf((w.lower - prior.mean) / scale)
    )


def truncated_density(prior: Prior, omega0):
    """Window-renormalized prior density, zero outside the window."""
    x = np.asarray(omega0, dtype=float)
    w = prior.window
    inside = (x >= w.lower) & (x <= w.upper)
    return np.where(inside, np.exp(log_density(prior, x)) / window_mass(prior), 0.0)
