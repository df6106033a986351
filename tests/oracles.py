"""Independent oracles for expected values.

Everything here is deliberately plain arithmetic: central differences,
dense-grid composite Simpson, exhaustive enumeration, bisection, dense
sign-change scans and mpmath quadrature at 30 digits. The only
package code the oracles touch is the closed-form dynamics layer
(probabilities and amplitudes); information measures, priors, posteriors and
estimators are all recomputed from first principles so they independently
check the main evaluators.
"""

from __future__ import annotations

import itertools
import math

import mpmath
import numpy as np

from rabi_est.dynamics import FieldConfig, amplitudes, prob_detect
from rabi_est.errors import DomainError


def fd(f, x: float, h: float = 1e-6) -> float:
    """Plain central difference."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


def central_diff(f, x: float, h: float) -> float:
    """Second-order central difference (f(x+h) - f(x-h)) / (2h)."""
    if h <= 0.0:
        raise DomainError(f"step h must be positive, got {h}")
    return (f(x + h) - f(x - h)) / (2.0 * h)


def ode_residual(cfg: FieldConfig, omega0: float, t: float) -> tuple[complex, complex]:
    """Residuals of the two coupled amplitude ODEs at time t.

    Time derivatives of the closed-form amplitudes are taken by central
    differences (h = 1e-6); a correct solution leaves both residuals below
    about 1e-6.
    """
    if t < 0:
        raise DomainError(f"time must be nonnegative, got {t}")
    a = 0.5 * omega0 + cfg.b0 * np.cos(cfg.theta)
    b = cfg.b0 * np.sin(cfg.theta)
    h = 1e-6

    def c0_at(s: float) -> complex:
        return complex(amplitudes(cfg, omega0, s)[0])

    def c1_at(s: float) -> complex:
        return complex(amplitudes(cfg, omega0, s)[1])

    dc0 = central_diff(c0_at, t, h)
    dc1 = central_diff(c1_at, t, h)
    c0, c1 = amplitudes(cfg, omega0, t)
    r0 = dc0 - (-1.0j * a * c0 - 1.0j * b * np.exp(-1.0j * cfg.omega * t) * c1)
    r1 = dc1 - (1.0j * a * c1 - 1.0j * b * np.exp(1.0j * cfg.omega * t) * c0)
    return complex(r0), complex(r1)


def fd2(f, x: float, h: float = 1e-4) -> float:
    """Plain central second difference."""
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def simpson_dense(f, lo: float, hi: float, n: int = 200_001) -> float:
    """Composite Simpson on a dense uniform grid (n must be odd)."""
    if n % 2 == 0:
        n += 1
    xs = np.linspace(lo, hi, n)
    ys = np.asarray(f(xs), dtype=float)
    h = (hi - lo) / (n - 1)
    return float(h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum()))


def bisect(f, lo: float, hi: float, iters: int = 200) -> float:
    """Plain bisection for a sign-changing bracket."""
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if flo * fmid <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def cfi_oracle(cfg: FieldConfig, omega0, h: float = 1e-6):
    """Definitional single-detection Fisher information with an FD derivative.

    Scalar or array omega0.
    """
    x = np.asarray(omega0, dtype=float)
    p = np.asarray(prob_detect(cfg, x), dtype=float)
    dp = (np.asarray(prob_detect(cfg, x + h)) - np.asarray(prob_detect(cfg, x - h))) / (2 * h)
    out = dp * dp / (p * (1.0 - p))
    return float(out) if np.ndim(omega0) == 0 else out


def qfi_oracle(cfg: FieldConfig, omega0, h: float = 1e-6):
    """Pure-state quantum Fisher information from FD density-matrix derivatives.

    Scalar or array omega0.
    """
    x = np.asarray(omega0, dtype=float)

    def rho(y):
        c0, c1 = amplitudes(cfg, y)
        return np.abs(c0) ** 2, c0 * np.conj(c1)

    p_plus, c_plus = rho(x + h)
    p_minus, c_minus = rho(x - h)
    d00 = (p_plus - p_minus) / (2.0 * h)
    d01 = (c_plus - c_minus) / (2.0 * h)
    out = 4.0 * (d00 * d00 + np.abs(d01) ** 2)
    return float(out) if np.ndim(omega0) == 0 else out


def enumerate_counts(n: int, p1: float) -> dict:
    """Exhaustive statistics over all 2^n binary outcomes at fixed p1.

    Returns the mean and variance of the count rate and the expectation of
    the score with respect to p1 (which the regularity condition sends to 0).
    """
    mean = 0.0
    second = 0.0
    score = 0.0
    for outcome in itertools.product((0, 1), repeat=n):
        k = sum(outcome)
        prob = p1**k * (1.0 - p1) ** (n - k)
        xbar = k / n
        mean += prob * xbar
        second += prob * xbar * xbar
        score += prob * (k / p1 - (n - k) / (1.0 - p1))
    return {"mean": mean, "variance": second - mean * mean, "score": score}


def uniform_density(lower: float, upper: float, x: np.ndarray) -> np.ndarray:
    inside = (x >= lower) & (x <= upper)
    return np.where(inside, 1.0 / (upper - lower), 0.0)


def gaussian_density(mean: float, sigma: float, x: np.ndarray) -> np.ndarray:
    z = (x - mean) / sigma
    return np.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi))


def jeffreys_density_shape(cfg: FieldConfig, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Unnormalized Jeffreys density from the beta-function form:
    {p (1 - p)}^(-1/2) |dp/domega0| with an FD slope."""
    p = np.asarray(prob_detect(cfg, x), dtype=float)
    dp = (np.asarray(prob_detect(cfg, x + h)) - np.asarray(prob_detect(cfg, x - h))) / (2 * h)
    with np.errstate(divide="ignore", invalid="ignore"):
        shape = np.abs(dp) / np.sqrt(p * (1.0 - p))
    return np.nan_to_num(shape, nan=0.0, posinf=0.0)


def sqrt_cfi_sign_change(cfg: FieldConfig, lower: float, upper: float,
                         grid: int = 200_001) -> bool:
    """Whether d (sin h - h cos h), the sign-carrying factor of sqrt(CFI),
    vanishes or changes sign on a dense grid over [lower, upper]; d is the
    detuning omega - omega0 - 2 b0 cos(theta) and h = hypot(d/2, b0 sin(theta))."""
    xs = np.linspace(lower, upper, grid)
    d = cfg.omega - xs - 2.0 * cfg.b0 * math.cos(cfg.theta)
    h = np.hypot(0.5 * d, cfg.b0 * math.sin(cfg.theta))
    f = d * (np.sin(h) - h * np.cos(h))
    return bool(np.any(f == 0.0) or np.any(np.sign(f[1:]) != np.sign(f[:-1])))


def jeffreys_prior_fisher_mp(cfg: FieldConfig, lower: float, upper: float,
                             dps: int = 30) -> float:
    """Fisher information of the Jeffreys prior at ``dps`` digits.

    The density is |p'| / sqrt(p (1 - p)), so its log-derivative is
    p''/p' - (1 - 2p) p' / (2 p (1 - p)); mpmath differentiates the detection
    probability numerically and integrates with tanh-sinh quadrature.
    """
    with mpmath.workdps(dps):
        b = cfg.b0 * mpmath.sin(cfg.theta)
        center = cfg.omega - 2 * cfg.b0 * mpmath.cos(cfg.theta)

        def p(x):
            q = mpmath.sqrt((center - x) ** 2 + 4 * b * b)
            return (2 * b / q) ** 2 * mpmath.sin(q / 2) ** 2

        def amplitude(x):
            px = p(x)
            return abs(mpmath.diff(p, x)) / mpmath.sqrt(px * (1 - px))

        def weighted_score(x):
            px = p(x)
            d1 = mpmath.diff(p, x, 1)
            d2 = mpmath.diff(p, x, 2)
            dlog = d2 / d1 - (1 - 2 * px) * d1 / (2 * px * (1 - px))
            return dlog**2 * abs(d1) / mpmath.sqrt(px * (1 - px))

        lo, hi = mpmath.mpf(lower), mpmath.mpf(upper)
        return float(mpmath.quad(weighted_score, [lo, hi]) / mpmath.quad(amplitude, [lo, hi]))


def posterior_mean_dense(
    cfg: FieldConfig,
    prior_density,
    n: float,
    k: float,
    lower: float,
    upper: float,
    grid: int = 200_001,
) -> float:
    """Posterior mean on a dense grid with log-space stabilization.

    ``prior_density`` maps a frequency array to (possibly unnormalized)
    density values; normalization cancels in the ratio.
    """
    xs = np.linspace(lower, upper, grid if grid % 2 == 1 else grid + 1)
    p = np.asarray(prob_detect(cfg, xs), dtype=float)
    dens = np.asarray(prior_density(xs), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        loglik = np.where(k == 0.0, 0.0, k * np.log(p)) + np.where(
            k == n, 0.0, (n - k) * np.log1p(-p)
        )
        logw = loglik + np.log(dens)
    logw = np.where(np.isnan(logw), -np.inf, logw)
    shift = np.max(logw)
    w = np.exp(logw - shift)
    h = xs[1] - xs[0]
    simpson = np.ones_like(xs)
    simpson[1:-1:2] = 4.0
    simpson[2:-1:2] = 2.0
    num = float(np.sum(simpson * w * xs) * h / 3.0)
    den = float(np.sum(simpson * w) * h / 3.0)
    return num / den


def log_joint_dense(cfg: FieldConfig, prior_density, n: float, k: float,
                    x: np.ndarray) -> np.ndarray:
    """Log likelihood, measured from its maximum at p = k/n, plus the log of
    ``prior_density``, elementwise. The ratios p/xbar and (1-p)/(1-xbar)
    keep each term small near the maximum, where the plain k ln p rounds to
    ~1e-6 at n = 1e10."""
    p = np.asarray(prob_detect(cfg, x), dtype=float)
    xbar = k / n
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (np.where(k == 0.0, 0.0, k * np.log(p / xbar))
               + np.where(k == n, 0.0, (n - k) * np.log((1.0 - p) / (1.0 - xbar)))
               + np.log(prior_density(x)))
    return np.where(np.isnan(out), -np.inf, out)


def map_lhs_oracle(cfg: FieldConfig, prior_kind: str, n: int, x: np.ndarray,
                   mean: float = None, sigma: float = None, h: float = 1e-6) -> np.ndarray:
    """MAP stationarity left side with all derivatives by finite differences."""
    p = np.asarray(prob_detect(cfg, x), dtype=float)
    dp = (np.asarray(prob_detect(cfg, x + h)) - np.asarray(prob_detect(cfg, x - h))) / (2 * h)
    with np.errstate(divide="ignore", invalid="ignore"):
        if prior_kind == "gaussian":
            return (x - mean) / (n * sigma**2) * p * (1.0 - p) / dp + p
        if prior_kind == "jeffreys":
            # Nested differentiation is noise-limited at 2-point stencils, so
            # both layers use 5-point stencils with a wide step instead.
            h5 = 1e-4

            def slope(y):
                vals = [np.asarray(prob_detect(cfg, y + j * h5)) for j in (-2, -1, 1, 2)]
                return (vals[0] - 8.0 * vals[1] + 8.0 * vals[2] - vals[3]) / (12.0 * h5)

            logs = [np.log(np.abs(slope(x + j * h5))) for j in (-2, -1, 1, 2)]
            dlog_slope = (logs[0] - 8.0 * logs[1] + 8.0 * logs[2] - logs[3]) / (12.0 * h5)
            return -(p * (1.0 - p) / dp) * dlog_slope / n + (1.0 - 2.0 * p) / (2.0 * n) + p
    return p
