"""Independent oracles for expected values.

Everything here is deliberately plain arithmetic: central differences,
dense-grid composite Simpson, exhaustive enumeration, bisection, dense
sign-change scans, scipy's QUADPACK piece by piece and mpmath quadrature at
20 to 40 digits. The only
package code the oracles touch is the closed-form dynamics layer
(probabilities and their derivative); the Schrodinger amplitudes, information
measures, likelihoods, priors, posteriors and estimators are all recomputed
from first principles so they independently check the main evaluators.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import mpmath
import numpy as np
from scipy.integrate import quad

from rabi_est.dynamics import FieldConfig, _detuning, dprob_domega0, prob_detect, q_factor
from rabi_est.errors import DegenerateData, DomainError, NonConvergence
from rabi_est.frequentist import Dataset
from rabi_est.priors import Prior, prior_score


def fd(f, x: float, h: float = 1e-6) -> float:
    """Plain central difference."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


def central_diff(f, x: float, h: float) -> float:
    """Second-order central difference (f(x+h) - f(x-h)) / (2h)."""
    if h <= 0.0:
        raise DomainError(f"step h must be positive, got {h}")
    return (f(x + h) - f(x - h)) / (2.0 * h)


def amplitudes(cfg: FieldConfig, omega0, t: float = 1.0):
    """Probability amplitudes (c0, c1) at time t of the start-in-excited-state
    problem, the closed-form solution of the Schrodinger equation."""
    d = _detuning(cfg, omega0)
    q = q_factor(cfg, omega0)
    half = 0.5 * q * t
    c0 = -2.0j * np.exp(-0.5j * cfg.omega * t) * (cfg.b0 * np.sin(cfg.theta) / q) * np.sin(half)
    c1 = np.exp(0.5j * cfg.omega * t) * (np.cos(half) - 1.0j * (d / q) * np.sin(half))
    return c0, c1


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


def clenshaw_curtis(n: int):
    """Nodes (1 - cos(j pi/n))/2, j = 0..n, and weights of the (n+1)-point
    Clenshaw-Curtis rule on [0, 1], for even n (Waldvogel, BIT 46, 2006)."""
    j = np.arange(n + 1)
    k = np.arange(1, n // 2 + 1)
    b = np.where(k == n // 2, 1.0, 2.0) / (4.0 * k * k - 1.0)
    w = (1.0 - b @ np.cos(2.0 * np.pi * np.outer(k, j) / n)) / n
    w[1:-1] *= 2.0
    return 0.5 * (1.0 - np.cos(np.pi * j / n)), 0.5 * w


class NoSignChange(DomainError):
    """Bracketed root finding was given endpoints of equal sign."""


@dataclass(frozen=True)
class Bracket:
    """A root bracket [lo, hi] for :func:`find_root_bracketed`."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise DomainError(f"bracket requires lo < hi, got [{self.lo}, {self.hi}]")


def find_root_bracketed(f: Callable[[float], float], b: Bracket, iters: int = 200) -> float:
    """Root of ``f`` inside a sign-changing bracket, to a width of 1e-10,
    absolute and relative.

    Secant steps accelerate convergence; whenever a step fails to halve the
    bracket the next step falls back to bisection, which guarantees
    convergence for any continuous integrand.
    """
    lo, hi = float(b.lo), float(b.hi)
    flo, fhi = float(f(lo)), float(f(hi))
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise NoSignChange(f"f({lo})={flo} and f({hi})={fhi} have the same sign")

    force_bisect = False
    for _ in range(iters):
        width = hi - lo
        if width <= max(1e-10, 1e-10 * abs(0.5 * (lo + hi))):
            return lo if abs(flo) <= abs(fhi) else hi
        x = None
        if not force_bisect and fhi != flo:
            x = hi - fhi * (hi - lo) / (fhi - flo)
            if not (lo < x < hi) or not math.isfinite(x):
                x = None
        if x is None:
            x = 0.5 * (lo + hi)
        fx = float(f(x))
        if fx == 0.0:
            return x
        if flo * fx < 0.0:
            hi, fhi = x, fx
        else:
            lo, flo = x, fx
        force_bisect = (hi - lo) > 0.5 * width
    raise NonConvergence(f"root finding exceeded {iters} iterations")


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


def golden_max(f, a: float, b: float, width_target: float) -> float:
    """Scalar golden-section search for the maximum of a unimodal f on
    [a, b], one point at a time, then at most three guarded Newton steps on
    a five-point gradient stencil: the per-peak reference for
    ``numerics.local_maxima``."""
    lo, hi = a, b
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    while (b - a) > max(width_target, 1e-9 * max(abs(a), abs(b), 1.0)):
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    x = 0.5 * (a + b)
    h = 1e-4 * max(1.0, abs(x))
    for _ in range(3):
        if not (lo + 2.0 * h < x < hi - 2.0 * h):
            break
        grad = (f(x - 2.0 * h) - 8.0 * f(x - h) + 8.0 * f(x + h) - f(x + 2.0 * h)) / (12.0 * h)
        curv = (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)
        if not (curv < 0.0 and math.isfinite(grad)):
            break
        step = -grad / curv
        if abs(step) > (hi - lo):
            break
        x_new = min(max(x + step, lo), hi)
        if abs(x_new - x) < 1e-14 * max(1.0, abs(x)):
            x = x_new
            break
        x = x_new
    return x


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


def fisher_mp(cfg: FieldConfig, omega0: float, dps: int = 50):
    """(CFI, QFI) of one detection at omega0, mpmath numbers to ``dps``
    digits, from the amplitudes alone: c0 = -2i e^(-i omega/2) (b/q) sin(q/2)
    and c1 = e^(i omega/2) (cos(q/2) - i (d/q) sin(q/2)), with b = b0
    sin(theta), d the detuning and q = hypot(d, 2b), differentiated by
    mpmath.diff at that precision. CFI = p'^2 / (p (1 - p)) with p = |c0|^2
    and 1 - p = |c1|^2;
    QFI = 4 (<dpsi|dpsi> - |<psi|dpsi>|^2), the pure-state form of
    Braunstein & Caves, PRL 72, 3439 (1994). Without closed-form
    derivatives no term cancels, so the values stay exact to the working
    precision at resonance and as rho00 -> 1.
    """
    with mpmath.workdps(dps):
        omega, b0, theta = (mpmath.mpf(v) for v in (cfg.omega, cfg.b0, cfg.theta))
        b = b0 * mpmath.sin(theta)

        def psi(x):
            d = omega - x - 2 * b0 * mpmath.cos(theta)
            q = mpmath.sqrt(d * d + 4 * b * b)
            return (-2j * mpmath.expj(-omega / 2) * (b / q) * mpmath.sin(q / 2),
                    mpmath.expj(omega / 2) * (mpmath.cos(q / 2) - 1j * (d / q) * mpmath.sin(q / 2)))

        x = mpmath.mpf(omega0)
        c0, c1 = psi(x)
        d0, d1 = (mpmath.diff(lambda y, i=i: psi(y)[i], x) for i in (0, 1))
        # 1 - p is |c1|^2 for the normalized state, free of cancellation.
        dp = 2 * mpmath.re(mpmath.conj(c0) * d0)
        overlap = mpmath.conj(c0) * d0 + mpmath.conj(c1) * d1
        return dp * dp / (abs(c0) ** 2 * abs(c1) ** 2), 4 * (abs(d0) ** 2 + abs(d1) ** 2 - abs(overlap) ** 2)


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


def jeffreys_density_shape(cfg: FieldConfig, x: np.ndarray) -> np.ndarray:
    """Unnormalized Jeffreys density from the beta-function form:
    {p (1 - p)}^(-1/2) |dp/domega0|, with the analytic slope
    dp/domega0 = 8 b^2 d sin(q/2) (sin(q/2) - (q/2) cos(q/2)) / q^4 (d the
    detuning, b = b0 sin(theta), q = hypot(d, 2b)). A central difference
    would leave the log density noisy at ~1e-5 near the zeros of sqrt(CFI),
    where p(x + h) - p(x - h) cancels."""
    x = np.asarray(x, dtype=float)
    b = cfg.b0 * math.sin(cfg.theta)
    d = cfg.omega - 2.0 * cfg.b0 * math.cos(cfg.theta) - x
    q = np.hypot(d, 2.0 * b)
    s = np.sin(q / 2.0)
    dp = 8.0 * b * b * d * s * (s - q / 2.0 * np.cos(q / 2.0)) / q**4
    p = np.asarray(prob_detect(cfg, x), dtype=float)
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


def quad_pieces(f, points) -> float:
    """The integral of the scalar function f over [points[0], points[-1]],
    by scipy's adaptive Gauss-Kronrod quad on each piece between consecutive
    points at 1e-13 relative, summed."""
    return sum(quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
               for a, b in zip(points[:-1], points[1:]))


def _prob_mp(cfg: FieldConfig):
    """The detection probability (2b/q)^2 sin^2(q/2) and its derivative
    8 b^2 d sin(q/2) (sin(q/2) - (q/2) cos(q/2)) / q^4 in omega0, as mpmath
    functions; d is the detuning, b = b0 sin(theta), q = hypot(d, 2b) and
    dq/domega0 = -d/q."""
    b = cfg.b0 * mpmath.sin(cfg.theta)
    center = cfg.omega - 2 * cfg.b0 * mpmath.cos(cfg.theta)

    def p(x):
        q = mpmath.sqrt((center - x) ** 2 + 4 * b * b)
        return (2 * b / q) ** 2 * mpmath.sin(q / 2) ** 2

    def dp(x):
        d = center - x
        q = mpmath.sqrt(d * d + 4 * b * b)
        s = mpmath.sin(q / 2)
        return 8 * b * b * d * s * (s - q / 2 * mpmath.cos(q / 2)) / q**4

    return p, dp


def posterior_mean_mp(cfg: FieldConfig, n: float, k: float, points, jeffreys: bool = False,
                      dps: int = 40, maxdegree: int = 10):
    """Posterior mean, an mpmath number, under a uniform prior or with
    ``jeffreys`` the Jeffreys prior |p'| / sqrt(p (1 - p)).

    Gauss-Legendre quadrature at ``dps`` digits of the likelihood
    p^k (1 - p)^(n - k) times the prior, and of omega0 times that, piece by
    piece between the sorted ``points``. The pieces should carry the cusps
    and kinks of the integrand at their ends.
    """
    with mpmath.workdps(dps):
        p, dp = _prob_mp(cfg)
        n, k = mpmath.mpf(n), mpmath.mpf(k)
        weights = {}

        def weight(x):
            if x not in weights:
                px = p(x)
                w = px**k * (1 - px) ** (n - k)
                weights[x] = w * abs(dp(x)) / mpmath.sqrt(px * (1 - px)) if jeffreys else w
            return weights[x]

        pts = [mpmath.mpf(float(x)) for x in points]
        z = mpmath.quad(weight, pts, method="gauss-legendre", maxdegree=maxdegree)
        first = mpmath.quad(lambda x: x * weight(x), pts, method="gauss-legendre",
                            maxdegree=maxdegree)
        return first / z


def gaussian_map_mp(cfg: FieldConfig, n: float, k: float, lower: float, upper: float,
                    mean: float, sigma: float, grid: int = 351, dps: int = 40):
    """MAP estimate, an mpmath number, under a Gaussian(mean, sigma) prior
    on [lower, upper]: the highest of the window ends and the zeros of the
    log joint's analytic derivative k p'/p - (n - k) p'/(1 - p) - (x - mean)/sigma^2,
    each solved in a cell of a ``grid``-point grid where the derivative
    changes sign."""
    with mpmath.workdps(dps):
        p, dp = _prob_mp(cfg)
        n, k = mpmath.mpf(n), mpmath.mpf(k)

        def log_joint(x):
            return k * mpmath.log(p(x)) + (n - k) * mpmath.log(1 - p(x)) - (x - mean) ** 2 / (2 * sigma**2)

        def slope(x):
            return k * dp(x) / p(x) - (n - k) * dp(x) / (1 - p(x)) - (x - mean) / sigma**2

        xs = mpmath.linspace(mpmath.mpf(lower), mpmath.mpf(upper), grid)
        ds = [slope(x) for x in xs]
        found = [mpmath.mpf(lower), mpmath.mpf(upper)] + [
            mpmath.findroot(slope, (a, b), solver="anderson")
            for a, b, da, db in zip(xs[:-1], xs[1:], ds[:-1], ds[1:]) if da * db < 0]
        return max(found, key=log_joint)


def mean_cfi_mp(cfg: FieldConfig, points, dps: int = 40, maxdegree: int = 10):
    """The CFI p'^2 / (p (1 - p)) averaged over a uniform prior on
    [points[0], points[-1]], an mpmath number: Gauss-Legendre quadrature at
    ``dps`` digits, piece by piece between the sorted ``points``."""
    with mpmath.workdps(dps):
        p, dp = _prob_mp(cfg)

        def cfi(x):
            px = p(x)
            return dp(x) ** 2 / (px * (1 - px))

        pts = [mpmath.mpf(float(x)) for x in points]
        return mpmath.quad(cfi, pts, method="gauss-legendre", maxdegree=maxdegree) / (pts[-1] - pts[0])


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


# --- Former package helpers -------------------------------------------------
# Nothing in rabi_est calls these any more. Their tests keep them honest, and
# several of those tests use them to cross-check the package's kernels (the
# SLD against qfi_values, the curvature against the ML roots).


@dataclass(frozen=True)
class DensityState:
    """Independent entries of the pure-state density matrix."""

    rho00: float
    rho01: complex

    def __post_init__(self) -> None:
        if not -1e-12 <= self.rho00 <= 1.0 + 1e-12:
            raise DomainError(f"rho00 must be a probability, got {self.rho00}")
        if abs(self.rho01) ** 2 > self.rho00 * (1.0 - self.rho00) + 1e-12:
            raise DomainError("coherence exceeds the pure-state bound")


def density_state(cfg: FieldConfig, omega0: float, t: float = 1.0) -> DensityState:
    """Density-matrix entries rho00 = |c0|^2 and rho01 = c0 * conj(c1)."""
    c0, c1 = amplitudes(cfg, omega0, t)
    return DensityState(rho00=float(abs(c0) ** 2), rho01=complex(c0 * np.conj(c1)))


def ddensity_domega0(cfg: FieldConfig, omega0, t: float = 1.0):
    """Analytic derivatives (drho00, drho01) with respect to omega0.

    rho00 = 4 b^2 sin^2(qt/2)/q^2 and dq/domega0 = -d/q give
    8 b^2 d sin(qt/2) [sin(qt/2) - (qt/2) cos(qt/2)] / q^4. The coherence
    derivative follows from rho01 written as
    b e^{-i omega t} [d (1 - cos qt)/q^2 - i sin(qt)/q]. Accepts arrays.
    """
    b = cfg.b0 * np.sin(cfg.theta)
    d = _detuning(cfg, omega0)
    q = q_factor(cfg, omega0)
    half = 0.5 * q * t
    s = np.sin(half)
    drho00 = 8.0 * b * b * d * s * (s - half * np.cos(half)) / q**4
    qt = q * t
    cos_qt = np.cos(qt)
    sin_qt = np.sin(qt)
    dre = -((q * q - 2.0 * d * d) * (1.0 - cos_qt) + d * d * qt * sin_qt) / q**4
    dim = d * (qt * cos_qt - sin_qt) / q**3
    drho01 = b * np.exp(-1.0j * cfg.omega * t) * (dre + 1.0j * dim)
    return drho00, drho01


def sld_matrix(cfg: FieldConfig, omega0: float) -> np.ndarray:
    """Symmetric logarithmic derivative L = 2 * d(rho)/d(omega0).

    For a pure state the SLD is twice the density-matrix derivative; L^2 is a
    scalar multiple of the identity and trace(L^2 rho) recovers the QFI.
    """
    drho00, drho01 = ddensity_domega0(cfg, omega0)
    return 2.0 * np.array(
        [[drho00, drho01], [np.conj(drho01), -drho00]], dtype=complex
    )


def required_samples(cfi_scaled: float, accuracy: float) -> float:
    """Number of IID detections for a target variance: N = 1/(accuracy * CFI).

    Not rounded; callers may take the ceiling.
    """
    if not cfi_scaled > 0:
        raise DomainError(f"cfi_scaled must be positive, got {cfi_scaled}")
    if not accuracy > 0:
        raise DomainError(f"accuracy must be positive, got {accuracy}")
    return 1.0 / (accuracy * cfi_scaled)


def log_likelihood(data: Dataset, cfg: FieldConfig, omega0) -> np.ndarray:
    """Binomial log-likelihood k ln p + (n - k) ln(1 - p) + ln C(n, k) of the
    dataset at a candidate transition frequency, with the binomial
    coefficient from log-gamma. A term whose count is zero is left out, so a
    probability pinned at 0 or 1 gives -inf only where it conflicts with the
    counts. Elementwise in omega0."""
    n, k = data.n, data.k
    p = np.asarray(prob_detect(cfg, omega0), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        hits = np.where(k == 0, 0.0, k * np.log(p))
        misses = np.where(k == n, 0.0, (n - k) * np.log1p(-p))
    return math.lgamma(n + 1.0) - math.lgamma(k + 1.0) - math.lgamma(n - k + 1.0) + hits + misses


def loglik_curvature(data: Dataset, cfg: FieldConfig, omega0: float) -> float:
    """Second derivative of the log-likelihood at a stationary point,

        -n / (p (1-p)) * (dp/domega0)^2,

    the closed form of the ML second-derivative test. Negative whenever the
    probability derivative is nonzero, confirming a maximum.
    """
    p = float(prob_detect(cfg, omega0))
    if p <= 0.0 or p >= 1.0:
        raise DegenerateData(f"probability {p} pinned at 0 or 1; curvature undefined")
    dp = float(dprob_domega0(cfg, omega0))
    return -data.n / (p * (1.0 - p)) * dp * dp


def dlog_density(prior: Prior, omega0: float) -> float:
    """Derivative of the log prior density, strictly inside the window.

    Raises DomainError at a zero of the Jeffreys density, where the
    log-density has a pole.
    """
    w = prior.window
    if not w.lower < omega0 < w.upper:
        raise DomainError(
            f"omega0={omega0} is not strictly inside the window [{w.lower}, {w.upper}]"
        )
    value = float(prior_score(prior, omega0))
    if not math.isfinite(value):
        raise DomainError(f"the Jeffreys density vanishes at omega0={omega0}")
    return value
