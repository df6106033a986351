"""Reference arithmetic for the benchmark's output checks.

Nothing here imports rabi_est: the detection model is restated from its
closed form, derivatives are taken analytically or by central differences,
integrals by composite Simpson on dense grids and the sinc inverse by plain
bisection. A check therefore never compares the program with itself.

Field parameters are ``(omega, b0, theta)`` in the program's dimensionless
units (gate time t = 1). Functions accept scalars or numpy arrays.
"""

from __future__ import annotations

import math

import numpy as np

DENSE = 200_001


def _parts(field, w0):
    omega, b0, theta = field
    b = b0 * np.sin(theta)
    d = omega - w0 - 2.0 * b0 * np.cos(theta)
    q = np.hypot(d, 2.0 * b)
    return b, d, q


def prob(field, w0):
    """Photon detection probability (2b/q)^2 sin^2(q/2)."""
    b, _, q = _parts(field, w0)
    return (2.0 * b / q) ** 2 * np.sin(0.5 * q) ** 2


def dprob(field, w0):
    """d prob / d omega0 by the chain rule through dq/domega0 = -d/q."""
    b, d, q = _parts(field, w0)
    s, c = np.sin(0.5 * q), np.cos(0.5 * q)
    dp_dq = -8.0 * b * b * s * s / q**3 + 4.0 * b * b * s * c / q**2
    return dp_dq * (-d / q)


def cfi(field, w0):
    """Single-detection Fisher information p'^2 / (p (1 - p))."""
    p = prob(field, w0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return dprob(field, w0) ** 2 / (p * (1.0 - p))


def _state(field, w0):
    omega, b0, theta = field
    b, d, q = _parts(field, w0)
    c0 = -2j * np.exp(-0.5j * omega) * (b / q) * np.sin(0.5 * q)
    c1 = np.exp(0.5j * omega) * (np.cos(0.5 * q) - 1j * (d / q) * np.sin(0.5 * q))
    return c0, c1


def qfi(field, w0, h=1e-5):
    """Pure-state quantum Fisher information 4(<dpsi|dpsi> - |<psi|dpsi>|^2),
    with the state derivative by central differences."""
    w0 = np.asarray(w0, dtype=float)
    c0, c1 = _state(field, w0)
    p0, p1 = _state(field, w0 + h)
    m0, m1 = _state(field, w0 - h)
    d0, d1 = (p0 - m0) / (2 * h), (p1 - m1) / (2 * h)
    norm = np.abs(d0) ** 2 + np.abs(d1) ** 2
    overlap = np.conj(c0) * d0 + np.conj(c1) * d1
    return 4.0 * (norm - np.abs(overlap) ** 2)


def inv_sinc(y, iters=200):
    """Inverse of sin(x)/x on [0, pi] by bisection; y in [0, 1]."""
    y = np.asarray(y, dtype=float)
    lo = np.zeros_like(y)
    hi = np.full_like(y, math.pi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        with np.errstate(invalid="ignore", divide="ignore"):
            val = np.where(mid > 0.0, np.sin(mid) / np.where(mid > 0.0, mid, 1.0), 1.0)
        above = val > y
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    return 0.5 * (lo + hi)


def ml_roots(field, xbar):
    """Both candidates of the closed-form ML inversion, NaN where the sinc
    inverse is undefined or the discriminant is not positive; also returns
    the discriminant and the sinc argument for borderline tests."""
    omega, b0, theta = field
    xbar = np.asarray(xbar, dtype=float)
    bsin = b0 * np.abs(np.sin(theta))
    ratio = np.sqrt(xbar) / bsin
    s = inv_sinc(np.minimum(ratio, 1.0))
    disc = np.where(ratio <= 1.0, s * s - bsin * bsin, np.nan)
    delta = 2.0 * np.sqrt(np.where(disc > 0.0, disc, np.nan))
    center = omega - 2.0 * b0 * np.cos(theta)
    return center + delta, center - delta, disc, ratio


def simpson(xs, ys):
    """Composite Simpson on a uniform grid with an odd number of points."""
    h = xs[1] - xs[0]
    return float(h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum()))


def log_prior(kind, x, mean=None, sigma=None):
    """Unnormalized log prior; normalization cancels in every use here."""
    if kind == "uniform":
        return np.zeros_like(x)
    return -0.5 * ((x - mean) / sigma) ** 2


def log_joint(field, n, k, x, prior):
    """Binomial log likelihood in omega0 (without the constant) plus log prior."""
    p = prob(field, x)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (k * np.log(p) if k > 0 else 0.0) + ((n - k) * np.log1p(-p) if n > k else 0.0)
    out = np.where(np.isnan(out), -np.inf, out)
    return out + log_prior(prior[0], x, *prior[1:])


def _mass_grid(field, n, k, lower, upper, prior):
    """Dense grid over the part of the window that carries posterior mass.

    A first grid over the whole window finds where the log posterior lies
    within 45 nats of its maximum; a second grid of the same density covers
    that span. Sized for posteriors no narrower than about 1e-3, which holds
    for n <= 1e6 in this model.
    """
    xs = np.linspace(lower, upper, DENSE)
    g = log_joint(field, n, k, xs, prior)
    idx = np.flatnonzero(g > np.max(g) - 45.0)
    lo = xs[max(idx[0] - 2, 0)]
    hi = xs[min(idx[-1] + 2, DENSE - 1)]
    xs = np.linspace(lo, hi, DENSE)
    return xs, log_joint(field, n, k, xs, prior)


def posterior_mean(field, n, k, lower, upper, prior):
    xs, g = _mass_grid(field, n, k, lower, upper, prior)
    w = np.exp(g - np.max(g))
    return simpson(xs, w * xs) / simpson(xs, w)


def posterior_max(field, n, k, lower, upper, prior):
    """Largest log posterior (unnormalized) on the dense mass grid."""
    _, g = _mass_grid(field, n, k, lower, upper, prior)
    return float(np.max(g))


def posterior_mode(field, n, k, lower, upper, prior):
    """Global maximizer of the log posterior: dense grid, then golden-section
    search inside the two grid cells around the best grid point."""
    xs, g = _mass_grid(field, n, k, lower, upper, prior)
    i = int(np.argmax(g))
    a, b = xs[max(i - 1, 0)], xs[min(i + 1, xs.size - 1)]
    f = lambda x: float(log_joint(field, n, k, np.asarray(x), prior))
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = b - invphi * (b - a), a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(200):
        if b - a < 1e-13 * max(1.0, abs(a)):
            break
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    return 0.5 * (a + b)


def posterior_width(field, n, w0):
    """Laplace width 1/sqrt(n CFI) of the posterior around omega0."""
    return 1.0 / math.sqrt(n * float(cfi(field, w0)))


def prior_average(values_fn, lower, upper, prior):
    """Average of values_fn over the window under the window-renormalized prior."""
    xs = np.linspace(lower, upper, DENSE)
    dens = np.exp(log_prior(prior[0], xs, *prior[1:]))
    return simpson(xs, np.nan_to_num(values_fn(xs)) * dens) / simpson(xs, dens)


def bayes_fisher_jeffreys(field, lower, upper, n):
    """Prior-averaged CFI, QFI and gap under the Jeffreys prior sqrt(CFI).

    Returns None when sqrt(CFI) has a zero inside the window, where the
    prior's own information diverges. sqrt(CFI) is proportional to
    |d (sin h - h cos h)| with h = q/2, so a zero shows as a sign change of
    that product. The prior information is the integral of
    (d/domega0 log sqrt(CFI))^2 over the normalized density, with the
    log-derivative from central differences of the closed-form CFI.
    """
    xs = np.linspace(lower, upper, DENSE)
    _, d, q = _parts(field, xs)
    h = 0.5 * q
    if np.any(np.diff(np.sign(d * (np.sin(h) - h * np.cos(h)))) != 0):
        return None
    f = cfi(field, xs)
    root = np.sqrt(f)
    z = simpson(xs, root)
    h = 1e-6
    dlog = 0.25 * (np.log(cfi(field, xs + h)) - np.log(cfi(field, xs - h))) / h
    info = simpson(xs, dlog * dlog * root) / z
    q = qfi(field, xs)
    mean_cfi = simpson(xs, f * root) / z
    mean_qfi = simpson(xs, q * root) / z
    return mean_cfi + info / n, mean_qfi + info / n, simpson(xs, (q - f) * root) / z
