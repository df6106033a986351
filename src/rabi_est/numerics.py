"""Self-contained numerical kernel: quadrature, root finding, inverse sinc
and local-maxima search.

All routines are pure functions of their arguments and safe for concurrent
use. Integrands passed to :func:`integrate`, and functions passed to
:func:`local_maxima`, must accept a 1-D numpy array and evaluate elementwise
(any expression built from numpy ufuncs qualifies); an integrand may stack
several such components into one (C, m) array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, NonConvergence, NoSignChange

__all__ = [
    "Tolerance",
    "Bracket",
    "LocalMaximum",
    "DEFAULT_TOL",
    "integrate",
    "find_root_bracketed",
    "inv_sinc_values",
    "local_maxima",
]

# Recursion depth cap for adaptive Simpson subdivision.
_MAX_DEPTH = 60
# Hard cap on simultaneously active subintervals (memory guard).
_MAX_INTERVALS = 2_000_000
# Most points per call of an integrand, which bounds its temporaries.
_CHUNK = 16_384


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative tolerance pair plus an iteration budget."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_iter: int = 200

    def __post_init__(self) -> None:
        if self.abs_tol < 0 or self.rel_tol < 0:
            raise DomainError("tolerances must be nonnegative")
        if self.abs_tol == 0 and self.rel_tol == 0:
            raise DomainError("at least one of abs_tol, rel_tol must be positive")
        if self.max_iter < 1:
            raise DomainError("max_iter must be >= 1")

    def target(self, scale: float) -> float:
        """Convergence target for a quantity of magnitude ``scale``."""
        return max(self.abs_tol, self.rel_tol * abs(scale))


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True)
class Bracket:
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise DomainError(f"bracket requires lo < hi, got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class LocalMaximum:
    """A refined local maximum; ``boundary`` marks an interval endpoint."""

    x: float
    boundary: bool = False


def integrate(f: Callable, lo, hi, tol: Tolerance = DEFAULT_TOL):
    """Adaptive Simpson quadrature of ``f`` summed over the intervals
    [lo, hi] (floats, or equal-length arrays of interval ends).

    ``f`` maps m points to m values (the result is a float) or to a (C, m)
    array of C components (the result has C integrals). All intervals are
    seeded with ten panels each in one call of ``f``, and each round of
    bisection evaluates all active panels together, at most _CHUNK points a
    call. A panel is bisected until, in every component, the local
    Richardson error estimate fits within the panel's share, by width over
    all intervals, of max(abs_tol, rel_tol*|component integral|). Raises
    NonConvergence at the depth cap or the subdivision budget, DomainError
    on non-finite seeds.
    """
    lo_a = np.atleast_1d(np.asarray(lo, dtype=float))
    hi_a = np.atleast_1d(np.asarray(hi, dtype=float))
    if lo_a.ndim != 1 or lo_a.shape != hi_a.shape or not np.all(lo_a < hi_a):
        raise DomainError(f"integration bounds require lo < hi, got [{lo}, {hi}]")

    n0 = 10
    edges = np.linspace(lo_a, hi_a, n0 + 1, axis=1)
    a = edges[:, :-1].ravel()
    b = edges[:, 1:].ravel()
    mid = 0.5 * (a + b)
    seed = np.asarray(f(np.concatenate([edges.ravel(), mid])))
    scalar = seed.ndim == 1
    seed = np.atleast_2d(seed)
    if not np.all(np.isfinite(seed)):
        raise DomainError("integrand is not finite on the integration interval")
    fe = seed[:, :edges.size].reshape(len(seed), lo_a.size, n0 + 1)
    fa = fe[:, :, :-1].reshape(len(seed), -1)
    fb = fe[:, :, 1:].reshape(len(seed), -1)
    fm = seed[:, edges.size:]
    simp = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    eps = np.array([[tol.target(s)] for s in np.sum(simp, axis=1)])
    span = float(np.sum(hi_a - lo_a))
    depth = np.zeros(len(a), dtype=int)
    total = np.zeros(len(seed))

    def halves(left, right):
        """The left and right halves of the panels kept for bisection."""
        return np.concatenate([left.take(kept, axis=-1), right.take(kept, axis=-1)], axis=-1)

    def evaluate(x):
        """f at x as a (C, m) array, in calls of at most _CHUNK points."""
        return np.concatenate([np.atleast_2d(f(x[i:i + _CHUNK]))
                               for i in range(0, x.size, _CHUNK)], axis=1)

    while len(a) > 0:
        ml = 0.5 * (a + mid)
        mr = 0.5 * (mid + b)
        quarters = evaluate(np.concatenate([ml, mr]))
        fml, fmr = quarters[:, :len(ml)], quarters[:, len(ml):]
        sl = (mid - a) / 6.0 * (fa + 4.0 * fml + fm)
        sr = (b - mid) / 6.0 * (fm + 4.0 * fmr + fb)
        err = sl + sr - simp
        allowance = 15.0 * eps * (b - a) / span
        done = np.all(np.abs(err) <= allowance, axis=0)
        total += np.sum(np.where(done, sl + sr + err / 15.0, 0.0), axis=1)

        keep = ~done
        if np.any(keep & (depth >= _MAX_DEPTH)):
            raise NonConvergence(
                f"adaptive Simpson did not converge within depth {_MAX_DEPTH}"
            )
        kept = np.flatnonzero(keep)
        if 2 * kept.size > _MAX_INTERVALS:
            raise NonConvergence("adaptive Simpson exceeded the subdivision budget")
        a, b, mid = halves(a, mid), halves(mid, b), halves(ml, mr)
        fa, fb, fm = halves(fa, fm), halves(fm, fb), halves(fml, fmr)
        simp = halves(sl, sr)
        depth = halves(depth, depth) + 1

    return float(total[0]) if scalar else total


def find_root_bracketed(f: Callable[[float], float], b: Bracket, tol: Tolerance = DEFAULT_TOL) -> float:
    """Root of ``f`` inside a sign-changing bracket.

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
    for _ in range(tol.max_iter):
        width = hi - lo
        if width <= tol.target(0.5 * (lo + hi)):
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
    raise NonConvergence(f"root finding exceeded {tol.max_iter} iterations")


def inv_sinc_values(y: np.ndarray) -> np.ndarray:
    """Inverse of sin(x)/x restricted to the branch [0, pi], elementwise.

    sinc decreases monotonically from 1 to 0 on this branch, so pure
    bisection applies; 64 halvings take the bracket below double-precision
    resolution. Raises DomainError if any y lies outside [0, 1].
    """
    y = np.asarray(y, dtype=float)
    if not np.all((y >= 0.0) & (y <= 1.0)):
        raise DomainError("inv_sinc_values requires every y in [0, 1]")
    lo = np.zeros_like(y)
    hi = np.full_like(y, math.pi)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        with np.errstate(invalid="ignore"):
            val = np.where(mid == 0.0, 1.0, np.sin(mid) / np.where(mid == 0.0, 1.0, mid))
        above = val > y
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    out = 0.5 * (lo + hi)
    out = np.where(y == 1.0, 0.0, out)
    out = np.where(y == 0.0, math.pi, out)
    return out


def _golden_max(f: Callable[[float], float], a: float, b: float, width_target: float) -> float:
    """Golden-section search for the maximum of a unimodal f on [a, b].

    Comparison-based search stalls at ~sqrt(machine eps) from the true
    maximum, so the result is polished with one guarded parabolic step.
    """
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

    # Newton polish on the derivative: a five-point gradient stencil keeps the
    # truncation bias at O(h^4), well below the comparison-noise floor that
    # limits the golden-section phase.
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


def local_maxima(
    f: Callable,
    lo: float,
    hi: float,
    grid_points: int,
    tol: Tolerance = DEFAULT_TOL,
) -> list[LocalMaximum]:
    """All local maxima of ``f`` on [lo, hi], located on a grid and refined.

    The grid is evaluated in one array call of ``f``; the refinement then
    calls it with single floats. Interior grid peaks are polished by
    golden-section search confined to one grid cell on each side (which
    prevents jumping between modes). Endpoints enter as boundary candidates
    when the function is maximal there. Results are sorted ascending.
    """
    if grid_points < 3:
        raise DomainError(f"grid_points must be >= 3, got {grid_points}")
    if not lo < hi:
        raise DomainError(f"search interval requires lo < hi, got [{lo}, {hi}]")
    xs = np.linspace(lo, hi, grid_points)
    ys = np.asarray(f(xs), dtype=float)
    cell = xs[1] - xs[0]
    mid, left, right = ys[1:-1], ys[:-2], ys[2:]
    peaks = (mid >= left) & (mid >= right) & ((mid > left) | (mid > right))

    found: list[LocalMaximum] = []
    if ys[0] > ys[1]:
        found.append(LocalMaximum(float(xs[0]), boundary=True))
    for i in np.flatnonzero(peaks) + 1:
        width_target = tol.target(max(abs(xs[i - 1]), abs(xs[i + 1])))
        x_ref = _golden_max(f, float(xs[i - 1]), float(xs[i + 1]), width_target)
        found.append(LocalMaximum(x_ref, boundary=False))
    if ys[-1] > ys[-2]:
        found.append(LocalMaximum(float(xs[-1]), boundary=True))

    # Plateau detection can report one peak twice from adjacent cells.
    found.sort(key=lambda m: m.x)
    merged: list[LocalMaximum] = []
    for m in found:
        if merged and abs(m.x - merged[-1].x) < 0.5 * cell:
            if f(m.x) > f(merged[-1].x):
                merged[-1] = m
        else:
            merged.append(m)
    return merged
