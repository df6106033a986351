"""Self-contained numerical kernel: quadrature, root finding, inverse sinc
and local-maxima search.

All routines are pure functions of their arguments and safe for concurrent
use. :func:`integrate` and :func:`local_maxima` call their functions only
with 1-D numpy arrays, a batch of points at a time, which they evaluate
elementwise (numpy ufunc expressions qualify); an integrand may stack
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

    sinc decreases monotonically from 1 to 0 on this branch. Newton steps
    start from the series root sqrt(6(1 - y)), capped by pi/(1 + y) near
    y = 0; a step that leaves the bracket of the iterates so far falls back
    to bisection, so every iterate stays inside [0, pi]. Six steps reach
    rounding. The endpoints are exact (1 -> 0, 0 -> pi). Raises DomainError
    if any y lies outside [0, 1].
    """
    y = np.asarray(y, dtype=float)
    if not np.all((y >= 0.0) & (y <= 1.0)):
        raise DomainError("inv_sinc_values requires every y in [0, 1]")
    x = np.minimum(np.sqrt(6.0 * (1.0 - y)), math.pi / (1.0 + y))
    lo, hi = np.zeros_like(y), np.full_like(y, math.pi)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(6):
            sin = np.sin(x)
            gap = sin / x - y
            lo, hi = np.where(gap > 0.0, x, lo), np.where(gap < 0.0, x, hi)
            # The two terms of the slope cancel near 0: take its series there.
            slope = np.where(x < 1e-2, x * (x * x / 30.0 - 1.0 / 3.0),
                             (x * np.cos(x) - sin) / (x * x))
            step = x - gap / slope
            x = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
    return np.where(y == 1.0, 0.0, np.where(y == 0.0, math.pi, x))


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _refine(f: Callable, a: np.ndarray, b: np.ndarray, tol: Tolerance) -> np.ndarray:
    """The maxima of f on the brackets [a, b], f unimodal on each.

    Golden-section search advances all brackets in lockstep, each step one
    call of f on the new points of the brackets still open. Comparison stalls
    at ~sqrt(machine eps) from the maximum, so guarded Newton steps follow,
    whose five-point gradient stencil keeps the truncation bias at O(h^4).
    Per bracket, the arithmetic is that of a one-bracket search.
    """
    lo, hi = a.copy(), b.copy()
    target = np.maximum(tol.abs_tol, tol.rel_tol * np.maximum(np.abs(a), np.abs(b)))

    def still_open(k):
        scale = np.maximum(np.maximum(np.abs(a[k]), np.abs(b[k])), 1.0)
        return k[(b[k] - a[k]) > np.maximum(target[k], 1e-9 * scale)]

    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = np.split(np.asarray(f(np.concatenate([x1, x2])), dtype=float), 2)
    k = still_open(np.arange(a.size))
    while k.size:
        keep_left = f1[k] >= f2[k]
        left, right = k[keep_left], k[~keep_left]
        b[left], x2[left], f2[left] = x2[left], x1[left], f1[left]
        x1[left] = b[left] - _INVPHI * (b[left] - a[left])
        a[right], x1[right], f1[right] = x1[right], x2[right], f2[right]
        x2[right] = a[right] + _INVPHI * (b[right] - a[right])
        f1[left], f2[right] = np.split(
            np.asarray(f(np.concatenate([x1[left], x2[right]])), dtype=float), [left.size])
        k = still_open(k)

    x = 0.5 * (a + b)
    h = 1e-4 * np.maximum(1.0, np.abs(x))
    k = np.arange(x.size)
    for _ in range(3):
        k = k[(lo[k] + 2.0 * h[k] < x[k]) & (x[k] < hi[k] - 2.0 * h[k])]
        if not k.size:
            break
        xk, hk = x[k], h[k]
        stencil = xk + np.array([[-2.0], [-1.0], [0.0], [1.0], [2.0]]) * hk
        fm2, fm1, f0, fp1, fp2 = np.asarray(f(stencil.ravel()), dtype=float).reshape(5, -1)
        grad = (fm2 - 8.0 * fm1 + 8.0 * fp1 - fp2) / (12.0 * hk)
        curv = (fp1 - 2.0 * f0 + fm1) / (hk * hk)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = -grad / curv
        go = (curv < 0.0) & np.isfinite(grad) & (np.abs(step) <= hi[k] - lo[k])
        k, xk, step = k[go], xk[go], step[go]
        x[k] = np.minimum(np.maximum(xk + step, lo[k]), hi[k])
        k = k[~(np.abs(x[k] - xk) < 1e-14 * np.maximum(1.0, np.abs(xk)))]
    return x


def local_maxima(
    f: Callable,
    lo: float,
    hi: float,
    grid_points: int,
    tol: Tolerance = DEFAULT_TOL,
) -> list[LocalMaximum]:
    """All local maxima of ``f`` on [lo, hi], located on a grid and refined.

    Every call of ``f`` takes an array: one for the grid, one per step of
    the refinement, which polishes all interior grid peaks together, each
    confined to one grid cell on each side (which prevents jumping between
    modes), and at most one to merge duplicates. Endpoints enter as
    boundary candidates when the function is maximal there. Results are
    sorted ascending.
    """
    if grid_points < 3:
        raise DomainError(f"grid_points must be >= 3, got {grid_points}")
    if not lo < hi:
        raise DomainError(f"search interval requires lo < hi, got [{lo}, {hi}]")
    xs = np.linspace(lo, hi, grid_points)
    ys = np.asarray(f(xs), dtype=float)
    cell = xs[1] - xs[0]
    mid, left, right = ys[1:-1], ys[:-2], ys[2:]
    i = np.flatnonzero((mid >= left) & (mid >= right) & ((mid > left) | (mid > right)))

    found = [LocalMaximum(float(xs[0]), boundary=True)] if ys[0] > ys[1] else []
    if i.size:
        found += [LocalMaximum(float(x)) for x in _refine(f, xs[i], xs[i + 2], tol)]
    if ys[-1] > ys[-2]:
        found.append(LocalMaximum(float(xs[-1]), boundary=True))

    # Plateau detection can report one peak twice from adjacent cells.
    found.sort(key=lambda m: m.x)
    at = np.array([m.x for m in found])
    vals = f(at) if np.any(np.diff(at) < 0.5 * cell) else None
    kept: list[int] = []
    for j, m in enumerate(found):
        if kept and abs(m.x - found[kept[-1]].x) < 0.5 * cell:
            if vals[j] > vals[kept[-1]]:
                kept[-1] = j
        else:
            kept.append(j)
    return [found[j] for j in kept]
