"""Closed-form dynamics of a two-level system driven by a gyrating magnetic field.

Everything is expressed in dimensionless form with the detector gate time
normalized to t = 1: ``omega`` is the drive's angular speed times the gate
time, ``b0`` the magnetic coupling (gyromagnetic factor times field strength
times gate time) and ``theta`` the gyration angle. The system starts in the
excited state; a photon is registered with probability ``rho00 = |c0|^2``.

The ``t`` keyword on the evaluators exists for tests that probe intermediate
times; production code always evaluates at the gate boundary t = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "FieldConfig",
    "q_factor",
    "amplitudes",
    "prob_detect",
    "prob_detect_change",
    "prob_stationary_points",
    "prob_pieces",
    "dprob_domega0",
]


@dataclass(frozen=True)
class FieldConfig:
    """Dimensionless drive parameters of the gyrating magnetic field."""

    omega: float
    b0: float
    theta: float

    def __post_init__(self) -> None:
        if not self.b0 > 0:
            raise DomainError(f"b0 must be positive, got {self.b0}")
        if not 0.0 < self.theta < math.pi:
            raise DomainError(f"theta must lie in (0, pi), got {self.theta}")


def _detuning(cfg: FieldConfig, omega0):
    """omega - omega0 - 2*b0*cos(theta), the recurring detuning combination."""
    return cfg.omega - omega0 - 2.0 * cfg.b0 * np.cos(cfg.theta)


def q_factor(cfg: FieldConfig, omega0):
    """Generalized Rabi frequency.

    Evaluated as the hypotenuse of the detuning combination and
    2*b0*sin(theta), a sum of squares that is strictly positive for any
    b0 > 0 and theta in (0, pi). Accepts scalar or array ``omega0``.
    """
    return np.hypot(_detuning(cfg, omega0), 2.0 * cfg.b0 * np.sin(cfg.theta))


def amplitudes(cfg: FieldConfig, omega0, t: float = 1.0):
    """Probability amplitudes (c0, c1) for the start-in-excited-state problem."""
    d = _detuning(cfg, omega0)
    q = q_factor(cfg, omega0)
    half = 0.5 * q * t
    c0 = -2.0j * np.exp(-0.5j * cfg.omega * t) * (cfg.b0 * np.sin(cfg.theta) / q) * np.sin(half)
    c1 = np.exp(0.5j * cfg.omega * t) * (np.cos(half) - 1.0j * (d / q) * np.sin(half))
    return c0, c1


def prob_detect(cfg: FieldConfig, omega0, t: float = 1.0):
    """Photon detection probability 4*b0^2*sin^2(theta)/q^2 * sin^2(q t/2).

    Accepts scalar or array ``omega0``.
    """
    b = cfg.b0 * np.sin(cfg.theta)
    q = q_factor(cfg, omega0)
    return (2.0 * b / q) ** 2 * np.sin(0.5 * q * t) ** 2


def prob_detect_change(cfg: FieldConfig, omega0, ref):
    """p(omega0) - p(ref), elementwise, to the relative precision of the
    change itself rather than of p, which its plain difference would lose.

    With h = q/2 and S = sin(h)/h, p = b^2 S^2, and with the detunings d,
    h^2 - h_ref^2 = e = (ref - omega0)(d + d_ref)/4 holds exactly. Then
    S - S_ref = (h_ref (sin h - sin h_ref) - (h - h_ref) sin h_ref) / (h h_ref),
    with sin h - sin h_ref = 2 cos((h + h_ref)/2) sin((h - h_ref)/2) and
    h - h_ref = e/(h + h_ref). Below h = 0.02 that form cancels to ~1e-16/h^2
    and the sinc series in e takes over. Elementwise in omega0 and ref.
    """
    b = cfg.b0 * math.sin(cfg.theta)
    d, d_ref = _detuning(cfg, omega0), _detuning(cfg, ref)
    h, h_ref = 0.5 * np.hypot(d, 2.0 * b), 0.5 * np.hypot(d_ref, 2.0 * b)
    e = (ref - omega0) * (d + d_ref) / 4.0
    dh = e / (h + h_ref)
    s_ref = np.sin(h_ref)
    ds = (h_ref * 2.0 * np.cos(0.5 * (h + h_ref)) * np.sin(0.5 * dh) - dh * s_ref) / (h * h_ref)
    if b < 0.02:  # h >= b, so only then can h fall below 0.02
        a, c = h * h, h_ref * h_ref
        series = -e * (1.0 / 6.0 - (a + c) / 120.0 + (a * a + a * c + c * c) / 5040.0)
        ds = np.where(np.maximum(h, h_ref) < 0.02, series, ds)
    return b * b * ds * (2.0 * s_ref / h_ref + ds)


def _tan_roots(k: np.ndarray) -> np.ndarray:
    """The roots of tan h = h in (k pi, k pi + pi/2), for integers k >= 1.

    Newton steps on sin h - h cos h, whose derivative is h sin h, from the
    asymptotic root (k + 1/2) pi - 1/((k + 1/2) pi); four steps reach
    rounding for every k.
    """
    h = (k + 0.5) * math.pi
    h = h - 1.0 / h
    for _ in range(4):
        h = h - (np.sin(h) - h * np.cos(h)) / (h * np.sin(h))
    return h


def prob_stationary_points(cfg: FieldConfig, lower: float, upper: float):
    """The omega0 in [lower, upper] where dp/domega0 vanishes, ascending, and
    a mask of those where sqrt(CFI) vanishes too.

    p = b^2 sinc^2(h), with b = b0 sin(theta) and h = hypot(d/2, b), depends
    on omega0 through the detuning d alone. Its derivative vanishes at the
    resonance d = 0, and where sinc(h) or its derivative does: at h = k pi and
    at the roots h_k of tan h = h, that is at d = +-2 sqrt(h^2 - b^2) for
    those h > b. Between consecutive points p is monotone. sqrt(CFI), which
    is proportional to |d (sin h - h cos h)|, vanishes at the resonance and
    at the tan h = h roots, but not at the zeros of p.
    """
    b = cfg.b0 * math.sin(cfg.theta)
    center = float(_detuning(cfg, 0.0))
    reach = max(abs(center - lower), abs(center - upper))
    k = np.arange(1, int(math.hypot(0.5 * reach, b) / math.pi) + 1)
    h = np.concatenate([k * math.pi, _tan_roots(k)])
    cfi_zero = np.repeat([False, True], k.size)
    keep = h > b
    offset = 2.0 * np.sqrt(h[keep] ** 2 - b * b)
    points = np.concatenate([[center], center - offset, center + offset])
    zero = np.concatenate([[True], cfi_zero[keep], cfi_zero[keep]])
    inside = (points >= lower) & (points <= upper)
    order = np.argsort(points[inside])
    return points[inside][order], zero[inside][order]


def prob_pieces(cfg: FieldConfig, lower: float, upper: float):
    """The ends (lo, hi) of the pieces of [lower, upper] between consecutive
    stationary points of p. On each piece p is monotone, and p, sqrt(CFI)
    and the likelihood of a fractional count are smooth inside it."""
    points, _ = prob_stationary_points(cfg, lower, upper)
    ends = np.concatenate([[lower], points, [upper]])
    keep = ends[1:] > ends[:-1]
    return ends[:-1][keep], ends[1:][keep]


def dprob_domega0(cfg: FieldConfig, omega0, t: float = 1.0):
    """Analytic derivative of the detection probability with respect to omega0.

    Chain rule through dq/domega0 = -detuning/q gives
    8 b^2 d sin(qt/2) [sin(qt/2) - (qt/2) cos(qt/2)] / q^4 with
    b = b0 sin(theta) and d the detuning combination. Accepts arrays.
    """
    b = cfg.b0 * np.sin(cfg.theta)
    d = _detuning(cfg, omega0)
    q = q_factor(cfg, omega0)
    half = 0.5 * q * t
    s = np.sin(half)
    return 8.0 * b * b * d * s * (s - half * np.cos(half)) / q**4


