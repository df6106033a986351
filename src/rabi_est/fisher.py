"""Classical and quantum Fisher information for the transition frequency.

The closed forms below come from the photon-count statistics of the driven
two-level system evaluated at gate time t = 1, one array kernel per
quantity. ``cfi_values`` uses the explicit rational-trigonometric expression
whose removable singularities cancel analytically; it only degenerates where
the detection probability is pinned at 1 (zero-variance data), and returns
NaN there so that callers decide how to report it.

Raw values are in t = 1 units; the omega^2-scaled variants used for the
dimensionless landscape maps are a separate explicit transform
(:func:`paper_scaled`), since that scaling degenerates at omega = 0.
"""

from __future__ import annotations

import numpy as np

from .dynamics import FieldConfig, _detuning, q_factor

__all__ = [
    "cfi_values",
    "qfi_values",
    "paper_scaled",
]

# Guard band on rho00 near 1 where the CFI denominator underflows.
_EPS = 1e-12


def cfi_values(cfg: FieldConfig, omega0s: np.ndarray) -> np.ndarray:
    """Classical Fisher information of a single binary detection at t = 1,
    elementwise over omega0 values.

    Degenerate points (probability within 1e-12 of 1 with nonvanishing
    numerator) come back as NaN; a numerator vanishing with the probability
    gives the limiting value 0. Scalar callers use ``float(cfi_values(...))``.
    """
    omega0 = np.asarray(omega0s, dtype=float)
    b = cfg.b0 * np.sin(cfg.theta)
    d = _detuning(cfg, omega0)
    q = q_factor(cfg, omega0)
    half = 0.5 * q
    s = np.sin(half)
    shape = s - half * np.cos(half)
    num = 16.0 * b * b * d * d * shape * shape
    # q^2 - 4 b^2 sin^2(q/2) == q^2 * (1 - rho00); vanishes only at rho00 = 1
    resid = q * q - 4.0 * b * b * s * s
    bad = resid <= _EPS * (q * q)
    out = np.divide(num, q**4 * resid, out=np.zeros_like(num), where=~bad)
    out[bad & (num != 0.0)] = np.nan
    return out


def qfi_values(cfg: FieldConfig, omega0s: np.ndarray) -> np.ndarray:
    """Quantum Fisher information (projective-measurement optimum) at t = 1,
    elementwise over omega0 values."""
    omega0 = np.asarray(omega0s, dtype=float)
    b = cfg.b0 * np.sin(cfg.theta)
    d = _detuning(cfg, omega0)
    q = q_factor(cfg, omega0)
    cos_q = np.cos(q)
    sin_q = np.sin(q)
    d2 = d * d
    x = 2.0 - 2.0 * cos_q - q * sin_q
    y = (q * q - 2.0 * d2) * (1.0 - cos_q) / q + d2 * sin_q
    z = q * cos_q - sin_q
    return (4.0 * b * b / q**6) * ((4.0 * b * b * d2 / (q * q)) * x * x + y * y + d2 * z * z)


def paper_scaled(value, cfg: FieldConfig):
    """Dimensionless omega^2 scaling applied to a raw Fisher quantity."""
    return value * cfg.omega**2
