"""Classical and quantum Fisher information for the transition frequency.

The closed forms below come from the photon-count statistics of the driven
two-level system evaluated at gate time t = 1, one array kernel per
quantity. ``cfi_values`` uses the explicit rational-trigonometric expression
whose removable singularities cancel analytically; it only degenerates where
the detection probability is pinned at 1 (zero-variance data), and returns
NaN there so that callers decide how to report it.

Each formula is written once, over the shared terms b = b0 sin(theta), the
detuning d and the Rabi frequency q; ``fisher_values`` computes those terms
once for both quantities, with the single kernels' values bit for bit.

Raw values are in t = 1 units. The dimensionless landscape maps also
report them times omega^2 (``scan.fisher_scan``); the kernels leave that
scaling out, since it degenerates at omega = 0.
"""

from __future__ import annotations

import numpy as np

from .dynamics import FieldConfig, _detuning

__all__ = [
    "fisher_values",
    "cfi_values",
    "qfi_values",
]

# Guard band on rho00 near 1 where the CFI denominator underflows.
_EPS = 1e-12


def fisher_values(cfg: FieldConfig, omega0s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(``cfi_values``, ``qfi_values``) bit for bit, from one pass over the
    shared terms."""
    terms = _terms(cfg, omega0s)
    return _cfi(*terms), _qfi(*terms)


def cfi_values(cfg: FieldConfig, omega0s: np.ndarray) -> np.ndarray:
    """Classical Fisher information of a single binary detection at t = 1,
    elementwise over omega0 values.

    Degenerate points (probability within 1e-12 of 1 with nonvanishing
    numerator) come back as NaN; a numerator vanishing with the probability
    gives the limiting value 0. Scalar callers use ``float(cfi_values(...))``.
    """
    return _cfi(*_terms(cfg, omega0s))


def qfi_values(cfg: FieldConfig, omega0s: np.ndarray) -> np.ndarray:
    """Quantum Fisher information (projective-measurement optimum) at t = 1,
    elementwise over omega0 values."""
    return _qfi(*_terms(cfg, omega0s))


def _terms(cfg: FieldConfig, omega0s):
    """b = b0 sin(theta), d and q = hypot(d, 2 b) as ``dynamics.q_factor`` has them."""
    sin_theta = np.sin(cfg.theta)
    d = _detuning(cfg, np.asarray(omega0s, dtype=float))
    return cfg.b0 * sin_theta, d, np.hypot(d, 2.0 * cfg.b0 * sin_theta)


def _cfi(b, d, q):
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


def _qfi(b, d, q):
    cos_q = np.cos(q)
    sin_q = np.sin(q)
    d2 = d * d
    x = 2.0 - 2.0 * cos_q - q * sin_q
    y = (q * q - 2.0 * d2) * (1.0 - cos_q) / q + d2 * sin_q
    z = q * cos_q - sin_q
    return (4.0 * b * b / q**6) * ((4.0 * b * b * d2 / (q * q)) * x * x + y * y + d2 * z * z)
