"""Estimation toolkit for the transition frequency of a two-level system
driven by a gyrating magnetic field: exact dynamics, Fisher information
landscapes, frequentist (MVU, ML) and Bayesian (MMSE, MAP) estimators, a
seeded Monte Carlo harness and a grid-scan engine."""

__version__ = "0.1.0"

from .dynamics import FieldConfig
from .frequentist import Dataset, EstimateResult, ValidityReport
from .priors import Prior, PriorKind, SupportWindow
from .posterior import BayesFisher, MapResult, PosteriorSpec
from .montecarlo import Estimator, TrialConfig, TrialReport
from .scan import Axis, GridTable

__all__ = [
    "__version__",
    "FieldConfig",
    "Dataset",
    "EstimateResult",
    "ValidityReport",
    "Prior",
    "PriorKind",
    "SupportWindow",
    "BayesFisher",
    "MapResult",
    "PosteriorSpec",
    "Estimator",
    "TrialConfig",
    "TrialReport",
    "Axis",
    "GridTable",
]
