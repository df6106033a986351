"""Estimation toolkit for the transition frequency of a two-level system
driven by a gyrating magnetic field: exact dynamics, Fisher information
landscapes, frequentist (MVU, ML) and Bayesian (MMSE, MAP) estimators, a
seeded Monte Carlo harness and a grid-scan engine.

The export table ``_EXPORTS`` names each export's submodule (``MapResult``
that of the MAP paths, ``map_estimator``), loaded on first access (PEP 562):
``import rabi_est`` loads none, and a command-line run only what it uses.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "FieldConfig": "dynamics",
    "Dataset": "frequentist",
    "EstimateResult": "frequentist",
    "Prior": "priors",
    "PriorKind": "priors",
    "SupportWindow": "priors",
    "BayesFisher": "posterior",
    "MapResult": "map_estimator",
    "PosteriorSpec": "posterior",
    "Estimator": "montecarlo",
    "TrialConfig": "montecarlo",
    "TrialReport": "montecarlo",
    "Axis": "table",
    "GridTable": "table",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
