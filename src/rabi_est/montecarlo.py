"""Seeded simulation of photon-count records and estimator benchmark trials.

Each trial draws its dataset from a dedicated counter-based Philox stream
keyed by (seed, trial index), so datasets are reproducible bit for bit and
independent of trial execution order. Sampling is n explicit Bernoulli draws
per dataset, matching the independent detector-gate narrative of the data
model rather than an inverse-CDF shortcut.

Each thread reuses one Philox generator: every dataset resets its whole
state to that of a freshly built Philox(key=[seed, stream]) (counter 0, empty
buffer), which gives the same draws without building a generator each time.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dynamics import FieldConfig, prob_detect
from .errors import (
    AllTrialsDegenerate,
    DegenerateData,
    DegenerateProbability,
    DomainError,
    EstimationError,
    NoRealRoot,
    SincDomainViolated,
)
from .fisher import cfi_values
from .frequentist import Ambiguity, Dataset, ml_estimate
from .numerics import DEFAULT_TOL, Tolerance
from .posterior import PosteriorSpec, bayes_fisher, map_estimate, mmse_many
from .priors import Prior

__all__ = [
    "Estimator",
    "TrialConfig",
    "TrialReport",
    "PRNG_ALGORITHM",
    "simulate_dataset",
    "run_trials",
]

PRNG_ALGORITHM = "philox4x64"

# Per-thread generator, rekeyed for every dataset.
_thread = threading.local()


class Estimator(str, Enum):
    ML = "ml"
    MMSE = "mmse"
    MAP = "map"


@dataclass(frozen=True)
class TrialConfig:
    cfg: FieldConfig
    omega0_true: float
    n: int
    trials: int
    seed: int
    estimator: Estimator = Estimator.ML
    prior: Prior | None = None
    quad_tol: Tolerance = DEFAULT_TOL

    def __post_init__(self) -> None:
        if not self.omega0_true > 0:
            raise DomainError(f"omega0_true must be positive, got {self.omega0_true}")
        if not self.n >= 1:
            raise DomainError(f"trials per dataset n must be >= 1, got {self.n}")
        if not self.trials >= 1:
            raise DomainError(f"dataset count must be >= 1, got {self.trials}")
        if not 0 <= self.seed < 2**64:
            raise DomainError("seed must fit an unsigned 64-bit integer")
        if self.estimator in (Estimator.MMSE, Estimator.MAP) and self.prior is None:
            raise DomainError(f"estimator {self.estimator.value} requires a prior")


@dataclass(frozen=True)
class TrialReport:
    mean_estimate: float
    bias: float
    variance: float
    crb: float
    vantrees_bound: float | None
    degenerate_count: int
    ambiguous_count: int
    included_trials: int
    prng_algorithm: str = PRNG_ALGORITHM


def simulate_dataset(cfg: FieldConfig, omega0_true: float, n: int, seed: int, stream: int = 0) -> Dataset:
    """One photon-count dataset: n Bernoulli draws at the true detection
    probability from the (seed, stream)-keyed generator."""
    return Dataset(n=n, k=_draw(float(prob_detect(cfg, omega0_true)), n, seed, stream))


def _draw(p1: float, n: int, seed: int, stream: int) -> int:
    """The photon count of n draws at detection probability p1 from the
    (seed, stream)-keyed generator."""
    if not hasattr(_thread, "gen"):
        _thread.gen = np.random.Generator(np.random.Philox())
    zeros = np.zeros(4, dtype=np.uint64)
    _thread.gen.bit_generator.state = {
        "bit_generator": "Philox", "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        "state": {"counter": zeros, "key": np.array([seed, stream], dtype=np.uint64)}}
    return int(np.count_nonzero(_thread.gen.random(n) < p1))


# Outcomes of trials that yield no estimate.
_AMBIGUOUS = "ambiguous"
_DEGENERATE = "degenerate"


def _outcome(tc: TrialConfig, data: Dataset):
    """The trial's estimate, or the reason it has none."""
    try:
        if tc.estimator is Estimator.ML:
            result = ml_estimate(data.xbar, tc.cfg)
            if result.ambiguity is Ambiguity.AMBIGUOUS:
                return _AMBIGUOUS
            # Both candidate frequencies rejected as nonpositive.
            return result.accepted[0] if result.accepted else _DEGENERATE
        spec = PosteriorSpec(data=data, cfg=tc.cfg, prior=tc.prior, quad_tol=tc.quad_tol)
        return map_estimate(spec).best.value
    except (DegenerateData, NoRealRoot, SincDomainViolated):
        return _DEGENERATE


def run_trials(tc: TrialConfig) -> TrialReport:
    """Run the configured number of seeded estimation trials.

    ML trials yielding ambiguous, complex or degenerate inversions are
    counted and excluded from the moments (resolving ties toward the true
    value would leak the parameter into the estimator). The estimators are
    deterministic in (n, k), so each distinct count is estimated once, in
    order of first appearance; the MMSE posteriors of all distinct counts
    form one batch. Moments are reduced in fixed trial order, so
    the report is bitwise reproducible. The detection probability at the
    truth is computed once for all datasets.
    """
    p1 = float(prob_detect(tc.cfg, tc.omega0_true))
    ks = [_draw(p1, tc.n, tc.seed, i) for i in range(tc.trials)]
    counts = list(dict.fromkeys(ks))
    if tc.estimator is Estimator.MMSE:
        means = mmse_many([PosteriorSpec(data=Dataset(n=tc.n, k=k), cfg=tc.cfg, prior=tc.prior,
                                         quad_tol=tc.quad_tol) for k in counts])
        if failed := next((m for m in means if isinstance(m, EstimationError)), None):
            raise failed
        by_count = dict(zip(counts, means))
    else:
        by_count = {k: _outcome(tc, Dataset(n=tc.n, k=k)) for k in counts}
    outcomes = [by_count[k] for k in ks]
    estimates = [o for o in outcomes if not isinstance(o, str)]
    degenerate = outcomes.count(_DEGENERATE)
    ambiguous = outcomes.count(_AMBIGUOUS)
    if not estimates:
        raise AllTrialsDegenerate(
            f"no usable estimate in {tc.trials} trials "
            f"({degenerate} degenerate, {ambiguous} ambiguous)"
        )

    arr = np.asarray(estimates)
    mean = float(np.sum(arr) / arr.size)
    variance = float(np.sum((arr - mean) ** 2) / (arr.size - 1)) if arr.size > 1 else math.nan
    info = float(cfi_values(tc.cfg, tc.omega0_true))
    if math.isnan(info):
        raise DegenerateProbability(
            "detection probability is 1 within guard at the true frequency; CFI undefined"
        )
    crb = 1.0 / (tc.n * info)
    vantrees = None
    if tc.prior is not None:
        vantrees = 1.0 / (tc.n * bayes_fisher(tc.cfg, tc.prior, tc.n).bayes_cfi)
    return TrialReport(
        mean_estimate=mean,
        bias=mean - tc.omega0_true,
        variance=variance,
        crb=crb,
        vantrees_bound=vantrees,
        degenerate_count=degenerate,
        ambiguous_count=ambiguous,
        included_trials=len(estimates),
    )
