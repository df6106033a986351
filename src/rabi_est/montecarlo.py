"""Seeded simulation of photon-count records and estimator benchmark trials.

Each trial draws its dataset from a dedicated counter-based Philox stream
keyed by (seed, trial index), so datasets are reproducible bit for bit and
independent of trial execution order. Sampling is n explicit Bernoulli draws
per dataset, matching the independent detector-gate narrative of the data
model rather than an inverse-CDF shortcut.

Each thread keeps one Philox bit generator and one state dict, whose key
holds the seed. Every dataset writes its stream into the key's second word
and resets the generator to that state (counter 0, empty buffer), the state
of a freshly built Philox(key=[seed, stream]). A draw u = (word >> 11) 2^-53
is below p1 exactly when its 64-bit word is below ceil(p1 2^53) 2^11, so
counting raw words below that threshold gives the counts of
Generator(Philox(key=[seed, stream])).random(n) < p1 bit for bit, without a
Generator or a float per draw. ML trials without a prior load no Bayesian
module.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .dynamics import FieldConfig, prob_detect
from .errors import (
    AllTrialsDegenerate,
    DegenerateProbability,
    DomainError,
    EstimationError,
)
from .fisher import cfi_values
from .frequentist import ROOTS_REAL, Dataset, ml_roots
from .numerics import DEFAULT_TOL, Tolerance

if TYPE_CHECKING:
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

# Per-thread Philox bit generator and the state dict that resets it.
_thread = threading.local()
# Raw words drawn per buffer fill: 64 KiB of uint64.
_DRAW_WORDS = 1 << 13


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
        if not 0 < self.omega0_true < math.inf:
            raise DomainError(f"omega0_true must be positive and finite, got {self.omega0_true}")
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
    return Dataset(n=n, k=int(_draws(float(prob_detect(cfg, omega0_true)), n, seed, [stream])[0]))


def _philox():
    """This thread's Philox bit generator and its reset state: counter 0,
    empty buffer and a key whose words the caller sets in place, all plain
    Python ints (the state setter reads them faster than numpy scalars)."""
    if not hasattr(_thread, "philox"):
        _thread.philox = np.random.Philox(), {
            "bit_generator": "Philox", "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0,
            "uinteger": 0, "state": {"counter": [0, 0, 0, 0], "key": [0, 0]}}
    return _thread.philox


def _draws(p1: float, n: int, seed: int, streams) -> np.ndarray:
    """The photon count of n draws at detection probability p1 from each
    (seed, stream)-keyed generator, in the order of ``streams``.

    The raw words of up to _DRAW_WORDS // n datasets fill one buffer and are
    compared with the threshold together; a dataset larger than the buffer
    is counted a buffer at a time.
    """
    counts = np.full(len(streams), n)
    if p1 >= 1.0:
        return counts
    threshold = np.uint64(math.ceil(p1 * 2.0**53) << 11)
    bitgen, state = _philox()
    key, raw = state["state"]["key"], bitgen.random_raw
    key[0] = int(seed)
    rows = _DRAW_WORDS // n
    if rows:
        words = np.empty((min(rows, len(streams)), n), dtype=np.uint64)
        for start in range(0, len(streams), rows):
            block = streams[start:start + rows]
            for row, stream in enumerate(block):
                key[1] = int(stream)
                bitgen.state = state
                words[row] = raw(n)
            counts[start:start + len(block)] = np.count_nonzero(words[:len(block)] < threshold, axis=1)
        return counts
    for i, stream in enumerate(streams):
        key[1] = int(stream)
        bitgen.state = state
        counts[i] = sum(int(np.count_nonzero(raw(min(_DRAW_WORDS, n - done)) < threshold))
                        for done in range(0, n, _DRAW_WORDS))
    return counts


# Outcomes of the trials of each distinct count.
_ACCEPTED = 0
_AMBIGUOUS = 1
_DEGENERATE = 2


def _ml_outcomes(cfg: FieldConfig, xbar: np.ndarray):
    """The ML estimate of each count rate and its outcome code.

    A rate of 0 or 1, an undefined sinc inverse and a nonpositive
    discriminant leave no estimate (degenerate), as ml_estimate raises for
    them; so do two nonpositive roots. Two positive roots are ambiguous.
    """
    plus, minus, code = ml_roots(xbar, cfg)
    accepted = (plus > 0.0).astype(int) + (minus > 0.0)
    usable = (code == ROOTS_REAL) & (xbar > 0.0) & (xbar < 1.0) & (accepted > 0)
    outcome = np.where(usable, np.where(accepted == 2, _AMBIGUOUS, _ACCEPTED), _DEGENERATE)
    return np.where(plus > 0.0, plus, minus), outcome


def run_trials(tc: TrialConfig) -> TrialReport:
    """Run the configured number of seeded estimation trials.

    ML trials yielding ambiguous, complex or degenerate inversions are
    counted and excluded from the moments (resolving ties toward the true
    value would leak the parameter into the estimator). The datasets come
    from _draws, all with the detection probability at the truth computed
    once. The estimators are deterministic in (n, k), so each distinct count
    is estimated once, in order of first appearance: one ml_roots call
    inverts all distinct count rates, and the MMSE or MAP posteriors of all
    distinct counts form one batch (mmse_many, map_many), whose first error
    is raised. Moments are reduced in fixed trial order, so the report is
    bitwise reproducible.
    """
    if tc.prior is not None:  # MMSE and MAP trials, and the van Trees bound
        from .posterior import PosteriorSpec, bayes_fisher, map_many, mmse_many
    ks = _draws(float(prob_detect(tc.cfg, tc.omega0_true)), tc.n, tc.seed, range(tc.trials))
    counts = np.array(list(dict.fromkeys(ks.tolist())))
    by_value = np.argsort(counts)
    which = by_value[np.searchsorted(counts[by_value], ks)]  # each trial's distinct count
    if tc.estimator is Estimator.ML:
        values, outcome = _ml_outcomes(tc.cfg, counts / tc.n)
    else:
        specs = [PosteriorSpec(data=Dataset(n=tc.n, k=k), cfg=tc.cfg, prior=tc.prior, quad_tol=tc.quad_tol)
                 for k in counts.tolist()]
        results = (mmse_many if tc.estimator is Estimator.MMSE else map_many)(specs)
        if failed := next((r for r in results if isinstance(r, EstimationError)), None):
            raise failed
        if tc.estimator is Estimator.MAP:
            results = [result.best.value for result in results]
        values, outcome = np.array(results), np.full(counts.size, _ACCEPTED)
    trial_outcome = outcome[which]
    estimates = values[which][trial_outcome == _ACCEPTED]
    degenerate = int(np.count_nonzero(trial_outcome == _DEGENERATE))
    ambiguous = int(np.count_nonzero(trial_outcome == _AMBIGUOUS))
    if not estimates.size:
        raise AllTrialsDegenerate(
            f"no usable estimate in {tc.trials} trials "
            f"({degenerate} degenerate, {ambiguous} ambiguous)"
        )

    mean = float(np.sum(estimates) / estimates.size)
    variance = (float(np.sum((estimates - mean) ** 2) / (estimates.size - 1))
                if estimates.size > 1 else math.nan)
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
        included_trials=int(estimates.size),
    )
