import math

import numpy as np
import pytest

from rabi_est import montecarlo
from rabi_est.dynamics import FieldConfig
from rabi_est.errors import (
    AllTrialsDegenerate,
    DegenerateData,
    DegenerateProbability,
    NoRealRoot,
    SincDomainViolated,
)
from rabi_est.frequentist import Ambiguity, ml_estimate
from rabi_est.montecarlo import Estimator, TrialConfig, run_trials, simulate_dataset
from rabi_est.priors import Prior, SupportWindow

CFG = FieldConfig(omega=1.0, b0=1.0, theta=math.pi / 2)
WINDOW = SupportWindow(1.5, 5.0)
# Resonant drive at half-pi coupling: the detection probability is 1, so
# every dataset has k = n and the true frequency's CFI degenerates.
PINNED = FieldConfig(omega=1.0, b0=math.pi / 2, theta=math.pi / 2)


def ml_config(trials: int, seed: int = 2024) -> TrialConfig:
    return TrialConfig(cfg=CFG, omega0_true=2.0, n=100, trials=trials, seed=seed)


def reference_ml_moments(tc: TrialConfig):
    """Per-trial reference loop: one dataset and one ML inversion per trial,
    ambiguous and degenerate trials dropped, moments in trial order."""
    estimates = []
    ambiguous = degenerate = 0
    for i in range(tc.trials):
        data = simulate_dataset(tc.cfg, tc.omega0_true, tc.n, tc.seed, stream=i)
        try:
            result = ml_estimate(data.xbar, tc.cfg)
        except (DegenerateData, NoRealRoot, SincDomainViolated):
            degenerate += 1
            continue
        if result.ambiguity is Ambiguity.AMBIGUOUS:
            ambiguous += 1
        elif not result.accepted:
            degenerate += 1
        else:
            estimates.append(result.accepted[0])
    arr = np.asarray(estimates)
    mean = float(np.sum(arr) / arr.size)
    variance = float(np.sum((arr - mean) ** 2) / (arr.size - 1))
    return mean, variance, ambiguous, degenerate


def test_reports_are_bitwise_reproducible():
    first = run_trials(ml_config(300))
    second = run_trials(ml_config(300))
    assert first == second
    prior = Prior.uniform(WINDOW)
    tc = TrialConfig(cfg=CFG, omega0_true=2.0, n=100, trials=15, seed=5,
                     estimator=Estimator.MMSE, prior=prior)
    assert run_trials(tc) == run_trials(tc)


def test_trial_dataset_independent_of_trial_count(monkeypatch):
    seen = []
    original = montecarlo.simulate_dataset

    def recording(cfg, omega0_true, n, seed, stream=0):
        data = original(cfg, omega0_true, n, seed, stream=stream)
        seen.append((stream, data.k))
        return data

    monkeypatch.setattr(montecarlo, "simulate_dataset", recording)
    run_trials(ml_config(40))
    short = list(seen)
    seen.clear()
    run_trials(ml_config(120))
    assert [s for s, _ in short] == list(range(40))
    assert seen[:40] == short


def test_ambiguous_trials_counted_and_excluded():
    tc = ml_config(400)
    report = run_trials(tc)
    mean, variance, ambiguous, degenerate = reference_ml_moments(tc)
    assert report.ambiguous_count == ambiguous > 0
    assert report.degenerate_count == degenerate > 0
    assert report.included_trials + ambiguous + degenerate == tc.trials
    # Excluded, not resolved toward the truth: the moments are those of the
    # unambiguous trials alone.
    assert report.mean_estimate == mean
    assert report.variance == variance


def test_all_trials_degenerate():
    tc = TrialConfig(cfg=PINNED, omega0_true=1.0, n=50, trials=20, seed=3)
    with pytest.raises(AllTrialsDegenerate):
        run_trials(tc)


def test_degenerate_truth_under_mmse():
    prior = Prior.uniform(SupportWindow(0.5, 2.0))
    tc = TrialConfig(cfg=PINNED, omega0_true=1.0, n=50, trials=5, seed=3,
                     estimator=Estimator.MMSE, prior=prior)
    with pytest.raises(DegenerateProbability):
        run_trials(tc)


# Reports at n = 100 for the three estimators. Each count must match exactly
# and each moment to 1e-12 relative.
PINNED_REPORTS = [
    (
        Estimator.ML, 400, None,
        dict(mean_estimate=2.2984417575363993, bias=0.29844175753639934,
             variance=0.03617431411989653, crb=0.1639746107834753, vantrees_bound=None,
             degenerate_count=54, ambiguous_count=157, included_trials=189),
    ),
    (
        Estimator.MMSE, 40, Prior.uniform(WINDOW),
        dict(mean_estimate=2.066002290426544, bias=0.06600229042654382,
             variance=0.04622790890148779, crb=0.1639746107834753,
             vantrees_bound=0.07489982589826061,
             degenerate_count=0, ambiguous_count=0, included_trials=40),
    ),
    (
        Estimator.MAP, 10, Prior.gaussian(WINDOW, 2.0, 1.0),
        dict(mean_estimate=2.011967105750311, bias=0.011967105750311013,
             variance=0.1498310729830522, crb=0.1639746107834753,
             vantrees_bound=0.09211904505621411,
             degenerate_count=0, ambiguous_count=0, included_trials=10),
    ),
]


@pytest.mark.parametrize("estimator,trials,prior,expected", PINNED_REPORTS,
                         ids=[e.value for e, *_ in PINNED_REPORTS])
def test_pinned_report(estimator, trials, prior, expected):
    report = run_trials(TrialConfig(cfg=CFG, omega0_true=2.0, n=100, trials=trials,
                                    seed=2024, estimator=estimator, prior=prior))
    for name in ("degenerate_count", "ambiguous_count", "included_trials"):
        assert getattr(report, name) == expected[name], name
    for name in ("mean_estimate", "variance", "crb"):
        assert getattr(report, name) == pytest.approx(expected[name], rel=1e-12), name
    assert report.bias == pytest.approx(expected["bias"], rel=1e-12, abs=1e-12)
    if expected["vantrees_bound"] is None:
        assert report.vantrees_bound is None
    else:
        assert report.vantrees_bound == pytest.approx(expected["vantrees_bound"], rel=1e-12)
