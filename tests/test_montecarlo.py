import math
import sys
import threading

import mpmath
import numpy as np
import pytest

import oracles
from rabi_est import map_estimator, montecarlo, posterior
from rabi_est.dynamics import FieldConfig, prob_detect
from rabi_est.errors import (
    AllTrialsDegenerate,
    DegenerateData,
    DegenerateProbability,
    DomainError,
    EvidenceUnderflow,
    NoRealRoot,
    SincDomainViolated,
)
from rabi_est.frequentist import Ambiguity, Dataset, RootStatus, ml_estimate
from rabi_est.montecarlo import Estimator, TrialConfig, run_trials, simulate_dataset
from rabi_est.posterior import PosteriorSpec, map_estimate
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
        accepted = [r.value for r in result.roots if r.status is RootStatus.ACCEPTED]
        if result.ambiguity is Ambiguity.AMBIGUOUS:
            ambiguous += 1
        elif not accepted:
            degenerate += 1
        else:
            estimates.append(accepted[0])
    arr = np.asarray(estimates)
    mean = float(np.sum(arr) / arr.size)
    variance = float(np.sum((arr - mean) ** 2) / (arr.size - 1))
    return mean, variance, ambiguous, degenerate


def fresh_count(p1, n, seed, stream):
    """The count of n draws below p1 from a freshly built
    Philox(key=[seed, stream]) generator."""
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))
    return int(np.count_nonzero(gen.random(n) < p1))


def fresh_philox_count(cfg, omega0_true, n, seed, stream):
    """The count from a freshly built Philox(key=[seed, stream]) generator."""
    return fresh_count(float(prob_detect(cfg, omega0_true)), n, seed, stream)


@pytest.mark.parametrize("seed", [0, 7, 2024, 2**64 - 1])
def test_dataset_matches_fresh_generator(seed):
    for n in (1, 3, 100, 1001):
        for omega0_true in (1.7, 2.0, 3.1):
            for stream in range(0, 300, 7):
                data = simulate_dataset(CFG, omega0_true, n, seed, stream=stream)
                assert data.k == fresh_philox_count(CFG, omega0_true, n, seed, stream)


@pytest.mark.parametrize("words", [montecarlo._DRAW_WORDS, 4], ids=["buffer", "four-word-buffer"])
def test_draws_match_fresh_generator_at_the_edges(words, monkeypatch):
    # A four-word buffer holds four datasets of n = 1, one of n = 3 or 4, and
    # less than one of n = 5 or 1001, which are counted a buffer at a time.
    # p1 = 0.5 puts the threshold on a multiple of 2^11, p1 = 1 - 2^-53 just
    # below 2^64, and p1 = 1 past it. Seeds and streams cross 2^63, where a
    # key word leaves the signed 64-bit range.
    monkeypatch.setattr(montecarlo, "_DRAW_WORDS", words)
    streams = [0, 1, 2, 3, 4, 9, 2**63 - 1, 2**63, 2**64 - 1]
    for seed in (0, 7, 2**63 - 1, 2**63, 2**64 - 1):
        for p1 in (0.0, 2.0**-60, 0.5, 1.0 - 2.0**-53, 1.0):
            for n in (1, 3, 4, 5, 1001):
                expected = [fresh_count(p1, n, seed, s) for s in streams]
                assert montecarlo._draws(p1, n, seed, streams).tolist() == expected
        # p1 at and just beside the first draw u of each stream: u < p1 only above it.
        for s in streams:
            u = float(np.random.Generator(np.random.Philox(key=np.array([seed, s], dtype=np.uint64))).random())
            for p1, count in ((np.nextafter(u, 0.0), 0), (u, 0), (np.nextafter(u, 1.0), 1)):
                assert montecarlo._draws(float(p1), 1, seed, [s]).tolist() == [count]


def test_dataset_matches_fresh_generator_across_threads():
    # Two threads draw different streams at once, with frequent switches.
    results = {0: [], 1: []}

    def draw(first):
        for stream in range(first, 400, 2):
            results[first].append(simulate_dataset(CFG, 2.0, 100, 11, stream=stream).k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(first,)) for first in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for first, ks in results.items():
        assert ks == [fresh_philox_count(CFG, 2.0, 100, 11, s) for s in range(first, 400, 2)]


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
    original = montecarlo._draws

    def recording(p1, n, seed, streams):
        ks = original(p1, n, seed, streams)
        seen.extend(zip(streams, ks.tolist()))
        return ks

    monkeypatch.setattr(montecarlo, "_draws", recording)
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


@pytest.mark.parametrize("omega0_true", [0.0, math.inf, math.nan])
def test_truth_must_be_positive_and_finite(omega0_true):
    with pytest.raises(DomainError):
        TrialConfig(cfg=CFG, omega0_true=omega0_true, n=100, trials=3, seed=1)


def failing_batch(monkeypatch):
    """MMSE trials whose posterior batch fails at its second and third
    distinct counts: the first of those errors is raised."""
    def batch(specs):
        return [1.0, EvidenceUnderflow("the second count fails"), DomainError("the third count fails"),
                *[1.0] * (len(specs) - 3)]

    monkeypatch.setattr(posterior, "mmse_many", batch)
    run_trials(TrialConfig(cfg=CFG, omega0_true=2.0, n=100, trials=20, seed=1, estimator=Estimator.MMSE,
                           prior=Prior.uniform(WINDOW)))


def trial_config(**changes):
    return lambda monkeypatch: TrialConfig(**{**dict(cfg=CFG, omega0_true=2.0, n=100, trials=3, seed=1),
                                              **changes})


@pytest.mark.parametrize("call, error, message", [
    (trial_config(n=0), DomainError, "trials per dataset n must be >= 1, got 0"),
    (trial_config(trials=0), DomainError, "dataset count must be >= 1, got 0"),
    (trial_config(seed=-1), DomainError, "seed must fit an unsigned 64-bit integer"),
    (trial_config(seed=2**64), DomainError, "seed must fit an unsigned 64-bit integer"),
    (trial_config(estimator=Estimator.MMSE), DomainError, "estimator mmse requires a prior"),
    (trial_config(estimator=Estimator.MAP), DomainError, "estimator map requires a prior"),
    (failing_batch, EvidenceUnderflow, "the second count fails"),
], ids=["n", "trials", "seed-negative", "seed-2**64", "mmse-prior", "map-prior", "failing-batch"])
def test_refusal(call, error, message, monkeypatch):
    with pytest.raises(error) as info:
        call(monkeypatch)
    assert type(info.value) is error and str(info.value) == message


def test_n_must_fit_a_64_bit_count():
    # The counts of a run are int64 and the draws go n / 8192 words at a
    # time: n = 2**63 is refused before any draw, 2**63 - 1 is accepted.
    assert TrialConfig(cfg=CFG, omega0_true=2.0, n=2**63 - 1, trials=3, seed=1).n == 2**63 - 1
    for n in (2**63, 10**19, 10**306):
        with pytest.raises(DomainError, match=r"n must be below 2\*\*63"):
            TrialConfig(cfg=CFG, omega0_true=2.0, n=n, trials=3, seed=1)


@pytest.mark.parametrize("cfg,n", [
    (CFG, 3),  # k = 0, complex roots, ambiguous and accepted inversions
    (FieldConfig(omega=1.0, b0=0.5, theta=math.pi / 2), 20),  # sinc domain violated too
    (FieldConfig(omega=3.0, b0=1.0, theta=1.0), 50),
], ids=["n3", "narrow-sinc", "tilted"])
def test_ml_outcomes_match_the_reference_loop(cfg, n):
    tc = TrialConfig(cfg=cfg, omega0_true=2.0, n=n, trials=300, seed=11)
    report = run_trials(tc)
    mean, variance, ambiguous, degenerate = reference_ml_moments(tc)
    assert (report.mean_estimate, report.variance) == (mean, variance)
    assert (report.ambiguous_count, report.degenerate_count) == (ambiguous, degenerate)


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
        dict(mean_estimate=2.0660022904242803, bias=0.06600229042428031,
             variance=0.046227908901219025, crb=0.1639746107834753,
             vantrees_bound=0.07489982589834976,
             degenerate_count=0, ambiguous_count=0, included_trials=40),
    ),
    (
        Estimator.MAP, 10, Prior.gaussian(WINDOW, 2.0, 1.0),
        dict(mean_estimate=2.0119671057510993, bias=0.011967105751099093,
             variance=0.14983107298168455, crb=0.1639746107834753,
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


def test_pinned_mmse_report_matches_mp_oracle():
    # The pinned MMSE moments and van Trees bound are the 40-digit values
    # for the counts drawn: one posterior mean per count and the uniform
    # prior's mean CFI, each on 35 equal pieces of the window.
    expected = PINNED_REPORTS[1][3]
    ks = [simulate_dataset(CFG, 2.0, 100, 2024, stream=i).k for i in range(40)]
    pieces = np.linspace(WINDOW.lower, WINDOW.upper, 36)
    means = {k: oracles.posterior_mean_mp(CFG, 100, k, pieces) for k in set(ks)}
    with mpmath.workdps(40):
        mean = sum(means[k] for k in ks) / len(ks)
        variance = sum((means[k] - mean) ** 2 for k in ks) / (len(ks) - 1)
        vantrees = 1 / (100 * oracles.mean_cfi_mp(CFG, pieces))
        assert float(mean) == pytest.approx(expected["mean_estimate"], rel=1e-15, abs=0)
        # The bias is the float mean minus 2, exact by Sterbenz's lemma, so it
        # keeps the mean's rounding: half an ulp of the mean, 3.4e-15 of it.
        half_ulp = 0.5 * math.ulp(expected["mean_estimate"])
        assert float(mean - 2) == pytest.approx(expected["bias"], rel=0, abs=half_ulp)
        assert float(variance) == pytest.approx(expected["variance"], rel=1e-15, abs=0)
        assert float(vantrees) == pytest.approx(expected["vantrees_bound"], rel=1e-15, abs=0)


def test_pinned_map_report_matches_mp_oracle():
    # The pinned MAP moments are the 40-digit values for the counts drawn:
    # one posterior mode per count.
    expected = PINNED_REPORTS[2][3]
    ks = [simulate_dataset(CFG, 2.0, 100, 2024, stream=i).k for i in range(10)]
    modes = {k: oracles.gaussian_map_mp(CFG, 100, k, WINDOW.lower, WINDOW.upper, 2.0, 1.0)
             for k in set(ks)}
    with mpmath.workdps(40):
        mean = sum(modes[k] for k in ks) / len(ks)
        variance = sum((modes[k] - mean) ** 2 for k in ks) / (len(ks) - 1)
        assert float(mean) == pytest.approx(expected["mean_estimate"], rel=1e-15, abs=0)
        assert float(mean - 2) == pytest.approx(expected["bias"], rel=1e-15, abs=0)
        assert float(variance) == pytest.approx(expected["variance"], rel=1e-15, abs=0)


def test_map_trials_are_one_batch_of_per_count_estimates(monkeypatch):
    prior = Prior.gaussian(WINDOW, 2.0, 1.0)
    tc = TrialConfig(cfg=CFG, omega0_true=2.0, n=100, trials=30, seed=5,
                     estimator=Estimator.MAP, prior=prior)
    batches = []
    original = map_estimator.map_many

    def counting(specs, *args):
        batches.append(len(specs))
        return original(specs, *args)

    # run_trials imports map_many from map_estimator when it runs.
    monkeypatch.setattr(map_estimator, "map_many", counting)
    report = run_trials(tc)
    ks = [simulate_dataset(CFG, 2.0, 100, 5, stream=i).k for i in range(30)]
    assert batches == [len(set(ks))]
    best = {k: map_estimate(PosteriorSpec(data=Dataset(100, k), cfg=CFG, prior=prior)).best.value
            for k in set(ks)}
    arr = np.array([best[k] for k in ks])
    mean = float(np.sum(arr) / arr.size)
    assert report.mean_estimate == mean
    assert report.variance == float(np.sum((arr - mean) ** 2) / (arr.size - 1))
