import math

import mpmath
import numpy as np
import pytest

from oracles import bisect, enumerate_counts, log_likelihood, loglik_curvature
from rabi_est.dynamics import FieldConfig, prob_detect, q_factor
from rabi_est.errors import (
    DegenerateData,
    DomainError,
    NoRealRoot,
    SincDomainViolated,
)
from rabi_est.frequentist import (
    Ambiguity,
    Dataset,
    RootStatus,
    log_likelihood_counts,
    log_likelihood_ratio,
    ml_estimate,
    mvu_p1,
    validity,
)

CFG = FieldConfig(omega=1.0, b0=1.0, theta=math.pi / 2)
XBAR_PI = 4.0 / math.pi**2


class TestDataset:
    def test_validation(self):
        with pytest.raises(DomainError):
            Dataset(n=-1, k=0)
        with pytest.raises(DomainError):
            Dataset(n=5, k=6)
        with pytest.raises(DomainError):
            Dataset(n=5, k=-1)

    def test_fractional_counts_allowed(self):
        assert Dataset(n=8, k=2.4).xbar == pytest.approx(0.3)

    def test_empty_dataset_has_no_rate(self):
        with pytest.raises(DomainError):
            Dataset(n=0, k=0).xbar


class TestMvu:
    def test_sample_mean(self):
        assert mvu_p1(Dataset(10, 3)) == pytest.approx(0.3)
        assert mvu_p1(Dataset(5, 0)) == 0.0

    def test_exhaustive_moments(self):
        # All 2^6 outcomes at detection probability 0.37: the count rate is
        # unbiased with variance p(1-p)/n, and the score has zero mean.
        stats = enumerate_counts(6, 0.37)
        assert stats["mean"] == pytest.approx(0.37, abs=1e-12)
        assert stats["variance"] == pytest.approx(0.37 * 0.63 / 6.0, abs=1e-12)
        assert abs(stats["score"]) < 1e-12

    def test_regularity_condition_small_n(self):
        for n in (2, 4, 7, 10):
            assert abs(enumerate_counts(n, 0.43)["score"]) < 1e-12

    def test_score_identity(self):
        # d/dp of the log PMF equals n (xbar - p) / (p (1-p)) for any counts.
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            k = int(rng.integers(0, n + 1))
            p = rng.uniform(0.05, 0.95)
            lhs = k / p - (n - k) / (1.0 - p)
            rhs = n / (p * (1.0 - p)) * (k / n - p)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestValidity:
    def test_boundary_rate(self):
        report = validity(1.0, CFG)
        assert report.sinc_ok and report.s_value == 0.0 and not report.real_distinct

    def test_pi_rabi_angle(self):
        report = validity(XBAR_PI, CFG)
        assert report.sinc_ok
        assert report.s_value == pytest.approx(math.pi / 2.0, abs=1e-12)
        assert report.real_distinct

    def test_domain_violation(self):
        report = validity(0.9, FieldConfig(omega=1.0, b0=0.5, theta=math.pi / 2))
        assert not report.sinc_ok and not report.real_distinct

    def test_real_distinct_implies_sinc_ok(self):
        rng = np.random.default_rng(32)
        for _ in range(500):
            cfg = FieldConfig(
                omega=rng.uniform(-10, 10),
                b0=rng.uniform(0.1, 5.0),
                theta=rng.uniform(0.1, math.pi - 0.1),
            )
            report = validity(rng.uniform(0.0, 1.0), cfg)
            assert report.sinc_ok or not report.real_distinct


class TestMlEstimate:
    def test_worked_example(self):
        result = ml_estimate(XBAR_PI, CFG)
        values = [r.value for r in result.roots]
        statuses = [r.status for r in result.roots]
        assert values[0] == pytest.approx(1.0 + 2.0 * math.sqrt(math.pi**2 / 4 - 1), abs=1e-9)
        assert values[1] == pytest.approx(1.0 - 2.0 * math.sqrt(math.pi**2 / 4 - 1), abs=1e-9)
        assert statuses == [RootStatus.ACCEPTED, RootStatus.REJECTED_NEGATIVE]
        assert result.ambiguity is Ambiguity.UNAMBIGUOUS
        # Forward check through the detection probability.
        assert float(prob_detect(CFG, values[0])) == pytest.approx(XBAR_PI, abs=1e-10)

    def test_unit_rate_has_no_real_root(self):
        with pytest.raises(NoRealRoot):
            ml_estimate(1.0, CFG)

    def test_zero_rate_is_degenerate(self):
        with pytest.raises(DegenerateData):
            ml_estimate(0.0, CFG)

    def test_sinc_domain_violation(self):
        with pytest.raises(SincDomainViolated):
            ml_estimate(0.9, FieldConfig(omega=1.0, b0=0.5, theta=math.pi / 2))

    def test_ambiguous_both_positive(self):
        # Large drive frequency shifts both roots positive.
        cfg = FieldConfig(omega=8.0, b0=1.0, theta=math.pi / 2)
        result = ml_estimate(XBAR_PI, cfg)
        assert result.ambiguity is Ambiguity.AMBIGUOUS
        assert len(result.accepted) == 2

    def test_round_trip_over_draws(self):
        rng = np.random.default_rng(33)
        checked = 0
        while checked < 1000:
            cfg = FieldConfig(
                omega=rng.uniform(-10.0, 10.0),
                b0=rng.uniform(0.1, 3.0),
                theta=rng.uniform(0.1, math.pi - 0.1),
            )
            omega0 = rng.uniform(0.05, 10.0)
            q = float(q_factor(cfg, omega0))
            if q >= 2.0 * math.pi:
                continue  # outside the invertible branch
            xbar = float(prob_detect(cfg, omega0))
            if not 1e-6 < xbar < 1.0 - 1e-6:
                continue
            d = cfg.omega - omega0 - 2.0 * cfg.b0 * math.cos(cfg.theta)
            if abs(d) < 1e-6:
                continue  # double root, excluded by the strict condition
            result = ml_estimate(xbar, cfg)
            assert any(abs(r.value - omega0) < 1e-9 for r in result.roots)
            checked += 1

    def test_quadratic_matches_bracketed_inversion(self):
        result = ml_estimate(XBAR_PI, CFG)
        for root in result.roots:
            numeric = bisect(
                lambda x: float(prob_detect(CFG, x)) - XBAR_PI,
                root.value - 0.01,
                root.value + 0.01,
            )
            assert root.value == pytest.approx(numeric, abs=1e-8)

    def test_curvature_negative_at_accepted_roots(self):
        data = Dataset(100, 41)
        result = ml_estimate(data.xbar, CFG)
        for value in result.accepted:
            assert loglik_curvature(data, CFG, value) < 0.0


class TestLogLikelihood:
    def test_single_detection(self):
        cfg = FieldConfig(omega=1.0, b0=math.pi / 4, theta=math.pi / 2)  # p = 1/2
        assert log_likelihood(Dataset(1, 1), cfg, 1.0) == pytest.approx(
            math.log(0.5), abs=1e-12
        )

    def test_binomial_coefficient(self):
        p = float(prob_detect(CFG, 2.0))
        expect = math.log(3.0) + 2.0 * math.log(p) + math.log(1.0 - p)
        assert log_likelihood(Dataset(3, 2), CFG, 2.0) == pytest.approx(expect, abs=1e-12)

    def test_fig5_point(self):
        p = float(prob_detect(CFG, 2.0))
        expect = math.log(math.comb(8, 5)) + 5 * math.log(p) + 3 * math.log(1 - p)
        assert log_likelihood(Dataset(8, 5), CFG, 2.0) == pytest.approx(expect, abs=1e-10)

    def test_pinned_probability_conflicts(self):
        assert log_likelihood_counts(3, 2, 0.0) == -math.inf
        assert log_likelihood_counts(3, 2, 1.0) == -math.inf
        assert log_likelihood_counts(3, 0, 0.0) == 0.0
        assert log_likelihood_counts(3, 3, 1.0) == 0.0

    def test_fractional_counts(self):
        val = log_likelihood_counts(8, 2.4, 0.3)
        expect = (
            math.lgamma(9.0)
            - math.lgamma(3.4)
            - math.lgamma(6.6)
            + 2.4 * math.log(0.3)
            + 5.6 * math.log(0.7)
        )
        assert val == pytest.approx(expect, abs=1e-12)


class TestLogLikelihoodRatio:
    def test_matches_difference_at_small_n(self):
        p = np.array([1e-9, 0.1, 0.45, 0.5, 0.9, 1.0 - 1e-9])
        for n, k in ((8, 0), (8, 3), (8, 8), (100, 41.5)):
            ref = 0.45
            expect = log_likelihood_counts(n, k, p) - log_likelihood_counts(n, k, ref)
            got = log_likelihood_ratio(n, k, p, p - ref, ref)
            assert np.allclose(got, expect, rtol=1e-12, atol=1e-12)

    def test_pinned_probability_conflicts(self):
        assert log_likelihood_ratio(3, 2, 0.0, -0.5, 0.5) == -math.inf
        assert log_likelihood_ratio(3, 2, 1.0, 0.5, 0.5) == -math.inf

    def test_precision_near_the_reference_at_large_n(self):
        # ln L(ref + dp) - ln L(ref) from the exact binomial terms at 40
        # digits: the ratio form keeps ~1e-12 where ln L itself is ~7e9.
        n, k, ref = 10**10, 4_878_407_820, 0.487840782
        for dp in (-3e-6, 1e-7, 2e-9):
            got = float(log_likelihood_ratio(n, k, ref + dp, dp, ref))
            with mpmath.workdps(40):
                r, q = mpmath.mpf(ref), mpmath.mpf(ref) + mpmath.mpf(dp)
                expect = k * mpmath.log(q / r) + (n - k) * mpmath.log((1 - q) / (1 - r))
            assert abs(got - float(expect)) < 1e-9 * max(1.0, abs(float(expect)))
