import math
from functools import partial

import numpy as np
import pytest

from oracles import gaussian_density, log_joint_dense, posterior_mean_dense, simpson_dense
from rabi_est.dynamics import FieldConfig, dprob_domega0, prob_detect, q_factor
from rabi_est.errors import DomainError
from rabi_est.fisher import cfi_values
from rabi_est.frequentist import Dataset, ml_estimate
from rabi_est.posterior import (
    PosteriorSpec,
    bayes_fisher,
    map_estimate,
    map_stationarity_lhs,
    mmse,
    posterior_log_density,
)
from rabi_est.priors import Prior, SupportWindow, log_density

CFG = FieldConfig(omega=1.0, b0=1.0, theta=math.pi / 2)
WIDE = SupportWindow(0.1, 100.0)
GAUSS = Prior.gaussian(WIDE, mean=10.0, sigma=2.0)
UNIFORM_WIDE = Prior.uniform(WIDE)
# Priors of the sweep across n, each with its (unnormalized) oracle density.
SWEEP_PRIORS = {
    "uniform": (UNIFORM_WIDE, np.ones_like),
    "gaussian": (Prior.gaussian(WIDE, mean=3.0, sigma=1.0), partial(gaussian_density, 3.0, 1.0)),
}
DECADES = [10**e for e in range(0, 11, 2)]


def random_spec(rng):
    """A posterior spec whose count rate is attained inside a window that
    stays on the invertible sinc branch (q < 2 pi), so the likelihood maxima
    in the window are exactly the principal inversion roots."""
    while True:
        cfg = FieldConfig(
            omega=rng.uniform(-2.0, 5.0),
            b0=rng.uniform(0.3, 2.5),
            theta=rng.uniform(0.3, math.pi - 0.3),
        )
        center = cfg.omega - 2.0 * cfg.b0 * math.cos(cfg.theta)
        half_span = 2.0 * math.sqrt(math.pi**2 - (cfg.b0 * math.sin(cfg.theta)) ** 2)
        lower = max(0.05, center - half_span + 0.1)
        upper = center + half_span - 0.1
        if upper - lower < 1.0:
            continue
        omega0 = rng.uniform(lower + 0.15 * (upper - lower), upper - 0.15 * (upper - lower))
        xbar = float(prob_detect(cfg, omega0))
        if not 0.05 < xbar < 0.95:
            continue
        if abs(float(dprob_domega0(cfg, omega0))) < 0.15:
            continue  # flat stretches of p carry too little information
        d = cfg.omega - omega0 - 2.0 * cfg.b0 * math.cos(cfg.theta)
        if abs(d) < 0.1:
            continue  # keep clear of the double-root degeneracy
        # Keep both inversion roots away from the window edges so grid-based
        # maximum searches never confuse them with boundary candidates.
        mirror = 2.0 * center - omega0
        if lower < mirror < upper and min(mirror - lower, upper - mirror) < 0.1:
            continue
        n = int(rng.integers(4, 40))
        k = n * xbar
        prior = Prior.uniform(SupportWindow(lower, upper))
        return PosteriorSpec(data=Dataset(n, k), cfg=cfg, prior=prior), omega0


def isolated_root_spec(rng, n: int):
    """A spec whose window brackets exactly one likelihood peak, placed
    off-center so the prior mean starts away from the root."""
    while True:
        base, omega0 = random_spec(rng)
        center = base.cfg.omega - 2.0 * base.cfg.b0 * math.cos(base.cfg.theta)
        mirror = 2.0 * center - omega0
        side = 1.0 if rng.random() < 0.5 else -1.0
        lower = max(base.prior.window.lower, omega0 - (0.35 - side * 0.25))
        upper = min(base.prior.window.upper, omega0 + (0.35 + side * 0.25))
        if not lower < omega0 < upper:
            continue
        if upper - omega0 < 0.05 or omega0 - lower < 0.05:
            continue
        if lower <= mirror <= upper:
            continue
        prior = Prior.uniform(SupportWindow(lower, upper))
        data = Dataset(n, n * base.data.xbar)
        return PosteriorSpec(data=data, cfg=base.cfg, prior=prior), omega0


class TestPosteriorDensity:
    def test_no_data_recovers_prior(self):
        prior = Prior.uniform(SupportWindow(1.5, 5.0))
        spec = PosteriorSpec(data=Dataset(0, 0), cfg=CFG, prior=prior)
        for x in (1.6, 3.0, 4.9):
            assert posterior_log_density(spec, x) == pytest.approx(
                log_density(prior, x), abs=1e-9
            )

    def test_single_count_flat_prior_proportional_to_probability(self):
        spec = PosteriorSpec(data=Dataset(1, 1), cfg=CFG, prior=UNIFORM_WIDE)
        xs = np.array([0.5, 1.5, 2.5, 7.0, 20.0])
        ratio = np.exp(posterior_log_density(spec, xs)) / np.asarray(
            prob_detect(CFG, xs)
        )
        assert np.max(ratio) - np.min(ratio) < 1e-9 * np.max(ratio)

    def test_normalization(self):
        spec = PosteriorSpec(data=Dataset(8, 4), cfg=CFG, prior=UNIFORM_WIDE)
        mass = simpson_dense(
            lambda x: np.exp(posterior_log_density(spec, x)), 0.1, 100.0, 200_001
        )
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_outside_window_rejected(self):
        spec = PosteriorSpec(data=Dataset(8, 4), cfg=CFG, prior=UNIFORM_WIDE)
        with pytest.raises(DomainError):
            posterior_log_density(spec, 100.5)


class TestMmse:
    def test_no_data_uniform_prior_mean(self):
        prior = Prior.uniform(SupportWindow(1.5, 5.0))
        spec = PosteriorSpec(data=Dataset(0, 0), cfg=CFG, prior=prior)
        assert mmse(spec) == pytest.approx(3.25, abs=1e-9)

    def test_no_data_gaussian_prior_mean(self):
        spec = PosteriorSpec(data=Dataset(0, 0), cfg=CFG, prior=GAUSS)
        assert mmse(spec) == pytest.approx(10.0, abs=1e-3)

    def test_fig5_gaussian_intercept(self):
        spec = PosteriorSpec(data=Dataset(8, 0), cfg=CFG, prior=GAUSS)
        assert mmse(spec) == pytest.approx(10.0, abs=1.0)

    def test_quadratic_loss_minimality(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            spec, _ = random_spec(rng)
            w = spec.prior.window
            est = mmse(spec)

            def loss(a):
                return simpson_dense(
                    lambda x: (x - a) ** 2 * np.exp(posterior_log_density(spec, x)),
                    w.lower,
                    w.upper,
                    40_001,
                )

            base = loss(est)
            for delta in (0.01, 0.1):
                assert base <= loss(est + delta) + 1e-12
                assert base <= loss(est - delta) + 1e-12

    def test_result_stays_in_window(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            spec, _ = random_spec(rng)
            est = mmse(spec)
            assert spec.prior.window.lower <= est <= spec.prior.window.upper


class TestMap:
    def test_grid_floor(self):
        spec = PosteriorSpec(data=Dataset(8, 4), cfg=CFG, prior=UNIFORM_WIDE)
        with pytest.raises(DomainError):
            map_estimate(spec, grid_points=100)

    def test_uniform_prior_matches_ml(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            spec, omega0_true = random_spec(rng)
            result = map_estimate(spec, grid_points=801)
            ml_roots = [
                r.value
                for r in ml_estimate(spec.data.xbar, spec.cfg).roots
                if spec.prior.window.lower < r.value < spec.prior.window.upper
            ]
            positions = [m.value for m in result.maxima]
            # Every in-window ML root appears among the posterior maxima.
            for root in ml_roots:
                assert min(abs(p - root) for p in positions) < 1e-9
            # The posterior argmax is an ML root (the likelihood peaks there).
            best = result.best.value
            assert min(abs(best - root) for root in ml_roots) < 1e-9

    def test_gaussian_prior_multimodal(self):
        spec = PosteriorSpec(data=Dataset(8, 2), cfg=CFG, prior=GAUSS)
        result = map_estimate(spec)
        interior = [m for m in result.maxima if not m.boundary]
        assert len(interior) >= 2
        for m in interior:
            assert m.second_derivative < 0.0 or m.inconclusive
            assert m.stationarity_residual < 1e-5 or math.isnan(m.stationarity_residual)

    def test_large_sample_concentrates_on_ml(self):
        # Posterior asymptotics: with many samples at an attainable rate the
        # global maximum sits on the ML estimate and dominates every other peak.
        n = 100_000
        omega0_true = 3.2
        xbar = float(prob_detect(CFG, omega0_true))
        spec = PosteriorSpec(data=Dataset(n, n * xbar), cfg=CFG, prior=GAUSS)
        result = map_estimate(spec, grid_points=4001)
        ml_roots = [r.value for r in ml_estimate(xbar, CFG).roots if r.value > 0]
        best = result.best
        assert min(abs(best.value - r) for r in ml_roots) < 1e-3
        others = [m.log_posterior for m in result.maxima if m is not best]
        assert all(best.log_posterior - lp > 10.0 for lp in others)

    def test_boundary_maximum_flagged(self):
        # Window cut just below the likelihood peak: the posterior rises into
        # the upper edge, which is reported as a boundary candidate.
        prior = Prior.uniform(SupportWindow(3.0, 3.3))
        xbar = float(prob_detect(CFG, 3.42))
        spec = PosteriorSpec(data=Dataset(20, 20 * xbar), cfg=CFG, prior=prior)
        result = map_estimate(spec)
        assert any(m.boundary and m.value == 3.3 for m in result.maxima)


class TestStationarityForm:
    def test_uniform_is_probability(self):
        xs = np.linspace(0.5, 9.5, 41)
        vals = map_stationarity_lhs(CFG, UNIFORM_WIDE, 8, xs)
        assert np.allclose(vals, np.asarray(prob_detect(CFG, xs)), atol=1e-14)

    def test_vanishes_into_probability_at_large_n(self):
        xs = np.linspace(0.5, 9.5, 41)
        vals = np.asarray(map_stationarity_lhs(CFG, GAUSS, 10**9, xs))
        assert np.allclose(vals, np.asarray(prob_detect(CFG, xs)), atol=1e-5)


class TestBayesFisher:
    def test_collapsed_window_recovers_pointwise_cfi(self):
        omega0 = 2.0
        prior = Prior.uniform(SupportWindow(omega0 - 5e-5, omega0 + 5e-5))
        bf = bayes_fisher(CFG, prior, 10)
        assert bf.bayes_cfi == pytest.approx(float(cfi_values(CFG, omega0)), rel=1e-3)

    def test_gap_identity(self):
        prior = Prior.uniform(SupportWindow(1.5, 5.0))
        for n in (1, 8, 1000):
            bf = bayes_fisher(CFG, prior, n)
            assert bf.bayes_gap == pytest.approx(bf.bayes_qfi - bf.bayes_cfi, abs=1e-9)

    def test_prior_information_scaling(self):
        bf_small = bayes_fisher(CFG, GAUSS, 100)
        bf_large = bayes_fisher(CFG, GAUSS, 10**6)
        expect = 0.25 * (1.0 / 100 - 1.0 / 10**6)
        assert bf_small.bayes_cfi - bf_large.bayes_cfi == pytest.approx(expect, rel=1e-6)

    def test_uniform_prior_has_no_information_term(self):
        prior = Prior.uniform(SupportWindow(1.5, 5.0))
        assert bayes_fisher(CFG, prior, 1).bayes_cfi == pytest.approx(
            bayes_fisher(CFG, prior, 10**6).bayes_cfi, abs=1e-12
        )


class TestLikelihoodDominance:
    def test_doubling_samples_moves_mmse_toward_ml(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            base_spec, omega0_true = isolated_root_spec(rng, 8)
            ml_root = omega0_true  # the generating value solves the inversion
            xbar = base_spec.data.xbar
            distances = []
            for n in (8, 32, 128, 512, 2048):
                spec = PosteriorSpec(
                    data=Dataset(n, n * xbar), cfg=base_spec.cfg, prior=base_spec.prior
                )
                distances.append(abs(mmse(spec) - ml_root))
            assert distances[-1] < distances[0] + 1e-9
            assert distances[-1] < 0.05


def oracle_window(n: int) -> tuple[float, float]:
    """The wide window while a 400 001-point grid over it resolves the
    posterior at k = round(n p(3)), else 40 Laplace widths each side of the
    ML root 3, outside which the mass is below e^-800."""
    if n < 10**8:
        return WIDE.lower, WIDE.upper
    half = 40.0 / math.sqrt(n * float(cfi_values(CFG, 3.0)))
    return 3.0 - half, 3.0 + half


class TestAcrossDecades:
    """Data k = round(n p(3)) on the wide window, n from 1 to 1e10: the
    posterior narrows from the whole window to ~3e-6."""

    @pytest.mark.parametrize("prior_name", SWEEP_PRIORS)
    @pytest.mark.parametrize("n", DECADES)
    def test_mmse_matches_dense_mean(self, n, prior_name):
        prior, density = SWEEP_PRIORS[prior_name]
        k = round(n * float(prob_detect(CFG, 3.0)))
        est = mmse(PosteriorSpec(data=Dataset(n, k), cfg=CFG, prior=prior))
        ref = posterior_mean_dense(CFG, density, n, k, *oracle_window(n), grid=400_001)
        assert est == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("prior_name", SWEEP_PRIORS)
    @pytest.mark.parametrize("n", DECADES)
    def test_map_reaches_dense_maximum(self, n, prior_name):
        prior, density = SWEEP_PRIORS[prior_name]
        k = round(n * float(prob_detect(CFG, 3.0)))
        best = map_estimate(PosteriorSpec(data=Dataset(n, k), cfg=CFG, prior=prior)).best
        top = np.max(log_joint_dense(CFG, density, n, k, np.linspace(*oracle_window(n), 400_001)))
        assert log_joint_dense(CFG, density, n, k, np.array([best.value]))[0] >= top - 1e-5


class TestMultimodal:
    """xbar = 0.03 is reached once on the main lobe of p (omega0 ~ 5.93) and
    twice on the first side lobe (~8.49 and ~11.15), which lies between the
    zero of p at ~6.96 and the next at ~13.41. At n = 1e8 each posterior mode
    is under 1e-3 wide; all the mass lies in (3, 15)."""

    SPEC = PosteriorSpec(data=Dataset(10**8, 3 * 10**6), cfg=CFG, prior=UNIFORM_WIDE)

    def test_roots_in_two_lobes(self):
        xs = np.linspace(WIDE.lower, WIDE.upper, 2_000_001)
        gap = np.asarray(prob_detect(CFG, xs)) - 0.03
        roots = xs[np.flatnonzero(np.sign(gap[1:]) != np.sign(gap[:-1]))]
        assert len(roots) == 3
        assert roots[0] < 6.95 < roots[1] < roots[2] < 13.4

    def test_mmse_matches_dense_mean(self):
        ref = posterior_mean_dense(CFG, np.ones_like, 10**8, 3 * 10**6, 3.0, 15.0, grid=600_001)
        assert mmse(self.SPEC) == pytest.approx(ref, rel=1e-9)

    def test_map_reaches_dense_maximum(self):
        xs = np.linspace(3.0, 15.0, 600_001)
        top = np.max(log_joint_dense(CFG, np.ones_like, 10**8, 3 * 10**6, xs))
        best = map_estimate(self.SPEC).best.value
        assert log_joint_dense(CFG, np.ones_like, 10**8, 3 * 10**6, np.array([best]))[0] >= top - 1e-5
