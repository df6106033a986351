import math
from functools import partial

import numpy as np
import pytest

from oracles import (
    gaussian_density,
    jeffreys_density_shape,
    log_joint_dense,
    posterior_mean_dense,
    posterior_mean_mp,
    quad_pieces,
    simpson_dense,
)
from rabi_est.dynamics import FieldConfig, dprob_domega0, prob_detect, prob_stationary_points, q_factor
from rabi_est.errors import DomainError, EvidenceUnderflow
from rabi_est.fisher import cfi_values, qfi_values
from rabi_est.frequentist import Dataset, ml_estimate
from rabi_est import posterior
from rabi_est.map_estimator import map_many
from rabi_est.posterior import (
    PosteriorSpec,
    bayes_fisher,
    map_estimate,
    mmse,
    mmse_many,
)
from rabi_est.priors import Prior, SupportWindow, log_density, map_stationarity_lhs

CFG = FieldConfig(omega=1.0, b0=1.0, theta=math.pi / 2)
WIDE = SupportWindow(0.1, 100.0)
GAUSS = Prior.gaussian(WIDE, mean=10.0, sigma=2.0)
UNIFORM_WIDE = Prior.uniform(WIDE)
JEFFREYS_WIDE = Prior.jeffreys(WIDE, CFG)
# The ends of the wide window and the stationary points of p between them.
WIDE_PIECES = np.concatenate([[WIDE.lower], prob_stationary_points(CFG, WIDE.lower, WIDE.upper)[0],
                              [WIDE.upper]])
# Priors of the sweep across n, each with its (unnormalized) oracle density.
SWEEP_PRIORS = {
    "uniform": (UNIFORM_WIDE, np.ones_like),
    "gaussian": (Prior.gaussian(WIDE, mean=3.0, sigma=1.0), partial(gaussian_density, 3.0, 1.0)),
}
DECADES = [10**e for e in range(0, 11, 2)]


def log_evidence(spec):
    """Log of the posterior's evidence, from its log joint at the mode and
    the evidence of the shifted integrand."""
    shift, z, _ = posterior._moments(spec)
    return shift + math.log(z)


def log_joint(spec, omega0):
    """The log joint of one spec at omega0, elementwise: the batch kernel
    with one member."""
    x = np.asarray(omega0, dtype=float)
    return posterior._LogJoint([spec])(x, np.zeros(x.shape, np.intp))


def posterior_log_density(spec, omega0):
    """Log of the normalized posterior density at omega0, elementwise."""
    return log_joint(spec, omega0) - log_evidence(spec)


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
    def test_uniform_prior_matches_ml(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            spec, omega0_true = random_spec(rng)
            result = map_estimate(spec)
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
            assert m.second_derivative < 0.0 or abs(m.second_derivative) < 1e-8
            assert m.stationarity_residual < 1e-5 or math.isnan(m.stationarity_residual)

    def test_large_sample_concentrates_on_ml(self):
        # Posterior asymptotics: with many samples at an attainable rate the
        # global maximum sits on the ML estimate and dominates every other peak.
        n = 100_000
        omega0_true = 3.2
        xbar = float(prob_detect(CFG, omega0_true))
        spec = PosteriorSpec(data=Dataset(n, n * xbar), cfg=CFG, prior=GAUSS)
        result = map_estimate(spec)
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


class TestMapFieldsPerPeak:
    """map_estimate's array calls against a stencil evaluated peak by peak
    with scalar calls of the log joint."""

    @pytest.mark.parametrize("prior,n,k", [
        (Prior.gaussian(WIDE, 2.0, 1.0), 100, 49),
        (Prior.gaussian(WIDE, 2.0, 1.0), 100, 100),
        (GAUSS, 8, 2),
        # A boundary maximum at the upper edge.
        (Prior.uniform(SupportWindow(3.0, 3.3)), 20, 20 * float(prob_detect(CFG, 3.42))),
        (Prior.jeffreys(SupportWindow(1.5, 5.0), CFG), 100, 30),
    ], ids=["gaussian-k49", "gaussian-k100", "gaussian-n8", "boundary", "jeffreys"])
    def test_fields_match_scalar_stencil(self, prior, n, k):
        spec = PosteriorSpec(data=Dataset(n, k), cfg=CFG, prior=prior)
        w = prior.window
        log_z = log_evidence(spec)

        def g(x):
            return float(log_joint(spec, np.float64(x)))

        result = map_estimate(spec)
        for m in result.maxima:
            x = m.value
            assert m.log_posterior == pytest.approx(g(x) - log_z, rel=1e-13, abs=1e-13)
            if m.boundary:
                assert math.isnan(m.second_derivative)
                assert math.isnan(m.stationarity_residual)
                continue
            h = min(max(1e-4, 1e-5 * abs(x)), 0.45 * (x - w.lower), 0.45 * (w.upper - x))
            second = (g(x + h) - 2.0 * g(x) + g(x - h)) / (h * h)
            # A few ulps of the log joint, over h^2.
            assert m.second_derivative == pytest.approx(second, abs=16 * np.spacing(abs(g(x))) / h**2)
            if abs(float(dprob_domega0(CFG, x))) > 1e-12:
                lhs = float(map_stationarity_lhs(CFG, prior, spec.data.n, x))
                assert m.stationarity_residual == pytest.approx(abs(lhs - spec.data.xbar), abs=1e-14)
            else:
                assert math.isnan(m.stationarity_residual)


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

    def test_gap_matches_piecewise_reference(self):
        # QFI - CFI under the Gaussian(10, 2) prior oscillates across the
        # wide window; the default tolerance is 1e-10 absolute for this gap.
        def gap(x):
            return float((qfi_values(CFG, x) - cfi_values(CFG, x)) * gaussian_density(10.0, 2.0, x))

        ref = quad_pieces(gap, WIDE_PIECES) / quad_pieces(partial(gaussian_density, 10.0, 2.0), WIDE_PIECES)
        assert bayes_fisher(CFG, GAUSS, 8).bayes_gap == pytest.approx(ref, abs=1e-10)

    @pytest.mark.parametrize("mean", [3.3, 50.03])
    def test_narrow_prior_matches_piecewise_reference(self, mean):
        # sigma = 0.01 is under a tenth of the node spacing of a piece.
        prior = Prior.gaussian(WIDE, mean=mean, sigma=0.01)
        pieces = np.sort(np.append(WIDE_PIECES, mean))

        def weighted(x):
            return float(cfi_values(CFG, x) * gaussian_density(mean, 0.01, x))

        ref = quad_pieces(weighted, pieces) / quad_pieces(partial(gaussian_density, mean, 0.01), pieces)
        assert bayes_fisher(CFG, prior, 10).bayes_cfi - 1e4 / 10 == pytest.approx(ref, abs=1e-10)


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


class TestFig5Posteriors:
    """Posteriors of the Fig. 5 MMSE curve: n = 8 on the wide window, so a
    fractional count k = 8 xbar."""

    def test_jeffreys_mean_matches_oracles(self):
        # The Jeffreys density has a kink at each zero of sqrt(CFI), and
        # k = 2.4 leaves a |omega0 - z|^4.8 cusp at each zero z of p.
        k = 8 * 0.3
        est = mmse(PosteriorSpec(data=Dataset(8, k), cfg=CFG, prior=JEFFREYS_WIDE))
        exact = posterior_mean_mp(CFG, 8, k, WIDE_PIECES, jeffreys=True, dps=20, maxdegree=6)
        assert est == pytest.approx(float(exact), rel=1e-12)
        # Simpson converges slowly over the kinks: on 200,001 points it is
        # 1.2e-11 off the mpmath value, on 2,000,001 points 2e-12.
        dense = posterior_mean_dense(CFG, partial(jeffreys_density_shape, CFG), 8, k, WIDE.lower, WIDE.upper,
                                     grid=2_000_001)
        assert est == pytest.approx(dense, rel=1e-11)

    @pytest.mark.parametrize("prior", [UNIFORM_WIDE, JEFFREYS_WIDE], ids=["uniform", "jeffreys"])
    def test_cusp_posterior_work_is_bounded(self, prior, monkeypatch):
        # k = 0.08 leaves a |omega0 - z|^0.16 cusp at each of the ~30 zeros z
        # of p in the window. Counted: the integrand points the quadrature
        # requests for one posterior.
        points = [0]
        original = posterior.integrate_owners

        def counting(f, lo, hi, owner, owners):
            def counted(x, o):
                points[0] += x.size
                return f(x, o)

            return original(counted, lo, hi, owner, owners=owners)

        monkeypatch.setattr(posterior, "integrate_owners", counting)
        posterior._moments.cache_clear()
        mmse(PosteriorSpec(data=Dataset(8, 8 * 0.01), cfg=CFG, prior=prior))
        assert 0 < points[0] <= 100_000


class TestBatches:
    """mmse_many against mmse, member by member, on the Fig. 5 posteriors."""

    SPECS = [PosteriorSpec(data=Dataset(8, 8 * x), cfg=CFG, prior=JEFFREYS_WIDE)
             for x in (0.0, 0.01, 0.3, 0.3, 0.62, 1.0)]

    def spoil(self, monkeypatch, k, value):
        """Sets the log likelihood ratio of the count k to ``value`` at every
        integrand point, for its posterior alone."""
        original = posterior.log_likelihood_ratio

        def spoiled(n, counts, p, dp, ref):
            return np.where(counts == k, value, original(n, counts, p, dp, ref))

        monkeypatch.setattr(posterior, "log_likelihood_ratio", spoiled)

    @pytest.mark.parametrize("value,error", [(-np.inf, EvidenceUnderflow), (np.nan, DomainError)],
                             ids=["zero-evidence", "non-finite"])
    def test_failing_quadrature_is_isolated(self, value, error, monkeypatch):
        clean = [mmse(spec) for spec in self.SPECS]
        posterior._moments.cache_clear()
        self.spoil(monkeypatch, 8 * 0.62, value)
        with pytest.raises(error):
            mmse(self.SPECS[4])
        got = mmse_many(self.SPECS)
        assert type(got[4]) is error
        assert got[:4] + got[5:] == clean[:4] + clean[5:]

    def test_failing_workspace_is_isolated(self, monkeypatch):
        # The log joint of the count 0.08 is -inf everywhere, on the grid and
        # at every peak, so its workspace fails.
        clean = [mmse(spec) for spec in self.SPECS]
        original = posterior._log_likelihood_logs

        def vanishing(n, k, *args):
            return np.where(k == 8 * 0.01, -np.inf, original(n, k, *args))

        monkeypatch.setattr(posterior, "_log_likelihood_logs", vanishing)
        got = mmse_many(self.SPECS)
        assert type(got[1]) is EvidenceUnderflow
        assert "vanishes everywhere" in str(got[1])
        assert got[:1] + got[2:] == clean[:1] + clean[2:]

    @pytest.mark.parametrize("many", [mmse_many, map_many], ids=["mmse", "map"])
    def test_n_beyond_the_likelihood_range_fails_each_spec(self, many):
        # ln n! overflows at this n: each spec of the big-n batch carries the
        # DomainError that its lone estimate raises, and the other batch answers.
        specs = [PosteriorSpec(data=Dataset(n, n * x), cfg=CFG, prior=UNIFORM_WIDE)
                 for n in (1e306, 8) for x in (0.1, 0.4)]
        with pytest.raises(DomainError, match="n = 1e"):
            mmse(specs[0])
        got = many(specs)
        assert [type(r) for r in got[:2]] == [DomainError, DomainError]
        alone = [mmse(s) if many is mmse_many else map_estimate(s) for s in specs[2:]]
        assert repr(got[2:]) == repr(alone)  # repr: a MapResult may hold NaN

    def test_groups_by_prior_and_n(self, monkeypatch):
        # Specs of two priors and two n, interleaved: one quadrature per group.
        specs = [PosteriorSpec(data=Dataset(n, n * x), cfg=CFG, prior=prior)
                 for x in (0.1, 0.4) for n in (8, 100) for prior in (UNIFORM_WIDE, GAUSS)]
        # Lone posteriors are a batch of one each: computed before counting.
        alone = [mmse(spec) for spec in specs]
        calls = []
        original = posterior.integrate_owners

        def counting(f, lo, hi, owner, owners):
            calls.append(owners)
            return original(f, lo, hi, owner, owners=owners)

        monkeypatch.setattr(posterior, "integrate_owners", counting)
        assert mmse_many(specs) == alone
        assert sorted(calls) == [2, 2, 2, 2]

    def test_single_posterior_is_a_batch_of_one(self, monkeypatch):
        # mmse and map_estimate integrate a lone posterior in one
        # integrate_owners call of one owner, as they do a batch.
        calls = []
        original = posterior.integrate_owners

        def counting(f, lo, hi, owner, owners):
            calls.append(owners)
            return original(f, lo, hi, owner, owners=owners)

        monkeypatch.setattr(posterior, "integrate_owners", counting)
        posterior._moments.cache_clear()
        spec = self.SPECS[0]
        mmse(spec)
        map_estimate(spec)
        assert calls == [1, 1]


class TestSharedGrid:
    """One mass grid per field and window, which every prior on it reads."""

    PRIORS = (UNIFORM_WIDE, JEFFREYS_WIDE, GAUSS)

    @staticmethod
    def specs(prior):
        return [PosteriorSpec(data=Dataset(8, 8 * x), cfg=CFG, prior=prior) for x in (0.0, 0.3, 0.62, 1.0)]

    def test_priors_on_one_window_build_one_grid(self):
        got = mmse_many([spec for prior in self.PRIORS for spec in self.specs(prior)])
        assert posterior._grid.cache_info().misses == 1
        alone = []
        for prior in self.PRIORS:
            posterior._grid.cache_clear()
            alone += mmse_many(self.specs(prior))
        assert got == alone

    def test_map_reads_the_grid_of_another_prior(self):
        cold = [map_fields(result) for result in map_many(self.specs(GAUSS))]
        posterior._grid.cache_clear()
        mmse_many(self.specs(UNIFORM_WIDE))
        warm = [map_fields(result) for result in map_many(self.specs(GAUSS))]
        assert posterior._grid.cache_info().misses == 1
        for fields, expected in zip(warm, cold):
            np.testing.assert_array_equal(np.array(fields, dtype=float), np.array(expected, dtype=float))


class TestBatchWorkingSet:
    """The memory of one batch, and values that do not depend on its size."""

    def test_batch_of_256_posteriors(self, traced_peak):
        # 256 uniform posteriors at n = 8, xbar from 0 to 1, on a grid built
        # beforehand: 3.06 MiB. The quadrature regroups its six panel arrays
        # by owner in place; new copies beside the old took 3.37 MiB.
        specs = [PosteriorSpec(data=Dataset(8, 8 * x), cfg=CFG, prior=UNIFORM_WIDE)
                 for x in np.linspace(0.0, 1.0, 256)]
        mmse_many(specs[:1])
        peak, got = traced_peak(mmse_many, specs)
        assert all(isinstance(m, float) for m in got)
        assert peak <= 3.2 * 2**20

    @pytest.mark.parametrize("many", [mmse_many, map_many], ids=["mmse", "map"])
    def test_batch_size_changes_no_value(self, many, monkeypatch):
        specs = [PosteriorSpec(data=Dataset(8, 8 * x), cfg=CFG, prior=GAUSS) for x in np.linspace(0.0, 1.0, 20)]
        default = many(specs)
        calls = []
        original = posterior.integrate_owners

        def counting(f, lo, hi, owner, owners):
            calls.append(owners)
            return original(f, lo, hi, owner, owners=owners)

        monkeypatch.setattr(posterior, "integrate_owners", counting)
        monkeypatch.setattr(posterior, "_BATCH", 7)
        assert repr(many(specs)) == repr(default)  # repr: exact for floats, and NaN matches NaN
        assert calls == [7, 7, 6]


class TestMapAtSqrtCfiZero:
    """A Jeffreys prior on the wide window, cfg (1, 0.3, 1), and xbar above
    the largest p in the window (0.0624), which p reaches at the zero of
    sqrt(CFI) z = 0.67581862. The prior vanishes at z, so the posterior has
    two mirror-image modes beside it, ~5e-5 from it at n = 1e10."""

    CFG = FieldConfig(omega=1.0, b0=0.3, theta=1.0)
    Z = 0.67581862

    @pytest.mark.parametrize("n", [10**4, 10**6, 10**8, 10**10])
    def test_map_reaches_dense_maximum(self, n):
        k = 0.2623843641 * n
        spec = PosteriorSpec(data=Dataset(n, k), cfg=self.CFG, prior=Prior.jeffreys(WIDE, self.CFG))
        result = map_estimate(spec)
        half = 60.0 / math.sqrt(n)
        xs = np.linspace(self.Z - half, self.Z + half, 400_001)
        shape = partial(jeffreys_density_shape, self.CFG)
        top = np.max(log_joint_dense(self.CFG, shape, n, k, xs))
        # Heights, not locations: the modes beside z are mirror images.
        best = log_joint_dense(self.CFG, shape, n, k, np.array([result.best.value]))[0]
        assert best >= top - 1e-5
        for m in result.maxima:
            assert m.boundary or m.second_derivative < 0.0 or abs(m.second_derivative) < 1e-8


def map_fields(result):
    """The fields of each maximum of a MapResult, or the error's type."""
    if isinstance(result, Exception):
        return type(result)
    return [(m.value, m.log_posterior, m.second_derivative, m.boundary, m.stationarity_residual)
            for m in result.maxima]


class TestMapBatches:
    """map_many against map_estimate, member by member. Members that share
    field, prior and n form one batch."""

    GAUSS_2 = Prior.gaussian(WIDE, 2.0, 1.0)
    NARROW = Prior.uniform(SupportWindow(3.0, 3.3))
    JEFFREYS = Prior.jeffreys(SupportWindow(1.5, 5.0), CFG)
    SPECS = [
        PosteriorSpec(data=Dataset(100, 49), cfg=CFG, prior=GAUSS_2),
        PosteriorSpec(data=Dataset(100, 30), cfg=CFG, prior=GAUSS_2),
        PosteriorSpec(data=Dataset(100, 100), cfg=CFG, prior=GAUSS_2),
        PosteriorSpec(data=Dataset(8, 2.4), cfg=CFG, prior=UNIFORM_WIDE),
        PosteriorSpec(data=Dataset(8, 0.0), cfg=CFG, prior=UNIFORM_WIDE),
        # A boundary maximum at the upper edge, and one at the lower.
        PosteriorSpec(data=Dataset(20, 20 * float(prob_detect(CFG, 3.42))), cfg=CFG, prior=NARROW),
        PosteriorSpec(data=Dataset(20, 20 * float(prob_detect(CFG, 2.9))), cfg=CFG, prior=NARROW),
        PosteriorSpec(data=Dataset(100, 30), cfg=CFG, prior=JEFFREYS),
        PosteriorSpec(data=Dataset(100, 60), cfg=CFG, prior=JEFFREYS),
    ]

    def test_batch_equals_single(self):
        single = [map_fields(map_estimate(spec)) for spec in self.SPECS]
        got = [map_fields(result) for result in map_many(self.SPECS)]
        assert [m[0] for m in single[5] + single[6] if m[3]] == [3.3, 3.0]
        for fields, expected in zip(got, single):
            np.testing.assert_array_equal(np.array(fields, dtype=float), np.array(expected, dtype=float))

    def test_failing_member_is_isolated(self, monkeypatch):
        single = [map_fields(map_estimate(spec)) for spec in self.SPECS]
        original = posterior.log_likelihood_ratio

        def spoiled(n, counts, p, dp, ref):
            return np.where(counts == 30, -np.inf, original(n, counts, p, dp, ref))

        monkeypatch.setattr(posterior, "log_likelihood_ratio", spoiled)
        with pytest.raises(EvidenceUnderflow):
            map_estimate(self.SPECS[1])
        got = [map_fields(result) for result in map_many(self.SPECS)]
        assert got[1] is EvidenceUnderflow and got[7] is EvidenceUnderflow
        for j in (0, 2, 3, 4, 5, 6, 8):
            np.testing.assert_array_equal(np.array(got[j], dtype=float), np.array(single[j], dtype=float))
