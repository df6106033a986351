import math

import numpy as np
import pytest

from oracles import (
    bisect,
    dlog_density,
    jeffreys_prior_fisher_mp,
    quad_pieces,
    simpson_dense,
    sqrt_cfi_sign_change,
)
from rabi_est.dynamics import FieldConfig, prob_stationary_points
from rabi_est.errors import (
    DegenerateSupport,
    DivergentInformation,
    DomainError,
    NonConvergence,
)
from rabi_est.fisher import cfi_values
from rabi_est.numerics import integrate
from rabi_est.priors import (
    Prior,
    SupportWindow,
    jeffreys_normalizer,
    log_density,
    prior_fisher,
    truncated_density,
    window_mass,
)

CFG = FieldConfig(omega=1.0, b0=1.0, theta=math.pi / 2)
WIDE = SupportWindow(0.1, 100.0)


class TestSupportWindow:
    def test_rejects_bad_order(self):
        with pytest.raises(DomainError):
            SupportWindow(5.0, 1.5)

    def test_rejects_nonpositive_lower(self):
        with pytest.raises(DomainError):
            SupportWindow(0.0, 1.0)


class TestUniform:
    def test_log_density_inside(self):
        prior = Prior.uniform(SupportWindow(1.5, 5.0))
        assert log_density(prior, 3.0) == pytest.approx(math.log(1.0 / 3.5), abs=1e-15)

    def test_log_density_outside(self):
        prior = Prior.uniform(SupportWindow(1.5, 5.0))
        assert log_density(prior, 6.0) == -math.inf

    def test_dlog_density_zero_inside(self):
        prior = Prior.uniform(SupportWindow(1.5, 5.0))
        for x in np.linspace(1.6, 4.9, 23):
            assert dlog_density(prior, float(x)) == 0.0

    def test_dlog_density_boundary_rejected(self):
        prior = Prior.uniform(SupportWindow(1.5, 5.0))
        with pytest.raises(DomainError):
            dlog_density(prior, 1.5)
        with pytest.raises(DomainError):
            dlog_density(prior, 5.1)

    def test_fisher_information_zero(self):
        assert prior_fisher(Prior.uniform(SupportWindow(1.5, 5.0))) == 0.0

    def test_normalized(self):
        prior = Prior.uniform(SupportWindow(1.5, 5.0))
        mass = simpson_dense(lambda x: np.exp(log_density(prior, x)), 1.5, 5.0, 20_001)
        assert mass == pytest.approx(1.0, abs=1e-8)


class TestGaussian:
    def test_requires_positive_sigma(self):
        with pytest.raises(DomainError):
            Prior.gaussian(WIDE, mean=10.0, sigma=0.0)

    def test_dlog_at_mode(self):
        prior = Prior.gaussian(WIDE, mean=10.0, sigma=2.0)
        assert dlog_density(prior, 10.0) == 0.0

    def test_dlog_off_mode(self):
        prior = Prior.gaussian(WIDE, mean=10.0, sigma=2.0)
        assert dlog_density(prior, 12.0) == pytest.approx(-0.5, abs=1e-15)

    def test_fisher_information_closed_form(self):
        assert prior_fisher(Prior.gaussian(WIDE, mean=10.0, sigma=2.0)) == 0.25

    def test_window_mass(self):
        prior = Prior.gaussian(WIDE, mean=10.0, sigma=2.0)
        oracle = simpson_dense(lambda x: np.exp(log_density(prior, x)), 0.1, 100.0, 40_001)
        assert window_mass(prior) == pytest.approx(oracle, abs=1e-10)

    def test_truncated_density_normalized(self):
        prior = Prior.gaussian(WIDE, mean=10.0, sigma=2.0)
        mass = simpson_dense(lambda x: truncated_density(prior, x), 0.1, 100.0, 40_001)
        assert mass == pytest.approx(1.0, abs=1e-8)


class TestJeffreys:
    def test_log_density_is_half_log_cfi_minus_norm(self):
        prior = Prior.jeffreys(WIDE, CFG)
        val = log_density(prior, 2.0)
        expect = 0.5 * math.log(float(cfi_values(CFG, np.array([2.0]))[0])) - math.log(
            prior.normalizer
        )
        assert val == pytest.approx(expect, abs=1e-12)

    def test_outside_window(self):
        prior = Prior.jeffreys(WIDE, CFG)
        assert log_density(prior, 100.5) == -math.inf

    def test_normalized(self):
        prior = Prior.jeffreys(WIDE, CFG)
        mass = simpson_dense(lambda x: np.exp(log_density(prior, x)), 0.1, 100.0, 400_001)
        assert mass == pytest.approx(1.0, abs=1e-5)

    def test_normalizer_matches_piecewise_reference(self):
        # sqrt(CFI) has a kink at each of its zeros, which the reference takes
        # as piece ends.
        pieces = np.concatenate([[WIDE.lower], prob_stationary_points(CFG, WIDE.lower, WIDE.upper)[0],
                                 [WIDE.upper]])
        ref = quad_pieces(lambda x: math.sqrt(float(cfi_values(CFG, x))), pieces)
        assert jeffreys_normalizer(CFG, WIDE) == pytest.approx(ref, rel=1e-10)

    def test_normalizer_linearity(self):
        # The normalization integral is linear in the information amplitude,
        # so the normalized density is invariant under rescaling it.
        def amp(x):
            return np.sqrt(np.nan_to_num(cfi_values(CFG, x), nan=0.0))

        base = integrate(amp, 1.5, 5.0)
        for c in (0.5, 2.0, 7.0):
            scaled = integrate(lambda x: c * amp(x), 1.5, 5.0)
            assert scaled == pytest.approx(c * base, rel=1e-9)

    def test_normalizer_monotone_in_window(self):
        narrow = jeffreys_normalizer(CFG, SupportWindow(1.5, 3.0))
        doubled = jeffreys_normalizer(CFG, SupportWindow(1.5, 4.5))
        assert doubled >= narrow

    def test_degenerate_support(self):
        # Tiny window around the in-plane resonance, where the information
        # and hence its square root vanish.
        with pytest.raises(DegenerateSupport):
            jeffreys_normalizer(CFG, SupportWindow(1.0 - 1e-9, 1.0 + 1e-9))

    def test_dlog_matches_coarse_difference(self):
        prior = Prior.jeffreys(WIDE, CFG)
        x = 2.3
        h = 1e-5
        coarse = (log_density(prior, x + h) - log_density(prior, x - h)) / (2 * h)
        assert dlog_density(prior, x) == pytest.approx(coarse, rel=1e-3)

    def test_prior_fisher_on_zero_free_window(self):
        # sqrt(CFI) has no zeros on [1.5, 3] for this drive, so the prior's
        # information is finite there; value cross-checked by the golden case.
        prior = Prior.jeffreys(SupportWindow(1.5, 3.0), CFG)
        assert prior_fisher(prior) == pytest.approx(0.4771363, rel=1e-4)

    def test_prior_fisher_diverges_across_zeros(self):
        # The window contains zeros of sqrt(CFI); the information integral
        # diverges logarithmically and the quadrature reports non-convergence.
        prior = Prior.jeffreys(WIDE, CFG)
        with pytest.raises(NonConvergence):
            prior_fisher(prior)

    def test_dlog_at_exact_zero_rejected(self):
        # The resonance of this drive sits at 2 - 2 cos(1), where the detuning
        # evaluates to exactly 0 and the log-density has a pole.
        cfg = FieldConfig(omega=2.0, b0=1.0, theta=1.0)
        zero = cfg.omega - 2.0 * cfg.b0 * math.cos(cfg.theta)
        prior = Prior.jeffreys(SupportWindow(0.5, 3.0), cfg)
        with pytest.raises(DomainError):
            dlog_density(prior, zero)


LANDSCAPE = SupportWindow(1.5, 5.0)


def _diverges(cfg: FieldConfig, window: SupportWindow) -> bool:
    try:
        value = prior_fisher(Prior.jeffreys(window, cfg))
    except DivergentInformation:
        return True
    assert math.isfinite(value) and value > 0.0
    return False


class TestJeffreysDivergence:
    @pytest.mark.parametrize(
        "theta, omegas, window",
        [
            # resonance 2 b0 cos(theta) + omega below or inside the window
            (math.pi / 2, (-3.0, 3.0), LANDSCAPE),
            (1.0, (-3.0, 3.0), LANDSCAPE),
            # resonance above the window: only the zeros below it can enter
            (2.0, (8.0, 16.0), SupportWindow(0.5, 4.0)),
        ],
    )
    def test_raised_exactly_where_sqrt_cfi_vanishes(self, theta, omegas, window):
        verdicts = []
        for b0 in np.linspace(0.5, 3.0, 6):
            for omega in np.linspace(*omegas, 6):
                cfg = FieldConfig(omega=float(omega), b0=float(b0), theta=theta)
                expect = sqrt_cfi_sign_change(cfg, window.lower, window.upper)
                assert _diverges(cfg, window) == expect, (b0, omega)
                verdicts.append(expect)
        assert any(verdicts) and not all(verdicts)

    def test_zero_on_window_edge_diverges(self):
        cfg = FieldConfig(omega=3.0, b0=1.0, theta=1.0)
        resonance = cfg.omega - 2.0 * cfg.b0 * math.cos(cfg.theta)
        b = cfg.b0 * math.sin(cfg.theta)
        h1 = bisect(lambda h: math.sin(h) - h * math.cos(h), math.pi, 1.5 * math.pi)
        lobe_zero = resonance + 2.0 * math.sqrt(h1 * h1 - b * b)
        # No other zero lies between the two, so each window below touches
        # exactly one zero, at one of its edges.
        assert not sqrt_cfi_sign_change(cfg, resonance + 0.01, lobe_zero - 0.01)
        for window in (
            SupportWindow(resonance, resonance + 1.0),
            SupportWindow(0.5, resonance),
            SupportWindow(lobe_zero, lobe_zero + 0.5),
            SupportWindow(resonance + 0.5, lobe_zero),
        ):
            with pytest.raises(DivergentInformation):
                prior_fisher(Prior.jeffreys(window, cfg))

    def test_zero_within_rounding_of_edge_diverges(self):
        # One ulp outside the window is inside it to the rounding of the
        # zero's closed form; the integral could not be resolved there anyway.
        cfg = FieldConfig(omega=3.0, b0=1.0, theta=1.0)
        resonance = cfg.omega - 2.0 * cfg.b0 * math.cos(cfg.theta)
        for window in (
            SupportWindow(float(np.nextafter(resonance, 5.0)), 4.0),
            SupportWindow(0.5, float(np.nextafter(resonance, 0.0))),
        ):
            with pytest.raises(DivergentInformation):
                prior_fisher(Prior.jeffreys(window, cfg))

    @pytest.mark.parametrize(
        "omega, b0",
        [
            (-3.0, 2.0),  # zero of sqrt(CFI) at omega0 ~ 5.048, just above the window
            (-5.0 / 3.0, 3.0),  # zero at omega0 ~ 5.024
        ],
    )
    def test_zero_just_outside_window_is_finite(self, omega, b0):
        cfg = FieldConfig(omega=omega, b0=b0, theta=math.pi / 2)
        assert not sqrt_cfi_sign_change(cfg, LANDSCAPE.lower, LANDSCAPE.upper)
        value = prior_fisher(Prior.jeffreys(LANDSCAPE, cfg))
        reference = jeffreys_prior_fisher_mp(cfg, LANDSCAPE.lower, LANDSCAPE.upper)
        assert value == pytest.approx(reference, rel=1e-9)

    def test_divergence_is_not_a_budget_failure(self):
        # Subclassing keeps the CLI exit code and older NonConvergence handlers.
        assert issubclass(DivergentInformation, NonConvergence)
