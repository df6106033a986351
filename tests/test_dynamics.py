import math

import mpmath
import numpy as np
import pytest

from oracles import density_state, fd, ode_residual
from rabi_est.dynamics import (
    FieldConfig,
    amplitudes,
    dprob_domega0,
    prob_detect,
    prob_detect_change,
    prob_stationary_points,
    q_factor,
)
from rabi_est.errors import DomainError

CFG = FieldConfig(omega=1.0, b0=1.0, theta=math.pi / 2)


def random_draws(rng, count):
    """Field and frequency draws over the standard scan ranges."""
    for _ in range(count):
        yield (
            FieldConfig(
                omega=rng.uniform(-30.0, 30.0),
                b0=rng.uniform(1e-3, 10.0),
                theta=rng.uniform(0.05, math.pi - 0.05),
            ),
            rng.uniform(1e-3, 10.0),
        )


class TestFieldConfig:
    def test_rejects_nonpositive_coupling(self):
        with pytest.raises(DomainError):
            FieldConfig(omega=1.0, b0=0.0, theta=1.0)

    def test_rejects_angle_outside_open_interval(self):
        with pytest.raises(DomainError):
            FieldConfig(omega=1.0, b0=1.0, theta=0.0)
        with pytest.raises(DomainError):
            FieldConfig(omega=1.0, b0=1.0, theta=math.pi)


class TestQFactor:
    def test_resonance_reduces_to_twice_coupling(self):
        for theta in (0.3, 1.0, math.pi / 2, 2.8):
            cfg = FieldConfig(omega=2.0, b0=1.7, theta=theta)
            assert q_factor(cfg, cfg.omega) == pytest.approx(2.0 * 1.7, rel=1e-12)

    def test_offresonance_value(self):
        assert q_factor(CFG, 2.0) == pytest.approx(math.sqrt(5.0), rel=1e-14)

    def test_resonant_half_pi_coupling(self):
        cfg = FieldConfig(omega=1.0, b0=math.pi / 2, theta=math.pi / 2)
        assert q_factor(cfg, 1.0) == pytest.approx(math.pi, rel=1e-14)

    def test_sum_of_squares_identity(self):
        rng = np.random.default_rng(5)
        for cfg, omega0 in random_draws(rng, 1000):
            q2 = q_factor(cfg, omega0) ** 2
            d = cfg.omega - omega0 - 2.0 * cfg.b0 * math.cos(cfg.theta)
            expect = d * d + 4.0 * cfg.b0**2 * math.sin(cfg.theta) ** 2
            assert q2 == pytest.approx(expect, rel=1e-12)
            assert q_factor(cfg, omega0) > 0.0


class TestAmplitudes:
    def test_initial_condition(self):
        c0, c1 = amplitudes(CFG, 3.7, t=0.0)
        assert abs(c0) == 0.0
        assert c1 == pytest.approx(1.0, abs=1e-15)

    def test_half_rabi_period_full_transfer(self):
        cfg = FieldConfig(omega=1.0, b0=math.pi / 2, theta=math.pi / 2)
        c0, c1 = amplitudes(cfg, 1.0)
        assert abs(c0) ** 2 == pytest.approx(1.0, abs=1e-12)
        assert abs(c1) ** 2 == pytest.approx(0.0, abs=1e-12)

    def test_offresonance_population(self):
        c0, _ = amplitudes(CFG, 2.0)
        assert abs(c0) ** 2 == pytest.approx(0.8 * math.sin(math.sqrt(5) / 2) ** 2, rel=1e-12)

    def test_normalization_over_draws(self):
        rng = np.random.default_rng(6)
        for cfg, omega0 in random_draws(rng, 2000):
            c0, c1 = amplitudes(cfg, omega0)
            assert abs(abs(c0) ** 2 + abs(c1) ** 2 - 1.0) < 1e-12


class TestDensityState:
    def test_trace(self):
        state = density_state(CFG, 2.0)
        c0, c1 = amplitudes(CFG, 2.0)
        assert state.rho00 + abs(c1) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_resonant_quarter_angle(self):
        cfg = FieldConfig(omega=1.0, b0=math.pi / 4, theta=math.pi / 2)
        assert density_state(cfg, 1.0).rho00 == pytest.approx(0.5, abs=1e-12)

    def test_coherence_matches_amplitude_product(self):
        state = density_state(CFG, 2.0)
        c0, c1 = amplitudes(CFG, 2.0)
        assert state.rho01 == pytest.approx(complex(c0 * np.conj(c1)), abs=1e-14)

    def test_purity_over_draws(self):
        rng = np.random.default_rng(8)
        for cfg, omega0 in random_draws(rng, 2000):
            state = density_state(cfg, omega0)
            assert abs(abs(state.rho01) ** 2 - state.rho00 * (1 - state.rho00)) < 1e-12


class TestProbDetect:
    def test_zero_time(self):
        assert prob_detect(CFG, 4.2, t=0.0) == 0.0

    def test_resonance_unit_coupling(self):
        assert prob_detect(CFG, 1.0) == pytest.approx(math.sin(1.0) ** 2, rel=1e-12)

    def test_pi_rabi_angle_value(self):
        omega0 = 1.0 + 2.0 * math.sqrt(math.pi**2 / 4.0 - 1.0)
        assert prob_detect(CFG, omega0) == pytest.approx(4.0 / math.pi**2, rel=1e-12)

    def test_envelope_bound(self):
        rng = np.random.default_rng(9)
        for cfg, omega0 in random_draws(rng, 2000):
            p = float(prob_detect(cfg, omega0))
            q = float(q_factor(cfg, omega0))
            envelope = (2.0 * cfg.b0 * math.sin(cfg.theta) / q) ** 2
            assert 0.0 <= p <= min(1.0, envelope) + 1e-15


class TestProbDerivative:
    def test_resonance_vanishes(self):
        assert dprob_domega0(CFG, 1.0) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize(
        "cfg,omega0",
        [(CFG, 2.0), (FieldConfig(omega=5.0, b0=2.0, theta=math.pi / 3), 1.0)],
    )
    def test_matches_finite_difference(self, cfg, omega0):
        oracle = fd(lambda x: float(prob_detect(cfg, x)), omega0)
        assert float(dprob_domega0(cfg, omega0)) == pytest.approx(oracle, rel=1e-6)

    def test_matches_finite_difference_over_draws(self):
        rng = np.random.default_rng(10)
        for cfg, omega0 in random_draws(rng, 200):
            oracle = fd(lambda x: float(prob_detect(cfg, x)), omega0)
            assert abs(float(dprob_domega0(cfg, omega0)) - oracle) < 1e-6 * max(
                1.0, abs(oracle)
            )


def prob_mp(cfg: FieldConfig, omega0: float):
    """Detection probability at 40 digits of the exact double inputs."""
    with mpmath.workdps(40):
        b = mpmath.mpf(cfg.b0) * mpmath.sin(mpmath.mpf(cfg.theta))
        d = mpmath.mpf(cfg.omega) - mpmath.mpf(omega0) - 2 * mpmath.mpf(cfg.b0) * mpmath.cos(
            mpmath.mpf(cfg.theta))
        q = mpmath.sqrt(d * d + 4 * b * b)
        return (2 * b / q) ** 2 * mpmath.sin(q / 2) ** 2


class TestProbDetectChange:
    @pytest.mark.parametrize("cfg,ref", [
        (CFG, 3.0),
        (FieldConfig(omega=3.0, b0=2.5, theta=0.4), 2.7),
        # near a lobe top of a weak field, and at the resonance of a field
        # so weak that h < 0.02 there
        (FieldConfig(omega=-6.564, b0=0.00529, theta=2.07), 27.88245),
        (FieldConfig(omega=28.0, b0=0.001, theta=0.0625), 27.998003904978592),
    ])
    def test_relative_precision_of_the_change(self, cfg, ref):
        steps = np.array([-1.0, -0.03, -1e-3, -1e-7, 1e-9, 1e-5, 0.01, 0.5, 4.0])
        got = prob_detect_change(cfg, ref + steps, ref)
        for x, value in zip(ref + steps, got):
            with mpmath.workdps(40):
                expect = prob_mp(cfg, x) - prob_mp(cfg, ref)
                assert abs(value - expect) <= 1e-9 * abs(expect)

    def test_zero_at_the_reference(self):
        assert float(prob_detect_change(CFG, np.array([2.5]), 2.5)[0]) == 0.0


class TestStationaryPoints:
    @pytest.mark.parametrize("cfg,lower,upper", [
        (CFG, 0.1, 100.0),
        (FieldConfig(omega=-2.0, b0=3.0, theta=1.0), 0.5, 40.0),
        (FieldConfig(omega=30.0, b0=0.2, theta=2.5), 1.0, 20.0),
    ])
    def test_monotone_between_points(self, cfg, lower, upper):
        points, cfi_zero = prob_stationary_points(cfg, lower, upper)
        assert np.all(np.diff(points) > 0.0)
        assert np.all(np.abs(dprob_domega0(cfg, points)) < 1e-12)
        # sqrt(CFI) vanishes where p does not: at the tan h = h roots and
        # the resonance, as opposed to the zeros of p
        assert np.all((prob_detect(cfg, points) > 1e-12) == cfi_zero)
        edges = np.concatenate([[lower], points, [upper]])
        for a, b in zip(edges[:-1], edges[1:]):
            slope = dprob_domega0(cfg, np.linspace(a, b, 2001)[1:-1])
            assert np.all(slope >= -1e-15) or np.all(slope <= 1e-15)


class TestOdeResidual:
    def test_interior_time(self):
        r0, r1 = ode_residual(CFG, 2.0, 0.5)
        assert abs(r0) < 1e-6 and abs(r1) < 1e-6

    def test_resonance_at_gate(self):
        cfg = FieldConfig(omega=1.0, b0=math.pi / 2, theta=math.pi / 2)
        r0, r1 = ode_residual(cfg, 1.0, 1.0)
        assert abs(r0) < 1e-6 and abs(r1) < 1e-6

    def test_random_draws(self):
        rng = np.random.default_rng(12)
        for cfg, omega0 in random_draws(rng, 200):
            r0, r1 = ode_residual(cfg, omega0, rng.uniform(0.0, 2.0))
            assert abs(r0) < 1e-6 and abs(r1) < 1e-6

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            ode_residual(CFG, 1.0, -0.5)
