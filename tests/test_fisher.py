import math

import numpy as np
import pytest

from oracles import cfi_oracle, density_state, fisher_mp, qfi_oracle, required_samples, sld_matrix
from rabi_est.dynamics import FieldConfig, dprob_domega0, prob_detect
from rabi_est.errors import DomainError
from rabi_est.fisher import cfi_values, paper_scaled, qfi_values
from test_dynamics import random_draws

CFG = FieldConfig(omega=1.0, b0=1.0, theta=math.pi / 2)


def cfi(cfg, omega0):
    return float(cfi_values(cfg, omega0))


def qfi(cfg, omega0):
    return float(qfi_values(cfg, omega0))


class TestCfi:
    def test_resonance_in_plane_vanishes(self):
        # cos(pi/2) is ~6e-17 in floating point, so the prefactor is not an
        # exact zero; anything at e-30 scale is the vanishing branch.
        assert cfi(CFG, 1.0) == pytest.approx(0.0, abs=1e-30)

    def test_offresonance_matches_definitional_oracle(self):
        assert cfi(CFG, 2.0) == pytest.approx(cfi_oracle(CFG, 2.0), rel=1e-6)

    def test_high_information_region(self):
        cfg = FieldConfig(omega=-25.0, b0=8.0, theta=math.pi / 2)
        assert cfi(cfg, 1.0) == pytest.approx(cfi_oracle(cfg, 1.0), rel=1e-6)

    def test_degenerate_probability_is_nan(self):
        # Just off resonance at half-pi coupling the probability sits within
        # 1e-12 of one while the numerator stays finite.
        cfg = FieldConfig(omega=1.0, b0=math.pi / 2, theta=math.pi / 2)
        assert prob_detect(cfg, 1.0 + 1e-7) > 1.0 - 1e-12
        assert math.isnan(cfi(cfg, 1.0 + 1e-7))

    def test_values_match_oracle(self):
        xs = np.linspace(0.2, 9.0, 57)
        assert np.allclose(cfi_values(CFG, xs), cfi_oracle(CFG, xs), rtol=1e-5, atol=1e-10)

    def test_expectation_identity(self):
        # p (dln p)^2 + (1-p) (dln(1-p))^2 recovers the information.
        rng = np.random.default_rng(21)
        for cfg, omega0 in random_draws(rng, 300):
            p = float(prob_detect(cfg, omega0))
            if min(p, 1.0 - p) < 1e-6:
                continue
            dp = float(dprob_domega0(cfg, omega0))
            expect = p * (dp / p) ** 2 + (1.0 - p) * (dp / (1.0 - p)) ** 2
            assert cfi(cfg, omega0) == pytest.approx(expect, rel=1e-9)


class TestQfi:
    def test_resonance_closed_form(self):
        for b0 in (0.4, 1.0, 2.3):
            cfg = FieldConfig(omega=1.0, b0=b0, theta=math.pi / 2)
            assert qfi(cfg, 1.0) == pytest.approx(math.sin(b0) ** 4 / b0**2, rel=1e-9)

    def test_resonance_half_pi(self):
        cfg = FieldConfig(omega=1.0, b0=math.pi / 2, theta=math.pi / 2)
        assert qfi(cfg, 1.0) == pytest.approx(4.0 / math.pi**2, rel=1e-12)

    def test_matches_generic_form_oracle(self):
        assert qfi(CFG, 2.0) == pytest.approx(qfi_oracle(CFG, 2.0), rel=1e-6)

    def test_values_match_oracle(self):
        xs = np.linspace(0.2, 9.0, 57)
        assert np.allclose(qfi_values(CFG, xs), qfi_oracle(CFG, xs), rtol=1e-5, atol=1e-10)


class TestGap:
    def test_resonance_gap_is_qfi(self):
        info = cfi(CFG, 1.0)
        assert info == pytest.approx(0.0, abs=1e-30)
        assert qfi(CFG, 1.0) - info == pytest.approx(qfi(CFG, 1.0), rel=1e-15)

    def test_offresonance_values(self):
        assert qfi(CFG, 2.0) - cfi(CFG, 2.0) == pytest.approx(
            qfi_oracle(CFG, 2.0) - cfi_oracle(CFG, 2.0), rel=1e-5
        )

    def test_ordering_over_draws(self):
        rng = np.random.default_rng(22)
        for cfg, omega0 in random_draws(rng, 2000):
            info = cfi(cfg, omega0)
            if math.isnan(info):
                continue
            assert qfi(cfg, omega0) - info >= -1e-9


_HALF_PI = FieldConfig(omega=1.0, b0=math.pi / 2, theta=math.pi / 2)
_TILTED = FieldConfig(omega=2.0, b0=0.7, theta=1.1)
_TILTED_RESONANCE = 2.0 - 1.4 * math.cos(1.1)


class TestAgainstMpOracle:
    """Both kernels against the 50-digit oracle where their rational-trig
    forms cancel: at and near resonance (d -> 0), and as rho00 -> 1
    (b0 sin(theta) -> pi/2 near resonance)."""

    POINTS = [
        (CFG, 1.0), (CFG, 1.0 + 2.0**-27), (CFG, 1.0 + 2.0**-13), (CFG, 2.0),
        (_HALF_PI, 1.0 + 2.0**-10), (_HALF_PI, 1.0 + 2.0**-17), (_HALF_PI, 1.01),
        (_TILTED, _TILTED_RESONANCE), (_TILTED, _TILTED_RESONANCE + 1e-7),
        (FieldConfig(omega=1.0, b0=math.pi / 2 - 1e-4, theta=math.pi / 2), 1.0),
    ]

    @pytest.mark.parametrize("cfg,omega0", POINTS)
    def test_kernels_within_their_conditioning(self, cfg, omega0):
        info, quantum = (float(v) for v in fisher_mp(cfg, omega0))
        # The CFI's q^2 (1 - rho00) loses eps/(1 - rho00), and its factor d^2
        # inherits the rounding of 2 b0 cos(theta) relative to the detuning d.
        # A detuning that rounds to 0 leaves the CFI at the e-30 scale.
        shift = 2.0 * cfg.b0 * math.cos(cfg.theta)
        d = cfg.omega - omega0 - shift
        cond = 1.0 + 1.0 / (1.0 - float(prob_detect(cfg, omega0))) + (abs(shift / d) if d else 0.0)
        assert cfi(cfg, omega0) == pytest.approx(info, rel=32 * np.finfo(float).eps * cond, abs=1e-30)
        assert qfi(cfg, omega0) == pytest.approx(quantum, rel=1e-14)

    def test_oracle_is_stable_in_precision(self):
        # The hardest point: 1 - rho00 ~ 6e-12.
        low, high = fisher_mp(_HALF_PI, 1.0 + 2.0**-17), fisher_mp(_HALF_PI, 1.0 + 2.0**-17, dps=70)
        for a, b in zip(low, high):
            assert abs(a - b) <= 1e-48 * abs(b)


class TestSld:
    def test_hermitian(self):
        sld = sld_matrix(CFG, 2.0)
        assert np.max(np.abs(sld - sld.conj().T)) < 1e-10

    def test_trace_recovers_qfi(self):
        rng = np.random.default_rng(23)
        for cfg, omega0 in random_draws(rng, 200):
            state = density_state(cfg, omega0)
            rho = np.array(
                [[state.rho00, state.rho01], [np.conj(state.rho01), 1 - state.rho00]]
            )
            sld = sld_matrix(cfg, omega0)
            val = float(np.trace(sld @ sld @ rho).real)
            assert val == pytest.approx(qfi(cfg, omega0), rel=1e-9, abs=1e-12)

    def test_defining_relation_against_fd(self):
        h = 1e-6
        for omega0 in (0.5, 2.0, 7.3):
            plus = density_state(CFG, omega0 + h)
            minus = density_state(CFG, omega0 - h)
            drho = np.array(
                [
                    [plus.rho00 - minus.rho00, plus.rho01 - minus.rho01],
                    [
                        np.conj(plus.rho01) - np.conj(minus.rho01),
                        (1 - plus.rho00) - (1 - minus.rho00),
                    ],
                ]
            ) / (2.0 * h)
            state = density_state(CFG, omega0)
            rho = np.array(
                [[state.rho00, state.rho01], [np.conj(state.rho01), 1 - state.rho00]]
            )
            sld = sld_matrix(CFG, omega0)
            assert np.max(np.abs(drho - 0.5 * (sld @ rho + rho @ sld))) < 1e-8

    def test_square_is_scalar_matrix(self):
        sld = sld_matrix(CFG, 2.0)
        square = sld @ sld
        assert abs(square[0, 1]) < 1e-14
        assert square[0, 0] == pytest.approx(square[1, 1], rel=1e-12)

    def test_resonance_diagonal_vanishes(self):
        sld = sld_matrix(CFG, 1.0)
        assert abs(sld[0, 0]) < 1e-14 and abs(sld[1, 1]) < 1e-14


class TestScalingAndSampleSize:
    def test_required_samples_threshold(self):
        assert required_samples(40.0, 0.001) == pytest.approx(25.0, rel=1e-12)

    def test_required_samples_unit(self):
        assert required_samples(1.0, 1.0) == 1.0

    def test_required_samples_reciprocal(self):
        assert required_samples(0.001, 0.001) == pytest.approx(1e6, rel=1e-12)

    def test_required_samples_domain(self):
        with pytest.raises(DomainError):
            required_samples(0.0, 0.001)
        with pytest.raises(DomainError):
            required_samples(1.0, -1.0)

    def test_paper_scaled(self):
        assert paper_scaled(1.0, FieldConfig(omega=2.0, b0=1.0, theta=1.0)) == 4.0
        assert paper_scaled(5.0, FieldConfig(omega=0.0, b0=1.0, theta=1.0)) == 0.0
        assert paper_scaled(cfi(CFG, 2.0), CFG) == cfi(CFG, 2.0)
