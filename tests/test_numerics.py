import math

import numpy as np
import pytest

from oracles import bisect, central_diff
from rabi_est.errors import DomainError, NoSignChange
from rabi_est.numerics import (
    Bracket,
    Tolerance,
    find_root_bracketed,
    integrate,
    inv_sinc_values,
    local_maxima,
)


class TestTolerance:
    def test_defaults(self):
        tol = Tolerance()
        assert tol.abs_tol == 1e-10 and tol.rel_tol == 1e-10 and tol.max_iter == 200

    def test_requires_a_positive_tolerance(self):
        with pytest.raises(DomainError):
            Tolerance(abs_tol=0.0, rel_tol=0.0)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            Tolerance(abs_tol=-1e-9)

    def test_rejects_zero_iterations(self):
        with pytest.raises(DomainError):
            Tolerance(max_iter=0)


class TestBracket:
    def test_order_enforced(self):
        with pytest.raises(DomainError):
            Bracket(2.0, 1.0)


class TestIntegrate:
    def test_constant(self):
        assert integrate(lambda x: np.ones_like(x), 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_linear(self):
        assert integrate(lambda x: x, 0.0, 2.0) == pytest.approx(2.0, abs=1e-12)

    def test_sin_squared(self):
        # Antiderivative (x - sin x cos x)/2 gives pi/2 on [0, pi].
        assert integrate(lambda x: np.sin(x) ** 2, 0.0, math.pi) == pytest.approx(
            math.pi / 2.0, abs=1e-10
        )

    def test_additivity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a, c = sorted(rng.uniform(-3.0, 3.0, size=2))
            if c - a < 0.1:
                continue
            b = rng.uniform(a + 0.01, c - 0.01)
            amp, freq = rng.uniform(0.5, 2.0, size=2)

            def f(x):
                return amp * np.sin(freq * x) + x * x

            whole = integrate(f, a, c)
            split = integrate(f, a, b) + integrate(f, b, c)
            assert abs(whole - split) < 10 * 1e-10 + 1e-9 * abs(whole)

    def test_nonfinite_integrand_rejected(self):
        with pytest.raises(DomainError):
            integrate(lambda x: 1.0 / x, 0.0, 1.0)

    def test_bad_bounds(self):
        with pytest.raises(DomainError):
            integrate(lambda x: x, 1.0, 1.0)


class TestFindRoot:
    def test_linear(self):
        assert find_root_bracketed(lambda x: x - 1.0, Bracket(0.0, 2.0)) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_cosine(self):
        assert find_root_bracketed(math.cos, Bracket(1.0, 2.0)) == pytest.approx(
            math.pi / 2.0, abs=1e-10
        )

    def test_no_sign_change(self):
        with pytest.raises(NoSignChange):
            find_root_bracketed(lambda x: x * x + 1.0, Bracket(0.0, 1.0))

    def test_residuals_on_polynomials(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            coeffs = rng.uniform(-2.0, 2.0, size=4)
            root0 = rng.uniform(-1.5, 1.5)

            def f(x):
                return (x - root0) * (coeffs[0] + coeffs[1] * x + coeffs[2] * x * x + 1.5)

            # Keep the second factor positive so the bracket holds one root.
            if coeffs[0] + 1.5 - abs(coeffs[1]) * 2 - abs(coeffs[2]) * 4 <= 0:
                continue
            lo, hi = root0 - 0.7, root0 + 0.9
            x = find_root_bracketed(f, Bracket(lo, hi))
            grid = np.linspace(lo, hi, 2001)
            lipschitz = float(np.max(np.abs(np.gradient(f(grid), grid))))
            assert abs(f(x)) <= max(1e-10, 1e-10 * abs(x) * lipschitz) + 1e-12


class TestInvSinc:
    def test_endpoints(self):
        assert inv_sinc_values(1.0) == 0.0
        assert inv_sinc_values(0.0) == math.pi

    def test_forward_value(self):
        assert inv_sinc_values(2.0 / math.pi) == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            inv_sinc_values(1.5)
        with pytest.raises(DomainError):
            inv_sinc_values(-0.1)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        y = rng.uniform(0.0, 1.0, size=1000)
        x = inv_sinc_values(y)
        sinc = np.where(x == 0.0, 1.0, np.sin(x) / np.where(x == 0.0, 1.0, x))
        assert np.max(np.abs(sinc - y)) < 1e-10

    def test_values_match_oracle(self):
        ys = np.linspace(0.0, 1.0, 101)[1:-1]
        vals = inv_sinc_values(ys)
        for y, v in zip(ys, vals):
            oracle = bisect(lambda x: math.sin(x) / x - y, 1e-12, math.pi)
            assert v == pytest.approx(oracle, abs=1e-12)


class TestCentralDiff:
    def test_square(self):
        assert central_diff(lambda x: x * x, 1.0, 1e-4) == pytest.approx(2.0, abs=1e-7)

    def test_constant(self):
        assert central_diff(lambda x: 5.0, 0.3, 1e-4) == 0.0

    def test_sine_at_zero(self):
        assert central_diff(math.sin, 0.0, 1e-5) == pytest.approx(1.0, abs=1e-9)

    def test_requires_positive_step(self):
        with pytest.raises(DomainError):
            central_diff(math.sin, 0.0, 0.0)


class TestLocalMaxima:
    def test_single_parabola(self):
        found = local_maxima(lambda x: -((x - 1.0) ** 2), 0.0, 2.0, 101)
        assert len(found) == 1
        assert found[0].x == pytest.approx(1.0, abs=1e-10)
        assert not found[0].boundary

    def test_sine_maxima(self):
        found = local_maxima(np.sin, 0.0, 3.0 * math.pi, 301)
        assert [m.boundary for m in found] == [False, False]
        assert found[0].x == pytest.approx(math.pi / 2.0, abs=1e-8)
        assert found[1].x == pytest.approx(5.0 * math.pi / 2.0, abs=1e-8)

    def test_monotone_flags_boundary(self):
        found = local_maxima(lambda x: x, 0.0, 1.0, 11)
        assert len(found) == 1
        assert found[0].x == 1.0 and found[0].boundary

    def test_known_count_and_accuracy(self):
        # sin has exactly m interior maxima on [0, 2 pi m].
        for m in (1, 2, 4):
            found = local_maxima(np.sin, 0.0, 2.0 * math.pi * m, 200 * m + 1)
            interior = [p for p in found if not p.boundary]
            assert len(interior) == m
            for j, peak in enumerate(interior):
                assert peak.x == pytest.approx(math.pi / 2 + 2 * math.pi * j, abs=1e-8)

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            local_maxima(np.sin, 0.0, 1.0, 2)
