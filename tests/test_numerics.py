import math

import numpy as np
import pytest

from oracles import Bracket, NoSignChange, bisect, central_diff, clenshaw_curtis, find_root_bracketed, golden_max
from rabi_est import numerics, posterior
from rabi_est.dynamics import FieldConfig
from rabi_est.errors import DomainError, NonConvergence
from rabi_est.frequentist import Dataset
from rabi_est.numerics import (
    integrate,
    integrate_owners,
    inv_sinc_values,
    local_maxima,
)
from rabi_est.priors import Prior, SupportWindow


class TestBracket:
    def test_order_enforced(self):
        with pytest.raises(DomainError):
            Bracket(2.0, 1.0)


class TestPanelRule:
    """The literal 17-point Clenshaw-Curtis rule and its 9-point error estimate."""

    def test_literals_match_the_formula(self):
        nodes, w17 = clenshaw_curtis(16)
        w9 = np.zeros(17)
        w9[::2] = clenshaw_curtis(8)[1]
        for got, want in [(numerics._NODES, nodes), (numerics._RULES[:, 0], w17),
                          (numerics._RULES[:, 1], w17 - w9)]:
            assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))

    @pytest.mark.parametrize("degree", range(16))
    def test_polynomials(self, degree):
        # The 17-point rule is exact to degree 15 at least, and the 9-point
        # rule to degree 7, so their difference integrates x**degree to 0.
        terms = numerics._RULES * numerics._NODES[:, None] ** degree
        assert abs(math.fsum(terms[:, 0]) - 1.0 / (degree + 1)) <= 1e-16
        if degree <= 7:
            assert abs(math.fsum(terms[:, 1])) <= 1e-16
        elif degree >= 10:
            assert abs(math.fsum(terms[:, 1])) > 1e-8


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
            # 1/x, with inf at 0 and no floating-point warning there.
            integrate(lambda x: np.divide(1.0, x, out=np.full_like(x, np.inf), where=x != 0), 0.0, 1.0)

    def test_bad_bounds(self):
        with pytest.raises(DomainError):
            integrate(lambda x: x, 1.0, 1.0)


def _components(x):
    """Three integrands as the rows of one vector-valued integrand."""
    return np.stack([np.sin(x) ** 2, x * np.exp(-x), np.cos(3.0 * x) + x * x])


class TestIntegrateIntervalsAndComponents:
    def test_vector_equals_scalar_components(self):
        got = integrate(_components, 0.0, 2.0)
        assert got.shape == (3,)
        for c in range(3):
            expect = integrate(lambda x: _components(x)[c], 0.0, 2.0)
            assert got[c] == pytest.approx(expect, abs=1e-9)

    def test_intervals_sum(self):
        lo, hi = [0.0, 1.5, 2.0], [1.0, 2.0, 3.5]
        got = integrate(_components, lo, hi)
        for c in range(3):
            expect = sum(integrate(lambda x: _components(x)[c], a, b) for a, b in zip(lo, hi))
            assert got[c] == pytest.approx(expect, abs=1e-9)
        scalar = integrate(np.cos, lo, hi)
        assert scalar == pytest.approx(sum(math.sin(b) - math.sin(a) for a, b in zip(lo, hi)),
                                       abs=1e-9)

    def test_nonconvergence(self):
        # 1/x is finite at every node but not integrable on [0, 1]: the
        # panel at 0 keeps its error estimate at every width, so bisection
        # reaches the depth cap.
        def pole(x):
            with np.errstate(divide="ignore"):
                return np.where(x > 0.0, 1.0 / x, 0.0)

        with pytest.raises(NonConvergence):
            integrate(pole, 0.0, 1.0)
        with pytest.raises(NonConvergence):
            integrate(lambda x: np.stack([np.sin(x), pole(x)]), [0.0, 0.9], [0.5, 1.0])

    def test_jump_near_an_end(self):
        # The jump is integrable: the global budget bisects toward it until
        # the panel holding it is narrow enough. A rule that skipped the
        # panel ends would miss the zero on [0, 1e-7] altogether.
        got = integrate(lambda x: np.where(x > 1e-7, 1.0, 0.0), 0.0, 1.0)
        assert got == pytest.approx(1.0 - 1e-7, abs=1e-10)

    def test_nonfinite_component_rejected(self):
        with pytest.raises(DomainError):
            integrate(lambda x: np.stack([x, np.where(x > 2.5, np.inf, x)]), [0.0, 2.0], [1.0, 3.0])

    def test_bad_interval_rejected(self):
        with pytest.raises(DomainError):
            integrate(np.cos, [0.0, 2.0], [1.0, 2.0])


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


def _owned(x, o):
    """A two-component integrand whose shape depends on the owner."""
    freq, rate = 1.0 + 0.7 * o, 0.5 + 0.3 * o
    return np.stack([np.sin(freq * x) ** 2, x * np.exp(-rate * x)])


def _pole(x):
    with np.errstate(divide="ignore"):
        return np.where(x > 0.0, 1.0 / x, 0.0)


class TestIntegrateOwners:
    # Interleaved intervals of five owners, two of them with several.
    LO = np.array([0.0, 1.0, 0.5, 2.0, 0.0, 3.0, 1.5, 0.25])
    HI = np.array([1.0, 2.5, 1.5, 4.0, 0.25, 7.0, 3.0, 3.0])
    OWNER = np.array([0, 1, 0, 2, 3, 1, 0, 4])

    def alone(self, f, o):
        mine = self.OWNER == o
        return integrate(lambda x: f(x, np.full(x.size, o)), self.LO[mine], self.HI[mine])

    def test_each_owner_gets_its_lone_integrals(self):
        values, failures = integrate_owners(_owned, self.LO, self.HI, self.OWNER)
        assert values.shape == (5, 2) and failures == [None] * 5
        for o in range(5):
            # Bit for bit: every step of the loop is local to an owner.
            assert np.array_equal(values[o], self.alone(_owned, o))

    def test_points_carry_their_owners(self, monkeypatch):
        # Three panels a call, so that calls mix halves of the two owners'
        # panels (owner 0 on [0, 20], owner 1 on [30, 50]) as 0, 1, 0.
        monkeypatch.setattr(numerics, "_CHUNK", 3 * 17)

        def f(x, o):
            assert np.array_equal(o, x > 25.0)
            return _owned(x, o)

        values, _ = integrate_owners(f, [0.0, 30.0], [20.0, 50.0], [0, 1])
        for o, (a, b) in enumerate([(0.0, 20.0), (30.0, 50.0)]):
            assert np.array_equal(values[o], integrate(lambda x: _owned(x, np.full(x.size, o)), a, b))

    def test_failures_stay_with_their_owner(self):
        def f(x, o):
            # Owner 1 is not integrable at 1; owner 2 is infinite at 4.
            return np.where(o == 1, _pole(x - 1.0), np.where((o == 2) & (x == 4.0), np.inf, np.cos(x)))

        values, failures = integrate_owners(f, self.LO, self.HI, self.OWNER)
        assert isinstance(failures[1], NonConvergence) and isinstance(failures[2], DomainError)
        assert np.isnan(values[1]) and np.isnan(values[2])
        for o in (0, 3, 4):
            assert failures[o] is None
            assert values[o] == self.alone(f, o)

    def test_owner_without_intervals_integrates_to_zero(self):
        values, failures = integrate_owners(lambda x, o: x, [0.0, 1.0], [1.0, 2.0], [0, 2], owners=4)
        assert values.tolist() == [0.5, 0.0, 1.5, 0.0] and failures == [None] * 4

    def test_bad_owner_rejected(self):
        with pytest.raises(DomainError):
            integrate_owners(lambda x, o: x, [0.0], [1.0], [-1])


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

    def test_near_the_endpoints(self):
        # Where the slope of sinc vanishes (y -> 1) and where x -> pi.
        y = np.concatenate([1.0 - np.logspace(-16, -1, 61), np.logspace(-300, -1, 61)])
        x = inv_sinc_values(y)
        assert np.all((x >= 0.0) & (x <= math.pi))
        assert np.max(np.abs(np.sin(x) / x - y)) < 1e-12

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


@pytest.mark.parametrize("call, message", [
    (lambda: local_maxima(np.sin, 1.0, 1.0, 11), "search interval requires lo < hi, got [1.0, 1.0]"),
    (lambda: local_maxima(np.sin, 2.0, 1.0, 11), "search interval requires lo < hi, got [2.0, 1.0]"),
], ids=["local-maxima-empty", "local-maxima-reversed"])
def test_refusal(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert type(info.value) is DomainError and str(info.value) == message


class CountingArrayCalls:
    """Wraps an elementwise f; counts calls and rejects scalar arguments."""

    def __init__(self, f):
        self.f = f
        self.calls = 0

    def __call__(self, x):
        assert np.ndim(x) == 1
        self.calls += 1
        return self.f(x)


def grid_peaks(f, lo, hi, grid_points):
    """Brackets [x_(i-1), x_(i+1)] around the interior grid peaks x_i."""
    xs = np.linspace(lo, hi, grid_points)
    ys = f(xs)
    mid, left, right = ys[1:-1], ys[:-2], ys[2:]
    i = np.flatnonzero((mid >= left) & (mid >= right) & ((mid > left) | (mid > right)))
    return xs[i], xs[i + 2]


class TestLockstepRefinement:
    """local_maxima against the one-bracket golden-section oracle."""

    def assert_matches_oracle(self, f, lo, hi, grid_points):
        found = [m for m in local_maxima(f, lo, hi, grid_points) if not m.boundary]
        a, b = grid_peaks(f, lo, hi, grid_points)
        assert len(found) == a.size > 0
        for peak, left, right in zip(found, a, b):
            target = max(1e-10, 1e-10 * max(abs(left), abs(right)))
            oracle = golden_max(lambda x: float(f(np.float64(x))), float(left), float(right), target)
            assert peak.x == pytest.approx(oracle, abs=target)

    def test_sine(self):
        self.assert_matches_oracle(np.sin, 0.0, 12.0 * math.pi, 1201)

    def test_multimodal_log_posterior(self):
        cfg = FieldConfig(omega=1.0, b0=1.0, theta=math.pi / 2)
        spec = posterior.PosteriorSpec(data=Dataset(100, 49), cfg=cfg,
                                       prior=Prior.gaussian(SupportWindow(0.1, 100.0), 2.0, 1.0))
        joint = posterior._LogJoint([spec])
        f = lambda x: joint(x, np.zeros(np.shape(x), np.intp))  # noqa: E731
        self.assert_matches_oracle(f, 0.1, 100.0, 2001)
        assert len(grid_peaks(f, 0.1, 100.0, 2001)[0]) >= 10

    def test_peaks_in_the_end_cells(self):
        # Maxima one grid cell from each end: the Newton stencil would leave
        # the bracket, so the guard stops it.
        self.assert_matches_oracle(lambda x: np.cos(x * math.pi / 0.95), -0.05, 1.0, 21)

    def test_calls_do_not_grow_with_the_peak_count(self):
        counts = []
        for m in (1, 16):
            f = CountingArrayCalls(np.sin)
            found = local_maxima(f, 0.0, 2.0 * math.pi * m, 200 * m + 1)
            assert sum(not p.boundary for p in found) == m
            counts.append(f.calls)
        assert counts[1] <= counts[0] + 2
        assert counts[0] < 70

    def test_plateau_reported_once(self):
        # A flat top spanning two grid points yields one grid peak from each
        # cell; the merge keeps one, with one array call for both values.
        f = CountingArrayCalls(lambda x: -np.maximum(np.abs(x - 0.5) - 0.05, 0.0) ** 2)
        found = local_maxima(f, 0.0, 1.0, 11)
        assert len(found) == 1 and 0.45 <= found[0].x <= 0.55

    def test_no_interior_peak(self):
        f = CountingArrayCalls(lambda x: np.zeros_like(x))
        assert local_maxima(f, 0.0, 1.0, 11) == []
        assert f.calls == 1
