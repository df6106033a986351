"""Property tests for the closed-form array kernels and the posterior mean."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import map_lhs_oracle
from rabi_est.dynamics import FieldConfig, dprob_domega0, prob_detect
from rabi_est.errors import DomainError, EstimationError
from rabi_est.fisher import cfi_values, qfi_values
from rabi_est.frequentist import ROOTS_REAL, Dataset, ml_roots
from rabi_est.numerics import inv_sinc_values
from rabi_est.posterior import PosteriorSpec, mmse, mmse_many
from rabi_est.priors import Prior, SupportWindow, map_stationarity_lhs

PROPERTY = settings(max_examples=100, deadline=None)

unit = st.floats(min_value=0.0, max_value=1.0)
fields = st.builds(
    FieldConfig,
    omega=st.floats(min_value=-30.0, max_value=30.0),
    b0=st.floats(min_value=1e-3, max_value=10.0),
    theta=st.floats(min_value=0.05, max_value=math.pi - 0.05),
)


@PROPERTY
@given(y=unit)
def test_inv_sinc_round_trip(y):
    x = float(inv_sinc_values(y))
    assert 0.0 <= x <= math.pi
    sinc = 1.0 if x == 0.0 else math.sin(x) / x
    assert abs(sinc - y) <= 1e-12


@PROPERTY
@given(y=st.one_of(st.floats(max_value=-1e-300), st.floats(min_value=1.0 + 1e-15), st.just(math.nan)))
def test_inv_sinc_domain(y):
    with pytest.raises(DomainError):
        inv_sinc_values(np.array([0.5, y]))


@PROPERTY
@given(cfg=fields, omega0=st.floats(min_value=1e-3, max_value=10.0))
def test_cfi_bounded_by_qfi(cfg, omega0):
    info = float(cfi_values(cfg, omega0))
    assume(not math.isnan(info))
    quantum = float(qfi_values(cfg, omega0))
    assert info >= 0.0
    assert info <= quantum * (1.0 + 1e-9) + 1e-12


@PROPERTY
@given(cfg=fields, xbar=st.floats(min_value=1e-9, max_value=1.0 - 1e-9))
def test_real_ml_roots_reproduce_rate(cfg, xbar):
    plus, minus, code = ml_roots(xbar, cfg)
    assume(code == ROOTS_REAL)
    for root in (float(plus), float(minus)):
        assert float(prob_detect(cfg, root)) == pytest.approx(xbar, abs=1e-10)


@PROPERTY
@given(
    omega=st.floats(min_value=-2.0, max_value=5.0),
    b0=st.floats(min_value=0.5, max_value=2.0),
    theta=st.floats(min_value=0.3, max_value=math.pi - 0.3),
    omega0=st.floats(min_value=0.2, max_value=10.0),
    n=st.integers(min_value=1, max_value=1000),
)
def test_map_lhs_matches_oracle(omega, b0, theta, omega0, n):
    cfg = FieldConfig(omega=omega, b0=b0, theta=theta)
    # The oracle differentiates by finite differences, which 1/p' amplifies
    # where the probability slope is small.
    assume(abs(float(dprob_domega0(cfg, omega0))) > 1e-2)
    window = SupportWindow(0.1, 12.0)
    x = np.array([omega0])
    gaussian = Prior.gaussian(window, mean=4.0, sigma=2.0)
    expect = map_lhs_oracle(cfg, "gaussian", n, x, mean=4.0, sigma=2.0)
    got = map_stationarity_lhs(cfg, gaussian, n, x)
    assert np.allclose(got, expect, rtol=1e-5, atol=1e-5)
    jeffreys = Prior.jeffreys(window, cfg)
    expect = map_lhs_oracle(cfg, "jeffreys", n, x)
    got = map_stationarity_lhs(cfg, jeffreys, n, x)
    assert np.allclose(got, expect, rtol=1e-5, atol=1e-5)


@PROPERTY
@given(cfg=fields, omega0=st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=20))
def test_probability_bounded(cfg, omega0):
    p = np.asarray(prob_detect(cfg, np.array(omega0)))
    assert np.all((p >= 0.0) & (p <= 1.0))


@PROPERTY
@given(
    cfg=fields,
    log10_n=st.integers(min_value=0, max_value=10),
    rate=unit,
    lower=st.floats(min_value=1e-3, max_value=50.0),
    width=st.floats(min_value=1e-3, max_value=100.0),
    gaussian=st.booleans(),
)
def test_mmse_inside_window(cfg, log10_n, rate, lower, width, gaussian):
    n = 10**log10_n
    window = SupportWindow(lower, lower + width)
    prior = (Prior.gaussian(window, mean=lower + 0.3 * width, sigma=0.2 * width)
             if gaussian else Prior.uniform(window))
    est = mmse(PosteriorSpec(data=Dataset(n, round(n * rate)), cfg=cfg, prior=prior))
    assert window.lower <= est <= window.upper


@PROPERTY
@given(
    cfg=fields,
    lower=st.floats(min_value=1e-2, max_value=30.0),
    width=st.floats(min_value=1e-2, max_value=40.0),
    kind=st.sampled_from(["uniform", "jeffreys", "gaussian"]),
    log10_n=st.integers(min_value=0, max_value=10),
    rates=st.lists(unit, min_size=1, max_size=17),
    fractional=st.booleans(),
    repeats=st.integers(min_value=0, max_value=3),
)
def test_batch_equals_members(cfg, lower, width, kind, log10_n, rates, fractional, repeats):
    n = 10**log10_n
    window = SupportWindow(lower, lower + width)
    if kind == "jeffreys":
        try:
            prior = Prior.jeffreys(window, cfg)
        except EstimationError:
            assume(False)
    else:
        prior = (Prior.gaussian(window, mean=lower + 0.6 * width, sigma=0.1 * width)
                 if kind == "gaussian" else Prior.uniform(window))
    ks = [n * r if fractional else float(round(n * r)) for r in rates]
    specs = [PosteriorSpec(data=Dataset(n, k), cfg=cfg, prior=prior) for k in ks + ks[:repeats]]
    for spec, batched in zip(specs, mmse_many(specs)):
        try:
            alone = mmse(spec)
        except EstimationError as exc:
            assert type(batched) is type(exc)
            continue
        # Bit for bit: each posterior keeps its own panels and error budget.
        assert batched == alone
