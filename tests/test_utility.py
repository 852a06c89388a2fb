"""Utility family: derivatives, risk tolerance, inverse marginal, validation."""

import numpy as np
import pytest

from multiscale_portfolio.merton import merton_pack
from multiscale_portfolio.utility import make_utility


@pytest.fixture
def power():
    return make_utility("power", gamma=0.5)


@pytest.fixture
def mixture():
    return make_utility("power_mixture", weights=(1.0, 1.0), exponents=(0.5, 0.25))


def test_power_values(power):
    # U = x^g/g = 2 sqrt(4) = 4; R = x/(1-g) = 8
    assert power.u(4.0) == pytest.approx(4.0, abs=1e-14)
    assert power.risk_tolerance(4.0) == pytest.approx(8.0, abs=1e-13)


def test_power_inverse_marginal(power):
    # I(y) = y^{1/(g-1)} = 0.5^{-2} = 4
    assert power.inverse_marginal(0.5) == pytest.approx(4.0, rel=1e-14)
    assert power.inverse_marginal(1.0) == pytest.approx(1.0, rel=1e-14)
    assert power.inverse_marginal(0.25) == pytest.approx(16.0, rel=1e-14)


def test_mixture_hand_derivatives(mixture):
    # U' = x^{-1/2} + x^{-3/4}, U'' = -x^{-3/2}/2 - 3 x^{-7/4}/4 at x = 1
    assert mixture.du(1.0, 1) == pytest.approx(2.0, rel=1e-14)
    assert mixture.du(1.0, 2) == pytest.approx(-1.25, rel=1e-14)
    assert mixture.risk_tolerance(1.0) == pytest.approx(1.6, rel=1e-14)


def test_mixture_inverse_marginal_by_bisection_oracle(mixture):
    # Bisection on U'(x) = 2, which holds exactly at x = 1.
    lo, hi = 1e-6, 1e6
    for _ in range(200):
        mid = np.sqrt(lo * hi)
        if mixture.du(mid, 1) > 2.0:
            lo = mid
        else:
            hi = mid
    oracle = np.sqrt(lo * hi)
    assert mixture.inverse_marginal(2.0) == pytest.approx(oracle, rel=1e-10)
    assert mixture.inverse_marginal(2.0) == pytest.approx(1.0, rel=1e-12)


def test_inverse_marginal_monotone_decreasing(mixture):
    ys = np.logspace(-4, 4, 60)
    xs = mixture.inverse_marginal(ys)
    assert np.all(np.diff(xs) < 0.0)


@pytest.mark.parametrize("kind,kwargs", [
    ("power", {"gamma": 0.5}),
    ("power", {"gamma": 0.25}),
    ("power", {"gamma": 0.75}),
    ("power_mixture", {"weights": (1.0, 1.0), "exponents": (0.5, 0.25)}),
    ("power_mixture", {"weights": (0.3, 2.0, 1.0), "exponents": (0.2, 0.5, 0.8)}),
])
def test_sampled_invariants(kind, kwargs):
    u = make_utility(kind, **kwargs)
    xs = np.logspace(-3, 3, 121)
    assert np.all(u.du(xs, 1) > 0.0)
    assert np.all(u.du(xs, 2) < 0.0)
    r = u.risk_tolerance(xs)
    assert np.all(r > 0.0)
    assert np.all(np.diff(r) > 0.0)
    # round trip at relative 1e-10
    back = u.inverse_marginal(u.du(xs, 1))
    assert np.max(np.abs(back - xs) / xs) <= 1e-10


def _inverse_stopping_at_1e14(u, y):
    # the Newton inversion with its former flat stop |resid| <= 1e-14
    logy = np.log(y)
    gmax, gmin = max(u.exponents), min(u.exponents)
    cmax, cmin = u.weights[u.exponents.index(gmax)], u.weights[u.exponents.index(gmin)]
    t = np.where(y < sum(u.weights), (logy - np.log(cmax)) / (gmax - 1.0),
                 (logy - np.log(cmin)) / (gmin - 1.0))
    todo = np.arange(t.size)
    while todo.size:
        p = [c * np.exp((g - 1.0) * t[todo]) for c, g in zip(u.weights, u.exponents)]
        resid = np.log(sum(p)) - logy[todo]
        slope = sum((g - 1.0) * pi for g, pi in zip(u.exponents, p)) / sum(p)
        t[todo] += np.clip(-resid / slope, -2.0, 2.0)
        todo = todo[np.abs(resid) > 1e-14]
    return np.exp(t)


@pytest.mark.parametrize("weights, exponents", [
    ((1.0, 1.0), (0.5, 0.25)), ((0.3, 2.0, 1.0), (0.2, 0.5, 0.8)),
    ((1.0, 1.0, 1.0), (0.2, 0.5, 0.8)),
])
def test_inversion_stops_at_the_rounding_level_of_log_y(weights, exponents):
    u = make_utility("power_mixture", weights=weights, exponents=exponents)
    # below |log y| = 32 two ulps of log y are under 1e-14: the flat stop's bits
    ys = np.exp(np.random.default_rng(0).uniform(-31.99, 31.99, 20000))
    assert np.array_equal(u.inverse_marginal(ys), _inverse_stopping_at_1e14(u, ys))
    # above it 1e-14 is finer than log y's spacing; 1e45 failed under the flat stop
    x = u.inverse_marginal(1e45)
    assert u.du(x, 1) == pytest.approx(1e45, rel=1e-12)


def test_risk_tolerance_origin_and_slope_bounded():
    u = make_utility("power_mixture", weights=(1.0, 1.0), exponents=(0.5, 0.25))
    assert u.risk_tolerance(1e-10) < 1e-8
    xs = np.logspace(-3, 3, 200)
    slopes = merton_pack(u, 0.0, 0.0, xs, order=3)["r_x"]
    assert np.all(np.isfinite(slopes))
    assert np.max(np.abs(slopes)) < 10.0


def test_pure_power_closed_forms():
    for g in (0.25, 0.5, 0.75):
        u = make_utility("power", gamma=g)
        xs = np.logspace(-2, 2, 41)
        assert np.allclose(u.risk_tolerance(xs), xs / (1.0 - g), rtol=1e-13)
        assert u.asymptotic_elasticity == g


def test_scaling_leaves_risk_tolerance_invariant():
    base = make_utility("power_mixture", weights=(1.0, 1.0), exponents=(0.5, 0.25))
    scaled = make_utility("power_mixture", weights=(3.0, 3.0), exponents=(0.5, 0.25))
    xs = np.logspace(-2, 2, 31)
    assert np.allclose(scaled.risk_tolerance(xs), base.risk_tolerance(xs), rtol=1e-13)


def test_asymptotic_elasticity_is_max_exponent():
    u = make_utility("power_mixture", weights=(1.0, 2.0), exponents=(0.3, 0.6))
    assert u.asymptotic_elasticity == 0.6


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 1.5])
def test_rejects_bad_exponents(bad):
    with pytest.raises(ValueError):
        make_utility("power", gamma=bad)
    with pytest.raises(ValueError):
        make_utility("power_mixture", weights=(1.0,), exponents=(bad,))


def test_rejects_empty_and_nonpositive_mixtures():
    with pytest.raises(ValueError):
        make_utility("power_mixture", weights=(), exponents=())
    with pytest.raises(ValueError):
        make_utility("power_mixture", weights=(0.0, 1.0), exponents=(0.5, 0.25))
    with pytest.raises(ValueError):
        make_utility("power_mixture", weights=(1.0,), exponents=(0.5, 0.25))
    with pytest.raises(ValueError):
        make_utility("unknown", gamma=0.5)


def test_inverse_marginal_rejects_nonpositive(power):
    with pytest.raises(ValueError):
        power.inverse_marginal(0.0)
    with pytest.raises(ValueError):
        power.inverse_marginal(-1.0)
