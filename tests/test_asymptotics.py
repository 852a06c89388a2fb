"""Expansion terms: leading order, corrections, strategy, diagnostics."""

import math
import warnings

import numpy as np
import pytest

from multiscale_portfolio.asymptotics import ExpansionBundle
from multiscale_portfolio.factors import (
    MarketModel,
    OrnsteinUhlenbeckFactor,
    SHARPE_REGISTRY,
    SIGMA_REGISTRY,
    SLOW_VOL_REGISTRY,
    averaged_sharpe,
    z_cache_grid,
)
from multiscale_portfolio.utility import make_utility

POWER_HALF = make_utility("power", gamma=0.5)
MIXTURE = make_utility("power_mixture", weights=(1.0, 1.0), exponents=(0.5, 0.25))


def make_bundle(sharpe_name, sharpe_params, utility=POWER_HALF, nu=0.5, horizon=1.0,
                g0=0.4, **kwargs):
    g, g1, g2 = SLOW_VOL_REGISTRY["const"]([g0])
    defaults = dict(
        sigma=SIGMA_REGISTRY["const"]([0.5]),
        fast=OrnsteinUhlenbeckFactor(mean=0.0, vol=nu),
        slow_vol=g, slow_vol_d1=g1, slow_vol_d2=g2,
        epsilon=0.1, delta=0.1,
    )
    defaults.update(kwargs)
    model = MarketModel(sharpe=SHARPE_REGISTRY[sharpe_name](list(sharpe_params)), **defaults)
    averages = averaged_sharpe(model, z_grid=z_cache_grid(0.0, 2.0))
    return ExpansionBundle(model, averages, utility, horizon)


def test_leading_order_constant_sharpe_closed_form():
    b = make_bundle("const", [1.0])
    # rms = 1, tau = 1 at t = 0: M = 2 e^{1/2}
    assert b.leading_order(0.0, 1.0, 0.0) == pytest.approx(2.0 * math.exp(0.5), rel=1e-12)


def test_leading_order_terminal_is_utility():
    b = make_bundle("affine_z_tanh_y", [0.5, 0.25, 0.35])
    xs = np.logspace(-1, 1, 7)
    assert np.array_equal(b.leading_order(1.0, xs, 0.0), POWER_HALF.u(xs))


def test_fast_correction_power_formula():
    nu = 0.5
    b = make_bundle("prop_y", [1.0], nu=nu, rho1=-0.4)
    t, x, z = 0.3, 1.3, 0.0
    coupling = -math.sqrt(2.0) * nu**3
    m = b.leading_order(t, x, z)
    expected = -0.5 * 0.7 * (-0.4) * coupling * m  # D1^2 v = v for gamma = 1/2
    assert b.fast_correction(t, x, z) == pytest.approx(expected, rel=1e-10)


def test_fast_correction_vanishes_without_correlation_or_at_horizon():
    b0 = make_bundle("prop_y", [1.0], rho1=0.0)
    assert b0.fast_correction(0.3, 1.0, 0.0) == 0.0
    b = make_bundle("prop_y", [1.0], rho1=-0.4)
    assert b.fast_correction(1.0, 1.0, 0.0) == 0.0


def test_slow_correction_power_formula():
    # lam = z: rms = z, mean = z, rms' = 1 for z > 0
    b = make_bundle("affine_z", [0.0, 1.0], rho2=-0.3, g0=0.4)
    t, x, z = 0.3, 1.3, 1.2
    tau = 0.7
    m = b.leading_order(t, x, z)
    expected = 0.5 * tau**2 * (-0.3) * z * z * 1.0 * 0.4 * m
    assert b.slow_correction(t, x, z) == pytest.approx(expected, rel=1e-7)


def test_slow_correction_vanishes_for_flat_rms_or_at_horizon():
    b_flat = make_bundle("const", [0.8], rho2=-0.3)
    assert abs(b_flat.slow_correction(0.3, 1.0, 0.0)) <= 1e-12
    b = make_bundle("affine_z", [0.0, 1.0], rho2=-0.3)
    assert b.slow_correction(1.0, 1.0, 1.0) == 0.0


def test_corrections_proportional_to_value_for_power():
    b = make_bundle("prop_y", [1.0], rho1=-0.4, rho2=-0.3)
    xs = np.logspace(-1, 1, 21)
    v0 = b.leading_order(0.4, xs, 0.0)
    for term in (b.fast_correction(0.4, xs, 0.0), b.slow_correction(0.4, xs, 0.0)):
        ratio = term / v0
        assert np.max(ratio) - np.min(ratio) <= 1e-8 * (1.0 + np.max(np.abs(ratio)))


def test_first_order_value_terminal_and_scale_free_limits():
    b = make_bundle("prop_y", [1.0], rho1=-0.4, rho2=-0.3)
    xs = np.logspace(-1, 1, 7)
    assert np.array_equal(b.first_order_value(1.0, xs, 0.0), POWER_HALF.u(xs))
    q0 = b.first_order_value(0.3, xs, 0.0, eps=0.0, delta=0.0)
    assert np.array_equal(q0, b.leading_order(0.3, xs, 0.0))


def test_pi_zero_power_constant_coefficients():
    b = make_bundle("const", [1.0], sigma=SIGMA_REGISTRY["const"]([1.0]))
    # lam = sigma = 1: pi = R = 2x for gamma = 1/2
    assert b.pi_zero(0.3, 1.5, 0.2, 0.0) == pytest.approx(3.0, rel=1e-12)
    assert b.pi_zero(0.3, 0.0, 0.2, 0.0) == 0.0


@pytest.mark.parametrize("utility", [POWER_HALF, MIXTURE], ids=["power", "mixture"])
def test_zero_wealth_takes_no_position(utility):
    from multiscale_portfolio.simulate import default_slow_bump

    b = make_bundle("affine_z_tanh_y", [0.5, 0.25, 0.35], utility=utility)
    bump = default_slow_bump(0.1, b)
    x = np.array([0.0, 0.5, 0.0, 2.0, 1.0])
    y = np.array([0.3, -0.2, 1.0, 0.1, -1.5])
    z = np.array([0.1, -0.2, 0.0, 0.3, 0.2])
    for f in (lambda x, y, z: b.pi_zero(0.3, x, y, z),
              lambda x, y, z: b.risk_tolerance(0.3, x, z),
              lambda x, y, z: bump(0.3, x, y, z)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # zero wealth never reaches the solver
            vec = f(x, y, z)
            assert vec.shape == x.shape
            for i in range(x.size):  # a mixture's Newton stop is shared across points
                one = 0.0 if x[i] == 0.0 else pytest.approx(f(x[i], y[i], z[i]), rel=1e-13)
                assert vec[i] == one


def test_pi_zero_uses_local_sharpe():
    b = make_bundle("prop_y", [1.0])
    y = -0.7
    # pi = (y/sigma) R < 0 when the local Sharpe ratio is negative
    assert b.pi_zero(0.3, 1.0, y, 0.0) == pytest.approx((y / 0.5) * 2.0, rel=1e-12)


def test_second_order_fast_diag_oracle():
    nu = 0.5
    b = make_bundle("prop_y", [1.0], nu=nu)
    t, x, z, y = 0.3, 1.3, 0.0, 1.2
    m = b.leading_order(t, x, z)
    expected = (y**2 - nu**2) / 4.0 * m  # theta = (nu^2 - y^2)/2, D1 v = v
    assert b.second_order_fast_diag(t, x, y, z) == pytest.approx(expected, rel=1e-9)


def test_second_order_fast_diag_zero_cases():
    b = make_bundle("affine_z", [0.5, 0.2])
    assert abs(b.second_order_fast_diag(0.3, 1.0, 0.7, 0.0)) <= 1e-12
    # D1 v vanishes with wealth (at the sqrt(x) rate for gamma = 1/2)
    b2 = make_bundle("prop_y", [1.0])
    vals = [abs(b2.second_order_fast_diag(0.3, x, 1.2, 0.0)) for x in (1e-4, 1e-8, 1e-12)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] <= 1e-6


def test_vega_gamma_power():
    b = make_bundle("affine_z", [0.0, 1.0])
    assert b.vega_gamma_check(0.0, 1.0, 1.0) <= 1e-6
    # flat rms: both sides vanish
    b_flat = make_bundle("const", [0.8])
    assert b_flat.vega_gamma_check(0.3, 1.0, 0.0) <= 1e-9
    # at the horizon both sides vanish
    assert b.vega_gamma_check(1.0 - 1e-9, 1.0, 1.0) <= 1e-9


def test_vega_gamma_mixture():
    b = make_bundle("affine_z", [0.0, 1.0], utility=MIXTURE)
    worst = max(b.vega_gamma_check(0.25, x, 1.0) for x in (0.5, 1.0, 2.0))
    assert worst <= 1e-3


def test_vectorized_evaluation_matches_scalar():
    b = make_bundle("affine_z_tanh_y", [0.5, 0.25, 0.35], rho1=-0.5, rho2=-0.4)
    xs = np.array([0.5, 1.0, 2.0])
    zs = np.array([-0.3, 0.0, 0.4])
    q_vec = b.first_order_value(0.3, xs, zs)
    for i in range(3):
        assert q_vec[i] == pytest.approx(
            float(b.first_order_value(0.3, xs[i], zs[i])), rel=1e-12
        )


def test_q_gradient_x_matches_finite_difference():
    b = make_bundle("affine_z_tanh_y", [0.5, 0.25, 0.35], rho1=-0.5, rho2=-0.4)
    t, z = 0.3, 0.1
    h = 1e-5
    for x in (0.5, 1.0, 2.0):
        fd = (b.first_order_value(t, x + h, z) - b.first_order_value(t, x - h, z)) / (2 * h)
        qx = float(b.q_gradients(t, np.array([x]), np.array([z]))[0][0])
        assert qx == pytest.approx(float(fd), rel=1e-7)


def test_q_gradient_z_matches_finite_difference():
    b = make_bundle("affine_z_tanh_y", [0.5, 0.25, 0.35], rho1=-0.5, rho2=-0.4)
    t, x = 0.3, 1.2
    h = 1e-5
    for z in (-0.2, 0.0, 0.3):
        fd = (b.first_order_value(t, x, z + h) - b.first_order_value(t, x, z - h)) / (2 * h)
        qz = float(b.q_gradients(t, np.array([x]), np.array([z]))[1][0])
        assert qz == pytest.approx(float(fd), rel=1e-5)


@pytest.mark.parametrize("utility", [POWER_HALF, MIXTURE])
def test_q_gradients_with_a_masked_shared_row_are_exact(utility):
    b = make_bundle("affine_z_tanh_y", [0.5, 0.25, 0.35], rho1=-0.5, rho2=-0.4)
    cached = ExpansionBundle(b.model, averaged_sharpe(b.model, z_grid=z_cache_grid(0.0, 1.0)),
                             utility, 1.0)
    rng = np.random.default_rng(7)
    z = rng.uniform(-1.0, 1.0, 64)
    x = np.exp(rng.normal(0.0, 0.3, 64))
    alive = rng.random(64) < 0.7
    row = cached.averages.table(z)[:, alive]
    shared = cached.q_gradients(0.3, x[alive], z[alive], row=row)
    own = cached.q_gradients(0.3, x[alive], z[alive])
    assert all(np.array_equal(s, o) for s, o in zip(shared, own))


def test_mixture_bundle_leading_order_matches_direct_solve():
    from multiscale_portfolio.merton import solve_merton

    b = make_bundle("affine_z_tanh_y", [0.5, 0.25, 0.35], utility=MIXTURE)
    z = 0.2
    lam = float(b.averages.sharpe_rms(z))
    direct = solve_merton(MIXTURE, lam, 1.0, method="dual_quadrature")
    xs = np.logspace(-1, 1, 7)
    assert np.allclose(b.leading_order(0.3, xs, z), direct.value(0.3, xs), rtol=1e-10)
