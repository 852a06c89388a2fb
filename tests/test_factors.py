"""Market model validation, invariant averaging, Poisson corrector, coupling."""

import math

import numpy as np
import pytest

from multiscale_portfolio import factors
from multiscale_portfolio.factors import (
    MarketModel,
    OrnsteinUhlenbeckFactor,
    PoissonSolution,
    SHARPE_REGISTRY,
    SIGMA_REGISTRY,
    SLOW_DRIFT_REGISTRY,
    SLOW_VOL_REGISTRY,
    TABLE_COLUMNS,
    _rms_sharpe_exact,
    averaged_sharpe,
    fast_coupling,
    invariant_average,
    slow_factor_range,
    z_cache_grid,
)
from multiscale_portfolio.merton import richardson_derivative


def make_model(sharpe_name, sharpe_params, nu=0.5, mean=0.0, **kwargs):
    defaults = dict(
        sigma=SIGMA_REGISTRY["const"]([0.5]),
        fast=OrnsteinUhlenbeckFactor(mean=mean, vol=nu),
        epsilon=0.1,
        delta=0.1,
    )
    defaults.update(kwargs)
    return MarketModel(sharpe=SHARPE_REGISTRY[sharpe_name](list(sharpe_params)), **defaults)


# -- model validation -------------------------------------------------------


def test_correlation_determinant_rejection():
    # 1 + 2(0.9)(0.9)(-0.9) - 3*0.81 < 0
    with pytest.raises(ValueError):
        make_model("const", [0.5], rho1=0.9, rho2=0.9, rho12=-0.9)


def test_correlation_bounds_rejected():
    with pytest.raises(ValueError):
        make_model("const", [0.5], rho1=1.0)


def test_scales_must_be_positive():
    with pytest.raises(ValueError):
        make_model("const", [0.5], epsilon=0.0)
    with pytest.raises(ValueError):
        make_model("const", [0.5], delta=-0.1)


def test_sigma_positivity_sampled():
    with pytest.raises(ValueError):
        MarketModel(
            sharpe=SHARPE_REGISTRY["const"]([0.5]),
            sigma=lambda y, z: np.zeros(np.broadcast(y, z).shape),
            epsilon=0.1,
            delta=0.1,
        )


def test_cholesky_reproduces_correlations():
    model = make_model("const", [0.5], rho1=-0.5, rho2=-0.4, rho12=0.1)
    chol = model.correlation_cholesky()
    corr = chol @ chol.T
    assert corr == pytest.approx(np.array([[1, -0.5, -0.4], [-0.5, 1, 0.1], [-0.4, 0.1, 1]]))


# -- invariant averaging ------------------------------------------------------


def test_average_normalization_and_moments():
    model = make_model("const", [0.7], nu=0.8, mean=0.3)
    one = invariant_average(model, lambda y, z: np.ones(np.shape(y)), 0.0)
    assert one == pytest.approx(1.0, abs=1e-14)
    second = invariant_average(model, lambda y, z: (y - 0.3) ** 2, 0.0)
    assert second == pytest.approx(0.64, rel=1e-12)
    centered = invariant_average(model, lambda y, z: y - 0.3, 0.0)
    assert centered == pytest.approx(0.0, abs=1e-14)


def test_average_aborts_on_nonfinite_integrand():
    model = make_model("const", [0.7])
    with pytest.raises(RuntimeError):
        with np.errstate(divide="ignore"):
            invariant_average(model, lambda y, z: 1.0 / (y - y), 0.0)


# -- Poisson corrector --------------------------------------------------------


def test_corrector_quadratic_oracle():
    # lam = y on OU(0, nu): theta = (nu^2 - y^2)/2, theta_y = -y
    for nu in (0.3, 0.5, 1.0):
        model = make_model("prop_y", [1.0], nu=nu)
        sol = PoissonSolution(model, 0.0)
        ys = np.linspace(-2.0, 2.0, 17)
        assert np.max(np.abs(sol.value(ys) - (nu**2 - ys**2) / 2.0)) <= 1e-10
        assert sol.gradient(1.0) == pytest.approx(-1.0, abs=1e-10)


def test_corrector_generator_identity():
    model = make_model("prop_y", [1.0], nu=0.5)
    sol = PoissonSolution(model, 0.0)
    ys = np.linspace(-2.5, 2.5, 31)
    h = 1e-4
    theta_yy = (sol.gradient(ys + h) - sol.gradient(ys - h)) / (2.0 * h)
    lhs = 0.5 * model.fast.noise(ys) ** 2 * theta_yy + model.fast.drift(ys) * sol.gradient(ys)
    rhs = ys**2 - 0.25
    assert np.max(np.abs(lhs - rhs) / (1.0 + ys**2)) <= 1e-8


def test_corrector_zero_for_y_independent_sharpe():
    model = make_model("affine_z", [0.5, 0.2])
    sol = PoissonSolution(model, 0.3)
    ys = np.linspace(-3.0, 3.0, 11)
    assert np.max(np.abs(sol.value(ys))) <= 1e-12
    assert np.max(np.abs(sol.gradient(ys))) <= 1e-12
    assert fast_coupling(model, 0.3) == pytest.approx(0.0, abs=1e-12)


def test_corrector_flux_vanishes_in_tails():
    model = make_model("prop_y", [1.0], nu=0.5)
    sol = PoissonSolution(model, 0.0)
    # the integrated flux must decay at the quadrature boundary (centering)
    for edge in (-12.0, 12.0):
        assert abs(float(sol._flux(edge)[0])) <= 1e-12


def test_corrector_zero_average():
    model = make_model("affine_z_tanh_y", [0.5, 0.25, 0.35], nu=0.7)
    sol = PoissonSolution(model, 0.1)
    avg = invariant_average(model, lambda y, z: sol.value(y), 0.1)
    assert abs(avg) <= 1e-10


# -- coupling ------------------------------------------------------------------


def test_coupling_oracle():
    for nu in (0.3, 0.5, 1.0):
        model = make_model("prop_y", [1.0], nu=nu)
        exact = -math.sqrt(2.0) * nu**3
        assert abs(fast_coupling(model, 0.0) / exact - 1.0) <= 1e-8


def test_coupling_independent_of_correlations():
    a = make_model("prop_y", [1.0], rho1=0.0)
    b = make_model("prop_y", [1.0], rho1=-0.6, rho2=0.3, rho12=0.2)
    assert fast_coupling(a, 0.0) == fast_coupling(b, 0.0)


# -- averaged surfaces ----------------------------------------------------------


def test_averages_constant_in_y():
    model = make_model("affine_z", [0.0, 1.0])  # lam = z
    av = averaged_sharpe(model, z_grid=z_cache_grid(0.0, 2.0))
    for z in (0.5, 1.0, 2.0):
        assert av.sharpe_rms(z) == pytest.approx(abs(z), rel=1e-12)
        assert av.sharpe_mean(z) == pytest.approx(z, rel=1e-12)
        assert av.coupling(z) == pytest.approx(0.0, abs=1e-12)
    assert av.sharpe_rms_slope(1.0) == pytest.approx(1.0, rel=1e-8)


def test_averages_proportional_model():
    # lam = z*y on OU(0, 1): rms = |z|, mean = 0
    model = make_model("prop_yz", [1.0], nu=1.0)
    av = averaged_sharpe(model, z_grid=z_cache_grid(0.0, 2.0))
    assert av.sharpe_rms(0.7) == pytest.approx(0.7, rel=1e-10)
    assert av.sharpe_mean(0.7) == pytest.approx(0.0, abs=1e-12)


def test_degenerate_fast_factor_point_mass():
    model = make_model("affine_z_tanh_y", [0.5, 0.0, 0.3], nu=0.0, mean=1.0)
    av = averaged_sharpe(model, z_grid=z_cache_grid(0.0, 2.0))
    expected = abs(0.5 + 0.3 * math.tanh(1.0))
    assert av.sharpe_rms(0.0) == pytest.approx(expected, rel=1e-12)


def test_cauchy_schwarz_everywhere():
    model = make_model("affine_z_tanh_y", [0.5, 0.25, 0.35], nu=0.7)
    av = averaged_sharpe(model, z_grid=z_cache_grid(0.0, 2.0))
    for z in np.linspace(-2.0, 2.0, 15):
        assert av.sharpe_mean(z) ** 2 <= av.sharpe_rms(z) ** 2 + 1e-14


def exact_columns(model):
    """The first four TABLE_COLUMNS by the module quadrature functions."""
    def rms(z):
        return _rms_sharpe_exact(model, z)
    return (rms, lambda z: invariant_average(model, model.sharpe, z),
            lambda z: richardson_derivative(rms, z, 1, 1e-4 * max(1.0, abs(z))),
            lambda z: fast_coupling(model, z))


def test_cached_grid_matches_exact():
    model = make_model("affine_z_tanh_y", [0.5, 0.25, 0.35], nu=0.7)
    rms, mean, rms_slope, coupling = exact_columns(model)
    cached = averaged_sharpe(model, z_grid=z_cache_grid(0.0, 1.5))
    zs = np.linspace(-1.2, 1.2, 9)
    for z in zs:
        assert float(cached.sharpe_rms(z)) == pytest.approx(rms(z), rel=1e-9)
        assert float(cached.sharpe_mean(z)) == pytest.approx(mean(z), rel=1e-9)
        assert float(cached.coupling(z)) == pytest.approx(coupling(z), rel=1e-7)
        assert float(cached.sharpe_rms_slope(z)) == pytest.approx(rms_slope(z), rel=1e-6)


def test_table_matches_exact_off_nodes():
    model = make_model("affine_z_tanh_y", [0.5, 0.25, 0.35], nu=0.7)
    exact = exact_columns(model)
    cached = averaged_sharpe(model, z_grid=z_cache_grid(0.0, 1.5))
    grid = cached.z_grid
    mid = 0.5 * (grid[:-1] + grid[1:])
    zs = mid[np.abs(mid) <= 1.2][::20]  # off-node points inside the visited range
    tab = cached.table(zs)
    assert tab.shape == (len(TABLE_COLUMNS), zs.size)
    for name, row, rel, f in zip(TABLE_COLUMNS, tab, (1e-9, 1e-9, 1e-6, 1e-7), exact):
        for z, got in zip(zs, row):
            assert got == pytest.approx(f(z), rel=rel)
        assert np.array_equal(getattr(cached, name)(zs), row)
    # slope columns: central differences of the table's own value columns
    h = 1e-5
    fd = (cached.table(zs + h, slopes=False) - cached.table(zs - h, slopes=False)) / (2 * h)
    np.testing.assert_allclose(tab[4:], fd[1:], rtol=1e-6, atol=1e-9)


def test_cached_grid_must_be_uniform():
    model = make_model("affine_z_tanh_y", [0.5, 0.25, 0.35], nu=0.7)
    with pytest.raises(ValueError, match="uniform"):
        averaged_sharpe(model, z_grid=np.linspace(-1.0, 1.0, 9) ** 3)


def test_table_builds_share_one_gauss_legendre_rule(monkeypatch):
    calls, rule = [], factors.roots_legendre
    monkeypatch.setattr(factors, "roots_legendre", lambda n: calls.append(n) or rule(n))
    factors._gauss_legendre.cache_clear()
    model = make_model("affine_z_tanh_y", [0.5, 0.25, 0.35], nu=0.7)
    for center in (0.0, 1.0):
        averaged_sharpe(model, z_grid=z_cache_grid(center, 0.5))
    assert len(calls) == 1


def test_slow_factor_range_follows_drift_and_noise():
    s = 0.4
    target = SLOW_DRIFT_REGISTRY["mean_revert"]([1.0, 1.0])
    still = SLOW_VOL_REGISTRY["const"]([0.0])[0]
    lo, hi = slow_factor_range(target, still, 0.0, s)
    assert lo == 0.0 and hi == pytest.approx(1.0 - math.exp(-s), rel=1e-6)
    # zero drift, affine g = g0 + g1 z: the width w solves w = 6 sqrt(s) (g0 + g1 w)
    g0, g1 = 0.5, 0.1
    affine = SLOW_VOL_REGISTRY["affine"]([g0, g1])[0]
    lo, hi = slow_factor_range(SLOW_DRIFT_REGISTRY["zero"]([]), affine, 0.0, s)
    k = 6.0 * math.sqrt(s)
    assert -lo == hi == pytest.approx(k * g0 / (1.0 - k * g1), rel=1e-8)
    # a repelling drift grows the noise band by exp(s |k|)
    repel = SLOW_DRIFT_REGISTRY["mean_revert"]([-0.5, 0.0])
    flat = SLOW_VOL_REGISTRY["const"]([0.1])[0]
    lo, hi = slow_factor_range(repel, flat, 0.0, s)
    assert hi == -lo == pytest.approx(k * 0.1 * math.exp(0.5 * s), rel=1e-12)
    with pytest.raises(ValueError, match="unbounded"):
        slow_factor_range(SLOW_DRIFT_REGISTRY["zero"]([]),
                          SLOW_VOL_REGISTRY["affine"]([0.5, 1.0])[0], 0.0, s)


def test_source_centering_enforced():
    model = make_model("affine_z_tanh_y", [0.5, 0.25, 0.35], nu=0.7)
    sol = PoissonSolution(model, 0.0)
    centered = invariant_average(model, sol._source, 0.0)
    assert abs(centered) <= 1e-10 * (1.0 + sol.mean_square)
