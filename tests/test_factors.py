"""Market model validation, invariant averaging, Poisson corrector, coupling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    """TABLE_COLUMNS by the module quadrature functions and the model's slow_vol."""
    def rms(z):
        return math.sqrt(invariant_average(model, lambda y, zz: model.sharpe(y, zz) ** 2, z))

    def mean(z):
        return invariant_average(model, model.sharpe, z)

    def rms_slope(z):
        return richardson_derivative(rms, z, 1, 1e-4 * max(1.0, abs(z)))
    return (rms, mean, rms_slope, lambda z: fast_coupling(model, z),
            lambda z: mean(z) * rms(z) * rms_slope(z) * float(model.slow_vol(z)))


def test_cached_grid_matches_exact():
    model = make_model("affine_z_tanh_y", [0.5, 0.25, 0.35], nu=0.7)
    rms, mean, rms_slope, coupling, _ = exact_columns(model)
    cached = averaged_sharpe(model, z_grid=z_cache_grid(0.0, 1.5))
    zs = np.linspace(-1.2, 1.2, 9)
    for z in zs:
        assert float(cached.sharpe_rms(z)) == pytest.approx(rms(z), rel=1e-9)
        assert float(cached.sharpe_mean(z)) == pytest.approx(mean(z), rel=1e-9)
        assert float(cached.coupling(z)) == pytest.approx(coupling(z), rel=1e-7)
        assert float(cached.sharpe_rms_slope(z)) == pytest.approx(rms_slope(z), rel=1e-6)


def test_table_matches_exact_off_nodes():
    model = make_model("affine_z_tanh_y", [0.5, 0.25, 0.35], nu=0.7,
                       slow_vol=SLOW_VOL_REGISTRY["affine"]([0.8, 0.3]))
    exact = exact_columns(model)
    cached = averaged_sharpe(model, z_grid=z_cache_grid(0.0, 1.5))
    grid = cached.z_grid
    mid = 0.5 * (grid[:-1] + grid[1:])
    zs = mid[np.abs(mid) <= 1.2][::20]  # off-node points inside the visited range
    tab = cached.table(zs)
    assert tab.shape == (len(TABLE_COLUMNS), zs.size)
    for name, row, rel, f in zip(TABLE_COLUMNS, tab, (1e-9, 1e-9, 1e-6, 1e-7, 1e-6), exact):
        for z, got in zip(zs, row):
            assert got == pytest.approx(f(z), rel=rel)
        assert np.array_equal(getattr(cached, name)(zs), row)
    # slope accessors: central differences of the table's own value columns
    h = 1e-5
    fd = (cached.table(zs + h) - cached.table(zs - h)) / (2 * h)
    slopes = [cached.sharpe_mean_slope(zs), cached.sharpe_rms_curve(zs), cached.coupling_slope(zs)]
    np.testing.assert_allclose(slopes, fd[1:4], rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("name, params", [("affine_z_tanh_y", [0.5, 0.25, 0.35]),
                                          ("prop_yz", [1.0])])
def test_builder_matches_the_references_at_every_node(name, params):
    model = make_model(name, params, nu=0.7)
    grid = z_cache_grid(0.0, 1.5)
    columns, _ = factors._tabulate(model, grid)
    rms, mean, rms_slope, coupling, _ = exact_columns(model)
    for z, (got_rms, got_mean, got_slope, got_coupling) in zip(grid, columns):
        assert got_rms == pytest.approx(rms(z), rel=1e-12, abs=1e-15)
        assert got_mean == pytest.approx(mean(z), rel=1e-12, abs=1e-15)
        assert got_coupling == pytest.approx(coupling(z), rel=1e-12, abs=1e-15)
        assert got_slope == pytest.approx(rms_slope(z), rel=1e-9, abs=1e-12)


def test_builder_rejects_a_sharpe_ratio_not_finite_at_a_node():
    def sharpe(y, z):  # infinite at the Gauss-Hermite nodes above y = 1
        return np.where(np.asarray(y) > 1.0, np.inf, 0.5) * np.ones(np.broadcast(y, z).shape)

    model = MarketModel(sharpe=sharpe, sigma=SIGMA_REGISTRY["const"]([0.5]),
                        fast=OrnsteinUhlenbeckFactor(0.0, 0.5))
    with pytest.raises(RuntimeError, match="not finite at quadrature nodes"):
        averaged_sharpe(model, z_grid=z_cache_grid(0.0, 1.0))


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
    assert calls and len(calls) == len(set(calls))  # no rule size computed twice


def test_slow_factor_range_follows_drift_and_noise():
    s = 0.4
    target = SLOW_DRIFT_REGISTRY["mean_revert"]([1.0, 1.0])
    still = SLOW_VOL_REGISTRY["const"]([0.0])
    lo, hi = slow_factor_range(target, still, 0.0, s)
    assert lo == 0.0 and hi == pytest.approx(1.0 - math.exp(-s), rel=1e-6)
    # zero drift, affine g = g0 + g1 z: the width w solves w = 6 sqrt(s) (g0 + g1 w)
    g0, g1 = 0.5, 0.1
    affine = SLOW_VOL_REGISTRY["affine"]([g0, g1])
    lo, hi = slow_factor_range(SLOW_DRIFT_REGISTRY["zero"]([]), affine, 0.0, s)
    k = 6.0 * math.sqrt(s)
    assert -lo == hi == pytest.approx(k * g0 / (1.0 - k * g1), rel=1e-8)
    # a repelling drift grows the noise band by exp(s |k|)
    repel = SLOW_DRIFT_REGISTRY["mean_revert"]([-0.5, 0.0])
    flat = SLOW_VOL_REGISTRY["const"]([0.1])
    lo, hi = slow_factor_range(repel, flat, 0.0, s)
    assert hi == -lo == pytest.approx(k * 0.1 * math.exp(0.5 * s), rel=1e-12)
    with pytest.raises(ValueError, match="unbounded"):
        slow_factor_range(SLOW_DRIFT_REGISTRY["zero"]([]),
                          SLOW_VOL_REGISTRY["affine"]([0.5, 1.0]), 0.0, s)


def test_source_centering_enforced():
    model = make_model("affine_z_tanh_y", [0.5, 0.25, 0.35], nu=0.7)
    sol = PoissonSolution(model, 0.0)
    centered = invariant_average(model, sol._source, 0.0)
    assert abs(centered) <= 1e-10 * (1.0 + sol.mean_square)


# -- the theta_y table the control variate reads ----------------------------

REGISTRY_PARAMS = {"const": [0.5], "affine_z": [0.5, 0.25],
                   "affine_z_tanh_y": [0.5, 0.25, 0.35], "prop_y": [1.0], "prop_yz": [1.0]}


def cv_theta_y(averages, y, z):
    """theta_y(y, z) as the control variate's lookup returns it."""
    return averages.cv_lookup(np.zeros(len(TABLE_COLUMNS)), y, z)[-1]


@pytest.fixture(scope="module")
def theta_averages():
    """Factor averages on a narrow grid (z-step 0.003), one per registry entry."""
    return {name: averaged_sharpe(make_model(name, params, nu=0.5),
                                  z_grid=z_cache_grid(0.0, 0.25))
            for name, params in REGISTRY_PARAMS.items()}


def test_registry_params_cover_every_sharpe_entry():
    assert set(REGISTRY_PARAMS) == set(SHARPE_REGISTRY)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(REGISTRY_PARAMS)),
       u=st.floats(0.0, 1.0), v=st.floats(0.0, 1.0))
def test_theta_gradient_table_certificate(theta_averages, name, u, v):
    # theta_y is read at the nearest z-node and linearly in y: against the
    # reference at that node the error is the y-interpolation's (below 1e-4),
    # and against the reference at z itself it adds half a z-step times
    # |theta_yz|, below 5e-3 for every entry on this grid (prop_yz is the worst)
    averages = theta_averages[name]
    y_grid, table = averages.theta_gradient_table()
    assert table.shape == (averages.z_grid.size, y_grid.size)
    z_lo, z_hi = averages.z_grid[[0, -1]]
    y = float(y_grid[0] + u * (y_grid[-1] - y_grid[0]))
    z = float(z_lo + v * (z_hi - z_lo))
    got = float(cv_theta_y(averages, y, z))
    node = averages.z_grid[int(np.argmin(np.abs(averages.z_grid - z)))]
    assert abs(got - PoissonSolution(averages.model, node).gradient(y)) <= 1e-4
    assert abs(got - PoissonSolution(averages.model, z).gradient(y)) <= 5e-3


def test_theta_gradient_table_is_the_reference_at_the_nodes(theta_averages):
    averages = theta_averages["affine_z_tanh_y"]
    y_grid, table = averages.theta_gradient_table()
    for k in (0, 77, 200):
        ref = PoissonSolution(averages.model, averages.z_grid[k]).gradient(y_grid)
        np.testing.assert_allclose(table[k], ref, rtol=0.0, atol=1e-12)
        # at a node, the lookup returns the table entry (to the rounding of y's offset)
        got = cv_theta_y(averages, y_grid, np.full(y_grid.size, averages.z_grid[k]))
        np.testing.assert_allclose(got, table[k], rtol=1e-12, atol=1e-15)
    with pytest.raises(ValueError, match="outside the cached z-grid"):
        cv_theta_y(averages, 0.0, 1.0)


def test_lookup_is_the_table_row_and_theta_y_at_the_nearest_node(theta_averages):
    averages = theta_averages["prop_yz"]
    y_grid, table = averages.theta_gradient_table()
    rng = np.random.default_rng(3)
    z = rng.uniform(-0.3, 0.3, 50)
    y = rng.normal(0.0, 2.0, 50)  # some beyond the y-grid's 4, where the end value holds
    assert np.any(np.abs(y) > y_grid[-1])
    weights = rng.normal(size=len(TABLE_COLUMNS))
    s, s_z, rms, rms_p, theta_y = averages.cv_lookup(weights, y, z)
    row = averages.table(z)
    assert np.array_equal(rms, row[0]) and np.array_equal(rms_p, row[2])
    # the weighted sum of the columns, and the slope of its cubic
    np.testing.assert_allclose(s, weights @ row, rtol=1e-12, atol=1e-14)
    slopes = averages._cubic(slice(None), z, slope=True)
    np.testing.assert_allclose(s_z, weights @ slopes, rtol=1e-12, atol=1e-13)
    nearest = np.argmin(np.abs(averages.z_grid[:, None] - z), axis=0)
    expected = [np.interp(yy, y_grid, table[k]) for yy, k in zip(y, nearest)]
    np.testing.assert_allclose(theta_y, expected, rtol=1e-12, atol=1e-15)


def test_degenerate_fast_factor_has_a_zero_theta_table(monkeypatch):
    model = make_model("affine_z_tanh_y", [0.5, 0.25, 0.3], nu=0.0, mean=1.0)

    def no_density(self, y):
        raise AssertionError("the degenerate factor's density was read")

    monkeypatch.setattr(OrnsteinUhlenbeckFactor, "stationary_pdf", no_density)
    av = averaged_sharpe(model, z_grid=z_cache_grid(0.0, 2.0))
    _, table = av.theta_gradient_table()
    assert np.all(table == 0.0)
    assert np.all(av.coupling(av.z_grid) == 0.0)
    assert np.all(cv_theta_y(av, np.array([-1.0, 1.0, 3.0]), np.array([0.0, 0.5, -1.0])) == 0.0)
