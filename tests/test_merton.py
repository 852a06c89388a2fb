"""Merton solvers: closed form, dual quadrature, finite difference, operators."""

import warnings

import numpy as np
import pytest

from multiscale_portfolio.merton import (
    TABLE_S_NODES,
    TABLE_X_RANGE,
    MertonTable,
    _DualCore,
    apply_dk,
    merton_pack,
    merton_strategy,
    residual_of_pde,
    solve_merton,
)
from multiscale_portfolio.utility import make_utility

POWER_HALF = make_utility("power", gamma=0.5)
MIXTURE = make_utility("power_mixture", weights=(1.0, 1.0), exponents=(0.5, 0.25))


def closed_form_value(gamma, lam, tau, x):
    return x**gamma / gamma * np.exp(0.5 * lam**2 * gamma / (1.0 - gamma) * tau)


def test_closed_form_reference_point():
    sol = solve_merton(POWER_HALF, 1.0, 1.0, method="closed_form_power")
    assert sol.value(0.0, 1.0) == pytest.approx(2.0 * np.exp(0.5), rel=1e-14)


def test_zero_sharpe_returns_utility():
    for u in (POWER_HALF, MIXTURE):
        sol = solve_merton(u, 0.0, 1.0)
        xs = np.logspace(-2, 2, 21)
        for t in (0.0, 0.3, 1.0):
            assert np.array_equal(sol.value(t, xs), u.u(xs))


def test_terminal_condition_exact():
    for method in ("closed_form_power", "dual_quadrature"):
        sol = solve_merton(POWER_HALF, 0.7, 1.0, method=method)
        assert sol.value(1.0, 2.0) == POWER_HALF.u(2.0)


def test_risk_tolerance_power_constant_in_time():
    sol = solve_merton(POWER_HALF, 0.8, 1.0)
    for t in (0.0, 0.4, 1.0):
        assert sol.risk_tolerance(t, 3.0) == pytest.approx(6.0, rel=1e-12)


def test_risk_tolerance_terminal_matches_utility():
    sol = solve_merton(MIXTURE, 0.5, 1.0, method="dual_quadrature")
    assert sol.risk_tolerance(1.0, 1.0) == pytest.approx(1.6, rel=1e-12)


def test_merton_strategy_examples():
    sol = solve_merton(POWER_HALF, 1.0, 1.0)
    assert merton_strategy(sol, 0.2, 1.0, 0.5) == pytest.approx(4.0, rel=1e-12)
    zero = solve_merton(POWER_HALF, 0.0, 1.0)
    assert merton_strategy(zero, 0.2, 1.0, 0.5) == 0.0
    assert merton_strategy(sol, 0.2, 1e-12, 0.5) == pytest.approx(0.0, abs=1e-11)
    with pytest.raises(ValueError):
        merton_strategy(sol, 0.2, 1.0, 0.0)


def test_dual_matches_closed_form_power():
    xs = np.logspace(-1, 1, 25)
    worst = 0.0
    for gamma in (0.25, 0.5, 0.75):
        u = make_utility("power", gamma=gamma)
        for lam in (0.2, 1.0):
            dual = solve_merton(u, lam, 1.0, method="dual_quadrature")
            for tau in (0.1, 1.0):
                t = 1.0 - tau
                rel = np.max(np.abs(dual.value(t, xs) / closed_form_value(gamma, lam, tau, xs) - 1.0))
                worst = max(worst, rel)
    assert worst <= 1e-6


def test_dual_derivatives_match_closed_form():
    cf = solve_merton(POWER_HALF, 0.9, 1.0, method="closed_form_power")
    dq = solve_merton(POWER_HALF, 0.9, 1.0, method="dual_quadrature")
    xs = np.array([0.3, 1.0, 4.0])
    for k in range(5):
        assert np.allclose(dq.derivative(0.25, xs, k), cf.derivative(0.25, xs, k), rtol=1e-10)
    pd = dq.surface(0.25, xs, order=4)
    pc = cf.surface(0.25, xs, order=4)
    assert np.allclose(pd["r_x"], pc["r_x"], rtol=1e-10)
    assert np.max(np.abs(pd["r_xx"])) < 1e-10  # R linear in wealth for a power


def test_legendre_first_order_condition_round_trip():
    dq = solve_merton(MIXTURE, 0.5, 1.0, method="dual_quadrature")
    xs = np.logspace(-1, 1, 11)
    ystar = dq.surface(0.3, xs)["m_x"]
    # x must equal -Vt_y(t, y*) to relative 1e-8
    implied = -dq._dual.derivs(0.5, 0.7, ystar, order=1)[1]
    assert np.max(np.abs(implied - xs) / xs) <= 1e-8


def test_finite_difference_matches_dual_for_mixture():
    fd = solve_merton(MIXTURE, 0.5, 1.0, method="finite_difference")
    dq = solve_merton(MIXTURE, 0.5, 1.0, method="dual_quadrature")
    xs = np.logspace(np.log10(0.1), np.log10(10.0), 41)
    worst = 0.0
    for t in (0.0, 0.25, 0.5, 0.75):
        worst = max(worst, float(np.max(np.abs(fd.value(t, xs) / dq.value(t, xs) - 1.0))))
    assert worst <= 1e-3


def test_monotone_in_sharpe():
    xs = np.logspace(-1, 1, 11)
    vals = [solve_merton(POWER_HALF, lam, 1.0, method="dual_quadrature").value(0.2, xs)
            for lam in (0.2, 0.5, 1.0)]
    assert np.all(vals[0] <= vals[1] + 1e-12)
    assert np.all(vals[1] <= vals[2] + 1e-12)


def test_value_monotone_decreasing_in_time():
    sol = solve_merton(MIXTURE, 0.6, 1.0, method="dual_quadrature")
    ts = np.linspace(0.0, 1.0, 6)
    vals = np.array([sol.value(t, 1.5) for t in ts])
    assert np.all(np.diff(vals) < 0.0)


def test_monotone_concave_in_wealth():
    sol = solve_merton(MIXTURE, 0.5, 1.0, method="dual_quadrature")
    pack = sol.surface(0.3, np.logspace(-2, 2, 41))
    assert np.all(pack["m_x"] > 0.0)
    assert np.all(pack["m_xx"] < 0.0)


def test_apply_dk_power_identities():
    # for gamma = 1/2: D1 M = M, D1(D1 M) = M, D2 M = -M
    sol = solve_merton(POWER_HALF, 1.0, 1.0, method="closed_form_power")
    t, x = 0.25, 2.0
    m = sol.value(t, x)
    d1 = apply_dk(sol, 1, sol)
    assert d1(t, x) == pytest.approx(m, rel=1e-8)
    d1sq = apply_dk(sol, 1, lambda tt, xx: d1(tt, xx))
    assert d1sq(t, x) == pytest.approx(m, rel=1e-8)
    d2 = apply_dk(sol, 2, sol)
    assert d2(t, x) == pytest.approx(-m, rel=1e-8)


def test_apply_dk_constant_function_is_zero():
    sol = solve_merton(POWER_HALF, 1.0, 1.0)
    d1 = apply_dk(sol, 1, lambda t, x: 3.0)
    assert d1(0.3, 1.7) == pytest.approx(0.0, abs=1e-9)


def test_apply_dk_rejects_bad_order():
    sol = solve_merton(POWER_HALF, 1.0, 1.0)
    for k in (0, 5, -1):
        with pytest.raises(ValueError):
            apply_dk(sol, k, sol)


def test_residual_closed_form():
    sol = solve_merton(POWER_HALF, 1.0, 1.0, method="closed_form_power")
    for t, x in ((0.0, 0.5), (0.3, 1.0), (0.7, 5.0)):
        assert abs(residual_of_pde(sol, t, x)) / sol.value(t, x) <= 1e-9


def test_residual_dual_quadrature():
    sol = solve_merton(POWER_HALF, 1.0, 1.0, method="dual_quadrature")
    for t in (0.1, 0.5):
        for x in (0.3, 1.0, 3.0):
            assert abs(residual_of_pde(sol, t, x)) / sol.value(t, x) <= 1e-6


def test_residual_zero_sharpe():
    sol = solve_merton(POWER_HALF, 0.0, 1.0)
    assert abs(residual_of_pde(sol, 0.4, 1.0)) <= 1e-9


def test_solver_input_validation():
    with pytest.raises(ValueError):
        solve_merton(POWER_HALF, -0.5, 1.0)
    with pytest.raises(ValueError):
        solve_merton(POWER_HALF, 0.5, 0.0)
    with pytest.raises(ValueError):
        solve_merton(MIXTURE, 0.5, 1.0, method="closed_form_power")
    with pytest.raises(ValueError):
        solve_merton(POWER_HALF, 0.5, 1.0, method="nonsense")
    sol = solve_merton(POWER_HALF, 0.5, 1.0)
    with pytest.raises(ValueError):
        sol.value(0.0, -1.0)
    with pytest.raises(ValueError):
        sol.value(2.0, 1.0)


def test_finite_difference_power_cross_check():
    # independent discretization against the closed form, looser tolerance
    fd = solve_merton(POWER_HALF, 0.5, 1.0, method="finite_difference")
    cf = solve_merton(POWER_HALF, 0.5, 1.0, method="closed_form_power")
    xs = np.logspace(np.log10(0.1), np.log10(10.0), 21)
    worst = max(float(np.max(np.abs(fd.value(t, xs) / cf.value(t, xs) - 1.0)))
                for t in (0.0, 0.5))
    assert worst <= 5e-3


def test_dual_evaluate_is_pointwise():
    # each point's Newton stops on its own residual and its quadrature sum is
    # its own, so a point's bits do not depend on the rest of its batch
    dual = _DualCore(MIXTURE)
    x = np.array([1e-6, 0.3, 1.0, 2.0, 50.0, 1e6])
    lam = np.array([0.2, 1.1, 0.0, 0.5, 0.9, 0.4])
    batch = dual.evaluate(lam, 0.6, x, order=4)
    for i in range(x.size):
        one = dual.evaluate(lam[i], 0.6, x[i], order=4)
        assert all(batch[k][i] == one[k] for k in batch)
    half = dual.evaluate(lam[::2], 0.6, x[::2], order=4)
    assert all(np.array_equal(half[k], batch[k][::2]) for k in batch)


def test_dual_evaluate_reuses_the_newton_nodes(monkeypatch):
    # the pack comes from the inverse-marginal nodes of each point's converged
    # iterate, bit for bit what derivs gives afresh at the returned y*, and
    # the only inversions are the Newton iterations' own
    dual = _DualCore(MIXTURE)
    x = np.array([1e-6, 0.3, 1.0, 2.0, 50.0, 1e6])
    lam = np.array([0.2, 1.1, 0.0, 0.5, 0.9, 0.4])
    calls = {"inverse": 0, "newton": 0}
    inverse, derivs = type(MIXTURE).inverse_marginal, _DualCore.derivs

    def counted_inverse(self, y):
        calls["inverse"] += 1
        return inverse(self, y)

    def counted_derivs(self, *args, **kwargs):
        calls["newton"] += kwargs.get("value") is False
        return derivs(self, *args, **kwargs)

    monkeypatch.setattr(type(MIXTURE), "inverse_marginal", counted_inverse)
    monkeypatch.setattr(_DualCore, "derivs", counted_derivs)
    pack = dual.evaluate(lam, 0.6, x, order=4)
    assert calls["inverse"] == calls["newton"] > 0
    y = pack["m_x"]
    vt, vy, vyy, vyyy, vyyyy = dual.derivs(lam, 0.6, y, order=4)
    assert np.array_equal(pack["m"], vt + x * y)
    assert np.array_equal(pack["m_xx"], -1.0 / vyy)
    assert np.array_equal(pack["r"], y * vyy)
    big_a = vyyy / vyy
    a, b = big_a / vyy, (3.0 * big_a * big_a - vyyyy / vyy) / (vyy * vyy)
    assert np.array_equal(pack["r_x"], -1.0 - pack["r"] * a)
    assert np.array_equal(pack["m_x3"], a * pack["m_xx"])
    assert np.array_equal(pack["m_x4"], b * pack["m_xx"])
    assert np.array_equal(pack["r_xx"], a + pack["r"] * (2.0 * a * a - b))


def test_dual_pack_stays_finite_at_the_far_nodes():
    # the far Gauss-Hermite nodes put x_i = I(y e_i) near 1e+-60 and beyond,
    # where U''^5 underflows; the ratios to U'' and to Vt_yy stay in range
    u = make_utility("power_mixture", weights=(1, 1, 1), exponents=(0.2, 0.5, 0.8))
    rng = np.random.default_rng(0)
    x = np.exp(rng.uniform(np.log(1e-4), np.log(1e4), 4000))
    lam = rng.uniform(0.0, 1.5, 4000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pack = _DualCore(u).evaluate(lam, 1.0, x, order=4)
    for k, v in pack.items():
        assert np.all(np.isfinite(v)), k


def test_table_build_calls_du_only_for_the_newton_seeds(monkeypatch):
    # the inverse-marginal Newton and the derivative sums form no du of their
    # own: the only du call of a dual solve is marginal_value's power-proxy seed
    calls = {"du": 0, "seed": 0}
    du, marginal_value = type(MIXTURE).du, _DualCore.marginal_value

    def counted_du(self, x, k):
        calls["du"] += 1
        return du(self, x, k)

    def counted_marginal_value(self, *args):
        calls["seed"] += 1
        return marginal_value(self, *args)

    monkeypatch.setattr(type(MIXTURE), "du", counted_du)
    monkeypatch.setattr(_DualCore, "marginal_value", counted_marginal_value)
    MertonTable(_DualCore(MIXTURE), 2.5)
    assert calls["du"] == calls["seed"] == TABLE_S_NODES


def test_table_sweep_seeds_each_row_from_the_rows_below(monkeypatch):
    # the rows' Newton seeds come from the solved rows below them in s, so
    # the 25-row build takes at most 60 Newton passes (99 from the proxy)
    calls = {"newton": 0}
    derivs = _DualCore.derivs

    def counted_derivs(self, *args, **kwargs):
        calls["newton"] += kwargs.get("value") is False
        return derivs(self, *args, **kwargs)

    monkeypatch.setattr(_DualCore, "derivs", counted_derivs)
    MertonTable(_DualCore(MIXTURE), 2.5)
    assert TABLE_S_NODES <= calls["newton"] <= 60


def test_dual_non_convergence_names_the_point(monkeypatch):
    # a first-order condition that never settles at one point: its -Vt_y
    # flips by 1e-9 on every pass, so its residual stays far above 1e-14
    derivs = _DualCore.derivs
    flip = {"sign": 1.0}

    def wobbling_derivs(self, lam, tau, y, *args, **kwargs):
        out = derivs(self, lam, tau, y, *args, **kwargs)
        flip["sign"] = -flip["sign"]
        out[1] = out[1] * np.where(lam == 0.7, 1.0 + flip["sign"] * 1e-9, 1.0)
        return out

    monkeypatch.setattr(_DualCore, "derivs", wobbling_derivs)
    with pytest.raises(RuntimeError, match=r"at x = 2, lam = 0\.7\)"):
        _DualCore(MIXTURE).evaluate(np.array([0.3, 0.7, 0.5]), 0.6, np.array([1.0, 2.0, 3.0]))


@pytest.mark.parametrize("x", [1e-60, 1e-90, 1e-100])
def test_dual_stops_at_the_rounding_level_of_log_x(x):
    # |log x| > 32: 1e-14 is finer than log x's spacing, and these points failed
    # under the flat stop; the dual's -Vt_y(y) now meets x to rounding level
    dual = _DualCore(MIXTURE)
    y, _ = dual.marginal_value(0.5, 0.05, np.array([x]))
    _, vy, _ = dual.derivs(np.array([0.5]), 0.05, y, order=2, value=False)
    assert -vy[0] == pytest.approx(x, rel=1e-12)


def test_table_row_failure_names_its_s(monkeypatch):
    marginal_value = _DualCore.marginal_value

    def failing_above_one(self, lam, tau, x, *args):
        if np.max(lam) ** 2 * tau > 1.0:
            raise RuntimeError("planted failure")
        return marginal_value(self, lam, tau, x, *args)

    monkeypatch.setattr(_DualCore, "marginal_value", failing_above_one)
    with pytest.raises(RuntimeError, match=r"row s = 1\.04167 failed: planted") as info:
        MertonTable(_DualCore(MIXTURE), 2.5)  # rows at s = 2.5 j / 24
    assert str(info.value.__cause__) == "planted failure"


def test_power_pack_from_one_power_matches_the_utility():
    x = np.logspace(-6, 6, 241)
    for gamma, lam, tau in ((0.5, 0.8, 0.7), (0.1, 1.3, 1.0), (0.9, 0.3, 0.2)):
        u = make_utility("power", gamma=gamma)
        growth = np.exp(0.5 * lam**2 * gamma / (1.0 - gamma) * tau)
        pack = merton_pack(u, lam, tau, x, order=4)
        assert np.max(np.abs(pack["m"] / (u.u(x) * growth) - 1.0)) <= 1e-13
        for k, key in enumerate(("m_x", "m_xx", "m_x3", "m_x4"), start=1):
            assert np.max(np.abs(pack[key] / (u.du(x, k) * growth) - 1.0)) <= 1e-13, key
        assert np.array_equal(pack["r"], x / (1.0 - gamma))
        assert pack["r_x"] == 1.0 / (1.0 - gamma) and pack["r_xx"] == 0.0


@pytest.fixture(scope="module")
def mixture_table():
    return MertonTable(_DualCore(MIXTURE), 2.5)


def test_merton_table_certificate(mixture_table):
    """Against the exact dual at random off-node points over the whole box."""
    table = mixture_table
    rng = np.random.default_rng(11)
    n = 2000
    s = np.concatenate([rng.uniform(0.0, table.s_max, n), [0.0, table.s_max, table.s_max]])
    x = np.concatenate([np.exp(rng.uniform(*np.log(TABLE_X_RANGE), n)),
                        [TABLE_X_RANGE[0], TABLE_X_RANGE[1], 1.0]])
    tau = 0.8
    lam = np.sqrt(s / tau)
    assert np.all(table.covers(s, x))
    got = table.evaluate(lam, tau, x, order=4)[0]
    exact = table.dual.evaluate(lam, tau, x, order=4)
    for k in ("m_x", "m_xx", "r", "r_x"):
        assert np.max(np.abs(got[k] / exact[k] - 1.0)) <= 1e-7, k
    assert np.max(x * np.abs(got["r_xx"] - exact["r_xx"])) <= 1e-7
    assert set(got) == {"m_x", "m_xx", "r", "r_x", "r_xx"}


def test_merton_table_sweep_matches_proxy_seeded_rows(mixture_table, monkeypatch):
    # the sweep moves only where each row's Newton starts: a table whose rows
    # all start at the power proxy agrees to the Newton's own stop
    evaluate = _DualCore.evaluate
    monkeypatch.setattr(_DualCore, "evaluate",
                        lambda self, lam, tau, x, order=2, offset=0.0:
                        evaluate(self, lam, tau, x, order))
    proxy = MertonTable(_DualCore(MIXTURE), mixture_table.s_max)
    rng = np.random.default_rng(12)
    n = 1000
    s = rng.uniform(0.0, mixture_table.s_max, n)
    x = np.exp(rng.uniform(*np.log(TABLE_X_RANGE), n))
    tau = 0.8
    lam = np.sqrt(s / tau)
    got = mixture_table.evaluate(lam, tau, x, order=4)[0]
    want = proxy.evaluate(lam, tau, x, order=4)[0]
    for k in ("m_x", "m_xx", "r", "r_x"):
        assert np.max(np.abs(got[k] / want[k] - 1.0)) <= 1e-12, k
    assert np.max(x * np.abs(got["r_xx"] - want["r_xx"])) <= 1e-12


def test_merton_table_leaves_off_box_points_to_the_exact_dual(mixture_table):
    table = mixture_table
    tau = 0.5
    x = np.array([1e-6, 0.7, 1e6, 2.0, 3e-5])
    lam = np.array([0.8, 0.8, 0.3, 3.0, 1.0])  # lam^2 tau = 4.5 > s_max at x = 2
    inside = table.covers(lam**2 * tau, x)
    assert inside.tolist() == [False, True, False, False, False]
    got = table.evaluate(lam, tau, x, order=3)[0]
    exact = table.dual.evaluate(lam[~inside], tau, x[~inside], order=3)
    for k in got:
        assert np.array_equal(got[k][~inside], exact[k])
    assert np.array_equal(got["r"][inside], table.evaluate(0.8, tau, 0.7)[0]["r"].reshape(1))


def test_merton_pack_at_the_horizon_is_the_utility():
    # tau = 0: m and r are U's own loops bit for bit, with or without a dual
    x = np.array([1e-4, 0.5, 2.0, 1e4])
    for dual in (None, _DualCore(MIXTURE)):
        terminal = merton_pack(MIXTURE, 0.9, 0.0, x, order=4, dual=dual)
        assert np.array_equal(terminal["m"], MIXTURE.u(x))
        assert np.array_equal(terminal["r"], MIXTURE.risk_tolerance(x))
