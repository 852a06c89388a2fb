"""Properties of the utility surface and the dual quadrature at random inputs."""

import numpy as np
from hypothesis import given, settings, strategies as st

from multiscale_portfolio.merton import _DualCore, merton_pack
from multiscale_portfolio.utility import make_utility

PROPERTY = settings(max_examples=30, deadline=None)


def log_uniform(lo, hi):
    return st.floats(np.log(lo), np.log(hi)).map(np.exp)


def mixtures(exponent_range):
    """Power mixtures of 1-3 components; one component is a pure power."""
    component = st.tuples(st.floats(0.1, 10.0), st.floats(*exponent_range))
    return st.lists(component, min_size=1, max_size=3).map(
        lambda cs: make_utility("power_mixture", weights=[c for c, _ in cs],
                                exponents=[g for _, g in cs]))


@PROPERTY
@given(u=mixtures((0.05, 0.95)), log_y=st.lists(st.floats(np.log(1e-6), np.log(1e6)),
                                                min_size=1, max_size=8))
def test_inverse_marginal_round_trip(u, log_y):
    y = np.exp(np.array(log_y))
    x = u.inverse_marginal(y)
    assert np.all(x > 0.0)
    assert np.max(np.abs(u.du(x, 1) / y - 1.0)) <= 1e-12


@PROPERTY
@given(u=mixtures((0.05, 0.95)), k=st.integers(0, 4),
       log_x=st.lists(st.floats(np.log(1e-6), np.log(1e6)), min_size=1, max_size=8))
def test_derivatives_match_u_and_du(u, k, log_x):
    x = np.exp(np.array(log_x))
    got = u.derivatives(x, k)
    assert len(got) == k + 1
    want = [u.u(x)] + [u.du(x, j) for j in range(1, k + 1)]
    for j in range(k + 1):
        assert np.max(np.abs(got[j] / want[j] - 1.0)) <= 1e-13, j


@PROPERTY
@given(gamma=st.floats(0.05, 0.8), lam=st.floats(0.0, 1.0), tau=st.floats(0.01, 1.0),
       x=log_uniform(1e-3, 1e3))
def test_dual_matches_the_power_closed_form(gamma, lam, tau, x):
    u = make_utility("power", gamma=gamma)
    dual = _DualCore(u).evaluate(lam, tau, x, order=3)
    exact = merton_pack(u, lam, tau, np.array(x), order=3)
    for k in dual:
        assert abs(dual[k] / exact[k] - 1.0) <= 1e-12, k


@PROPERTY
@given(u=mixtures((0.1, 0.8)), lam=st.floats(0.05, 1.0), tau=st.floats(0.05, 1.0),
       stretch=log_uniform(0.25, 4.0), x=log_uniform(1e-3, 1e3))
def test_dual_depends_on_lam_and_tau_only_through_lam2_tau(u, lam, tau, stretch, x):
    # evaluate(lam, tau, x) against evaluate(lam', tau', x) with lam'^2 tau' = lam^2 tau
    dual = _DualCore(u)
    tau2 = tau * stretch
    lam2 = lam * np.sqrt(tau / tau2)
    one = dual.evaluate(lam, tau, x, order=3)
    two = dual.evaluate(lam2, tau2, x, order=3)
    for k in one:
        assert abs(two[k] / one[k] - 1.0) <= 1e-12, k


@PROPERTY
@given(u=mixtures((0.1, 0.8)), lam=st.floats(0.05, 1.0), tau=st.floats(0.05, 1.0),
       x=st.lists(log_uniform(1e-3, 1e3), min_size=1, max_size=8),
       offset=st.floats(-1.0, 1.0))
def test_dual_newton_seed_offset_moves_only_the_start(u, lam, tau, x, offset):
    # the Newton stops at 1e-14 on log(-Vt_y) wherever it starts
    x = np.array(x)
    dual = _DualCore(u)
    moved = dual.evaluate(lam, tau, x, order=4, offset=offset)
    proxy = dual.evaluate(lam, tau, x, order=4)
    for k in ("m_x", "m_xx", "r", "r_x"):
        assert np.max(np.abs(moved[k] / proxy[k] - 1.0)) <= 1e-12, k
    assert np.max(x * np.abs(moved["r_xx"] - proxy["r_xx"])) <= 1e-12
