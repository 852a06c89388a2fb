"""Constant-Sharpe-ratio Merton problem for a general utility.

The value function M(t, x) solves the nonlinear backward PDE

    M_t - (1/2) lam^2 M_x^2 / M_xx = 0,      M(T, x) = U(x),

and the optimal position is pi = (lam/sigma) R(t, x) with risk tolerance
R = -M_x/M_xx.  Three solution methods:

``closed_form_power``
    Exact for a pure power utility: M(t, x) = U(x) exp(lam^2 g (T-t) / (2(1-g))).

``dual_quadrature``
    Convex-duality method for any admissible utility.  The conjugate
    Ut(y) = U(I(y)) - y I(y) propagates through the linear dual PDE
    Vt_t + (1/2) lam^2 y^2 Vt_yy = 0, whose solution is the Gaussian average
    Vt(t, y) = E[Ut(y exp(-lam^2 tau/2 + lam sqrt(tau) Z))], evaluated with
    Gauss-Hermite quadrature.  Primal quantities are recovered from the
    first-order condition x = -Vt_y(t, y*):

        M = Vt + x y*,  M_x = y*,  M_xx = -1/Vt_yy,  R = y* Vt_yy.

    The method is mesh-free and evaluable at arbitrary (t, x), including
    vectorized evaluation with a per-point Sharpe ratio.

``finite_difference``
    Implicit backward scheme on a uniform log-wealth grid, Newton iteration
    per time step; used as an independent cross-check of the dual method.

The wealth-differential operators D_k = R^k d^k/dx^k and the linearized
Merton operator d/dt + (1/2) lam^2 D_2 + lam^2 D_1 are exposed through
:func:`apply_dk` and :func:`residual_of_pde`.
"""

from __future__ import annotations

import numpy as np
from scipy.interpolate import RectBivariateSpline
from scipy.linalg import solve_banded
from scipy.special import roots_hermite

from .utility import UtilitySpec

__all__ = [
    "MertonSolution",
    "solve_merton",
    "merton_pack",
    "apply_dk",
    "merton_strategy",
    "residual_of_pde",
]

METHODS = ("closed_form_power", "dual_quadrature", "finite_difference")

_GH_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_hermite(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for E[f(Z)], Z standard normal: sum w_i f(s_i)."""
    if n not in _GH_CACHE:
        x, w = roots_hermite(n)
        _GH_CACHE[n] = (np.sqrt(2.0) * x, w / np.sqrt(np.pi))
    return _GH_CACHE[n]


# ---------------------------------------------------------------------------
# dual-quadrature core
# ---------------------------------------------------------------------------


class _DualCore:
    """Gaussian-quadrature evaluation of the dual value and its y-derivatives."""

    def __init__(self, utility: UtilitySpec, n_nodes: int = 96):
        self.utility = utility
        self.nodes, self.weights = gauss_hermite(n_nodes)

    def _factors(self, lam, tau):
        # exp(-lam^2 tau / 2 + lam sqrt(tau) s_i), broadcast over leading dims
        lam = np.asarray(lam, dtype=float)[..., None]
        ef = np.exp(-0.5 * lam**2 * tau + lam * np.sqrt(tau) * self.nodes)
        return ef

    def derivs(self, lam, tau, y, order: int = 2):
        """Dual value Vt and y-derivatives up to `order` (max 4) at array y."""
        u = self.utility
        ef = self._factors(lam, tau)
        ye = np.asarray(y, dtype=float)[..., None] * ef
        x = u.inverse_marginal(ye)
        w = self.weights
        out = [((u.u(x) - ye * x) * np.ones_like(ef)) @ w]
        if order >= 1:
            out.append(-(x * ef) @ w)
        if order >= 2:
            u2 = u.du(x, 2)
            i1 = 1.0 / u2
            out.append(-(i1 * ef**2) @ w)
        if order >= 3:
            u3 = u.du(x, 3)
            i2 = -u3 / u2**3
            out.append(-(i2 * ef**3) @ w)
        if order >= 4:
            u4 = u.du(x, 4)
            i3 = (3.0 * u3**2 - u2 * u4) / u2**5
            out.append(-(i3 * ef**4) @ w)
        return out

    def marginal_value(self, lam, tau, x):
        """Solve x = -Vt_y(t, y) for y = M_x(t, x); vectorized Newton in log y."""
        u = self.utility
        x = np.asarray(x, dtype=float)
        lam_arr = np.broadcast_to(np.asarray(lam, dtype=float), x.shape)
        # Power-proxy seed using the asymptotic elasticity.
        ae = u.asymptotic_elasticity
        v = np.log(u.du(x, 1)) + 0.5 * lam_arr**2 * tau * ae / (1.0 - ae)
        logx = np.log(x)
        resid = None
        for _ in range(80):
            y = np.exp(v)
            _, vy, vyy = self.derivs(lam_arr, tau, y, order=2)
            resid = np.log(-vy) - logx
            if np.all(np.abs(resid) <= 1e-14):
                break
            slope = y * vyy / vy  # d log(-Vt_y) / d log y, strictly negative
            v = v + np.clip(-resid / slope, -1.5, 1.5)
        else:
            worst = float(np.max(np.abs(resid)))
            raise RuntimeError(
                f"dual first-order condition did not converge (max residual {worst:.3e})"
            )
        return np.exp(v)

    def evaluate(self, lam, tau, x, order: int = 2) -> dict:
        """Primal surface at (tau, x) with per-point Sharpe ratio lam.

        Returns a dict with m, m_x, m_xx, r, and (order >= 3) r_x, m_x3,
        (order >= 4) r_xx, m_x4.
        """
        x = np.asarray(x, dtype=float)
        lam_arr = np.broadcast_to(np.asarray(lam, dtype=float), x.shape).copy()
        ystar = self.marginal_value(lam_arr, tau, x)
        d = self.derivs(lam_arr, tau, ystar, order=order)
        vt, vy, vyy = d[0], d[1], d[2]
        out = {
            "m": vt + x * ystar,
            "m_x": ystar,
            "m_xx": -1.0 / vyy,
            "r": ystar * vyy,
        }
        if order >= 3:
            vyyy = d[3]
            out["r_x"] = -1.0 - ystar * vyyy / vyy
            out["m_x3"] = -vyyy / vyy**3
        if order >= 4:
            vyyyy = d[4]
            out["m_x4"] = vyyyy / vyy**4 - 3.0 * vyyy**2 / vyy**5
            out["r_xx"] = (vyyy / vyy + ystar * (vyyyy * vyy - vyyy**2) / vyy**2) / vyy
        return out


# ---------------------------------------------------------------------------
# finite-difference cross-check solver
# ---------------------------------------------------------------------------


def _solve_finite_difference(
    utility,
    lam,
    horizon,
    x_min=1e-3,
    x_max=1e3,
    n_space=800,
    n_time=400,
    newton_tol=1e-11,
    max_newton=50,
):
    """Implicit backward solve on a uniform log-wealth grid.

    Boundary conditions: value pinned to U(x_min) at the lower edge (risk
    tolerance vanishes at 0+, so the cash value is the correct limit there up
    to a boundary-layer error that decays into the domain), one-sided stencils
    preserving concavity at the upper edge.
    """
    xi = np.linspace(np.log(x_min), np.log(x_max), n_space)
    h = xi[1] - xi[0]
    dt = horizon / n_time
    surface = np.empty((n_time + 1, n_space))
    surface[-1] = utility.u(np.exp(xi))
    half_lam2 = 0.5 * lam**2

    def one_sided(m):
        # first/second xi-derivatives at the last node, backward stencils
        d1 = (3.0 * m[-1] - 4.0 * m[-2] + m[-3]) / (2.0 * h)
        d2 = (m[-1] - 2.0 * m[-2] + m[-3]) / h**2
        return d1, d2

    for step in range(n_time - 1, -1, -1):
        target = surface[step + 1]
        m = target.copy()
        converged = False
        for _ in range(max_newton):
            d1 = np.zeros(n_space)
            d2 = np.zeros(n_space)
            d1[1:-1] = (m[2:] - m[:-2]) / (2.0 * h)
            d2[1:-1] = (m[2:] - 2.0 * m[1:-1] + m[:-2]) / h**2
            d1[-1], d2[-1] = one_sided(m)
            den = d2 - d1  # equals x^2 M_xx in log coordinates
            den[0] = -1.0  # pinned node, value never used
            if np.any(den[1:-1] >= 0.0):
                raise RuntimeError(
                    "finite-difference Merton solve lost concavity on the grid interior"
                )
            g = half_lam2 * d1**2 / den
            resid = m - target + dt * g
            resid[0] = m[0] - target[0]  # pinned lower boundary
            if np.max(np.abs(resid[1:])) <= newton_tol * np.max(np.abs(m)):
                converged = True
                break
            # banded Jacobian: d resid / dm, bandwidth (2, 1) from the last row
            dg_dd1 = lam**2 * d1 / den + half_lam2 * d1**2 / den**2
            dg_dd2 = -half_lam2 * d1**2 / den**2
            ab = np.zeros((4, n_space))  # rows: u1, diag, l1, l2
            ab[1, :] = 1.0
            i = np.arange(1, n_space - 1)
            ab[1, i] += dt * dg_dd2[i] * (-2.0 / h**2)
            ab[0, i + 1] = dt * (dg_dd1[i] / (2.0 * h) + dg_dd2[i] / h**2)
            ab[2, i - 1] = dt * (-dg_dd1[i] / (2.0 * h) + dg_dd2[i] / h**2)
            # last row, one-sided stencils
            ab[1, -1] += dt * (dg_dd1[-1] * 3.0 / (2.0 * h) + dg_dd2[-1] / h**2)
            ab[2, -2] = dt * (dg_dd1[-1] * (-4.0) / (2.0 * h) + dg_dd2[-1] * (-2.0) / h**2)
            ab[3, -3] = dt * (dg_dd1[-1] / (2.0 * h) + dg_dd2[-1] / h**2)
            # pinned first row
            ab[0, 1] = 0.0
            delta = solve_banded((2, 1), ab, -resid)
            m = m + delta
        if not converged:
            raise RuntimeError(
                f"finite-difference Newton stalled after {max_newton} iterations "
                f"at time step {step}"
            )
        surface[step] = m
    t_grid = np.linspace(0.0, horizon, n_time + 1)
    return t_grid, xi, surface


# ---------------------------------------------------------------------------
# solution object
# ---------------------------------------------------------------------------


def merton_pack(utility: UtilitySpec, lam, tau: float, x, order: int = 2,
                dual: _DualCore | None = None) -> dict:
    """Value, x-derivatives and risk tolerance at time to horizon tau and
    Sharpe ratio lam (a scalar, or one per point of x).

    The pack holds m, m_x, m_xx and r; order >= 3 adds r_x and m_x3, order
    >= 4 adds r_xx and m_x4.  It is U itself at tau = 0, the dual quadrature
    of ``dual`` when one is given, and the power closed form otherwise.
    """
    u = utility
    x = np.asarray(x, dtype=float)
    if tau > 0.0 and dual is not None:
        return dual.evaluate(lam, tau, x, order=max(order, 2))
    if tau > 0.0:  # M = U exp(lam^2 g tau / (2(1-g))), R = x/(1-g)
        g = u.gamma
        growth = np.exp(0.5 * lam**2 * g / (1.0 - g) * tau)

        def r(x):
            return x / (1.0 - g)

        def r_x(x):
            return np.full(x.shape, 1.0 / (1.0 - g))

        def r_xx(x):
            return np.zeros(x.shape)
    else:
        growth = 1.0
        r, r_x, r_xx = u.risk_tolerance, u.risk_tolerance_x, u.risk_tolerance_xx
    out = {"m": u.u(x) * growth, "m_x": u.du(x, 1) * growth,
           "m_xx": u.du(x, 2) * growth, "r": r(x)}
    if order >= 3:
        out["r_x"], out["m_x3"] = r_x(x), u.du(x, 3) * growth
    if order >= 4:
        out["r_xx"], out["m_x4"] = r_xx(x), u.du(x, 4) * growth
    return out


class MertonSolution:
    """Evaluable Merton value surface for one utility and Sharpe ratio.

    Evaluation methods accept scalars or arrays in x (with scalar t) and
    return matching shapes.  The object is immutable after construction and
    safe for concurrent read-only use.
    """

    def __init__(self, utility: UtilitySpec, sharpe: float, horizon: float,
                 method: str = "auto", n_quad: int = 96):
        if sharpe < 0.0:
            raise ValueError(f"sharpe ratio must be nonnegative, got {sharpe}")
        if horizon <= 0.0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        if method == "auto":
            method = "closed_form_power" if utility.is_power else "dual_quadrature"
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
        if method == "closed_form_power" and not utility.is_power:
            raise ValueError("closed_form_power requires a pure power utility")
        self.utility = utility
        self.sharpe = float(sharpe)
        self.horizon = float(horizon)
        self.method = method
        self._dual = _DualCore(utility, n_nodes=n_quad)
        self._fd = None
        if method == "finite_difference" and sharpe > 0.0:
            t_grid, xi, surf = _solve_finite_difference(utility, sharpe, horizon)
            self._fd = RectBivariateSpline(t_grid, xi, surf, kx=3, ky=3)
            self._fd_xi_range = (xi[0], xi[-1])

    # -- core evaluation -----------------------------------------------------

    def _tau(self, t):
        tau = self.horizon - t
        if tau < -1e-12:
            raise ValueError(f"t={t} lies beyond the horizon {self.horizon}")
        return max(tau, 0.0)

    def _fd_pack(self, t, x, order):
        if order > 2:
            raise ValueError("finite-difference method exposes derivatives up to order 2")
        xi = np.log(np.asarray(x, dtype=float))
        lo, hi = self._fd_xi_range
        if np.any(xi < lo) or np.any(xi > hi):
            raise ValueError("evaluation point outside the finite-difference grid")
        m = self._fd(t, xi, grid=False)
        d1 = self._fd(t, xi, dx=0, dy=1, grid=False)
        d2 = self._fd(t, xi, dx=0, dy=2, grid=False)
        x_arr = np.exp(xi)
        m_x = d1 / x_arr
        m_xx = (d2 - d1) / x_arr**2
        return {"m": m, "m_x": m_x, "m_xx": m_xx, "r": -m_x / m_xx}

    def surface(self, t, x, order: int = 2) -> dict:
        """Value, x-derivatives, and risk tolerance at (t, x).

        `order` selects how deep the derivative pack goes (2 by default;
        3 adds r_x and m_x3, 4 adds r_xx and m_x4).
        """
        tau = self._tau(t)
        x_arr = np.asarray(x, dtype=float)
        scalar = x_arr.ndim == 0
        x_arr = np.atleast_1d(x_arr)
        if np.any(x_arr <= 0.0):
            raise ValueError("wealth must be strictly positive")
        if self.sharpe == 0.0:
            tau = 0.0  # no excess return: M = U at every t
        if tau > 0.0 and self.method == "finite_difference":
            pack = self._fd_pack(t, x_arr, order)
        else:
            dual = self._dual if self.method == "dual_quadrature" else None
            pack = merton_pack(self.utility, self.sharpe, tau, x_arr, order, dual)
        if scalar:
            pack = {k: float(np.asarray(v).item()) for k, v in pack.items()}
        return pack

    # -- convenience accessors -------------------------------------------------

    def value(self, t, x):
        return self.surface(t, x, order=2)["m"]

    def value_x(self, t, x):
        return self.surface(t, x, order=2)["m_x"]

    def value_xx(self, t, x):
        return self.surface(t, x, order=2)["m_xx"]

    def risk_tolerance(self, t, x):
        return self.surface(t, x, order=2)["r"]

    def derivative(self, t, x, k: int):
        """d^k M / dx^k for k in {0, .., 4}."""
        if k == 0:
            return self.value(t, x)
        order = max(k, 2)
        pack = self.surface(t, x, order=order)
        return pack[{1: "m_x", 2: "m_xx", 3: "m_x3", 4: "m_x4"}[k]]


def solve_merton(utility: UtilitySpec, sharpe: float, horizon: float,
                 method: str = "auto", **options) -> MertonSolution:
    """Solve the constant-Sharpe Merton problem; see :class:`MertonSolution`."""
    return MertonSolution(utility, sharpe, horizon, method=method, **options)


def merton_strategy(solution: MertonSolution, t, x, sigma: float):
    """Optimal dollar position pi = (lam/sigma) R(t, x)."""
    if sigma <= 0.0:
        raise ValueError(f"volatility must be strictly positive, got {sigma}")
    return (solution.sharpe / sigma) * solution.risk_tolerance(t, x)


# ---------------------------------------------------------------------------
# numeric differentiation helpers (diagnostic-grade)
# ---------------------------------------------------------------------------

# Relative steps per derivative order.  The second-derivative step is larger
# than the first's: cancellation noise scales like eps/h^k, so h must grow
# with the order for the residual diagnostics to resolve their tolerances.
_FD_STEPS = {1: 1e-4, 2: 4e-3, 3: 1e-2, 4: 2e-2}


def _central_difference(f, x, k, h):
    if k == 1:
        return (f(x + h) - f(x - h)) / (2.0 * h)
    if k == 2:
        return (f(x + h) - 2.0 * f(x) + f(x - h)) / h**2
    if k == 3:
        return (f(x + 2 * h) - 2.0 * f(x + h) + 2.0 * f(x - h) - f(x - 2 * h)) / (2.0 * h**3)
    return (f(x + 2 * h) - 4.0 * f(x + h) + 6.0 * f(x) - 4.0 * f(x - h) + f(x - 2 * h)) / h**4


def richardson_derivative(f, x, k, h):
    """k-th central difference with one Richardson extrapolation (O(h^4))."""
    coarse = _central_difference(f, x, k, h)
    fine = _central_difference(f, x, k, 0.5 * h)
    return (4.0 * fine - coarse) / 3.0


def apply_dk(solution: MertonSolution, k: int, f):
    """Wealth-differential operator D_k f = R^k d^k f/dx^k as a callable.

    `f` may be a callable (t, x) -> value, differentiated numerically with
    Richardson-extrapolated central differences, or an object exposing
    ``derivative(t, x, k)`` (as :class:`MertonSolution` does) for analytic
    derivatives.
    """
    if k not in (1, 2, 3, 4):
        raise ValueError(f"D_k requires k in 1..4, got {k}")

    if hasattr(f, "derivative"):
        def dk(t, x):
            return solution.risk_tolerance(t, x) ** k * f.derivative(t, x, k)
    else:
        def dk(t, x):
            h = _FD_STEPS[k] * max(abs(x), 1e-8)
            dfk = richardson_derivative(lambda xx: f(t, xx), x, k, h)
            return solution.risk_tolerance(t, x) ** k * dfk

    return dk


def residual_of_pde(solution: MertonSolution, t, x) -> float:
    """Linearized-operator residual M_t + (1/2) lam^2 D_2 M + lam^2 D_1 M.

    All derivatives are recomputed here with independent finite differences
    of the value surface, so the result is a solver-quality diagnostic rather
    than a restatement of the solver's internal derivatives.
    """
    if not t < solution.horizon:
        raise ValueError("residual diagnostic requires t < horizon")
    lam = solution.sharpe

    h_t = min(1e-4 * max(1.0, solution.horizon), 0.25 * (solution.horizon - t))
    if solution.method == "finite_difference" and t - h_t < 0.0:
        # forward-shifted central stencil to stay on the grid
        m_t = (solution.value(t + h_t, x) - solution.value(t, x)) / h_t
    else:
        m_t = richardson_derivative(lambda tt: solution.value(tt, x), t, 1, h_t)

    h1 = _FD_STEPS[1] * abs(x)
    h2 = _FD_STEPS[2] * abs(x)
    m_x = richardson_derivative(lambda xx: solution.value(t, xx), x, 1, h1)
    m_xx = richardson_derivative(lambda xx: solution.value(t, xx), x, 2, h2)
    r = -m_x / m_xx
    return float(m_t + 0.5 * lam**2 * r**2 * m_xx + lam**2 * r * m_x)
