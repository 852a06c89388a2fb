"""Constant-Sharpe-ratio Merton problem for a general utility.

The value function M(t, x) solves the nonlinear backward PDE

    M_t - (1/2) lam^2 M_x^2 / M_xx = 0,      M(T, x) = U(x),

and the optimal position is pi = (lam/sigma) R(t, x) with risk tolerance
R = -M_x/M_xx.  Three solution methods:

``closed_form_power``
    Exact for a pure power utility: M(t, x) = U(x) exp(lam^2 g (T-t) / (2(1-g))).
    The whole order-4 pack comes from one power of x, M_x = U'(x) exp(...):
    M = x M_x / g and d^(j+1)M/dx^(j+1) = (g - j)/x d^jM/dx^j.

``dual_quadrature``
    Convex-duality method for any admissible utility.  The conjugate
    Ut(y) = U(I(y)) - y I(y) propagates through the linear dual PDE
    Vt_t + (1/2) lam^2 y^2 Vt_yy = 0, whose solution is the Gaussian average
    Vt(t, y) = E[Ut(y exp(-lam^2 tau/2 + lam sqrt(tau) Z))], evaluated with
    Gauss-Hermite quadrature.  Primal quantities are recovered from the
    first-order condition x = -Vt_y(t, y*):

        M = Vt + x y*,  M_x = y*,  M_xx = -1/Vt_yy,  R = y* Vt_yy.

    The method is mesh-free and evaluable at arbitrary (t, x), including
    vectorized evaluation with a per-point Sharpe ratio.  Each point's
    Newton solve stops at its own convergence and its quadrature sum is its
    own, so a point's bits do not depend on the rest of its batch.

``finite_difference``
    Implicit backward scheme on a uniform log-wealth grid, Newton iteration
    per time step; used as an independent cross-check of the dual method.

The Monte Carlo engine reads the surface of a general utility every step,
too often for the dual: :class:`MertonTable` tabulates the dual's order-4
pack in (s = lam^2 tau, log x), which is all the dual depends on.  Its box
is s in [0, s_max] (25 nodes; the expansion bundle takes s_max from the
largest averaged Sharpe ratio on its z-grid and the horizon, 1.87 in the
reference scenario) by x in [1e-4, 1e4] (81 log-spaced nodes).  Against the
dual at 20,000 random points over the box (power mixture, weights (1, 1),
exponents (0.5, 0.25), s_max = 2.5) it agrees to 1.5e-8 relative on m_x and
m_xx, 5e-9 on r and 1e-8 on r_x, and x r_xx to 1.2e-8 absolute; the tests
certify 1e-7.  The rows are solved as a sweep in s: each row's Newton starts
from log y* extrapolated (cubic from the fourth row on) from the rows already
solved, which about halves the build's Newton passes, so a table node's bits
depend on the nodes below it in s at the same x, never on the other x of its
row.  Points off the box are evaluated by the dual itself.  The value m and
everything the tests and studies compare against stay on the dual.

The wealth-differential operators D_k = R^k d^k/dx^k and the linearized
Merton operator d/dt + (1/2) lam^2 D_2 + lam^2 D_1 are exposed through
:func:`apply_dk` and :func:`residual_of_pde`.
"""

from __future__ import annotations

from functools import cache

import numpy as np
from scipy.interpolate import CubicSpline, RectBivariateSpline
from scipy.linalg import solve_banded
from scipy.special import roots_hermite

from .utility import UtilitySpec

__all__ = [
    "MertonSolution",
    "MertonTable",
    "solve_merton",
    "merton_pack",
    "apply_dk",
    "merton_strategy",
    "residual_of_pde",
]

METHODS = ("closed_form_power", "dual_quadrature", "finite_difference")

GH_NODES = 96  # Gauss-Hermite nodes of every Gaussian average: the dual's and the fast factor's


@cache
def gauss_hermite() -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for E[f(Z)], Z standard normal: sum w_i f(s_i), GH_NODES terms."""
    x, w = roots_hermite(GH_NODES)
    return np.sqrt(2.0) * x, w / np.sqrt(np.pi)


# ---------------------------------------------------------------------------
# dual-quadrature core
# ---------------------------------------------------------------------------


class _DualCore:
    """Gaussian-quadrature evaluation of the dual value and its y-derivatives."""

    def __init__(self, utility: UtilitySpec):
        self.utility = utility
        self.nodes, self.weights = gauss_hermite()

    def _factors(self, lam, tau):
        # exp(-lam^2 tau / 2 + lam sqrt(tau) s_i), broadcast over leading dims
        lam = np.asarray(lam, dtype=float)[..., None]
        return np.exp(-0.5 * lam**2 * tau + lam * np.sqrt(tau) * self.nodes)

    def _expect(self, a):
        # Gauss-Hermite sum over the last axis, one point at a time: a BLAS
        # matvec's rounding depends on the other rows of its batch
        return np.sum(a * self.weights, axis=-1)

    def _quadrature(self, lam, tau, y):
        """The factors e_i, the points y e_i and the inverse marginal I(y e_i)."""
        ef = self._factors(lam, tau)
        ye = np.asarray(y, dtype=float)[..., None] * ef
        return ef, ye, self.utility.inverse_marginal(ye)

    def derivs(self, lam, tau, y, order: int = 2, value: bool = True, nodes=None):
        """Dual value Vt (None unless ``value``) and y-derivatives up to `order`
        (max 4) at array y; ``nodes`` is ``_quadrature(lam, tau, y)`` when the
        caller already holds it.

        With x_i = I(y e_i), the (k+1)-th y-derivative of Ut(y e_i) is
        -e_i^(k+1) I^(k)(y e_i), where I' = 1/U'', I'' = -U'''/U''^3 and
        I''' = (3 U'''^2 - U'' U'''')/U''^5 at x_i.  U and U'' ... U'''' come
        from one ``derivatives`` call, one power per mixture component, and
        the powers of e_i and of U'' are products of ones already formed."""
        ef, ye, x = self._quadrature(lam, tau, y) if nodes is None else nodes
        d = self.utility.derivatives(x, order)
        out = [self._expect(d[0] - ye * x) if value else None]
        if order >= 1:
            out.append(-self._expect(x * ef))
        if order >= 2:
            u2, ef2 = d[2], ef * ef
            i1 = 1.0 / u2
            out.append(-self._expect(i1 * ef2))
        if order >= 3:
            u3, u2_2 = d[3], u2 * u2
            i2 = -u3 / (u2_2 * u2)
            out.append(-self._expect(i2 * (ef2 * ef)))
        if order >= 4:
            u4 = d[4]
            i3 = (3.0 * u3**2 - u2 * u4) / (u2_2 * u2_2 * u2)
            out.append(-self._expect(i3 * (ef2 * ef2)))
        return out

    def marginal_value(self, lam, tau, x, offset=0.0):
        """Solve x = -Vt_y(t, y) for y = M_x(t, x); Newton in log y, each point
        stopping at its own convergence, so a point's bits never depend on
        the other points in the batch.  The Newton starts at the power proxy
        log U'(x) + (1/2) lam^2 tau ae/(1 - ae) plus ``offset`` (per point or
        scalar; :class:`MertonTable` moves it to its extrapolation in s).
        Returns y and, one row per point, the inverse marginal I(y e_i) of the
        iterate that converged."""
        u = self.utility
        x = np.asarray(x, dtype=float)
        lam_arr = np.broadcast_to(np.asarray(lam, dtype=float), x.shape).reshape(-1)
        logx = np.log(x).reshape(-1)
        ae = u.asymptotic_elasticity
        v = (np.log(u.du(x, 1)) + offset).reshape(-1) + 0.5 * lam_arr**2 * tau * ae / (1.0 - ae)
        todo = np.arange(v.size)
        inverse = np.empty((v.size, self.nodes.size))
        for _ in range(80):
            y = np.exp(v[todo])
            nodes = self._quadrature(lam_arr[todo], tau, y)
            _, vy, vyy = self.derivs(lam_arr[todo], tau, y, order=2, value=False, nodes=nodes)
            resid = np.log(-vy) - logx[todo]
            live = np.abs(resid) > 1e-14
            inverse[todo[~live]] = nodes[2][~live]
            if not live.any():
                break
            todo, y, vy, vyy, resid = todo[live], y[live], vy[live], vyy[live], resid[live]
            slope = y * vyy / vy  # d log(-Vt_y) / d log y, strictly negative
            v[todo] += np.clip(-resid / slope, -1.5, 1.5)
        else:
            worst = int(np.argmax(np.abs(resid)))
            raise RuntimeError(
                f"dual first-order condition did not converge (max residual "
                f"{abs(resid[worst]):.3e} at x = {x.reshape(-1)[todo[worst]]:.6g}, "
                f"lam = {lam_arr[todo[worst]]:.6g})"
            )
        return np.exp(v).reshape(x.shape), inverse

    def evaluate(self, lam, tau, x, order: int = 2, offset=0.0) -> dict:
        """Primal surface at (tau, x) with per-point Sharpe ratio lam; ``offset``
        moves the Newton seed of ``marginal_value``.

        Returns a dict with m, m_x, m_xx, r, and (order >= 3) r_x, m_x3,
        (order >= 4) r_xx, m_x4.
        """
        x = np.asarray(x, dtype=float)
        shape = x.shape
        x = x.reshape(-1)  # a scalar takes the array path too, and gets its bits
        lam_arr = np.broadcast_to(np.asarray(lam, dtype=float), shape).reshape(-1)
        ystar, inverse = self.marginal_value(lam_arr, tau, x, offset)
        ef = self._factors(lam_arr, tau)  # the Newton's own nodes at y*: no second inversion
        d = self.derivs(lam_arr, tau, ystar, order=order, nodes=(ef, ystar[:, None] * ef, inverse))
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
        return {k: v.reshape(shape) for k, v in out.items()}


# ---------------------------------------------------------------------------
# tabulated dual surface for the Monte Carlo engine
# ---------------------------------------------------------------------------

TABLE_S_NODES = 25
TABLE_X_NODES = 81
TABLE_X_RANGE = (1e-4, 1e4)
# polynomial extrapolation to the next node of a uniform grid from the last
# 1, 2, 3 or 4 nodes, newest first
_SWEEP_WEIGHTS = ((1.0,), (2.0, -1.0), (3.0, -3.0, 1.0), (4.0, -6.0, 4.0, -1.0))


class MertonTable:
    """Bicubic table of the dual's order-4 pack in (s = lam^2 tau, log x).

    The dual depends on (lam, tau) only through s, so one table serves every
    Sharpe ratio and time with lam^2 tau <= s_max.  Each s-node is one
    ``dual.evaluate`` call over the log-x nodes (row by row, which keeps the
    build's memory flat), swept upward in s: row 0 starts its Newton at the
    power proxy, which is exact at s = 0, and every later row at the
    polynomial extrapolation of log y* through up to four rows below it
    (``_SWEEP_WEIGHTS``).  A node's bits thus depend on the nodes below it in
    s at the same x, and never on the other x of its row.  A row whose solve
    fails raises a ``RuntimeError`` naming its s.  The columns log m_x, r/x,
    r_x and x r_xx are stacked into one not-a-knot tensor cubic, evaluated
    with one interval lookup and one Horner pass; m_xx = -m_x/r.  The pack
    holds m_x, m_xx, r, r_x and r_xx, not m.  Points off the (s, x) box go to
    the exact dual, never to an extrapolation.
    """

    def __init__(self, dual: _DualCore, s_max: float):
        if not s_max > 0.0:
            raise ValueError(f"table needs a positive s_max, got {s_max}")
        self.dual = dual
        self.s_max = float(s_max)
        s = np.linspace(0.0, self.s_max, TABLE_S_NODES)
        logx = np.linspace(np.log(TABLE_X_RANGE[0]), np.log(TABLE_X_RANGE[1]), TABLE_X_NODES)
        x = np.exp(logx)
        nodes = np.empty((4, s.size, x.size))
        ae = dual.utility.asymptotic_elasticity
        for i, s_i in enumerate(s):
            offset = 0.0  # row 0: the power proxy is exact at s = 0
            if i:
                # seed at log y* extrapolated from the rows below; row 0's
                # log y* stands in for the proxy's log U'(x)
                weights = _SWEEP_WEIGHTS[min(i, len(_SWEEP_WEIGHTS)) - 1]
                guess = sum(w * nodes[0, i - 1 - j] for j, w in enumerate(weights))
                offset = guess - nodes[0, 0] - 0.5 * s_i * ae / (1.0 - ae)
            try:
                p = dual.evaluate(np.sqrt(s_i), 1.0, x, order=4, offset=offset)
            except RuntimeError as err:
                raise RuntimeError(f"Merton table row s = {s_i:.6g} failed: {err}") from err
            nodes[:, i] = np.log(p["m_x"]), p["r"] / x, p["r_x"], x * p["r_xx"]
        # c[a, i, b, j, col] multiplies ds^(3 - a) dlogx^(3 - b) on cell (i, j)
        c = CubicSpline(s, CubicSpline(logx, nodes, axis=2).c, axis=3).c
        self._coef = np.ascontiguousarray(
            c.transpose(4, 0, 2, 1, 3).reshape(4, 4, 4, -1))
        self._s, self._logx = s, logx
        self._inv_ds = (s.size - 1) / self.s_max
        self._inv_dlogx = (x.size - 1) / (logx[-1] - logx[0])

    def covers(self, s, x):
        """Whether each point (s, x) lies in the table's box."""
        logx = np.log(x)
        return (s <= self.s_max) & (logx >= self._logx[0]) & (logx <= self._logx[-1])

    def _interpolate(self, s, logx):
        # uniform grids: the cell is arithmetic, and points in the box keep it >= 0
        i = np.minimum((s * self._inv_ds).astype(np.intp), TABLE_S_NODES - 2)
        j = np.minimum(((logx - self._logx[0]) * self._inv_dlogx).astype(np.intp),
                       TABLE_X_NODES - 2)
        ds, dx = s - self._s[i], logx - self._logx[j]
        c = self._coef[..., i * (TABLE_X_NODES - 1) + j]  # (col, a, b, n)
        px = ((c[:, :, 0] * dx + c[:, :, 1]) * dx + c[:, :, 2]) * dx + c[:, :, 3]
        return ((px[:, 0] * ds + px[:, 1]) * ds + px[:, 2]) * ds + px[:, 3]

    def evaluate(self, lam, tau, x, order: int = 2) -> dict:
        """m_x, m_xx, r and, by order, r_x and r_xx at (tau, x), lam per point."""
        return self.evaluate_counted(lam, tau, x, order)[0]

    def evaluate_counted(self, lam, tau, x, order: int = 2) -> tuple[dict, int]:
        """``evaluate``'s pack, and how many of its points lay off the box and
        went to the exact dual."""
        x = np.asarray(x, dtype=float)
        lam = np.broadcast_to(np.asarray(lam, dtype=float), x.shape)
        s = lam**2 * tau
        inside = self.covers(s, x)
        keys = ("m_x", "m_xx", "r", "r_x", "r_xx")[:order + 1]
        out = {k: np.empty(x.shape) for k in keys}
        if inside.any():
            xi = x[inside]
            log_mx, r_over_x, r_x, x_rxx = self._interpolate(s[inside], np.log(xi))
            cols = {"m_x": np.exp(log_mx), "r": r_over_x * xi, "r_x": r_x, "r_xx": x_rxx / xi}
            cols["m_xx"] = -cols["m_x"] / cols["r"]
            for k in keys:
                out[k][inside] = cols[k]
        if not inside.all():
            exact = self.dual.evaluate(lam[~inside], tau, x[~inside], order=order)
            for k in keys:
                out[k][~inside] = exact[k]
        return out, int(inside.size - np.count_nonzero(inside))


# ---------------------------------------------------------------------------
# finite-difference cross-check solver
# ---------------------------------------------------------------------------


_FD_X_MIN, _FD_X_MAX = 1e-3, 1e3  # wealth range of the log-spaced grid
_FD_N_SPACE = 800
_FD_N_TIME = 400
_FD_NEWTON_TOL = 1e-11  # a step's Newton residual, relative to the surface's largest value
_FD_MAX_NEWTON = 50


def _solve_finite_difference(utility, lam, horizon):
    """Implicit backward solve on a uniform log-wealth grid.

    Boundary conditions: value pinned to U(_FD_X_MIN) at the lower edge (risk
    tolerance vanishes at 0+, so the cash value is the correct limit there up
    to a boundary-layer error that decays into the domain), one-sided stencils
    preserving concavity at the upper edge.
    """
    xi = np.linspace(np.log(_FD_X_MIN), np.log(_FD_X_MAX), _FD_N_SPACE)
    h = xi[1] - xi[0]
    dt = horizon / _FD_N_TIME
    surface = np.empty((_FD_N_TIME + 1, _FD_N_SPACE))
    surface[-1] = utility.u(np.exp(xi))
    half_lam2 = 0.5 * lam**2

    def one_sided(m):
        # first/second xi-derivatives at the last node, backward stencils
        d1 = (3.0 * m[-1] - 4.0 * m[-2] + m[-3]) / (2.0 * h)
        d2 = (m[-1] - 2.0 * m[-2] + m[-3]) / h**2
        return d1, d2

    for step in range(_FD_N_TIME - 1, -1, -1):
        target = surface[step + 1]
        m = target.copy()
        converged = False
        for _ in range(_FD_MAX_NEWTON):
            d1 = np.zeros(_FD_N_SPACE)
            d2 = np.zeros(_FD_N_SPACE)
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
            if np.max(np.abs(resid[1:])) <= _FD_NEWTON_TOL * np.max(np.abs(m)):
                converged = True
                break
            # banded Jacobian: d resid / dm, bandwidth (2, 1) from the last row
            dg_dd1 = lam**2 * d1 / den + half_lam2 * d1**2 / den**2
            dg_dd2 = -half_lam2 * d1**2 / den**2
            ab = np.zeros((4, _FD_N_SPACE))  # rows: u1, diag, l1, l2
            ab[1, :] = 1.0
            i = np.arange(1, _FD_N_SPACE - 1)
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
                f"finite-difference Newton stalled after {_FD_MAX_NEWTON} iterations "
                f"at time step {step}"
            )
        surface[step] = m
    t_grid = np.linspace(0.0, horizon, _FD_N_TIME + 1)
    return t_grid, xi, surface


# ---------------------------------------------------------------------------
# solution object
# ---------------------------------------------------------------------------


def merton_pack(utility: UtilitySpec, lam, tau: float, x, order: int = 2,
                dual: _DualCore | MertonTable | None = None) -> dict:
    """Value, x-derivatives and risk tolerance at time to horizon tau and
    Sharpe ratio lam (a scalar, or one per point of x).

    The pack holds m, m_x, m_xx and r; order >= 3 adds r_x and m_x3, order
    >= 4 adds r_xx and m_x4.  It is U itself at tau = 0, the dual quadrature
    of ``dual`` when one is given (a :class:`MertonTable` serves its own
    pack, without m, m_x3 and m_x4), and the power closed form otherwise,
    whose r_x and r_xx are scalars.
    """
    u = utility
    x = np.asarray(x, dtype=float)
    if tau > 0.0 and dual is not None:
        return dual.evaluate(lam, tau, x, order=max(order, 2))
    if tau > 0.0:  # M = U exp(lam^2 g tau / (2(1-g))), R = x/(1-g): one power of x
        g = u.gamma
        m_x = u.du(x, 1) * np.exp(0.5 * lam**2 * g / (1.0 - g) * tau)
        out = {"m": x * m_x / g, "m_x": m_x, "m_xx": m_x * (g - 1.0) / x, "r": x / (1.0 - g)}
        if order >= 3:
            out["r_x"], out["m_x3"] = 1.0 / (1.0 - g), out["m_xx"] * (g - 2.0) / x
        if order >= 4:
            out["r_xx"], out["m_x4"] = 0.0, out["m_x3"] * (g - 3.0) / x
        return out
    out = {"m": u.u(x), "m_x": u.du(x, 1), "m_xx": u.du(x, 2), "r": u.risk_tolerance(x)}
    if order >= 3:
        out["r_x"], out["m_x3"] = u.risk_tolerance_x(x), u.du(x, 3)
    if order >= 4:
        out["r_xx"], out["m_x4"] = u.risk_tolerance_xx(x), u.du(x, 4)
    return out


class MertonSolution:
    """Evaluable Merton value surface for one utility and Sharpe ratio.

    Evaluation methods accept scalars or arrays in x (with scalar t) and
    return matching shapes.  The object is immutable after construction and
    safe for concurrent read-only use.
    """

    def __init__(self, utility: UtilitySpec, sharpe: float, horizon: float,
                 method: str = "auto"):
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
        self._dual = _DualCore(utility)
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
                 method: str = "auto") -> MertonSolution:
    """Solve the constant-Sharpe Merton problem; see :class:`MertonSolution`."""
    return MertonSolution(utility, sharpe, horizon, method=method)


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
