"""First-order expansion of the value process under fast/slow volatility.

Everything is expressed through the z-parameterized Merton surface evaluated
at the root-mean-square Sharpe ratio, v(t, x, z) = M(t, x; sharpe_rms(z)),
its risk tolerance R, and the wealth-differential operators D_k = R^k d^k/dx^k.
With tau = T - t:

    leading order        v
    fast correction      -(1/2) tau rho1 coupling(z) D1^2 v
    slow correction      (1/2) tau^2 rho2 P(z) D1^2 v,  P = mean rms rms' g
    combined             Q = v + sqrt(eps) * fast + sqrt(delta) * slow

using the identity D1^2 v = R M_x (R_x - 1) (from R M_xx = -M_x) and the
Vega-Gamma relation v_z = tau rms rms' D1 v, which makes every correction a
closed form in quantities the Merton solver already provides.  coupling and P
are factor-table columns, so Q's prefactor of D1^2 v is one cubic in z per
step, whose slope feeds the control variate's Q_z.  Q_z takes d/dz D1^2 v =
k^2 v_z, k = R_x - 1: exact for a power utility, and for any other an
approximation that moves only the CV's variance.
The second-order fast term eps phi2 = -(eps/2) theta(y, z) D1 v never enters
Q (``second_order_fast_diag`` exposes phi2 as an expansion-quality
diagnostic), but its y-gradient Q_y = -(eps/2) theta_y D1 v feeds the control
variate: Y moves with noise of order 1/sqrt(eps), so this term's martingale
part is of order sqrt(eps), like the first-order terms the CV carries.

The control variate also takes Q_xx ~ M_xx, the weight of the Ito term of the
log-Euler wealth step; like every gradient it needs only to be adapted, so the
approximation moves the CV's variance alone.

The zeroth-order strategy invests pi = (lam(y, z)/sigma(y, z)) R(t, x; rms(z)):
the local Sharpe-to-vol ratio sized by the averaged risk tolerance.  A
:class:`StepState` (``ExpansionBundle.state``) holds one strategy's paths at
one engine step with the order-4 Merton pack at (t, x; rms(z)); every
strategy, bump, the control variate's gradients and the drag read that one
pack, and ``state`` is the one place that handles wealth outside (0, inf).  A
perturbed strategy leaves its bumps on the step (``StepState.bumps``), so
the engine's bump moments read the values its position used.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .factors import TABLE_COLUMNS, FactorAverages, MarketModel, PoissonSolution
from .merton import MertonTable, _DualCore, merton_pack, solve_merton
from .utility import UtilitySpec

__all__ = ["ExpansionBundle", "StepState"]

_Z_STEP = 1e-4  # vega_gamma_check's central-difference step in z, relative to max(1, |z|)


@dataclass
class StepState:
    """One strategy's paths at one engine step: the state (t, x, y, z), the
    step's lam/sigma, which paths have wealth in (0, inf), the order-4 Merton
    pack at (t, x; rms(z)) with a stand-in wealth 1 on the others, how many of
    its points the table left to the exact dual, and the bundle's (epsilon, delta).
    ``bumps`` is the (fast, slow) pair a ``Perturbed`` position set on the
    step, and None for every other strategy."""

    t: float
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    lam_over_sig: np.ndarray
    alive: np.ndarray
    pack: dict
    n_exact: int
    epsilon: float
    delta: float
    bumps: tuple | None = None

    @cached_property
    def tolerance(self):
        """R(t, x; rms(z)), exactly 0 where wealth is outside (0, inf)."""
        return np.where(self.alive, self.pack["r"], 0.0)

    @cached_property
    def pi0(self):
        """The zeroth-order position (lam/sigma) R."""
        return self.lam_over_sig * self.tolerance


class ExpansionBundle:
    """Evaluable expansion terms for one (model, utility, horizon) triple.

    Scalar calls accept floats; the vectorized paths accept arrays for x and
    z with a scalar t (the Monte Carlo engine's access pattern).  For a pure
    power utility all evaluations are closed form.  For any other utility the
    surface the engine reads every step (``state`` and so ``pi_zero`` and
    ``risk_tolerance``) comes from a :class:`MertonTable`, built on first use;
    the value and its corrections stay on the exact dual.
    """

    def __init__(self, model: MarketModel, averages: FactorAverages,
                 utility: UtilitySpec, horizon: float):
        if horizon <= 0.0:
            raise ValueError("horizon must be positive")
        self.model = model
        self.averages = averages
        self.utility = utility
        self.horizon = float(horizon)
        self._dual = None if utility.is_power else _DualCore(utility)
        self._table = None

    def with_scales(self, epsilon: float, delta: float) -> ExpansionBundle:
        """This bundle at the scales (epsilon, delta), every other coefficient of
        the model kept.  The scales enter only the corrections' sqrt(eps),
        sqrt(delta) and eps, so the copy shares the factor averages (and their
        theta_y table), the dual and the engine's Merton table, which is built
        here first so that every copy holds the same one."""
        self.merton_table()
        other = copy.copy(self)
        other.model = replace(self.model, epsilon=epsilon, delta=delta)
        return other

    # -- Merton access ---------------------------------------------------------

    def merton_table(self) -> MertonTable | None:
        """The engine's Merton surface: None for a pure power, else a table
        whose s-range covers lam = sharpe_rms anywhere on the z-grid at any
        t, built once (the engine builds it before forking its chunk processes)."""
        if self._dual is not None and self._table is None:
            rms = self.averages.table(self.averages.z_grid)[0]
            s_max = float(np.max(rms))**2 * self.horizon
            self._table = MertonTable(self._dual, s_max or 1.0)  # any box holds s = 0
        return self._table

    def _surface(self, t, x, z, order=2, rms=None):
        """Exact Merton pack at the per-point averaged Sharpe ``rms`` (looked up
        from z when not given); vectorized."""
        lam = np.asarray(self.averages.sharpe_rms(z) if rms is None else rms, dtype=float)
        return merton_pack(self.utility, lam, self.horizon - t, x, order, self._dual)

    # -- expansion terms --------------------------------------------------------

    def leading_order(self, t, x, z):
        """v(t, x, z) = Merton value at the averaged Sharpe ratio."""
        return self._surface(t, x, z)["m"]

    def state(self, t, x, y, z, rms=None, lam_over_sig=None) -> StepState:
        """The :class:`StepState` at (t, x, y, z); ``rms`` and ``lam_over_sig``
        are sharpe_rms(z) and sharpe(y, z)/sigma(y, z) when the caller holds
        them (y is read only for lam_over_sig).  Where wealth is outside (0, inf),
        as on an aborted path, the pack is read at a stand-in wealth 1, which the
        dual needs, and the risk tolerance, so every position built on it, is 0."""
        x = np.asarray(x, dtype=float)
        alive = (x > 0.0) & (x < np.inf)
        if rms is None:
            rms = self.averages.sharpe_rms(z)
        if lam_over_sig is None and y is not None:
            lam_over_sig = self.model.sharpe(y, z) / self.model.sigma(y, z)
        pack, n_exact = self.step_pack(t, np.where(alive, x, 1.0), rms)
        return StepState(t, x, y, z, lam_over_sig, alive, pack, n_exact,
                         self.model.epsilon, self.model.delta)

    def risk_tolerance(self, t, x, z):
        """R(t, x; rms(z)), exactly 0 at zero wealth."""
        return self.state(t, x, None, z).tolerance

    def step_pack(self, t, x, rms) -> tuple[dict, int]:
        """The order-4 Merton pack at (t, x; rms), and how many of its points
        the engine's table left to the exact dual (0 for a pure power, which
        has no table).  x must be positive; at t = T the pack is U's own."""
        table, tau = self.merton_table(), self.horizon - t
        if table is None or not tau > 0.0:
            return merton_pack(self.utility, rms, tau, x, order=4), 0
        return table.evaluate(rms, tau, x, order=4)

    def d1(self, t, x, z):
        """D1 v = R M_x."""
        p = self._surface(t, x, z, order=3)
        return p["r"] * p["m_x"]

    def _prefactors(self, t):
        """Multipliers of the coupling and slow_prefactor columns in the fast and
        slow prefactors of D1^2 v: -(1/2) tau rho1 and (1/2) tau^2 rho2."""
        tau = self.horizon - t
        return -0.5 * tau * self.model.rho1, 0.5 * tau**2 * self.model.rho2

    def _corrections(self, t, x, z):
        """Leading-order pack and the fast and slow first-order corrections."""
        row = self.averages.table(z)
        p = self._surface(t, x, z, order=3, rms=row[0])
        d1sq = p["r"] * p["m_x"] * (p["r_x"] - 1.0)  # D1^2 v
        c_fast, c_slow = self._prefactors(t)
        return p, c_fast * row[3] * d1sq, c_slow * row[4] * d1sq

    def fast_correction(self, t, x, z):
        """First-order correction from the fast factor (vanishes at t = T)."""
        return self._corrections(t, x, z)[1]

    def slow_correction(self, t, x, z):
        """First-order correction from the slow factor (vanishes at t = T)."""
        return self._corrections(t, x, z)[2]

    def first_order_value(self, t, x, z, eps: float | None = None,
                          delta: float | None = None):
        """Q = v + sqrt(eps) fast + sqrt(delta) slow; Q(T, x, z) = U(x)."""
        eps = self.model.epsilon if eps is None else eps
        delta = self.model.delta if delta is None else delta
        p, fast, slow = self._corrections(t, x, z)
        return p["m"] + np.sqrt(eps) * fast + np.sqrt(delta) * slow

    def pi_zero(self, t, x, y, z):
        """Zeroth-order position: local Sharpe over vol, averaged risk tolerance."""
        return self.state(t, x, y, z).pi0

    def second_order_fast_diag(self, t, x, y, z: float):
        """-(1/2) theta(y, z) D1 v: expansion-quality diagnostic, not part of Q."""
        theta = PoissonSolution(self.model, z).value(y)
        return -0.5 * np.asarray(theta) * self.d1(t, x, z)

    def vega_gamma_check(self, t, x, z: float) -> float:
        """Normalized residual of v_z = tau rms rms' D1 v, with v_z by re-solving.

        The z-difference (step _Z_STEP max(1, |z|)) rebuilds the Merton solution
        at shifted averaged Sharpe ratios, so this exercises the solver's
        smoothness in the Sharpe parameter rather than differentiating a cached
        surface.
        """
        tau = self.horizon - t
        h_z = _Z_STEP * max(1.0, abs(z))
        a = self.averages

        def v_at(zz):
            lam = float(a.sharpe_rms(zz))
            return solve_merton(self.utility, lam, self.horizon).value(t, x)

        fd = (v_at(z + h_z) - v_at(z - h_z)) / (2.0 * h_z)
        v0 = self.leading_order(t, x, z)
        rhs = tau * float(a.sharpe_rms(z)) * float(a.sharpe_rms_slope(z)) * self.d1(t, x, z)
        return float(abs(fd - rhs) / (1.0 + abs(v0)))

    # -- gradients for the martingale control variate ---------------------------

    def q_coefficients(self, t, y, z):
        """The wealth-free coefficients of ``q_gradients`` at the points (y, z):
        a = sqrt(eps) fast + sqrt(delta) slow per unit D1^2 v, one cubic in z
        combined from two table columns, its slope b, tau rms rms', rms, and
        -(eps/2) theta_y.  The engine calls this once per step for every
        strategy."""
        c_fast, c_slow = self._prefactors(t)
        weights = np.zeros(len(TABLE_COLUMNS))
        weights[3:] = np.sqrt(self.model.epsilon) * c_fast, np.sqrt(self.model.delta) * c_slow
        a, b, rms, rms_p, theta_y = self.averages.cv_lookup(weights, y, z)
        return (a, b, (self.horizon - t) * rms * rms_p, rms,
                -0.5 * self.model.epsilon * theta_y)

    def q_gradients(self, t, x, y, z, coefs=None, pack=None):
        """(Q_x, Q_z, Q_y, Q_xx) from one derivative pack; feeds the control variate.

        ``coefs`` is ``q_coefficients(t, y, z)`` and ``pack`` is
        ``step_pack(t, x, coefs[3])[0]`` when the caller holds them.  With
        k = R_x - 1, D1^2 v = k D1 v and d/dx D1^2 v = M_x (k^2 + R R_xx), so
        Q_x is exact.  Q_z uses the Vega-Gamma identity
        v_z = tau rms rms' D1 v and takes d/dz D1^2 v = k^2 v_z: exact for a
        power, where k is constant, and elsewhere an approximation that, since
        Q_z only multiplies Brownian increments, moves the CV's variance alone.
        Q_y = -(eps/2) theta_y D1 v is the y-gradient of the second-order fast
        term, with theta_y from the factor table.  Q_xx is the pack's m_xx, the
        leading order of the Ito term's weight; adding its first-order part,
        M_xx a (k^2 + R R_xx), left the variance ratio at eps = 0.05 where it
        was (4,932 against 4,955) when tried.  The engine passes its step's
        pack, so one pack serves the position, these gradients and the drag.
        """
        if coefs is None:
            coefs = self.q_coefficients(t, y, z)
        a, b, c, rms, e = coefs
        p = self.step_pack(t, x, rms)[0] if pack is None else pack
        k = p["r_x"] - 1.0
        k2 = k * k
        d1 = p["r"] * p["m_x"]
        q_x = p["m_x"] * (1.0 + a * (k2 + p["r"] * p["r_xx"]))
        q_z = d1 * (c * (1.0 + a * k2) + b * k)
        return q_x, q_z, e * d1, p["m_xx"]
