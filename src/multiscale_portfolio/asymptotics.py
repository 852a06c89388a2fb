"""First-order expansion of the value process under fast/slow volatility.

Everything is expressed through the z-parameterized Merton surface evaluated
at the root-mean-square Sharpe ratio, v(t, x, z) = M(t, x; sharpe_rms(z)),
its risk tolerance R, and the wealth-differential operators D_k = R^k d^k/dx^k.
With tau = T - t:

    leading order        v
    fast correction      -(1/2) tau rho1 coupling(z) D1^2 v
    slow correction      (1/2) tau^2 rho2 mean rms rms' g(z) D1^2 v
    combined             Q = v + sqrt(eps) * fast + sqrt(delta) * slow

using the identity D1^2 v = R M_x (R_x - 1) (from R M_xx = -M_x) and the
Vega-Gamma relation v_z = tau rms rms' D1 v, which makes every correction a
closed form in quantities the Merton solver already provides.  The
second-order fast term -(1/2) theta(y, z) D1 v is exposed purely as an
expansion-quality diagnostic and never enters Q.

The zeroth-order strategy invests pi = (lam(y, z)/sigma(y, z)) R(t, x; rms(z)):
the local Sharpe-to-vol ratio sized by the averaged risk tolerance.
"""

from __future__ import annotations

import numpy as np

from .factors import FactorAverages, MarketModel, PoissonSolution
from .merton import _DualCore, merton_pack, solve_merton
from .utility import UtilitySpec

__all__ = ["ExpansionBundle"]


class ExpansionBundle:
    """Evaluable expansion terms for one (model, utility, horizon) triple.

    Scalar calls accept floats; the vectorized paths accept arrays for x and
    z with a scalar t (the Monte Carlo engine's access pattern).  For a pure
    power utility all evaluations are closed form.
    """

    def __init__(self, model: MarketModel, averages: FactorAverages,
                 utility: UtilitySpec, horizon: float, n_quad: int = 96):
        if horizon <= 0.0:
            raise ValueError("horizon must be positive")
        self.model = model
        self.averages = averages
        self.utility = utility
        self.horizon = float(horizon)
        self._dual = None if utility.is_power else _DualCore(utility, n_nodes=n_quad)

    # -- Merton access ---------------------------------------------------------

    def _surface(self, t, x, z, order=2, rms=None):
        """Merton pack at the per-point averaged Sharpe ``rms`` (looked up from
        z when not given); vectorized."""
        lam = np.asarray(self.averages.sharpe_rms(z) if rms is None else rms, dtype=float)
        return merton_pack(self.utility, lam, self.horizon - t, x, order, self._dual)

    # -- expansion terms --------------------------------------------------------

    def leading_order(self, t, x, z):
        """v(t, x, z) = Merton value at the averaged Sharpe ratio."""
        return self._surface(t, x, z)["m"]

    def value_xx(self, t, x, z):
        return self._surface(t, x, z)["m_xx"]

    def risk_tolerance(self, t, x, z):
        """R(t, x; rms(z)); exactly 0 at zero wealth, so every position built
        on it (pi_zero, the slow bump) is 0 on an absorbed path."""
        x = np.asarray(x, dtype=float)
        if self.utility.is_power:
            return x / (1.0 - self.utility.gamma)
        alive = x > 0.0  # the dual solve needs x > 0: stand-in wealth 1 at the floor
        return np.where(alive, self._surface(t, np.where(alive, x, 1.0), z)["r"], 0.0)

    def d1(self, t, x, z, pack=None):
        """D1 v = R M_x."""
        p = pack if pack is not None else self._surface(t, x, z, order=3)
        return p["r"] * p["m_x"]

    def d1sq(self, t, x, z, pack=None):
        """D1^2 v = R M_x (R_x - 1)."""
        p = pack if pack is not None else self._surface(t, x, z, order=3)
        return p["r"] * p["m_x"] * (p["r_x"] - 1.0)

    def _prefactors(self, t, z, row, slopes=False):
        """Prefactors of D1^2 v in the corrections, from a FactorAverages.table row:
        fast -(1/2) tau rho1 coupling, slow (1/2) tau^2 rho2 mean rms rms' g, and
        with ``slopes`` their z-derivatives."""
        tau = self.horizon - t
        rms, mean, rms_p, coup = row[:4]
        gz = np.asarray(self.model.slow_vol(z))
        c_fast = -0.5 * tau * self.model.rho1
        c_slow = 0.5 * tau**2 * self.model.rho2
        prefs = (c_fast * coup, c_slow * mean * rms * rms_p * gz)
        if not slopes:
            return prefs
        mean_p, rms_pp, coup_p = row[4:]
        gz_p = np.asarray(self.model.slow_vol_d1(z))
        slow_z = c_slow * (
            mean_p * rms * rms_p * gz
            + mean * rms_p**2 * gz
            + mean * rms * rms_pp * gz
            + mean * rms * rms_p * gz_p
        )
        return prefs + (c_fast * coup_p, slow_z)

    def _corrections(self, t, x, z):
        """Leading-order pack and the fast and slow first-order corrections."""
        row = self.averages.table(z, slopes=False)
        p = self._surface(t, x, z, order=3, rms=row[0])
        d1sq = self.d1sq(t, x, z, pack=p)
        fast, slow = self._prefactors(t, z, row)
        return p, fast * d1sq, slow * d1sq

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
        return self.model.sharpe(y, z) / self.model.sigma(y, z) * self.risk_tolerance(t, x, z)

    def second_order_fast_diag(self, t, x, y, z: float):
        """-(1/2) theta(y, z) D1 v: expansion-quality diagnostic, not part of Q."""
        theta = PoissonSolution(self.model, z).value(y)
        return -0.5 * np.asarray(theta) * self.d1(t, x, z)

    def vega_gamma_check(self, t, x, z: float, h_z: float | None = None) -> float:
        """Normalized residual of v_z = tau rms rms' D1 v, with v_z by re-solving.

        The z-difference rebuilds the Merton solution at shifted averaged
        Sharpe ratios, so this exercises the solver's smoothness in the Sharpe
        parameter rather than differentiating a cached surface.
        """
        tau = self.horizon - t
        if h_z is None:
            h_z = 1e-4 * max(1.0, abs(z))
        a = self.averages

        def v_at(zz):
            lam = float(a.sharpe_rms(zz))
            return solve_merton(self.utility, lam, self.horizon).value(t, x)

        fd = (v_at(z + h_z) - v_at(z - h_z)) / (2.0 * h_z)
        v0 = self.leading_order(t, x, z)
        rhs = tau * float(a.sharpe_rms(z)) * float(a.sharpe_rms_slope(z)) * self.d1(t, x, z)
        return float(abs(fd - rhs) / (1.0 + abs(v0)))

    # -- gradients for the martingale control variate ---------------------------

    def q_gradients(self, t, x, z, row=None):
        """(d/dx Q, d/dz Q) sharing one derivative pack; feeds the control variate.

        ``row`` is ``averages.table(z)`` when the caller already holds it (the
        engine evaluates one table per step and shares it across strategies).
        The x-gradient is exact for every term (using d/dx D1^2 v).  In the
        z-gradient the leading term uses the exact Vega-Gamma identity; for
        the two correction terms the z-derivatives of the averaged prefactors
        come from the factor table, and the z-derivative of D1^2 v itself
        is included exactly for power utilities (where D1^2 v is proportional
        to v) and omitted otherwise.  Both gradients only multiply Brownian
        increments inside the control variate, so truncations here affect
        variance, never the estimator's validity.
        """
        tau = self.horizon - t
        sqrt_eps, sqrt_delta = np.sqrt(self.model.epsilon), np.sqrt(self.model.delta)
        if row is None:
            row = self.averages.table(z)
        rms, rms_p = row[0], row[2]
        p = self._surface(t, x, z, order=4, rms=rms)
        fast, slow, fast_z, slow_z = self._prefactors(t, z, row, slopes=True)

        # d/dx D1^2 v = M_x [ (R_x - 1)^2 + R R_xx ]
        d1sq_x = p["m_x"] * ((p["r_x"] - 1.0) ** 2 + p["r"] * p["r_xx"])
        q_x = p["m_x"] + (sqrt_eps * fast + sqrt_delta * slow) * d1sq_x

        d1 = p["r"] * p["m_x"]
        d1sq = d1 * (p["r_x"] - 1.0)
        v_z = tau * rms * rms_p * d1
        if self.utility.is_power:
            k1 = self.utility.gamma / (1.0 - self.utility.gamma)
            d1sq_z = k1**2 * v_z
        else:
            d1sq_z = 0.0
        q_z = (v_z + sqrt_eps * (fast_z * d1sq + fast * d1sq_z)
               + sqrt_delta * (slow_z * d1sq + slow * d1sq_z))
        return q_x, q_z
