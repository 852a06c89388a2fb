"""General utility functions on (0, inf) for terminal-wealth optimization.

Two admissible families, both strictly increasing, strictly concave, with
U(0+) = 0 and the Inada conditions satisfied by construction:

    power:          U(x) = x**g / g                    with 0 < g < 1
    power mixture:  U(x) = sum_i c_i * x**g_i / g_i    with c_i > 0, 0 < g_i < 1

The surface exposed per utility is U and its derivatives up to fourth order,
the risk tolerance R(x) = -U'(x)/U''(x), and the inverse marginal utility
I(y) = (U')^{-1}(y).  For a pure power I is closed form; mixtures are
inverted with a damped Newton iteration in log-log coordinates (U' is smooth,
strictly decreasing and log-log convex, so the iteration is globally safe
with a step clamp).  It iterates in t = log x and forms no power: with
p_i = c_i exp((g_i - 1) t), U'(x) = sum p_i and x U''(x) = sum (g_i - 1) p_i,
so a step costs one exp per component and one log.  ``derivatives(x, k)``
gives U, U', ..., U^(k) together from one power x**(g_i - k) per component,
multiplied up by x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["UtilitySpec", "make_utility"]

_NEWTON_MAX_ITER = 100
_NEWTON_REL_TOL = 1e-14  # on log marginal utility; well below the 1e-12 contract


@dataclass(frozen=True)
class UtilitySpec:
    """Weighted mixture of power utilities; a single component is a pure power.

    Attributes
    ----------
    weights : tuple of positive floats
    exponents : tuple of floats in the open interval (0, 1)
    """

    weights: tuple[float, ...]
    exponents: tuple[float, ...]

    @property
    def kind(self) -> str:
        return "power" if self.is_power else "power_mixture"

    @property
    def is_power(self) -> bool:
        return len(self.exponents) == 1

    @property
    def gamma(self) -> float:
        """Exponent of a pure power utility."""
        if not self.is_power:
            raise ValueError("gamma is only defined for a pure power utility")
        return self.exponents[0]

    @property
    def asymptotic_elasticity(self) -> float:
        """Limit of x U'(x)/U(x) as x -> inf; equals the largest exponent."""
        return max(self.exponents)

    # -- evaluation surface ------------------------------------------------

    def u(self, x):
        """U(x) for x >= 0 (U(0) = 0)."""
        x = np.asarray(x, dtype=float)
        out = np.zeros(np.shape(x))
        for c, g in zip(self.weights, self.exponents):
            out = out + (c / g) * np.power(x, g)
        return out if out.ndim else float(out)

    def du(self, x, k: int):
        """k-th derivative of U for k in {1, 2, 3, 4}."""
        if k not in (1, 2, 3, 4):
            raise ValueError(f"derivative order must be in 1..4, got {k}")
        x = np.asarray(x, dtype=float)
        out = np.zeros(np.shape(x))
        for c, g in zip(self.weights, self.exponents):
            coef = c
            for j in range(1, k):
                coef *= g - j
            out = out + coef * np.power(x, g - k)
        return out if out.ndim else float(out)

    def derivatives(self, x, k: int) -> list:
        """[U(x), U'(x), ..., U^(k)(x)] for k in 0..4, from one power x**(g - k)
        per component, which U^(j) takes times x**(k - j) by repeated products.
        Each entry is within a few ulps of ``u`` or ``du``: the terms of one
        order share a sign, so the sums do not cancel."""
        if k not in (0, 1, 2, 3, 4):
            raise ValueError(f"derivative order must be in 0..4, got {k}")
        x = np.asarray(x, dtype=float)
        sums = [0.0] * (k + 1)
        for c, g in zip(self.weights, self.exponents):
            coefs = [c / g, c]  # U^(j) = sum of coefs[j] x**(g - j)
            for j in range(1, k):
                coefs.append(coefs[-1] * (g - j))
            term = np.power(x, g - k)
            for j in range(k, -1, -1):
                sums[j] = sums[j] + coefs[j] * term
                if j:
                    term = term * x
        return sums

    def risk_tolerance(self, x):
        """R(x) = -U'(x)/U''(x); strictly increasing with R(0+) = 0."""
        return -self.du(x, 1) / self.du(x, 2)

    def inverse_marginal(self, y):
        """I(y) = (U')^{-1}(y) for y > 0, to relative tolerance 1e-12."""
        y_arr = np.asarray(y, dtype=float)
        if np.any(y_arr <= 0.0):
            raise ValueError("inverse marginal utility requires y > 0")
        if self.is_power:
            c, g = self.weights[0], self.exponents[0]
            out = np.power(y_arr / c, 1.0 / (g - 1.0))
            return out if out.ndim else float(out)
        out = self._invert_marginal_newton(y_arr)
        return out if out.ndim else float(out)

    # -- internals ---------------------------------------------------------

    def _invert_marginal_newton(self, y):
        # Solve log U'(e^t) = log y; d/dt log U'(e^t) = x U''/U' = -x/R(x) lies in
        # [-1/(1-gmin), -1/(1-gmax)].  U' and x U'' are sums of p_i = c_i e^((g_i-1) t).
        gmax = max(self.exponents)
        gmin = min(self.exponents)
        cmax = self.weights[self.exponents.index(gmax)]
        cmin = self.weights[self.exponents.index(gmin)]
        logy = np.log(y).reshape(-1)
        # Seed from the dominant single power on each side of U'(1).
        up1 = sum(self.weights)
        t = np.where(
            y.reshape(-1) < up1,
            (logy - np.log(cmax)) / (gmax - 1.0),
            (logy - np.log(cmin)) / (gmin - 1.0),
        )
        # Each point stops at its own convergence, 1e-14 or two ulps of log y if
        # more (|log y| >= 32), so its bits never depend on the other points.  It
        # still takes the step from the iterate that met the tolerance: that last
        # step leaves I(y) at rounding level, which the dual's stop on sums of I needs.
        tol = np.maximum(_NEWTON_REL_TOL, 2.0 * np.spacing(np.abs(logy)))
        todo = np.arange(t.size)
        for _ in range(_NEWTON_MAX_ITER):
            t_live = t[todo]
            u1 = x_u2 = 0.0
            for c, g in zip(self.weights, self.exponents):
                p = c * np.exp((g - 1.0) * t_live)
                u1 = u1 + p
                x_u2 = x_u2 + (g - 1.0) * p
            resid = np.log(u1) - logy[todo]
            slope = x_u2 / u1  # strictly negative
            t[todo] += np.clip(-resid / slope, -2.0, 2.0)
            live = np.abs(resid) > tol[todo]
            if not live.any():
                break
            todo = todo[live]
        else:
            worst = float(np.max(np.abs(resid)))
            raise RuntimeError(
                f"marginal-utility inversion did not converge (max residual {worst:.3e})"
            )
        return np.exp(t).reshape(np.shape(y))


def make_utility(kind: str, *, gamma=None, weights=None, exponents=None) -> UtilitySpec:
    """Build and validate a utility specification.

    Parameters
    ----------
    kind : "power" or "power_mixture"
    gamma : exponent in (0, 1), for kind="power"
    weights, exponents : sequences for kind="power_mixture"; weights strictly
        positive, exponents in the open interval (0, 1)
    """
    if kind == "power":
        if gamma is None:
            raise ValueError("power utility requires gamma")
        weights, exponents = (1.0,), (float(gamma),)
    elif kind == "power_mixture":
        if weights is None or exponents is None:
            raise ValueError("power mixture requires weights and exponents")
        weights = tuple(float(c) for c in weights)
        exponents = tuple(float(g) for g in exponents)
    else:
        raise ValueError(f"unknown utility kind {kind!r}")

    if len(weights) == 0 or len(exponents) == 0:
        raise ValueError("utility mixture must have at least one component")
    if len(weights) != len(exponents):
        raise ValueError("weights and exponents must have equal length")
    for c in weights:
        if not c > 0.0:
            raise ValueError(f"mixture weights must be strictly positive, got {c}")
    for g in exponents:
        if not 0.0 < g < 1.0:
            raise ValueError(f"exponents must lie in (0, 1), got {g}")
    return UtilitySpec(weights=weights, exponents=exponents)
