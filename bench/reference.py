"""Independent reference values for the benchmark's output checks.

Nothing here calls the package.  Gaussian expectations use adaptive
quadrature (``scipy.integrate.quad``) instead of the package's Gauss-Hermite
rules, and the inverse marginal utility and the dual first-order condition
are bracketed roots (``scipy.optimize.brentq``) instead of the package's
Newton iterations, so an agreement to many digits is evidence, not an echo.
"""

from __future__ import annotations

import math

from scipy.integrate import quad
from scipy.optimize import brentq

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_ROOT_XTOL = 1e-14
_Z_CUTOFF = 14.0  # the normal density is below 1e-42 beyond it


def gaussian_mean(f) -> float:
    """E[f(Z)] for Z standard normal, by adaptive quadrature on each half-line."""
    total = 0.0
    for lo, hi in ((-_Z_CUTOFF, 0.0), (0.0, _Z_CUTOFF)):
        val, _ = quad(lambda u: f(u) * math.exp(-0.5 * u * u) / _SQRT_2PI, lo, hi,
                      epsabs=0.0, epsrel=1e-13, limit=200)
        total += val
    return total


def rms_sharpe_affine_tanh(params, fast_vol: float, z: float) -> float:
    """sqrt(<(p0 + p1 z + p2 tanh y)^2>) with y ~ N(0, fast_vol^2)."""
    p0, p1, p2 = params
    return math.sqrt(gaussian_mean(
        lambda u: (p0 + p1 * z + p2 * math.tanh(fast_vol * u)) ** 2))


def power_merton_value(gamma: float, sharpe: float, tau: float, x: float) -> float:
    """Closed-form Merton value x^g/g * exp(g lam^2 tau / (2(1 - g)))."""
    return x**gamma / gamma * math.exp(gamma * sharpe**2 * tau / (2.0 * (1.0 - gamma)))


def _bracket_root(h, lo=-1.0, hi=1.0) -> float:
    """Root of a strictly decreasing h, widening [lo, hi] until it brackets one."""
    while h(lo) < 0.0:
        lo *= 2.0
    while h(hi) > 0.0:
        hi *= 2.0
    return brentq(h, lo, hi, xtol=_ROOT_XTOL)


class MixtureDual:
    """Merton value of U(x) = sum_i c_i x^g_i / g_i through convex duality.

    The conjugate Ut(y) = U(I(y)) - y I(y) is averaged over the lognormal
    dual state, Vt(y) = E[Ut(y E)] with E = exp(-s/2 + sqrt(s) Z) and
    s = lam^2 tau; the first-order condition x = E[I(y E) E] fixes y*, and
    M = Vt(y*) + x y*.
    """

    def __init__(self, weights, exponents):
        self.terms = tuple(zip(weights, exponents))

    def u(self, x: float) -> float:
        return sum(c / g * x**g for c, g in self.terms)

    def inverse_marginal(self, y: float) -> float:
        # log U'(e^t) is strictly decreasing in t
        log_y = math.log(y)
        t = _bracket_root(
            lambda t: math.log(sum(c * math.exp((g - 1.0) * t) for c, g in self.terms)) - log_y)
        return math.exp(t)

    def value(self, sharpe: float, tau: float, x: float) -> float:
        s = sharpe**2 * tau

        def factor(u):
            return math.exp(-0.5 * s + math.sqrt(s) * u)

        def wealth(log_y):  # -Vt_y(e^log_y)
            y = math.exp(log_y)
            return gaussian_mean(lambda u: self.inverse_marginal(y * factor(u)) * factor(u))

        log_x = math.log(x)
        y_star = math.exp(_bracket_root(lambda v: math.log(wealth(v)) - log_x))

        def conjugate(u):
            ye = y_star * factor(u)
            xi = self.inverse_marginal(ye)
            return self.u(xi) - ye * xi

        return gaussian_mean(conjugate) + x * y_star
