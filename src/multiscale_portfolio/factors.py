"""Multiscale market model and ergodic averages of the fast factor.

The risky asset has Sharpe ratio lam(y, z) and volatility sigma(y, z) driven
by a fast factor Y (mean-reverting at rate 1/epsilon) and a slow factor Z
(varying at rate delta):

    dY = (1/eps) b(Y) dt + (1/sqrt(eps)) a(Y) dW^Y
    dZ = delta c(Z) dt + sqrt(delta) g(Z) dW^Z

The default fast factor is Ornstein-Uhlenbeck, b(y) = m - y and
a(y) = nu sqrt(2), whose rescaled generator L0 = nu^2 d^2/dy^2 + (m - y) d/dy
has invariant law N(m, nu^2).  Averaging against that law produces the
z-indexed quantities the expansion needs:

    sharpe_rms(z)   = sqrt(<lam^2(., z)>)        (root-mean-square Sharpe)
    sharpe_mean(z)  = <lam(., z)>
    corrector       theta(., z) solving  L0 theta = lam^2 - sharpe_rms^2
    coupling(z)     = <lam(., z) a(.) theta_y(., z)>

The corrector gradient uses the stationary-flux integral form

    theta_y(y) = 2 / (a(y)^2 Phi(y)) * int_{-inf}^y source(u) Phi(u) du,

evaluated with Gauss-Legendre panels and switched to the complementary tail
integral for y above the mean to avoid cancellation.  theta itself is fixed
by the zero-average normalization <theta(., z)> = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from typing import Callable

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import roots_legendre

from .merton import gauss_hermite, richardson_derivative

__all__ = [
    "OrnsteinUhlenbeckFactor",
    "MarketModel",
    "invariant_average",
    "PoissonSolution",
    "fast_coupling",
    "FactorAverages",
    "TABLE_COLUMNS",
    "averaged_sharpe",
    "SHARPE_REGISTRY",
    "SIGMA_REGISTRY",
    "SLOW_DRIFT_REGISTRY",
    "SLOW_VOL_REGISTRY",
]

_GL_NODES = 200
_GL_WINDOW = 26.0  # integration window half-width, in units of nu
_CENTERING_TOL = 1e-10


@cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The corrector's Gauss-Legendre rule on [-1, 1], computed once per process."""
    return roots_legendre(_GL_NODES)


@dataclass(frozen=True)
class OrnsteinUhlenbeckFactor:
    """Fast factor with drift b(y) = mean - y and noise a(y) = vol * sqrt(2).

    `vol` is the stationary standard deviation; vol = 0 degenerates to a
    point mass at `mean` (useful for limit checks).
    """

    mean: float = 0.0
    vol: float = 1.0

    def __post_init__(self):
        if self.vol < 0.0:
            raise ValueError(f"fast-factor vol must be nonnegative, got {self.vol}")

    def drift(self, y):
        return self.mean - np.asarray(y, dtype=float)

    def noise(self, y):
        return np.full(np.shape(y), self.vol * math.sqrt(2.0))

    def stationary_nodes(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Quadrature nodes/weights integrating against N(mean, vol^2)."""
        if self.vol == 0.0:
            return np.array([self.mean]), np.array([1.0])
        s, w = gauss_hermite(n)
        return self.mean + self.vol * s, w

    def stationary_pdf(self, y):
        if self.vol == 0.0:
            raise ValueError("degenerate factor has no density")
        u = (np.asarray(y, dtype=float) - self.mean) / self.vol
        return np.exp(-0.5 * u**2) / (self.vol * math.sqrt(2.0 * math.pi))


def _correlation_determinant(rho1, rho2, rho12):
    return 1.0 + 2.0 * rho1 * rho2 * rho12 - rho1**2 - rho2**2 - rho12**2


@dataclass(frozen=True)
class MarketModel:
    """Coefficients, correlations and scales of the two-factor market.

    `sharpe` and `sigma` are callables (y, z) -> value supporting numpy
    broadcasting; `slow_drift` is c(z); `slow_vol`, `slow_vol_d1`,
    `slow_vol_d2` are g and its first two derivatives.  The model is
    immutable and validated on construction (positive scales, positive
    volatility on a sampled compact, positive-definite correlations).
    """

    sharpe: Callable
    sigma: Callable
    fast: OrnsteinUhlenbeckFactor = field(default_factory=OrnsteinUhlenbeckFactor)
    slow_drift: Callable = lambda z: np.zeros(np.shape(z))
    slow_vol: Callable = lambda z: np.zeros(np.shape(z))
    slow_vol_d1: Callable = lambda z: np.zeros(np.shape(z))
    slow_vol_d2: Callable = lambda z: np.zeros(np.shape(z))
    rho1: float = 0.0
    rho2: float = 0.0
    rho12: float = 0.0
    epsilon: float = 1.0
    delta: float = 1.0

    def __post_init__(self):
        for name, rho in (("rho1", self.rho1), ("rho2", self.rho2), ("rho12", self.rho12)):
            if not abs(rho) < 1.0:
                raise ValueError(f"{name} must lie in (-1, 1), got {rho}")
        det = _correlation_determinant(self.rho1, self.rho2, self.rho12)
        if not det > 0.0:
            raise ValueError(
                f"correlation matrix is not positive definite (determinant {det:.6g})"
            )
        if self.epsilon <= 0.0 or self.delta <= 0.0:
            raise ValueError("scales epsilon and delta must be strictly positive")
        y_grid = self.fast.mean + self.fast.vol * np.linspace(-4.0, 4.0, 9)
        z_grid = np.linspace(-2.0, 2.0, 9)
        sig = self.sigma(y_grid[:, None], z_grid[None, :])
        if not np.all(np.asarray(sig) > 0.0):
            raise ValueError("sigma(y, z) must be strictly positive on the sampled compact")

    def correlation_cholesky(self) -> np.ndarray:
        """Lower-triangular factor of the (W, W^Y, W^Z) correlation matrix."""
        corr = np.array(
            [
                [1.0, self.rho1, self.rho2],
                [self.rho1, 1.0, self.rho12],
                [self.rho2, self.rho12, 1.0],
            ]
        )
        return np.linalg.cholesky(corr)


def invariant_average(model: MarketModel, f, z: float, n_quad: int = 96) -> float:
    """<f(., z)> against the fast factor's invariant law (Gauss-Hermite)."""
    y, w = model.fast.stationary_nodes(n_quad)
    vals = np.asarray(f(y, z), dtype=float) * np.ones_like(y)
    if not np.all(np.isfinite(vals)):
        bad = y[~np.isfinite(vals)]
        raise RuntimeError(
            f"integrand not finite at quadrature nodes (first bad y={bad.flat[0]:.6g}, z={z})"
        )
    return float(w @ vals)


# ---------------------------------------------------------------------------
# Poisson corrector
# ---------------------------------------------------------------------------


class PoissonSolution:
    """Zero-average corrector theta(., z) with L0 theta = lam^2 - <lam^2>."""

    def __init__(self, model: MarketModel, z: float, n_quad: int = 96):
        fast = model.fast
        self.model = model
        self.z = float(z)
        self.mean_square = invariant_average(
            model, lambda y, zz: model.sharpe(y, zz) ** 2, z, n_quad
        )
        if self.mean_square < 0.0:
            raise RuntimeError("quadrature produced a negative mean-square Sharpe ratio")
        centering = invariant_average(model, self._source, z, n_quad)
        if abs(centering) > _CENTERING_TOL * (1.0 + self.mean_square):
            raise RuntimeError(
                f"corrector source is not centered (residual {centering:.3e})"
            )
        self._gl_x, self._gl_w = _gauss_legendre()
        width = _GL_WINDOW * fast.vol
        self._lo = fast.mean - width
        self._hi = fast.mean + width
        self._n_quad = n_quad
        self._offset = None  # lazy zero-average normalization

    def _source(self, y, z):
        return self.model.sharpe(y, z) ** 2 - self.mean_square

    def _flux(self, y):
        """int_{-inf}^{y} source(u) Phi(u) du via the shorter tail."""
        fast = self.model.fast
        y = np.atleast_1d(np.asarray(y, dtype=float))
        left = y <= fast.mean
        a = np.where(left, self._lo, y)
        b = np.where(left, y, self._hi)
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        u = mid[..., None] + half[..., None] * self._gl_x
        vals = self._source(u, self.z) * fast.stationary_pdf(u)
        integral = half * (vals @ self._gl_w)
        # right of the mean: centered source makes the full integral vanish
        return np.where(left, integral, -integral)

    def gradient(self, y):
        """theta_y(y, z)."""
        fast = self.model.fast
        if fast.vol == 0.0:
            return np.zeros(np.shape(y))
        y_arr = np.atleast_1d(np.asarray(y, dtype=float))
        a2phi = fast.noise(y_arr) ** 2 * fast.stationary_pdf(y_arr)
        out = 2.0 * self._flux(y_arr) / a2phi
        return out if np.ndim(y) else float(out[0])

    def value(self, y):
        """theta(y, z), normalized to zero invariant average."""
        fast = self.model.fast
        if fast.vol == 0.0:
            return np.zeros(np.shape(y))
        if self._offset is None:
            nodes, w = fast.stationary_nodes(self._n_quad)
            self._offset = -float(w @ self._antiderivative(nodes))
        y_arr = np.atleast_1d(np.asarray(y, dtype=float))
        out = self._antiderivative(y_arr) + self._offset
        return out if np.ndim(y) else float(out[0])

    def _antiderivative(self, y):
        """int_mean^y theta_y(u) du by Gauss-Legendre."""
        fast = self.model.fast
        y = np.atleast_1d(np.asarray(y, dtype=float))
        mid = 0.5 * (fast.mean + y)
        half = 0.5 * (y - fast.mean)
        u = mid[..., None] + half[..., None] * self._gl_x
        grads = self.gradient(u.ravel()).reshape(u.shape)
        return half * (grads @ self._gl_w)


def fast_coupling(model: MarketModel, z: float, n_quad: int = 96,
                  poisson: PoissonSolution | None = None) -> float:
    """Averaged coupling <lam a theta_y> feeding the fast-scale correction."""
    sol = poisson if poisson is not None else PoissonSolution(model, z, n_quad)
    y, w = model.fast.stationary_nodes(n_quad)
    vals = model.sharpe(y, z) * model.fast.noise(y) * sol.gradient(y)
    return float(w @ np.asarray(vals, dtype=float))


# ---------------------------------------------------------------------------
# z-indexed averages
# ---------------------------------------------------------------------------


def _rms_sharpe_exact(model, z):
    ms = invariant_average(model, lambda y, zz: model.sharpe(y, zz) ** 2, z)
    if ms < 0.0:
        raise RuntimeError("quadrature produced a negative mean-square Sharpe ratio")
    return math.sqrt(ms)


def _node_values(model: MarketModel, z: float) -> tuple[float, float, float, float]:
    """The tabulated averages at one node, by quadrature; the rms slope by a
    Richardson-extrapolated central difference."""
    def rms(zz):
        return _rms_sharpe_exact(model, zz)
    slope = richardson_derivative(rms, z, 1, 1e-4 * max(1.0, abs(z)))
    return rms(z), invariant_average(model, model.sharpe, z), slope, fast_coupling(model, z)


TABLE_COLUMNS = ("sharpe_rms", "sharpe_mean", "sharpe_rms_slope", "coupling",
                 "sharpe_mean_slope", "sharpe_rms_curve", "coupling_slope")
_N_VALUES = 4  # the tabulated averages; the last three columns are their z-slopes


class FactorAverages:
    """z-indexed averaged quantities (TABLE_COLUMNS), tabulated on a uniform z-grid.

    The four averages are computed by quadrature at the grid nodes and
    stacked into one not-a-knot cubic, so ``table(z)`` costs one interval
    lookup and one Horner pass for all seven columns (recomputing the
    quadratures inside a Monte Carlo step loop would dominate the runtime);
    z off the grid is an error, never an extrapolation.  The module-level
    quadrature functions remain the reference the table is checked against.
    """

    def __init__(self, model: MarketModel, z_grid: np.ndarray):
        z_grid = np.asarray(z_grid, dtype=float)
        if z_grid.ndim != 1 or z_grid.size < 8:
            raise ValueError("z-grid needs at least 8 nodes for cubic interpolation")
        step = (z_grid[-1] - z_grid[0]) / (z_grid.size - 1)
        if not (step > 0.0 and np.allclose(np.diff(z_grid), step, rtol=1e-9, atol=0.0)):
            raise ValueError("z-grid must be uniform and increasing")
        self.model = model
        self.z_grid = z_grid
        nodes = np.array([_node_values(model, z) for z in z_grid])
        # _coef[column, k, i] multiplies (z - z_i)^(3 - k) on interval i
        self._coef = np.ascontiguousarray(CubicSpline(z_grid, nodes).c.transpose(2, 0, 1))
        self._inv_step = 1.0 / step

    def table(self, z, slopes: bool = True) -> np.ndarray:
        """TABLE_COLUMNS at z, shape (7,) + shape(z); only the four averages
        without ``slopes``.  Raises ValueError for z off the grid."""
        n_cols = len(TABLE_COLUMNS) if slopes else _N_VALUES
        z = np.asarray(z, dtype=float)
        flat = z.reshape(-1)
        lo, hi = self.z_grid[0], self.z_grid[-1]
        if flat.size and not (lo <= flat.min() and flat.max() <= hi):
            raise ValueError(
                f"z in [{flat.min():.6g}, {flat.max():.6g}] falls outside the cached "
                f"z-grid [{lo:.6g}, {hi:.6g}]"
            )
        # uniform grid: the interval index is arithmetic, and z >= lo keeps it >= 0
        idx = np.minimum(((flat - lo) * self._inv_step).astype(np.intp),
                         self._coef.shape[2] - 1)
        dx = flat - self.z_grid[idx]
        out = np.empty((n_cols, flat.size))
        for j in range(_N_VALUES):
            c3, c2, c1, c0 = (c[idx] for c in self._coef[j])
            out[j] = ((c3 * dx + c2) * dx + c1) * dx + c0
            if slopes and j:  # the slope of column j is column 3 + j
                out[_N_VALUES - 1 + j] = (3.0 * c3 * dx + 2.0 * c2) * dx + c1
        return out.reshape((n_cols,) + z.shape)

    def _column(self, j, z):
        return self.table(z, slopes=j >= _N_VALUES)[j]

    # -- public surface -------------------------------------------------------

    def sharpe_rms(self, z):
        """sqrt(<lam^2(., z)>), the Sharpe ratio the leading-order value sees."""
        return self._column(0, z)

    def sharpe_mean(self, z):
        """<lam(., z)>."""
        return self._column(1, z)

    def sharpe_rms_slope(self, z):
        """d/dz of sharpe_rms, tabulated from Richardson-extrapolated differences."""
        return self._column(2, z)

    def coupling(self, z):
        """<lam a theta_y>(z)."""
        return self._column(3, z)

    def sharpe_mean_slope(self, z):
        """d/dz of sharpe_mean."""
        return self._column(4, z)

    def sharpe_rms_curve(self, z):
        """Second z-derivative of sharpe_rms."""
        return self._column(5, z)

    def coupling_slope(self, z):
        """d/dz of coupling."""
        return self._column(6, z)


def averaged_sharpe(model: MarketModel, z_grid: np.ndarray) -> FactorAverages:
    """Averaged-quantity table for a model on a uniform z-grid."""
    return FactorAverages(model, z_grid)


def z_cache_grid(center: float, halfwidth: float) -> np.ndarray:
    """Uniform 201-node z-grid around `center`, padded 20 % beyond the visited
    range; the floor on the half-width keeps a relative z-step of 1e-4 on it."""
    hw = max(halfwidth, 1e-3 * max(1.0, abs(center))) * (1.0 + 0.2)
    return np.linspace(center - hw, center + hw, 201)


def slow_factor_range(drift, vol, z0: float, s_max: float) -> tuple[float, float]:
    """Interval holding Z, dZ = delta c(Z) dt + sqrt(delta) g(Z) dW, while
    delta t <= s_max: the drift's path dz/ds = c(z), widened by six
    standard deviations of the noise at the largest |g| on the interval,
    grown by exp(s_max max(c', 0)).  ValueError when |g| or c' grows too
    fast in z for such an interval to exist."""
    h, path = s_max / 512, [float(z0)]
    for _ in range(512):  # midpoint steps
        z = path[-1]
        path.append(z + h * float(drift(z + 0.5 * h * float(drift(z)))))
    lo, hi = min(path), max(path)
    width, step = 0.0, math.inf
    for _ in range(1000):
        zs = np.linspace(lo - max(width, 1e-3), hi + max(width, 1e-3), 65)
        growth = max(float(np.max(np.diff(drift(zs)) / np.diff(zs))), 0.0) * s_max
        if not growth <= 700.0:  # a path off to infinity, or exp would overflow
            break
        new = 6.0 * float(np.max(np.abs(vol(zs)))) * math.sqrt(s_max) * math.exp(growth)
        if abs(new - width) <= 1e-9 * new:
            return lo - new, hi + new
        if not new - width < step:  # the widening no longer shrinks: no fixed point
            break
        width, step = new, new - width
    raise ValueError(f"the slow factor's range from z0 = {z0:g} over delta * horizon = "
                     f"{s_max:g} is unbounded: slow_vol or slow_drift grows too fast in z")


# ---------------------------------------------------------------------------
# coefficient registry (run-configuration surface)
# ---------------------------------------------------------------------------


def _need(params, n, name):
    if len(params) != n:
        raise ValueError(f"coefficient {name!r} expects {n} parameters, got {len(params)}")
    return params


SHARPE_REGISTRY = {
    # lam(y, z) = p0
    "const": lambda p: (lambda y, z, q=_need(p, 1, "const"): np.full(np.broadcast(y, z).shape, q[0])),
    # lam(y, z) = p0 + p1 z
    "affine_z": lambda p: (lambda y, z, q=_need(p, 2, "affine_z"): (q[0] + q[1] * np.asarray(z, dtype=float)) * np.ones(np.broadcast(y, z).shape)),
    # lam(y, z) = p0 + p1 z + p2 tanh(y): affine in z with a bounded fast perturbation
    "affine_z_tanh_y": lambda p: (lambda y, z, q=_need(p, 3, "affine_z_tanh_y"): q[0] + q[1] * np.asarray(z, dtype=float) + q[2] * np.tanh(np.asarray(y, dtype=float))),
    # lam(y, z) = p0 y
    "prop_y": lambda p: (lambda y, z, q=_need(p, 1, "prop_y"): q[0] * np.asarray(y, dtype=float) * np.ones(np.broadcast(y, z).shape)),
    # lam(y, z) = p0 z y
    "prop_yz": lambda p: (lambda y, z, q=_need(p, 1, "prop_yz"): q[0] * np.asarray(y, dtype=float) * np.asarray(z, dtype=float)),
}

SIGMA_REGISTRY = {
    "const": lambda p: (lambda y, z, q=_need(p, 1, "const"): np.full(np.broadcast(y, z).shape, q[0])),
    # sigma = p0 exp(p1 tanh(y)): positive, bounded away from zero
    "exp_tanh_y": lambda p: (lambda y, z, q=_need(p, 2, "exp_tanh_y"): q[0] * np.exp(q[1] * np.tanh(np.asarray(y, dtype=float))) * np.ones(np.broadcast(y, z).shape)),
}

SLOW_DRIFT_REGISTRY = {
    "zero": lambda p: (lambda z, q=_need(p, 0, "zero"): np.zeros(np.shape(z))),
    # c(z) = p0 (p1 - z)
    "mean_revert": lambda p: (lambda z, q=_need(p, 2, "mean_revert"): q[0] * (q[1] - np.asarray(z, dtype=float))),
}


def _const_slow_vol(p):
    (g0,) = _need(p, 1, "const")
    return (
        lambda z: np.full(np.shape(z), g0),
        lambda z: np.zeros(np.shape(z)),
        lambda z: np.zeros(np.shape(z)),
    )


def _affine_slow_vol(p):
    g0, g1 = _need(p, 2, "affine")
    return (
        lambda z: g0 + g1 * np.asarray(z, dtype=float),
        lambda z: np.full(np.shape(z), g1),
        lambda z: np.zeros(np.shape(z)),
    )


SLOW_VOL_REGISTRY = {"const": _const_slow_vol, "affine": _affine_slow_vol}
