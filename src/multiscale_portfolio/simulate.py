"""Monte Carlo engine for the coupled (Y, Z, X) system under plug-in strategies.

Discretization per step of size dt:

    Y   exact Gaussian transition of the Ornstein-Uhlenbeck factor at rate
        1/epsilon (Euler would dominate the bias at dt = epsilon/20)
    Z   Euler-Maruyama
    X   log-Euler with f = pi/x held over the step: x' = x_d G > 0, where
        x_d = x exp(f mu dt) and G = exp(f sigma dW - f^2 sigma^2 dt/2)

Brownian increments are correlated through the lower-triangular Cholesky
factor of the (W, W^Y, W^Z) correlation matrix.  Paths are partitioned into
fixed-size chunks; each chunk owns a counter-based Philox substream keyed by
(master seed, chunk index) and returns one chunk record per strategy: a
PathEnsemble over the chunk's own paths.  A strategy's ensemble is its chunk
records merged in chunk order (path arrays concatenated, counters and the
raw bump sums added), so ensembles are bit-identical for any worker count.

With ``workers > 1`` and more than one chunk, the chunks run on a pool of
``min(workers, chunks, cpu_count)`` processes forked from the caller: each
step is many small numpy calls that hold the GIL, so threads cannot overlap
them.  The children inherit the job (model, strategies, bundle, config)
through the fork, because the model's registry closures and the strategies'
bumps cannot be pickled; only chunk indices go out and chunk records come
back.  The caller builds any Merton table before forking, so no child builds
its own.  With one worker or one chunk no process starts.

Variance reduction: antithetic pairing within chunks, and an optional
martingale control variate accumulating the Ito martingale part of the
first-order value approximation Q along each path,

    CV = sum_n  Q_x m + Q_z sqrt(delta) g dW^Z + Q_y dY_mart
                + (1/2) Q_xx (m^2 - x_d^2 expm1(f^2 sigma^2 dt)),

where m = x_d (G - 1) is the wealth step's martingale part (E[G] = 1), dY_mart
is the OU step's own noise and Q_y = -(eps/2) theta_y D1 v is the y-gradient
of the second-order fast term.  The last term is the wealth step's Ito term,
m^2 less its conditional mean; without it an O(dt) residual is left on every
path.  Every increment has exactly zero conditional mean, so subtracting CV
from the terminal utility never biases the estimator, for any strategy.  m^2
is nearly even in the noise, so the Ito term does not cancel within an
antithetic pair.

Each step builds, per strategy, one :class:`StepState`
(``ExpansionBundle.state``): the state with the order-4 Merton pack at
(t, x, rms(z)).  A strategy is a function of that step (``Strategy.position``,
and a bump of :class:`Perturbed` likewise), and the CV's gradients and the
drag's v_xx read the same pack.

With ``collect_drag`` the engine accumulates, for every strategy, the
monotone drag of the value comparison, -(1/2)(pi - pi0)^2 sigma^2 |v_xx|,
keeping each path's largest increment.  For a perturbation
pi0 + eps^a b10 + delta^b b01 of the zeroth-order strategy it is the bump
term, and the engine also sums the moments of the bumps that
``Perturbed.position`` left on the step.  Concavity makes every increment
nonpositive; ``summarize`` reads the exact sign test.
"""

from __future__ import annotations

import concurrent.futures
import logging
import math
import multiprocessing
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .asymptotics import ExpansionBundle, StepState
from .factors import MarketModel

__all__ = [
    "SimConfig",
    "Strategy",
    "AllCash",
    "ZerothOrder",
    "Scaled",
    "Perturbed",
    "default_fast_bump",
    "default_slow_bump",
    "PathEnsemble",
    "ValueEstimate",
    "estimate_value",
    "paired_mean_se",
    "run_ensembles",
    "engine_processes",
    "wealth_step",
]

logger = logging.getLogger(__name__)

_STEP_DIVISOR = 20  # dt must resolve the fastest scale: dt <= min(eps, delta)/20


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


class Strategy:
    """Feedback strategy: dollar position as a function of the engine step
    (:class:`StepState`), hence adapted by construction."""

    name = "strategy"

    def position(self, step: StepState):
        raise NotImplementedError


class AllCash(Strategy):
    """No risky investment; wealth stays constant."""

    name = "all_cash"

    def position(self, step):
        return np.zeros(np.shape(step.x))


class ZerothOrder(Strategy):
    """The candidate strategy: local Sharpe over vol times averaged risk tolerance."""

    name = "zeroth_order"

    def __init__(self, bundle: ExpansionBundle):
        bundle.merton_table()  # set-up: the surface the steps read, built before any step

    def position(self, step):
        return step.pi0


class Scaled(Strategy):
    """A fixed multiple of a base strategy."""

    def __init__(self, base: Strategy, factor: float):
        self.base = base
        self.factor = float(factor)
        self.name = f"scaled_{factor:g}_{base.name}"

    def position(self, step):
        return self.factor * self.base.position(step)


class Perturbed(Strategy):
    """base + eps^alpha * fast_bump + delta^beta * slow_bump.

    Bumps are functions of the engine step, like strategies.  alpha and beta
    are the perturbation powers; eps and delta are the step's, which the
    engine checks against the market model driving the run.  ``position``
    leaves the bumps on the step (``StepState.bumps``) for the engine's
    bump moments.
    """

    def __init__(self, base: Strategy, fast_bump, slow_bump, alpha: float, beta: float):
        if alpha <= 0.0 or beta <= 0.0:
            raise ValueError("perturbation powers must be strictly positive")
        self.base = base
        self.fast_bump = fast_bump
        self.slow_bump = slow_bump
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.name = f"perturbed_{base.name}"

    def position(self, step):
        base = self.base.position(step)
        step.bumps = b10, b01 = self.fast_bump(step), self.slow_bump(step)
        return base + step.epsilon ** self.alpha * b10 + step.delta ** self.beta * b01


def default_fast_bump(scale: float):
    """Bounded, wealth-capped bump c * min(1 + |y|, x); vanishes at zero wealth."""
    def bump(step):
        return scale * np.minimum(1.0 + np.abs(step.y), step.x)
    return bump


def default_slow_bump(scale: float):
    """Bump proportional to the averaged risk tolerance c * R(t, x; rms(z))."""
    def bump(step):
        return scale * step.tolerance
    return bump


# ---------------------------------------------------------------------------
# configuration and results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run parameters.

    `dt` is a target step; the engine uses T/n_steps with
    n_steps = ceil(T/dt), so the effective step never exceeds the target.
    """

    n_paths: int
    horizon: float
    dt: float
    x0: float = 1.0
    y0: float = 0.0
    z0: float = 0.0
    seed: int = 0
    antithetic: bool = True
    control_variate: bool = False
    chunk_size: int = 16384
    workers: int = 1

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError("n_paths must be positive")
        if self.antithetic and (self.n_paths < 2 or self.n_paths % 2 or self.chunk_size % 2):
            raise ValueError("antithetic runs need even n_paths and even chunk_size")
        if self.horizon <= 0.0 or self.dt <= 0.0:
            raise ValueError("horizon and dt must be positive")
        if not self.x0 > 0.0:
            raise ValueError("initial wealth must be positive")
        if self.chunk_size < 1 or self.workers < 1:
            raise ValueError("chunk_size and workers must be positive")
        if self.workers > 1 and "fork" not in multiprocessing.get_all_start_methods():
            raise ValueError(
                f"workers = {self.workers} runs chunks on forked processes, and this "
                "platform cannot fork; set workers = 1"
            )

    @property
    def n_steps(self) -> int:
        return max(1, math.ceil(self.horizon / self.dt - 1e-12))


def dt_for(model: MarketModel, divisor: int = _STEP_DIVISOR) -> float:
    """Step-size rule resolving the fastest time scale."""
    if divisor <= 0:
        raise ValueError(f"step divisor must be positive, got {divisor}")
    return min(model.epsilon, model.delta) / divisor


@dataclass
class PathEnsemble:
    """Per-path terminal records and streamed diagnostics for one strategy,
    over one chunk's paths or, merged in chunk order, over a whole run."""

    strategy_name: str
    n_paths: int
    n_steps: int
    antithetic: bool
    x_terminal: np.ndarray
    utility_terminal: np.ndarray
    control_variate: np.ndarray
    surface_exact_points: int = 0          # path-steps off the Merton table's box
    drag_max_increment: np.ndarray | None = None
    bump_sums: np.ndarray | None = None    # sums of b^1..b^4, rows (fast, slow)

    @property
    def floor_hit(self) -> np.ndarray:
        """Paths at zero terminal wealth, which the log step never reaches."""
        return self.x_terminal == 0.0

    @property
    def bump_moments(self) -> dict:
        """Empirical moments of the bumps over all path-steps ({} without sums)."""
        if self.bump_sums is None:
            return {}
        total = self.n_paths * self.n_steps
        return {
            name: {f"order_{i+1}": float(self.bump_sums[j, i] / total) for i in range(4)}
            for j, name in enumerate(("fast_bump", "slow_bump"))
        }


@dataclass(frozen=True)
class ValueEstimate:
    """Terminal-utility estimate with its Monte Carlo standard error."""

    mean: float
    se: float
    n_paths: int
    n_effective: int
    floor_hit_rate: float
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------


def wealth_step(x, pi, mu, sigma, dt, dw):
    """Log-Euler step with f = pi/x held, exact in law for constant f, mu, sigma:
    (x_d, G, f^2 sigma^2 dt), x_d = x exp(f mu dt), G = exp(f sigma dW - f^2 sigma^2 dt/2).
    The new wealth is the product x_d G > 0; x + x expm1(.) rounds to 0 below -37."""
    f = pi / x
    f_sigma = f * sigma
    var = f_sigma**2 * dt
    return x * np.exp(f * mu * dt), np.exp(f_sigma * dw - 0.5 * var), var


def _validate_step(model: MarketModel, cfg: SimConfig):
    limit = min(model.epsilon, model.delta) / _STEP_DIVISOR
    dt_eff = cfg.horizon / cfg.n_steps
    if dt_eff > limit * (1.0 + 1e-9):
        raise ValueError(
            f"dt={dt_eff:.6g} does not resolve the fast scale; need dt <= "
            f"min(eps, delta)/{_STEP_DIVISOR} = {limit:.6g}"
        )


def _chunk_bounds(n_paths: int, chunk_size: int):
    starts = range(0, n_paths, chunk_size)
    return [(s, min(s + chunk_size, n_paths)) for s in starts]


def _simulate_chunk(model, strategies, bundle, cfg, chunk_index, n_chunk,
                    collect_drag):
    """One chunk's record per strategy, covering the chunk's n_chunk paths."""
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(chunk_index,)))
    )
    n_steps = cfg.n_steps
    dt = cfg.horizon / n_steps
    sqrt_dt = math.sqrt(dt)
    sqrt_delta = math.sqrt(model.delta)
    chol = model.correlation_cholesky()
    ou_decay = math.exp(-dt / model.epsilon)
    ou_std = model.fast.vol * math.sqrt(max(0.0, 1.0 - ou_decay**2))
    ou_mean = model.fast.mean

    n_draw = n_chunk // 2 if cfg.antithetic else n_chunk
    # the records accumulate in place; x_terminal is the running wealth until the end
    recs = [PathEnsemble(strat.name, n_chunk, n_steps, cfg.antithetic,
                         np.full(n_chunk, cfg.x0), None, np.zeros(n_chunk)) for strat in strategies]
    for rec in recs if collect_drag else ():
        rec.drag_max_increment = np.full(n_chunk, -np.inf)

    y = np.full(n_chunk, cfg.y0)
    z = np.full(n_chunk, cfg.z0)

    for step in range(n_steps):
        t = step * dt
        eta = rng.standard_normal((3, n_draw))
        if cfg.antithetic:
            eta = np.concatenate([eta, -eta], axis=1)
        w_std = eta[0]
        wy_std = chol[1, 0] * eta[0] + chol[1, 1] * eta[1]
        wz_std = chol[2, 0] * eta[0] + chol[2, 1] * eta[1] + chol[2, 2] * eta[2]
        dw = w_std * sqrt_dt
        dwz = wz_std * sqrt_dt
        dy_mart = ou_std * wy_std  # the OU step's noise, which the CV's Q_y term reuses

        lam = model.sharpe(y, z)
        sig = model.sigma(y, z)
        mu = lam * sig
        lam_over_sig = lam / sig
        gz = model.slow_vol(z)
        # one factor lookup and one set of CV coefficients per step, for every strategy
        coefs = bundle.q_coefficients(t, y, z) if cfg.control_variate else None
        rms = coefs[3] if coefs is not None else bundle.averages.sharpe_rms(z)

        for strat, rec in zip(strategies, recs):
            x = rec.x_terminal
            # one step state per strategy-step: the position, the CV and the drag read its pack
            point = bundle.state(t, x, y, z, rms, lam_over_sig)
            rec.surface_exact_points += point.n_exact
            pi = strat.position(point)
            x_d, growth, var = wealth_step(x, pi, mu, sig, dt, dw)

            if cfg.control_variate:
                qx, qz, qy, qxx = bundle.q_gradients(t, x, y, z, coefs, point.pack)
                m = x_d * (growth - 1.0)  # the wealth step's martingale part
                rec.control_variate += (qx * m + qz * sqrt_delta * gz * dwz + qy * dy_mart
                                        + 0.5 * qxx * (m * m - x_d * x_d * np.expm1(var)))

            if collect_drag:
                if point.bumps is not None:
                    sums = np.array([[np.sum(b), np.sum(b**2), np.sum(b**3), np.sum(b**4)]
                                     for b in point.bumps])
                    rec.bump_sums = sums if rec.bump_sums is None else rec.bump_sums + sums
                weight = (pi - point.pi0) ** 2
                inc = np.where(weight != 0.0, 0.5 * weight * sig**2 * point.pack["m_xx"] * dt, 0)
                np.maximum(rec.drag_max_increment, inc, out=rec.drag_max_increment)

            rec.x_terminal = x_d * growth

        z = z + model.delta * model.slow_drift(z) * dt + sqrt_delta * gz * dwz
        y = ou_mean + (y - ou_mean) * ou_decay + dy_mart

    for rec in recs:
        rec.utility_terminal = bundle.utility.u(rec.x_terminal)
    return recs


def engine_processes(cfg: SimConfig) -> int:
    """How many processes simulate a run's chunks: min(workers, chunks,
    cpu_count); 1 means the calling process, with no pool."""
    n_chunks = len(_chunk_bounds(cfg.n_paths, cfg.chunk_size))
    return min(cfg.workers, n_chunks, os.cpu_count() or 1)


def _run_chunk(job, idx):
    model, strategies, bundle, cfg, collect_drag = job
    a, b = _chunk_bounds(cfg.n_paths, cfg.chunk_size)[idx]
    return _simulate_chunk(model, strategies, bundle, cfg, idx, b - a, collect_drag)


_forked_job = None  # set by _adopt_job in each pool child, never in the caller


def _adopt_job(*job):
    global _forked_job
    _forked_job = job


def _run_forked_chunk(idx):
    return _run_chunk(_forked_job, idx)


def run_ensembles(model: MarketModel, strategies: list[Strategy],
                  bundle: ExpansionBundle, cfg: SimConfig,
                  collect_drag: bool = False) -> list[PathEnsemble]:
    """Simulate several strategies on shared noise (common random numbers).

    Results come back in roster order.  Identical (model, cfg, strategies)
    produce bit-identical ensembles for any worker count.  Every pool child
    is joined before this returns or raises; a chunk's exception reaches the
    caller with its own type.  The bundle must be at the model's scales: the
    control variate reads them from the bundle, the paths from the model.
    """
    scales = [(m.epsilon, m.delta) for m in (bundle.model, model)]
    if scales[0] != scales[1]:
        raise ValueError("the bundle's (epsilon, delta) = {} differ from the model's {}; "
                         "move the bundle with with_scales".format(*scales))
    _validate_step(model, cfg)
    bounds = _chunk_bounds(cfg.n_paths, cfg.chunk_size)

    job = (model, strategies, bundle, cfg, collect_drag)
    n_proc = engine_processes(cfg)
    if n_proc == 1:
        results = [_run_chunk(job, idx) for idx in range(len(bounds))]
    else:
        # the Merton table is built once here and inherited by every child,
        # as the factor averages' tables are from the bundle's construction
        bundle.merton_table()
        # concurrent.futures imports its process module on this first use, so
        # one-process runs never load it
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=n_proc, mp_context=multiprocessing.get_context("fork"),
                initializer=_adopt_job, initargs=job) as pool:
            results = list(pool.map(_run_forked_chunk, range(len(bounds))))

    ensembles = [_merge(records) for records in zip(*results)]
    for ens in ensembles:
        ok = np.isfinite(ens.x_terminal)
        for n, what in ((np.sum(~ok), "wealth"),
                        (np.sum(ok & ~np.isfinite(ens.utility_terminal - ens.control_variate)),
                         "utility or control variate")):
            if n:
                logger.warning("%d path(s) aborted with non-finite %s under %s; "
                               "they are excluded from estimates and counted in the report",
                               n, what, ens.strategy_name)
        if ens.bump_sums is not None:
            logger.info("bump empirical moments for %s: %s", ens.strategy_name,
                        ens.bump_moments)
    return ensembles


_PATH_ARRAYS = ("x_terminal", "utility_terminal", "control_variate", "drag_max_increment")


def _merge(records: list[PathEnsemble]) -> PathEnsemble:
    """One strategy's chunk records, in chunk order, as one record: the path
    arrays concatenated and the counters summed."""
    first = records[0]
    arrays = {name: np.concatenate([getattr(r, name) for r in records])
              for name in _PATH_ARRAYS if getattr(first, name) is not None}
    return replace(
        first, **arrays,
        n_paths=sum(r.n_paths for r in records),
        surface_exact_points=sum(r.surface_exact_points for r in records),
        bump_sums=None if first.bump_sums is None
        else np.sum([r.bump_sums for r in records], axis=0),
    )


def _pair_statistics(values: np.ndarray, antithetic: bool, chunk_size: int):
    if not antithetic:
        return values
    # pairs are (j, j + n_draw) within each chunk
    out = []
    n = values.shape[0]
    for a in range(0, n, chunk_size):
        b = min(a + chunk_size, n)
        half = (b - a) // 2
        block = values[a:b]
        out.append(0.5 * (block[:half] + block[half:]))
    return np.concatenate(out)


def paired_mean_se(values: np.ndarray, antithetic: bool,
                   chunk_size: int) -> tuple[float, float, int]:
    """Mean, standard error and count of the per-path ``values``: antithetic
    partners are averaged into one observation, and an observation with a
    non-finite member (an aborted path) is dropped."""
    per_obs = _pair_statistics(values, antithetic, chunk_size)
    per_obs = per_obs[np.isfinite(per_obs)]
    n_eff = per_obs.shape[0]
    if n_eff == 0:
        raise RuntimeError("every path aborted; nothing to estimate")
    se = float(np.std(per_obs, ddof=1) / math.sqrt(n_eff)) if n_eff > 1 else 0.0
    return float(np.sum(per_obs) / n_eff), se, n_eff


def summarize(ensemble: PathEnsemble, chunk_size: int) -> ValueEstimate:
    """Mean/SE of terminal utility minus the control variate by
    ``paired_mean_se`` (a run without the CV carries a CV of exactly 0).
    The diagnostics carry the SE of the utility alone (``se_raw``), the
    variance reduction (se_raw / se)^2 (``cv_variance_ratio``, 1 without the
    CV), the aborted paths (those whose utility or CV is not finite; the
    raw SE drops the same pairs) and, with the drag, its exact sign test: the
    largest increment (``drag_max_increment``), the paths with a positive one
    (``drag_positive_paths``) and whether there are none (``drag_sign_ok``)."""
    stat = ensemble.utility_terminal - ensemble.control_variate
    kept = np.isfinite(stat)
    mean, se, n_eff = paired_mean_se(stat, ensemble.antithetic, chunk_size)
    se_raw = paired_mean_se(np.where(kept, ensemble.utility_terminal, np.nan),
                            ensemble.antithetic, chunk_size)[1]
    n_aborted = int(np.sum(~kept))
    cv = ensemble.control_variate[np.isfinite(ensemble.control_variate)]
    diagnostics = {
        "se_raw": se_raw,
        "cv_variance_ratio": (se_raw / se) ** 2 if se > 0.0 else math.nan,
        "cv_mean": float(np.mean(cv)) if cv.size else 0.0,
        "aborted_paths": n_aborted,
        "surface_exact_points": ensemble.surface_exact_points,
        "bump_moments": ensemble.bump_moments,
    }
    inc = ensemble.drag_max_increment  # every step adds an increment, so no -inf is left
    if inc is not None:
        positive = int(np.sum(~(inc <= 0.0)))
        diagnostics["drag_sign_ok"] = positive == 0
        diagnostics["drag_max_increment"] = float(np.max(inc))
        diagnostics["drag_positive_paths"] = positive
    return ValueEstimate(
        mean=mean,
        se=se,
        n_paths=ensemble.n_paths,
        n_effective=n_eff,
        floor_hit_rate=float(np.mean(ensemble.floor_hit)),
        diagnostics=diagnostics,
    )


def estimate_value(model: MarketModel, strategy: Strategy, bundle: ExpansionBundle,
                   cfg: SimConfig) -> ValueEstimate:
    """Monte Carlo estimate of E[U(X_T)] under one strategy."""
    ens = run_ensembles(model, [strategy], bundle, cfg, collect_drag=False)[0]
    return summarize(ens, cfg.chunk_size)


def write_terminal_records(ensemble: PathEnsemble, fh) -> None:
    """Stream per-path terminal records as CSV with a fixed header."""
    fh.write("path,x_terminal,utility,floor_hit\n")
    for i in range(ensemble.n_paths):
        fh.write(
            f"{i},{float(ensemble.x_terminal[i])!r},"
            f"{float(ensemble.utility_terminal[i])!r},"
            f"{'true' if ensemble.floor_hit[i] else 'false'}\n"
        )
