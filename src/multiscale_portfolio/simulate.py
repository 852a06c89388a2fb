"""Monte Carlo engine for the coupled (Y, Z, X) system under plug-in strategies.

Discretization per step of size dt:

    Y   exact Gaussian transition of the Ornstein-Uhlenbeck factor at rate
        1/epsilon (Euler would dominate the bias at dt = epsilon/20)
    Z   Euler-Maruyama
    X   Euler-Maruyama, self-financing exactly: dX = pi (mu dt + sigma dW);
        wealth is floored at zero and absorbed there

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

    CV = sum_n  Q_x dX_mart + Q_z sqrt(delta) g dW^Z + Q_y dY_mart,

where dY_mart is the OU step's own noise and Q_y = -(eps/2) theta_y D1 v is
the y-gradient of the second-order fast term.  Every increment is an adapted
coefficient times fresh noise, with exactly zero conditional mean, so
subtracting CV from the terminal utility never biases the estimator, for
any strategy.

Two pathwise sign diagnostics accumulate the monotone drag terms of the
value comparison: the bump drag -(1/2)(eps^a b10 + delta^b b01)^2 sigma^2 |v_xx|
for perturbations of the zeroth-order strategy, and the mismatch drag
-(1/2)(pi - pi0)^2 sigma^2 |v_xx| for any other strategy.  Concavity makes
every increment nonpositive; the verdicts are exact sign tests.
"""

from __future__ import annotations

import concurrent.futures
import logging
import math
import multiprocessing
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .asymptotics import ExpansionBundle
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
    "DragVerdict",
    "simulate_paths",
    "estimate_value",
    "paired_mean_se",
    "run_ensembles",
    "engine_processes",
    "bump_drag_diagnostic",
    "mismatch_drag_diagnostic",
    "wealth_step",
]

logger = logging.getLogger(__name__)

_STEP_DIVISOR = 20  # dt must resolve the fastest scale: dt <= min(eps, delta)/20


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


class Strategy:
    """Feedback strategy: dollar position as a function of (t, x, y, z)."""

    name = "strategy"

    def position(self, t, x, y, z):
        raise NotImplementedError


class AllCash(Strategy):
    """No risky investment; wealth stays constant."""

    name = "all_cash"

    def position(self, t, x, y, z):
        return np.zeros(np.shape(x))


class ZerothOrder(Strategy):
    """The candidate strategy: local Sharpe over vol times averaged risk tolerance."""

    name = "zeroth_order"

    def __init__(self, bundle: ExpansionBundle):
        self.bundle = bundle
        bundle.merton_table()  # set-up: the surface pi_zero reads, built before any step

    def position(self, t, x, y, z):
        return self.bundle.pi_zero(t, x, y, z)


class Scaled(Strategy):
    """A fixed multiple of a base strategy."""

    def __init__(self, base: Strategy, factor: float):
        self.base = base
        self.factor = float(factor)
        self.name = f"scaled_{factor:g}_{base.name}"

    def position(self, t, x, y, z):
        return self.factor * self.base.position(t, x, y, z)


class Perturbed(Strategy):
    """base + eps^alpha * fast_bump + delta^beta * slow_bump.

    Bumps are feedback functionals of the current state, hence adapted by
    construction.  alpha and beta are the perturbation powers; eps and delta
    are taken from the market model driving the run.
    """

    def __init__(self, base: Strategy, fast_bump, slow_bump,
                 alpha: float, beta: float, epsilon: float, delta: float):
        if alpha <= 0.0 or beta <= 0.0:
            raise ValueError("perturbation powers must be strictly positive")
        self.base = base
        self.fast_bump = fast_bump
        self.slow_bump = slow_bump
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.eps_pow = float(epsilon) ** alpha
        self.delta_pow = float(delta) ** beta
        self.name = f"perturbed_{base.name}"

    def bumps(self, t, x, y, z):
        return self.fast_bump(t, x, y, z), self.slow_bump(t, x, y, z)

    def position(self, t, x, y, z):
        b10, b01 = self.bumps(t, x, y, z)
        return self.base.position(t, x, y, z) + self.eps_pow * b10 + self.delta_pow * b01


def default_fast_bump(scale: float):
    """Bounded, wealth-capped bump c * min(1 + |y|, x); vanishes at zero wealth."""
    def bump(t, x, y, z):
        return scale * np.minimum(1.0 + np.abs(y), np.asarray(x, dtype=float))
    return bump


def default_slow_bump(scale: float, bundle: ExpansionBundle):
    """Bump proportional to the averaged risk tolerance c * R(t, x; rms(z))."""
    def bump(t, x, y, z):
        return scale * bundle.risk_tolerance(t, x, z)
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
        if self.x0 < 0.0:
            raise ValueError("initial wealth must be nonnegative")
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
    floor_hit: np.ndarray
    surface_exact_points: int = 0          # path-steps off the Merton table's box
    drag_kind: str | None = None          # "bump" | "mismatch" | None
    drag_max_increment: np.ndarray | None = None
    bump_sums: np.ndarray | None = None    # sums of b^1..b^4, rows (fast, slow)

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


@dataclass(frozen=True)
class DragVerdict:
    """Exact sign test on the accumulated monotone drag increments."""

    kind: str
    n_paths: int
    max_increment: float
    n_positive_paths: int
    passed: bool
    per_path_pass: np.ndarray


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------


def wealth_step(x, pi, mu, sigma, dt, dw):
    """Self-financing Euler update with an absorbing floor at zero wealth."""
    return np.maximum(x + pi * (mu * dt + sigma * dw), 0.0)


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
                         np.full(n_chunk, cfg.x0), None, np.zeros(n_chunk),
                         np.zeros(n_chunk, dtype=bool)) for strat in strategies]
    for strat, rec in zip(strategies, recs if collect_drag else ()):
        rec.drag_kind = "bump" if isinstance(strat, Perturbed) else "mismatch"
        rec.drag_max_increment = np.full(n_chunk, -np.inf)
        if rec.drag_kind == "bump":
            rec.bump_sums = np.zeros((2, 4))

    y = np.full(n_chunk, cfg.y0)
    z = np.full(n_chunk, cfg.z0)
    # a non-power bundle serves the surface from its table: count what it cannot
    tabulated = bundle.merton_table() is not None

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
        gz = model.slow_vol(z)
        # one factor lookup and one set of CV coefficients per step, for every strategy
        coefs = bundle.q_coefficients(t, y, z) if cfg.control_variate else None
        if tabulated:
            rms = coefs[3] if coefs is not None else bundle.averages.sharpe_rms(z)

        for strat, rec in zip(strategies, recs):
            x = rec.x_terminal
            pi = strat.position(t, x, y, z)
            alive = x > 0.0
            # paths at the floor get a stand-in wealth of 1 and no CV or drag increment
            x_live = np.where(alive, x, 1.0)
            if tabulated:
                rec.surface_exact_points += bundle.exact_surface_points(t, x_live, rms)

            if cfg.control_variate:
                qx, qz, qy = bundle.q_gradients(t, x_live, y, z, coefs)
                rec.control_variate += np.where(
                    alive, qx * pi * sig * dw + qz * sqrt_delta * gz * dwz + qy * dy_mart, 0.0)

            if collect_drag:
                if rec.drag_kind == "bump":
                    b10, b01 = strat.bumps(t, x, y, z)
                    weight = (strat.eps_pow * b10 + strat.delta_pow * b01) ** 2
                    rec.bump_sums += np.array(
                        [
                            [np.sum(b), np.sum(b**2), np.sum(b**3), np.sum(b**4)]
                            for b in (b10, b01)
                        ]
                    )
                else:
                    weight = (pi - bundle.pi_zero(t, x, y, z)) ** 2
                sel = alive & (weight != 0.0)
                inc = np.zeros(n_chunk)
                if np.any(sel):
                    vxx = bundle.value_xx(t, x_live, z)
                    inc = np.where(sel, 0.5 * weight * sig**2 * vxx * dt, 0.0)
                np.maximum(rec.drag_max_increment, inc, out=rec.drag_max_increment)

            x_new = wealth_step(x, pi, mu, sig, dt, dw)
            rec.floor_hit |= alive & (x_new <= 0.0)
            rec.x_terminal = x_new

        z = z + model.delta * model.slow_drift(z) * dt + sqrt_delta * gz * dwz
        y = ou_mean + (y - ou_mean) * ou_decay + dy_mart

    for rec in recs:
        rec.utility_terminal = bundle.utility.u(np.maximum(rec.x_terminal, 0.0))
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
    if cfg.antithetic and any((b - a) % 2 for a, b in bounds):
        raise ValueError("antithetic pairing requires even chunk lengths")

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
        n_aborted = int(np.sum(~np.isfinite(ens.x_terminal)))
        if n_aborted:
            logger.warning(
                "%d path(s) aborted with non-finite wealth under %s; "
                "they are excluded from estimates and counted in the report",
                n_aborted, ens.strategy_name,
            )
        if ens.bump_sums is not None:
            logger.info("bump empirical moments for %s: %s", ens.strategy_name,
                        ens.bump_moments)
    return ensembles


_PATH_ARRAYS = ("x_terminal", "utility_terminal", "control_variate", "floor_hit",
                "drag_max_increment")


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


def simulate_paths(model: MarketModel, strategy: Strategy, bundle: ExpansionBundle,
                   cfg: SimConfig, collect_drag: bool = True) -> PathEnsemble:
    """Simulate one strategy; drag diagnostics are streamed by default."""
    return run_ensembles(model, [strategy], bundle, cfg, collect_drag=collect_drag)[0]


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


def summarize(ensemble: PathEnsemble, chunk_size: int,
              control_variate: bool) -> ValueEstimate:
    """Mean/SE of terminal utility by ``paired_mean_se``, with the control
    variate subtracted when ``control_variate``.  The diagnostics carry the
    SE without it (``se_raw``), the variance reduction (se_raw / se)^2
    (``cv_variance_ratio``, 1 without the CV) and the aborted paths."""
    raw = ensemble.utility_terminal
    stat = raw - ensemble.control_variate if control_variate else raw
    mean, se, n_eff = paired_mean_se(stat, ensemble.antithetic, chunk_size)
    se_raw = paired_mean_se(raw, ensemble.antithetic, chunk_size)[1] if control_variate else se
    n_aborted = int(np.sum(~np.isfinite(raw)))
    cv = ensemble.control_variate[np.isfinite(ensemble.control_variate)]
    diagnostics = {
        "se_raw": se_raw,
        "cv_variance_ratio": (se_raw / se) ** 2 if se > 0.0 else math.nan,
        "cv_mean": float(np.mean(cv)) if cv.size else 0.0,
        "aborted_paths": n_aborted,
        "surface_exact_points": ensemble.surface_exact_points,
        "bump_moments": ensemble.bump_moments,
    }
    if ensemble.drag_max_increment is not None:
        verdict = _drag_verdict(ensemble)
        diagnostics["drag_sign_ok"] = verdict.passed
        diagnostics["drag_max_increment"] = verdict.max_increment
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
    return summarize(ens, cfg.chunk_size, cfg.control_variate)


# ---------------------------------------------------------------------------
# drag diagnostics
# ---------------------------------------------------------------------------


def _drag_verdict(ensemble: PathEnsemble) -> DragVerdict:
    inc = ensemble.drag_max_increment  # every step adds an increment, so no -inf is left
    per_path_pass = inc <= 0.0
    return DragVerdict(
        kind=ensemble.drag_kind,
        n_paths=ensemble.n_paths,
        max_increment=float(np.max(inc)),
        n_positive_paths=int(np.sum(~per_path_pass)),
        passed=bool(np.all(per_path_pass)),
        per_path_pass=per_path_pass,
    )


def bump_drag_diagnostic(ensemble: PathEnsemble) -> DragVerdict:
    """Sign test on the perturbation drag; requires a Perturbed strategy."""
    if ensemble.drag_kind != "bump":
        raise ValueError(
            "bump drag applies to perturbations of the zeroth-order strategy; "
            "use mismatch_drag_diagnostic for other strategies"
        )
    return _drag_verdict(ensemble)


def mismatch_drag_diagnostic(ensemble: PathEnsemble) -> DragVerdict:
    """Sign test on the strategy-mismatch drag (any strategy vs zeroth order)."""
    if ensemble.drag_kind != "mismatch":
        raise ValueError("ensemble does not carry mismatch drag accumulators")
    return _drag_verdict(ensemble)


def write_terminal_records(ensemble: PathEnsemble, fh) -> None:
    """Stream per-path terminal records as CSV with a fixed header."""
    fh.write("path,x_terminal,utility,floor_hit\n")
    for i in range(ensemble.n_paths):
        fh.write(
            f"{i},{float(ensemble.x_terminal[i])!r},"
            f"{float(ensemble.utility_terminal[i])!r},"
            f"{'true' if ensemble.floor_hit[i] else 'false'}\n"
        )
