"""Verification harness: scenario configuration, studies, and reports.

Two headline studies, each emitting a CSV with a fixed schema plus a JSON
verdict summary:

residual-order study
    For each (eps, delta) on a grid along delta = eps, estimate the value of
    the zeroth-order strategy by Monte Carlo (antithetic + martingale control
    variate) and compare it with the first-order approximation
    Q(0, x0, z0).  The residual should be resolved (|residual| > 2 SE) and
    its log-log slope against eps + delta should sit in a configured band
    around 1.

asymptotic-optimality study
    For each grid point, simulate challenger strategies on common random
    numbers with the zeroth-order strategy and form the normalized value gap
    ell = (V_challenger - V_base) / (sqrt(eps) + sqrt(delta)).  The test is
    one-sided: a PASS requires ell <= 2 SE everywhere, and the line through
    the two finest points must not reach above 0 (within noise) at zero scale.

Configuration files are flat ``[section]`` / ``key = value`` text parsed
strictly: unknown sections or keys are errors with a line diagnostic, so a
typo can never silently fall back to a default.
"""

from __future__ import annotations

import json
import logging
import math
import os
import time
from dataclasses import dataclass, field, fields, make_dataclass, replace
from pathlib import Path

import numpy as np

from .asymptotics import ExpansionBundle
from .factors import (
    MarketModel,
    OrnsteinUhlenbeckFactor,
    PoissonSolution,
    SHARPE_REGISTRY,
    SIGMA_REGISTRY,
    SLOW_DRIFT_REGISTRY,
    SLOW_VOL_REGISTRY,
    averaged_sharpe,
    fast_coupling,
    slow_factor_range,
    z_cache_grid,
)
from .merton import apply_dk, solve_merton
from .simulate import (
    AllCash,
    Perturbed,
    Scaled,
    SimConfig,
    ZerothOrder,
    default_fast_bump,
    default_slow_bump,
    dt_for,
    engine_processes,
    estimate_value,
    paired_mean_se,
    run_ensembles,
    summarize,
    write_terminal_records,
    _STEP_DIVISOR,
)
from .utility import make_utility

__all__ = [
    "ConfigError",
    "RunConfig",
    "load_run_config",
    "DEFAULT_CONFIG_TEXT",
    "build_model",
    "build_bundle",
    "fit_loglog_slope",
    "residual_order_study",
    "optimality_study",
    "invariant_suite",
    "ExperimentReport",
    "run_cli",
]

logger = logging.getLogger(__name__)

OUTPUT_DIR_ENV = "MSPORT_OUTPUT_DIR"

RESIDUAL_HEADER = ["epsilon", "delta", "v0", "q", "v_hat", "se", "residual", "resolved",
                   "se_raw", "cv_variance_ratio"]
OPTIMALITY_HEADER = ["epsilon", "delta", "challenger", "v_hat", "se", "ell_hat", "ell_se", "verdict",
                     "se_raw", "cv_variance_ratio"]
INVARIANT_HEADER = ["name", "measured", "tolerance", "verdict"]
SIMULATION_HEADER = ["strategy", "mean", "se", "n_paths", "floor_hit_rate", "drag_sign_ok"]


# ---------------------------------------------------------------------------
# strict configuration parsing
# ---------------------------------------------------------------------------


class ConfigError(Exception):
    """Malformed run configuration; carries the offending line when known."""

    def __init__(self, message, line=None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


def _parse_float_list(raw):
    return tuple(float(tok) for tok in raw.split(","))


def _parse_deltas(raw):
    return "match" if raw.strip() == "match" else _parse_float_list(raw)


def _parse_bool(raw):
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


# section -> key -> (parser, default); _REQUIRED marks keys with no default
_REQUIRED = object()

_SCHEMA = {
    "scenario": {"name": (str.strip, "scenario")},
    "utility": {
        "kind": (str.strip, "power"),
        "gamma": (float, 0.5),
        "weights": (_parse_float_list, (1.0,)),
        "exponents": (_parse_float_list, (0.5,)),
    },
    "model": {
        "fast_mean": (float, 0.0),
        "fast_vol": (float, _REQUIRED),
        "sharpe": (str.strip, _REQUIRED),
        "sharpe_params": (_parse_float_list, _REQUIRED),
        "sigma": (str.strip, _REQUIRED),
        "sigma_params": (_parse_float_list, _REQUIRED),
        "slow_drift": (str.strip, "zero"),
        "slow_drift_params": (_parse_float_list, ()),
        "slow_vol": (str.strip, "const"),
        "slow_vol_params": (_parse_float_list, (0.0,)),
        "rho1": (float, 0.0),
        "rho2": (float, 0.0),
        "rho12": (float, 0.0),
    },
    "grid": {
        "epsilons": (_parse_float_list, _REQUIRED),
        "deltas": (_parse_deltas, "match"),
    },
    "sim": {
        "n_paths": (int, _REQUIRED),
        "step_divisor": (int, 20),
        "horizon": (float, 1.0),
        "x0": (float, 1.0),
        "y0": (float, 0.0),
        "z0": (float, 0.0),
        "seed": (int, 0),
        "chunk_size": (int, 16384),
        "workers": (int, 1),
    },
    "strategies": {
        "alpha": (float, 0.25),
        "beta": (float, 0.25),
        "bump_scale": (float, 0.1),
        "scale_factor": (float, 0.5),
    },
    "merton": {"sharpe": (float, 0.5)},
    "report": {
        "output_dir": (str.strip, "out"),
        "slope_band": (_parse_float_list, (0.7, 1.4)),
        "strict": (_parse_bool, False),
    },
}


def parse_config_text(text: str) -> dict:
    """Parse and validate the flat section/key format against the schema."""
    values = {}
    seen = set()
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"unknown section [{section}]", lineno)
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", lineno)
        if section is None:
            raise ConfigError("key outside of any [section]", lineno)
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in _SCHEMA[section]:
            raise ConfigError(f"unknown key {key!r} in section [{section}]", lineno)
        if (section, key) in seen:
            raise ConfigError(f"duplicate key {key!r} in section [{section}]", lineno)
        seen.add((section, key))
        parser, _ = _SCHEMA[section][key]
        try:
            values.setdefault(section, {})[key] = parser(raw_value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {section}.{key}: {exc}", lineno) from None
    # fill defaults, enforce required keys
    out = {}
    for section, keys in _SCHEMA.items():
        out[section] = {}
        for key, (_, default) in keys.items():
            if key in values.get(section, {}):
                out[section][key] = values[section][key]
            elif default is _REQUIRED:
                raise ConfigError(f"missing required key {section}.{key}")
            else:
                out[section][key] = default
    return out


DEFAULT_CONFIG_TEXT = """\
# Reference scenario: fast OU factor, Sharpe ratio affine in the slow level
# with a bounded fast perturbation, power utility.
[scenario]
name = reference

[utility]
kind = power
gamma = 0.5

[model]
fast_mean = 0.0
fast_vol = 0.7
sharpe = affine_z_tanh_y
sharpe_params = 0.5, 0.25, 0.35
sigma = const
sigma_params = 0.5
slow_drift = mean_revert
slow_drift_params = 1.0, 0.0
slow_vol = const
slow_vol_params = 0.75
rho1 = -0.5
rho2 = -0.4
rho12 = 0.1

[grid]
epsilons = 0.4, 0.2, 0.1, 0.05
deltas = match

[sim]
n_paths = 400000
step_divisor = 20
horizon = 1.0
x0 = 1.0
y0 = 0.0
z0 = 0.0
seed = 20270811
chunk_size = 16384
workers = 1

[strategies]
alpha = 0.25
beta = 0.25
bump_scale = 0.1
scale_factor = 0.5

[merton]
sharpe = 0.5

[report]
output_dir = out
slope_band = 0.7, 1.4
strict = false
"""


# (section, key) -> RunConfig field, where the two names differ
_FIELD_NAMES = {("scenario", "name"): "scenario", ("utility", "kind"): "utility_kind",
                ("merton", "sharpe"): "merton_sharpe",
                **{("model", k): k + "_name" for k in ("sharpe", "sigma", "slow_drift", "slow_vol")}}

RunConfig = make_dataclass(
    "RunConfig",
    [_FIELD_NAMES.get((section, key), key) for section, keys in _SCHEMA.items() for key in keys],
    frozen=True,
    namespace={"__module__": __name__,
               "__doc__": "Validated scenario configuration for the CLI and the studies: "
                          "one field per _SCHEMA key, in schema order."},
)


def load_run_config(source: str | Path) -> RunConfig:
    """Load a config file; the literal name ``default`` loads the built-in."""
    if str(source) == "default":
        text = DEFAULT_CONFIG_TEXT
    else:
        path = Path(source)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        text = path.read_text()
    values = parse_config_text(text)
    grid = values["grid"]
    epsilons = grid["epsilons"]
    deltas = epsilons if grid["deltas"] == "match" else grid["deltas"]
    if len(deltas) != len(epsilons):
        raise ConfigError("deltas must be 'match' or a list as long as epsilons")
    for eps, delta in zip(epsilons, deltas):
        if eps <= 0.0 or delta <= 0.0:
            raise ConfigError("grid entries must be strictly positive")
    fields = {_FIELD_NAMES.get((section, key), key): value
              for section, keys in values.items() for key, value in keys.items()}
    cfg = RunConfig(**dict(fields, deltas=deltas, slope_band=tuple(fields["slope_band"])))
    if len(cfg.slope_band) != 2 or cfg.slope_band[0] >= cfg.slope_band[1]:
        raise ConfigError("slope_band must be 'lo, hi' with lo < hi")
    if cfg.utility_kind not in ("power", "power_mixture"):
        raise ConfigError(f"unknown utility kind {cfg.utility_kind!r}")
    if cfg.step_divisor < _STEP_DIVISOR:
        raise ConfigError(
            f"sim.step_divisor must be at least {_STEP_DIVISOR} so that dt resolves "
            f"the fast scale, got {cfg.step_divisor}"
        )
    _check_sim(cfg)
    try:  # the constructors' checks, and a z-grid covering every z the slow factor reaches
        solve_merton(build_utility(cfg), cfg.merton_sharpe, cfg.horizon)
        Perturbed(AllCash(), None, None, cfg.alpha, cfg.beta)
        model = build_model(cfg, cfg.epsilons[0], cfg.deltas[0])
        slow_factor_range(model.slow_drift, model.slow_vol, cfg.z0, max(cfg.deltas) * cfg.horizon)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


# ---------------------------------------------------------------------------
# scenario assembly
# ---------------------------------------------------------------------------


def build_utility(cfg: RunConfig):
    if cfg.utility_kind == "power":
        return make_utility("power", gamma=cfg.gamma)
    return make_utility("power_mixture", weights=cfg.weights, exponents=cfg.exponents)


def _registry_get(registry, name, params, what):
    if name not in registry:
        raise ConfigError(f"unknown {what} {name!r}; known: {sorted(registry)}")
    return registry[name](list(params))


def build_model(cfg: RunConfig, epsilon: float, delta: float) -> MarketModel:
    return MarketModel(
        sharpe=_registry_get(SHARPE_REGISTRY, cfg.sharpe_name, cfg.sharpe_params, "sharpe"),
        sigma=_registry_get(SIGMA_REGISTRY, cfg.sigma_name, cfg.sigma_params, "sigma"),
        fast=OrnsteinUhlenbeckFactor(mean=cfg.fast_mean, vol=cfg.fast_vol),
        slow_drift=_registry_get(SLOW_DRIFT_REGISTRY, cfg.slow_drift_name, cfg.slow_drift_params, "slow_drift"),
        slow_vol=_registry_get(SLOW_VOL_REGISTRY, cfg.slow_vol_name, cfg.slow_vol_params, "slow_vol"),
        rho1=cfg.rho1,
        rho2=cfg.rho2,
        rho12=cfg.rho12,
        epsilon=epsilon,
        delta=delta,
    )


def build_bundle(cfg: RunConfig, model: MarketModel) -> ExpansionBundle:
    """Expansion bundle whose factor table covers every z the slow factor reaches
    at any grid point; ``with_scales`` moves it to the other points."""
    lo, hi = slow_factor_range(model.slow_drift, model.slow_vol, cfg.z0,
                               max(cfg.deltas) * cfg.horizon)
    averages = averaged_sharpe(model, z_grid=z_cache_grid(0.5 * (lo + hi), 0.5 * (hi - lo)))
    return ExpansionBundle(model, averages, build_utility(cfg), cfg.horizon)


def sim_config_for(cfg: RunConfig, model: MarketModel) -> SimConfig:
    return _sim_config(cfg, dt_for(model, cfg.step_divisor))


def _check_sim(cfg: RunConfig) -> None:
    """ConfigError unless the [sim] settings make a SimConfig, whose checks
    are the rules (any positive step passes them; the grid sets the real one),
    with a positive x0: every study compares with Q(0, x0, z0)."""
    try:
        _sim_config(cfg, cfg.horizon)
        if cfg.x0 <= 0.0:
            raise ValueError(f"x0 = {cfg.x0!r} must be positive; the studies compare "
                             "with Q(0, x0, z0)")
    except ValueError as exc:
        raise ConfigError(f"bad [sim] settings: {exc}") from None


def _sim_config(cfg: RunConfig, dt: float) -> SimConfig:
    """``dt`` and the RunConfig fields named like SimConfig's other fields."""
    return SimConfig(dt=dt, **{f.name: getattr(cfg, f.name) for f in fields(SimConfig)
                               if f.name != "dt"})


def build_challengers(cfg: RunConfig, bundle: ExpansionBundle) -> list:
    """The zeroth-order strategy and its two challengers.  They read the
    scales from the engine's steps, so one roster serves every grid point."""
    base = ZerothOrder(bundle)
    perturbed = Perturbed(base, default_fast_bump(cfg.bump_scale),
                          default_slow_bump(cfg.bump_scale), cfg.alpha, cfg.beta)
    return [base, perturbed, Scaled(base, cfg.scale_factor)]


# ---------------------------------------------------------------------------
# slope fitting
# ---------------------------------------------------------------------------


def fit_loglog_slope(scales, residuals, ses=None):
    """Weighted least-squares slope of log|residual| against log(scale).

    Weights are the inverse delta-method variances (residual/se)^2; with
    ``ses=None`` the fit is unweighted.  Returns (slope, slope_se, intercept).
    """
    scales = np.asarray(scales, dtype=float)
    resid = np.abs(np.asarray(residuals, dtype=float))
    if scales.size < 2:
        raise ValueError("slope fit needs at least two points")
    x = np.log(scales)
    y = np.log(resid)
    if ses is None:
        w = np.ones_like(x)
    else:
        ses = np.asarray(ses, dtype=float)
        w = (resid / np.maximum(ses, 1e-300)) ** 2
        w = np.minimum(w, 1e12)
    wsum = np.sum(w)
    xbar = np.sum(w * x) / wsum
    ybar = np.sum(w * y) / wsum
    sxx = np.sum(w * (x - xbar) ** 2)
    slope = np.sum(w * (x - xbar) * (y - ybar)) / sxx
    intercept = ybar - slope * xbar
    slope_se = 1.0 / math.sqrt(sxx) if ses is not None else float("nan")
    return float(slope), float(slope_se), float(intercept)


# ---------------------------------------------------------------------------
# studies
# ---------------------------------------------------------------------------


@dataclass
class ResidualStudy:
    rows: list
    slope: float
    slope_se: float
    verdict: str
    band: tuple


@dataclass
class OptimalityStudy:
    rows: list
    verdict: str


@dataclass
class ExperimentReport:
    scenario: str
    seed: int
    residual: ResidualStudy | None = None
    optimality: OptimalityStudy | None = None
    invariants: list = field(default_factory=list)

    def verdicts(self) -> dict:
        out = {}
        if self.residual is not None:
            out["residual_order"] = self.residual.verdict
        if self.optimality is not None:
            out["optimality"] = self.optimality.verdict
        if self.invariants:
            out["invariants"] = (
                "PASS" if all(r["verdict"] == "PASS" for r in self.invariants) else "FAIL"
            )
        return out

    def has_failure(self) -> bool:
        return any(v == "FAIL" for v in self.verdicts().values())

    def has_unresolved(self) -> bool:
        return any(v == "UNRESOLVED" for v in self.verdicts().values())


def _log_point(eps, delta, sim_cfg: SimConfig, n_strategies: int, seconds: float) -> None:
    path_steps = n_strategies * sim_cfg.n_paths * sim_cfg.n_steps
    logger.info(
        "eps %g, delta %g: %d paths x %d steps x %d strategies on %d process(es), "
        "engine %.3f s, %.3g path-steps/s",
        eps, delta, sim_cfg.n_paths, sim_cfg.n_steps, n_strategies,
        engine_processes(sim_cfg), seconds, path_steps / seconds,
    )


def _residual_grid_error(cfg: RunConfig) -> str | None:
    """Why the grid cannot carry a residual slope, or None if it can."""
    if len(cfg.epsilons) < 3:
        return "residual study needs at least three grid points"
    if len({eps + delta for eps, delta in zip(cfg.epsilons, cfg.deltas)}) < 2:
        return "residual study needs at least two distinct values of eps + delta"
    return None


def residual_order_study(cfg: RunConfig) -> ResidualStudy:
    """Residual of the first-order value approximation along the scale grid."""
    if error := _residual_grid_error(cfg):
        raise ValueError(error)
    rows = []
    study_bundle = build_bundle(cfg, build_model(cfg, cfg.epsilons[0], cfg.deltas[0]))
    for eps, delta in zip(cfg.epsilons, cfg.deltas):
        bundle = study_bundle.with_scales(eps, delta)  # scale-free tables: one build
        model = bundle.model
        sim_cfg = sim_config_for(cfg, model)
        start = time.perf_counter()
        est = estimate_value(model, ZerothOrder(bundle), bundle, sim_cfg)
        _log_point(eps, delta, sim_cfg, 1, time.perf_counter() - start)
        v0 = float(bundle.leading_order(0.0, cfg.x0, cfg.z0))
        q = float(bundle.first_order_value(0.0, cfg.x0, cfg.z0))
        residual = est.mean - q
        rows.append(dict(zip(RESIDUAL_HEADER, (eps, delta, v0, q, est.mean, est.se, residual,
                                                abs(residual) > 2.0 * est.se,
                                                est.diagnostics["se_raw"],
                                                est.diagnostics["cv_variance_ratio"]))))
    slope, slope_se, _ = fit_loglog_slope(
        [r["epsilon"] + r["delta"] for r in rows],
        [r["residual"] for r in rows],
        [r["se"] for r in rows],
    )
    lo, hi = cfg.slope_band
    if not all(r["resolved"] for r in rows):
        verdict = "UNRESOLVED"
    elif lo <= slope <= hi:
        verdict = "PASS"
    else:
        verdict = "FAIL"
    return ResidualStudy(rows=rows, slope=slope, slope_se=slope_se,
                         verdict=verdict, band=cfg.slope_band)


def optimality_study(cfg: RunConfig) -> OptimalityStudy:
    """Normalized value gap of challengers against the zeroth-order strategy."""
    rows = []
    study_bundle = build_bundle(cfg, build_model(cfg, cfg.epsilons[0], cfg.deltas[0]))
    roster = build_challengers(cfg, study_bundle)
    gaps_by_challenger: dict[str, list] = {}
    for eps, delta in zip(cfg.epsilons, cfg.deltas):
        bundle = study_bundle.with_scales(eps, delta)
        model = bundle.model
        sim_cfg = sim_config_for(cfg, model)
        start = time.perf_counter()
        ensembles = run_ensembles(model, roster, bundle, sim_cfg)
        _log_point(eps, delta, sim_cfg, len(roster), time.perf_counter() - start)
        base = ensembles[0]
        norm = math.sqrt(eps) + math.sqrt(delta)
        base_stat = base.utility_terminal - base.control_variate
        for ens in ensembles:
            stat = ens.utility_terminal - ens.control_variate
            est = summarize(ens)
            gap, gap_se, _ = paired_mean_se(stat - base_stat, ens.chunk_size)
            ell, ell_se = gap / norm, gap_se / norm
            verdict = "PASS" if ell <= 2.0 * ell_se else "FAIL"
            rows.append(dict(zip(OPTIMALITY_HEADER, (eps, delta, ens.strategy_name, est.mean,
                                                     est.se, ell, ell_se, verdict,
                                                     est.diagnostics["se_raw"],
                                                     est.diagnostics["cv_variance_ratio"]))))
            gaps_by_challenger.setdefault(ens.strategy_name, []).append((norm, ell, ell_se))
    verdict = "PASS"
    for gaps in gaps_by_challenger.values():
        if any(ell > 2.0 * se for _, ell, se in gaps):
            verdict = "FAIL"
            break
        if not _gap_trend_ok(gaps):
            verdict = "FAIL"
            break
    return OptimalityStudy(rows=rows, verdict=verdict)


def _gap_trend_ok(gaps: list[tuple[float, float, float]]) -> bool:
    """Toward small scales the gap must not head above zero (within noise).

    ``gaps`` holds (h, ell, se) per grid point, h = sqrt(eps) + sqrt(delta).
    The line through the finest point and the next coarser one, extended to
    h = 0, gives ell_0 = (1 + r) ell_n - r ell_{n-1}, r = h_n / (h_{n-1} - h_n);
    it must be at most 3 ((1 + r) se_n + r se_{n-1}), one step's 3-SE band.
    A gap may rise toward small scales, but not so fast that it ends above 0.
    """
    h, ell, se = min(gaps)
    coarser = [g for g in gaps if g[0] > h]
    if not coarser:
        return True
    h_prev, ell_prev, se_prev = min(coarser)
    r = h / (h_prev - h)
    return (1.0 + r) * ell - r * ell_prev <= 3.0 * ((1.0 + r) * se + r * se_prev) + 1e-12


# ---------------------------------------------------------------------------
# invariant suite
# ---------------------------------------------------------------------------


def _row(name, measured, tolerance, ok):
    return {
        "name": name,
        "measured": float(measured),
        "tolerance": float(tolerance),
        "verdict": "PASS" if ok else "FAIL",
    }


def invariant_suite(cfg: RunConfig) -> list[dict]:
    """Module-level invariants as one verdict row each (no Monte Carlo)."""
    rows = []
    x_grid = np.logspace(-3, 3, 61)

    # utility family invariants
    for utility in (make_utility("power", gamma=0.5),
                    make_utility("power_mixture", weights=(1.0, 1.0), exponents=(0.5, 0.25))):
        tag = utility.kind
        u1 = utility.du(x_grid, 1)
        u2 = utility.du(x_grid, 2)
        r = utility.risk_tolerance(x_grid)
        rows.append(_row(f"utility_monotone_concave[{tag}]",
                         max(np.max(-u1), np.max(u2)), 0.0,
                         bool(np.all(u1 > 0) and np.all(u2 < 0))))
        rows.append(_row(f"utility_risk_tolerance_increasing[{tag}]",
                         np.min(np.diff(r)), 0.0, bool(np.all(np.diff(r) > 0))))
        rows.append(_row(f"utility_risk_tolerance_origin[{tag}]",
                         utility.risk_tolerance(1e-8), 1e-6,
                         utility.risk_tolerance(1e-8) <= 1e-6))
        round_trip = np.max(np.abs(utility.inverse_marginal(u1) - x_grid) / x_grid)
        rows.append(_row(f"utility_inverse_round_trip[{tag}]", round_trip, 1e-10,
                         round_trip <= 1e-10))

    # Merton invariants (power closed form vs dual, concavity, terminal data)
    power = make_utility("power", gamma=0.5)
    closed = solve_merton(power, 0.8, 1.0, method="closed_form_power")
    dual = solve_merton(power, 0.8, 1.0, method="dual_quadrature")
    xs = np.logspace(-1, 1, 21)
    worst = 0.0
    for t in (0.0, 0.25, 0.75):
        worst = max(worst, float(np.max(np.abs(dual.value(t, xs) / closed.value(t, xs) - 1.0))))
    rows.append(_row("merton_dual_vs_closed_form", worst, 1e-6, worst <= 1e-6))

    pack = dual.surface(0.3, xs, order=2)
    rows.append(_row("merton_monotone_concave",
                     max(float(np.max(-pack["m_x"])), float(np.max(pack["m_xx"]))), 0.0,
                     bool(np.all(pack["m_x"] > 0) and np.all(pack["m_xx"] < 0))))
    term = float(np.max(np.abs(dual.value(1.0, xs) - power.u(xs))))
    rows.append(_row("merton_terminal_condition", term, 0.0, term == 0.0))
    zero = float(np.max(np.abs(solve_merton(power, 0.0, 1.0).value(0.4, xs) - power.u(xs))))
    rows.append(_row("merton_zero_sharpe_is_utility", zero, 0.0, zero == 0.0))
    lam_lo = solve_merton(power, 0.3, 1.0).value(0.2, xs)
    lam_hi = solve_merton(power, 0.9, 1.0).value(0.2, xs)
    rows.append(_row("merton_monotone_in_sharpe", float(np.max(lam_lo - lam_hi)), 0.0,
                     bool(np.all(lam_lo <= lam_hi))))
    r_small = closed.risk_tolerance(0.5, 1e-9)
    rows.append(_row("merton_risk_tolerance_origin", r_small, 1e-6, r_small <= 1e-6))

    # D_k algebra on the closed form: D1 M = M, D1 D1 M = M for gamma = 1/2
    d1 = apply_dk(closed, 1, closed)
    d1_val = d1(0.25, 2.0)
    m_val = closed.value(0.25, 2.0)
    err_d1 = abs(d1_val / m_val - 1.0)
    d1sq_val = apply_dk(closed, 1, lambda t, x: d1(t, x))(0.25, 2.0)
    err_d1sq = abs(d1sq_val / m_val - 1.0)
    rows.append(_row("merton_dk_algebra", max(err_d1, err_d1sq), 1e-8,
                     max(err_d1, err_d1sq) <= 1e-8))

    # factor averaging invariants on the oracle model lam(y, z) = y
    oracle = MarketModel(
        sharpe=SHARPE_REGISTRY["prop_y"]([1.0]),
        sigma=SIGMA_REGISTRY["const"]([0.5]),
        fast=OrnsteinUhlenbeckFactor(mean=0.0, vol=0.5),
        epsilon=0.1, delta=0.1,
    )
    b_err = abs(fast_coupling(oracle, 0.0) + math.sqrt(2.0) * 0.5**3) / (math.sqrt(2.0) * 0.5**3)
    rows.append(_row("poisson_coupling_oracle", b_err, 1e-8, b_err <= 1e-8))
    sol = PoissonSolution(oracle, 0.0)
    ys = np.linspace(-2.0, 2.0, 21)
    h = 1e-4
    theta_yy = (sol.gradient(ys + h) - sol.gradient(ys - h)) / (2.0 * h)
    lhs = 0.5 * oracle.fast.noise(ys) ** 2 * theta_yy + oracle.fast.drift(ys) * sol.gradient(ys)
    resid = np.max(np.abs(lhs - (ys**2 - 0.5**2)) / (1.0 + ys**2))
    rows.append(_row("poisson_generator_identity", resid, 1e-8, resid <= 1e-8))

    bundle = build_bundle(cfg, build_model(cfg, cfg.epsilons[0], cfg.deltas[0]))
    averages = bundle.averages
    zs = np.linspace(averages.z_grid[0], averages.z_grid[-1], 9)
    cs_gap = float(np.max(averages.sharpe_mean(zs) ** 2 - averages.sharpe_rms(zs) ** 2))
    rows.append(_row("cauchy_schwarz_mean_vs_rms", cs_gap, 0.0, cs_gap <= 0.0))

    # expansion invariants
    xs = np.logspace(-1, 1, 11)
    t_end = cfg.horizon
    fast_T = float(np.max(np.abs(bundle.fast_correction(t_end, xs, cfg.z0))))
    slow_T = float(np.max(np.abs(bundle.slow_correction(t_end, xs, cfg.z0))))
    rows.append(_row("corrections_vanish_at_horizon", max(fast_T, slow_T), 0.0,
                     max(fast_T, slow_T) == 0.0))
    q_term = float(np.max(np.abs(bundle.first_order_value(t_end, xs, cfg.z0)
                                 - bundle.utility.u(xs))))
    rows.append(_row("q_terminal_is_utility", q_term, 0.0, q_term == 0.0))
    q0 = bundle.first_order_value(0.3, xs, cfg.z0, eps=0.0, delta=0.0)
    q_gap = float(np.max(np.abs(q0 - bundle.leading_order(0.3, xs, cfg.z0))))
    rows.append(_row("q_reduces_to_leading_order", q_gap, 0.0, q_gap == 0.0))

    if bundle.utility.is_power:
        v0 = bundle.leading_order(0.4, xs, cfg.z0)
        ratio_fast = bundle.fast_correction(0.4, xs, cfg.z0) / v0
        spread = float(np.max(ratio_fast) - np.min(ratio_fast))
        rows.append(_row("power_correction_proportional_to_value", spread, 1e-8,
                         spread <= 1e-8))

    vgc = max(bundle.vega_gamma_check(0.25, x, cfg.z0) for x in (0.5, 1.0, 2.0))
    rows.append(_row("vega_gamma_identity", vgc, 1e-6 if bundle.utility.is_power else 1e-3,
                     vgc <= (1e-6 if bundle.utility.is_power else 1e-3)))

    # correlated-noise degeneracy must be rejected at construction
    try:
        MarketModel(
            sharpe=SHARPE_REGISTRY["const"]([0.5]),
            sigma=SIGMA_REGISTRY["const"]([0.5]),
            rho1=0.9, rho2=0.9, rho12=-0.9,
            epsilon=0.1, delta=0.1,
        )
        rejected = False
    except ValueError:
        rejected = True
    rows.append(_row("correlation_determinant_rejection", 0.0 if rejected else 1.0, 0.0,
                     rejected))

    # synthetic slope-fit recovery
    eps_grid = np.array([0.4, 0.2, 0.1, 0.05])
    worst_fit = 0.0
    for p in (0.5, 1.0, 2.0):
        slope, _, _ = fit_loglog_slope(2.0 * eps_grid, 3.7 * (2.0 * eps_grid) ** p)
        worst_fit = max(worst_fit, abs(slope - p))
    rows.append(_row("synthetic_slope_recovery", worst_fit, 1e-10, worst_fit <= 1e-10))

    return rows


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_csv(path: Path, header: list[str], rows: list[dict],
              summary_row: list | None = None) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(row[col]) for col in header))
    if summary_row is not None:
        lines.append(",".join(_fmt(v) for v in summary_row))
    path.write_text("\n".join(lines) + "\n")


def write_residual_csv(path: Path, study: ResidualStudy) -> None:
    summary = ["slope", study.slope, study.slope_se, study.band[0], study.band[1],
               "", "", study.verdict, "", ""]
    write_csv(path, RESIDUAL_HEADER, study.rows, summary)


def write_optimality_csv(path: Path, study: OptimalityStudy) -> None:
    write_csv(path, OPTIMALITY_HEADER, study.rows)


def write_invariants_csv(path: Path, rows: list[dict]) -> None:
    write_csv(path, INVARIANT_HEADER, rows)


def write_summary_json(path: Path, report: ExperimentReport) -> None:
    payload = {
        "scenario": report.scenario,
        "seed": report.seed,
        "verdicts": report.verdicts(),
    }
    if report.residual is not None:
        payload["residual_slope"] = report.residual.slope
        payload["residual_slope_se"] = report.residual.slope_se
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------


def _resolve_outdir(cfg: RunConfig, override: str | None) -> Path:
    outdir = Path(override or os.environ.get(OUTPUT_DIR_ENV) or cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def _cmd_solve_merton(cfg: RunConfig, outdir: Path) -> str:
    utility = build_utility(cfg)
    sol = solve_merton(utility, cfg.merton_sharpe, cfg.horizon)
    rows = []
    from .merton import residual_of_pde

    for t in np.linspace(0.0, cfg.horizon, 5)[:-1]:
        for x in np.logspace(-1, 1, 9):
            pack = sol.surface(float(t), float(x))
            rows.append(
                {
                    "t": float(t), "x": float(x), "value": pack["m"],
                    "value_x": pack["m_x"], "value_xx": pack["m_xx"],
                    "risk_tolerance": pack["r"],
                    "pde_residual": residual_of_pde(sol, float(t), float(x)),
                }
            )
    write_csv(outdir / "merton_solution.csv",
              ["t", "x", "value", "value_x", "value_xx", "risk_tolerance", "pde_residual"],
              rows)
    return "PASS"

def _cmd_expand(cfg: RunConfig, outdir: Path) -> str:
    model = build_model(cfg, cfg.epsilons[0], cfg.deltas[0])
    bundle = build_bundle(cfg, model)
    rows = []
    for t in np.linspace(0.0, cfg.horizon, 5):
        for x in np.logspace(-1, 1, 9):
            t_f, x_f = float(t), float(x)
            rows.append(
                {
                    "t": t_f, "x": x_f, "z": cfg.z0,
                    "v0": float(bundle.leading_order(t_f, x_f, cfg.z0)),
                    "v_fast": float(bundle.fast_correction(t_f, x_f, cfg.z0)),
                    "v_slow": float(bundle.slow_correction(t_f, x_f, cfg.z0)),
                    "q": float(bundle.first_order_value(t_f, x_f, cfg.z0)),
                    "pi0": float(bundle.pi_zero(t_f, x_f, cfg.y0, cfg.z0)),
                }
            )
    write_csv(outdir / "expansion.csv",
              ["t", "x", "z", "v0", "v_fast", "v_slow", "q", "pi0"], rows)
    return "PASS"


def _cmd_simulate(cfg: RunConfig, outdir: Path, terminal_csv: str | None) -> str:
    model = build_model(cfg, cfg.epsilons[0], cfg.deltas[0])
    bundle = build_bundle(cfg, model)
    sim_cfg = sim_config_for(cfg, model)
    roster = build_challengers(cfg, bundle)
    ensembles = run_ensembles(model, roster, bundle, sim_cfg, collect_drag=True)
    rows = []
    for ens in ensembles:
        est = summarize(ens)
        rows.append(dict(zip(SIMULATION_HEADER, (ens.strategy_name, est.mean, est.se, est.n_paths,
                                                 est.floor_hit_rate,
                                                 est.diagnostics["drag_sign_ok"]))))
    if terminal_csv:
        with open(outdir / terminal_csv, "w") as fh:
            write_terminal_records(ensembles[0], fh)
    write_csv(outdir / "simulation.csv", SIMULATION_HEADER, rows)
    failing = [r["strategy"] for r in rows if not r["drag_sign_ok"]]
    if failing:
        print(f"simulate: drag sign test failed for {', '.join(failing)}")
    return "FAIL" if failing else "PASS"


def run_cli(argv: list[str]) -> int:
    """Entry point behind the ``msport`` console script.

    Exit codes: 0 success (UNRESOLVED warns unless strict), 1 runtime failure
    or FAIL verdict, 2 malformed configuration.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="msport",
        description="Multiscale portfolio toolkit: solvers, expansions, and "
                    "Monte Carlo verification studies.",
    )
    parser.add_argument(
        "command",
        choices=["solve-merton", "expand", "simulate", "residual-study",
                 "optimality-study", "invariants", "all"],
    )
    parser.add_argument("--config", required=True,
                        help="path to a run configuration, or 'default'")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--paths", type=int, default=None,
                        help="override the configured path count")
    parser.add_argument("--strict", action="store_true",
                        help="treat UNRESOLVED verdicts as failures")
    parser.add_argument("--terminal-csv", default=None,
                        help="simulate: stream per-path terminal records to this file")
    parser.add_argument("--log-level", default="INFO",
                        choices=["DEBUG", "INFO", "WARNING", "ERROR"],
                        help="lowest level of the package's log records to emit")
    args = parser.parse_args(argv)
    package_logger = logging.getLogger(__package__)
    saved_level = package_logger.level
    package_logger.setLevel(args.log_level)
    try:
        return _run_command(args)
    finally:
        package_logger.setLevel(saved_level)


def _run_command(args) -> int:
    """The parsed command line, run; returns run_cli's exit code."""
    try:
        cfg = load_run_config(args.config)
        if args.workers is not None:
            cfg = replace(cfg, workers=args.workers)
        if args.paths is not None:
            cfg = replace(cfg, n_paths=args.paths)
        _check_sim(cfg)
        if args.command in ("residual-study", "all") and (error := _residual_grid_error(cfg)):
            raise ConfigError(error)
    except ConfigError as exc:
        print(f"config error: {exc}")
        return 2
    strict = args.strict or cfg.strict

    try:
        outdir = _resolve_outdir(cfg, args.out)
        report = ExperimentReport(scenario=cfg.scenario, seed=cfg.seed)
        if args.command == "solve-merton":
            _cmd_solve_merton(cfg, outdir)
        elif args.command == "expand":
            _cmd_expand(cfg, outdir)
        elif args.command == "simulate":
            verdict = _cmd_simulate(cfg, outdir, args.terminal_csv)
            if verdict == "FAIL":
                return 1
        if args.command in ("residual-study", "all"):
            report.residual = residual_order_study(cfg)
            write_residual_csv(outdir / "residual_study.csv", report.residual)
            print(f"residual-order study: {report.residual.verdict} "
                  f"(slope {report.residual.slope:.3f})")
        if args.command in ("optimality-study", "all"):
            report.optimality = optimality_study(cfg)
            write_optimality_csv(outdir / "optimality_study.csv", report.optimality)
            print(f"optimality study: {report.optimality.verdict}")
        if args.command in ("invariants", "all"):
            report.invariants = invariant_suite(cfg)
            write_invariants_csv(outdir / "invariants.csv", report.invariants)
            for row in report.invariants:
                print(f"invariant {row['name']}: {row['verdict']} "
                      f"(measured {row['measured']:.3e}, tol {row['tolerance']:.3e})")
        if args.command in ("residual-study", "optimality-study", "invariants", "all"):
            write_summary_json(outdir / "summary.json", report)
        if report.has_failure():
            return 1
        if report.has_unresolved():
            if strict:
                print("UNRESOLVED verdict treated as failure (strict mode)")
                return 1
            print("warning: UNRESOLVED verdict; increase n_paths to resolve")
        return 0
    except (ValueError, RuntimeError) as exc:
        print(f"runtime failure: {exc}")
        return 1
