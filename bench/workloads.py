"""The benchmark's three workloads: inputs, the timed study call, and checks.

Every workload runs on the package's built-in reference scenario (OU fast
factor with vol 0.7, Sharpe ratio 0.5 + 0.25 z + 0.35 tanh y, sigma 0.5,
rho1 = -0.5, rho2 = -0.4, rho12 = 0.1, horizon 1, x0 = 1, z0 = 0).  Only the
Monte Carlo seed comes from the command line.

An operation is one strategy's estimate at one grid point.  ``checks`` returns
one list of failure messages per operation; a study-level failure (a verdict,
the slope) is charged to every operation of the study.  The checks compare
against independent computations and against properties the method must
have, never against stored output.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

import reference
from multiscale_portfolio import experiments, simulate
from multiscale_portfolio.merton import solve_merton

CV_MEAN_SES = 4.0


def pair_means(values: np.ndarray, chunk_size: int) -> np.ndarray:
    """Means of antithetic partners, which sit at (j, j + n/2) within each chunk."""
    out = []
    for a in range(0, values.size, chunk_size):
        block = values[a:a + chunk_size]
        half = block.size // 2
        out.append(0.5 * (block[:half] + block[half:]))
    return np.concatenate(out)


def cv_mean_failures(ens, chunk_size: int) -> list[str]:
    """The control variate is a sum of martingale increments: its mean is zero."""
    pairs = pair_means(ens.control_variate, chunk_size)
    mean = float(np.mean(pairs))
    se = float(np.std(pairs, ddof=1) / math.sqrt(pairs.size))
    if abs(mean) <= CV_MEAN_SES * se:
        return []
    return [f"CV mean {mean:.3e} outside {CV_MEAN_SES:g} SE ({se:.3e}) of zero"]


def aborted_failures(ens) -> list[str]:
    n = int(np.count_nonzero(~np.isfinite(ens.x_terminal)))
    return [f"{n} aborted path(s) under {ens.strategy_name}"] if n else []


def cv_variance_ratio(ens, chunk_size: int) -> float:
    """Variance of the raw estimator over that of the CV estimator."""
    raw = pair_means(ens.utility_terminal, chunk_size)
    with_cv = pair_means(ens.utility_terminal - ens.control_variate, chunk_size)
    return float(np.var(raw, ddof=1) / np.var(with_cv, ddof=1))


def _rel(a: float, b: float) -> float:
    return abs(a / b - 1.0)


def _reference_config(**changes):
    return replace(experiments.load_run_config("default"), **changes)


def round_config(wl, cfg, k: int):
    """Inputs of round ``k`` of a run.

    A workload whose decisive SE is scattered by the Monte Carlo seed more
    than its timing is by the host (``reseed_rounds``) draws a new seed for
    every round after the first, derived from the run's seed, so that the SE
    factor of ``time_to_target_se_s`` pools every path the run simulates.
    The others repeat the run's inputs, and every round must reproduce the
    first round's output.
    """
    if k == 0 or not wl.reseed_rounds:
        return cfg
    return replace(cfg, seed=int(np.random.SeedSequence([cfg.seed, k]).generate_state(1)[0]))


def setup(cfg):
    """Model, cached factor averages and bundle for the first grid point."""
    model = experiments.build_model(cfg, cfg.epsilons[0], cfg.deltas[0])
    return experiments.build_bundle(cfg, model)


def reference_rms_sharpe(cfg) -> float:
    if cfg.sharpe_name != "affine_z_tanh_y" or cfg.fast_mean != 0.0:
        raise ValueError("the reference Sharpe average assumes affine_z_tanh_y around 0")
    return reference.rms_sharpe_affine_tanh(cfg.sharpe_params, cfg.fast_vol, cfg.z0)


class ResidualPower:
    """Residual-order study: power utility, full grid, CV, one worker."""

    name = "residual_power"
    n_paths = 8192
    reseed_rounds = False
    se_target = 1e-4

    def config(self, seed, n_paths):
        return _reference_config(n_paths=n_paths, seed=seed, workers=1)

    def n_ops(self, cfg):
        return len(cfg.epsilons)

    def study(self, cfg):
        return experiments.residual_order_study(cfg)

    def fingerprint(self, out):
        return repr((out.rows, out.slope, out.slope_se, out.verdict))

    def decisive_se(self, out):
        return out.rows[-1]["se"]

    def decisive_ensemble(self, calls):
        return calls[-1][0]

    def checks(self, cfg, out, calls):
        common = []
        if out.verdict != "PASS":
            common.append(f"verdict {out.verdict}")
        lo, hi = 0.7, 1.4
        if not lo <= out.slope <= hi:
            common.append(f"slope {out.slope:.3f} outside [{lo}, {hi}]")
        unresolved = [r["epsilon"] for r in out.rows if not r["resolved"]]
        if unresolved:
            common.append(f"unresolved at eps {unresolved}")
        lam = reference_rms_sharpe(cfg)
        v0_ref = reference.power_merton_value(cfg.gamma, lam, cfg.horizon, cfg.x0)
        failures = []
        for row, (ens,) in zip(out.rows, calls):
            mine = list(common)
            if _rel(row["v0"], v0_ref) > 1e-10:
                mine.append(f"v0 {row['v0']!r} vs closed form {v0_ref!r}")
            mine += aborted_failures(ens) + cv_mean_failures(ens, cfg.chunk_size)
            failures.append(mine)
        return failures


class OptimalityPowerW2:
    """Optimality study: three strategies on common numbers, two workers."""

    name = "optimality_power_w2"
    n_paths = 8192
    reseed_rounds = False
    se_target = 5e-5
    grid = (0.4, 0.2, 0.1)

    def config(self, seed, n_paths):
        return _reference_config(n_paths=n_paths, chunk_size=n_paths // 2, workers=2,
                                 epsilons=self.grid, deltas=self.grid, seed=seed)

    def n_ops(self, cfg):
        return 3 * len(cfg.epsilons)

    def study(self, cfg):
        return experiments.optimality_study(cfg)

    def fingerprint(self, out):
        return repr((out.rows, out.verdict))

    def _perturbed_finest(self, out):
        return [r for r in out.rows if r["challenger"].startswith("perturbed")][-1]

    def decisive_se(self, out):
        return self._perturbed_finest(out)["ell_se"]

    def decisive_ensemble(self, calls):
        return calls[-1][1]

    def checks(self, cfg, out, calls):
        common = [] if out.verdict == "PASS" else [f"verdict {out.verdict}"]
        # the coarsest point alone, on one worker, must give the same bytes
        single = experiments.optimality_study(
            replace(cfg, workers=1, epsilons=cfg.epsilons[:1], deltas=cfg.deltas[:1]))
        failures = []
        for i, row in enumerate(out.rows):
            mine = list(common)
            name = row["challenger"]
            if name == "zeroth_order" and row["ell_hat"] != 0.0:
                mine.append(f"zeroth-order gap {row['ell_hat']!r} is not exactly 0")
            if name.startswith("scaled") and not row["ell_hat"] < -2.0 * row["ell_se"]:
                mine.append(f"halved strategy gap {row['ell_hat']:.3e} not below "
                            f"-2 SE ({row['ell_se']:.3e}) at eps {row['epsilon']}")
            if i < len(single.rows) and repr(row) != repr(single.rows[i]):
                mine.append(f"{name} at eps {row['epsilon']} differs between 1 and 2 workers")
            mine += aborted_failures(calls[i // 3][i % 3])
            failures.append(mine)
        return failures


class MixtureValue:
    """Zeroth-order value and Q for the power mixture at one coarse point."""

    name = "mixture_value"
    n_paths = 384
    se_target = 1e-3
    reseed_rounds = True

    def __init__(self):
        self._references = {}

    def config(self, seed, n_paths):
        return _reference_config(utility_kind="power_mixture", weights=(1.0, 1.0),
                                 exponents=(0.5, 0.25), epsilons=(0.4,), deltas=(0.4,),
                                 n_paths=n_paths, seed=seed, workers=1)

    def n_ops(self, cfg):
        return 1

    def study(self, cfg):
        model = experiments.build_model(cfg, cfg.epsilons[0], cfg.deltas[0])
        bundle = experiments.build_bundle(cfg, model)
        est = simulate.estimate_value(model, simulate.ZerothOrder(bundle), bundle,
                                      experiments.sim_config_for(cfg, model))
        return {
            "v_hat": est.mean,
            "se": est.se,
            "v0": float(bundle.leading_order(0.0, cfg.x0, cfg.z0)),
            "q": float(bundle.first_order_value(0.0, cfg.x0, cfg.z0)),
        }

    def fingerprint(self, out):
        return repr(out)

    def decisive_se(self, out):
        return out["se"]

    def decisive_ensemble(self, calls):
        return calls[-1][0]

    def _reference_values(self, cfg):
        """Dual-quadrature and finite-difference values; the seed does not enter."""
        key = replace(cfg, seed=0, n_paths=0)
        if key not in self._references:
            lam = reference_rms_sharpe(cfg)
            v0_ref = reference.MixtureDual(cfg.weights, cfg.exponents).value(
                lam, cfg.horizon, cfg.x0)
            utility = experiments.build_utility(cfg)
            v0_fd = float(solve_merton(utility, lam, cfg.horizon, method="finite_difference")
                          .value(0.0, cfg.x0))
            self._references[key] = v0_ref, v0_fd
        return self._references[key]

    def checks(self, cfg, out, calls):
        (ens,) = calls[0]
        v0_ref, v0_fd = self._reference_values(cfg)
        mine = []
        if _rel(out["v0"], v0_ref) > 1e-8:
            mine.append(f"v0 {out['v0']!r} vs dual quadrature {v0_ref!r}")
        if _rel(v0_fd, v0_ref) > 1e-3:
            mine.append(f"finite-difference value {v0_fd!r} vs dual quadrature {v0_ref!r}")
        if not math.isfinite(out["q"]):
            mine.append(f"Q is {out['q']!r}")
        mine += aborted_failures(ens) + cv_mean_failures(ens, cfg.chunk_size)
        return [mine]


WORKLOADS = {w.name: w for w in (ResidualPower(), OptimalityPowerW2(), MixtureValue())}
