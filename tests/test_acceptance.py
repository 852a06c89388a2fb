"""Acceptance suite: one test per shipped criterion, at full stated scale.

Each test prints a single pass/fail line with the measured quantity; the
heavyweight Monte Carlo studies run at their configured desk-scale path
counts, so this module dominates the suite's runtime (run it with
``pytest tests/test_acceptance.py -v``).
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from multiscale_portfolio.experiments import (
    build_bundle,
    build_challengers,
    build_model,
    invariant_suite,
    load_run_config,
    optimality_study,
    residual_order_study,
    sim_config_for,
    write_residual_csv,
)
from multiscale_portfolio.factors import (
    MarketModel,
    OrnsteinUhlenbeckFactor,
    SHARPE_REGISTRY,
    SIGMA_REGISTRY,
    averaged_sharpe,
    fast_coupling,
)
from multiscale_portfolio.merton import solve_merton
from multiscale_portfolio.simulate import (
    Scaled,
    ZerothOrder,
    paired_mean_se,
    run_ensembles,
    summarize,
    _pair_statistics,
)
from multiscale_portfolio.utility import make_utility


def report(name, ok, detail):
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


@pytest.fixture(scope="module")
def reference_cfg():
    return load_run_config("default")


@pytest.fixture(scope="module")
def residual_runs(reference_cfg):
    """Criterion-5 study twice, at worker counts 1 and 2, with timings."""
    t0 = time.monotonic()
    first = residual_order_study(replace(reference_cfg, workers=1))
    t_first = time.monotonic() - t0
    t0 = time.monotonic()
    second = residual_order_study(replace(reference_cfg, workers=2))
    t_second = time.monotonic() - t0
    return first, t_first, second, t_second


def test_criterion_1_merton_closed_form_oracle():
    t0 = time.monotonic()
    xs = np.logspace(np.log10(0.1), np.log10(10.0), 25)
    worst = 0.0
    for gamma in (0.25, 0.5, 0.75):
        u = make_utility("power", gamma=gamma)
        for lam in (0.2, 0.5, 1.0):
            dual = solve_merton(u, lam, 1.0, method="dual_quadrature")
            closed = solve_merton(u, lam, 1.0, method="closed_form_power")
            for tau in (0.1, 0.5, 1.0):
                t = 1.0 - tau
                rel = np.max(np.abs(dual.value(t, xs) / closed.value(t, xs) - 1.0))
                worst = max(worst, float(rel))
    elapsed = time.monotonic() - t0
    report(
        "criterion 1 (dual vs closed-form Merton)",
        worst <= 1e-6 and elapsed <= 10.0,
        f"max rel err {worst:.3e} <= 1e-6, {elapsed:.1f}s <= 10s",
    )


def test_criterion_2_general_utility_cross_solver():
    t0 = time.monotonic()
    u = make_utility("power_mixture", weights=(1.0, 1.0), exponents=(0.5, 0.25))
    fd = solve_merton(u, 0.5, 1.0, method="finite_difference")
    dual = solve_merton(u, 0.5, 1.0, method="dual_quadrature")
    xs = np.logspace(np.log10(0.1), np.log10(10.0), 81)
    worst = 0.0
    for t in (0.0, 0.25, 0.5, 0.75, 0.95):
        rel = np.max(np.abs(fd.value(t, xs) / dual.value(t, xs) - 1.0))
        worst = max(worst, float(rel))
    elapsed = time.monotonic() - t0
    report(
        "criterion 2 (mixture finite-difference cross-solver)",
        worst <= 1e-3 and elapsed <= 60.0,
        f"max rel err {worst:.3e} <= 1e-3, {elapsed:.1f}s <= 60s",
    )


def test_criterion_3_poisson_averaging_oracle():
    t0 = time.monotonic()
    worst_b, worst_rms = 0.0, 0.0
    for nu in (0.3, 0.5, 1.0):
        model = MarketModel(
            sharpe=SHARPE_REGISTRY["prop_y"]([1.0]),
            sigma=SIGMA_REGISTRY["const"]([0.5]),
            fast=OrnsteinUhlenbeckFactor(mean=0.0, vol=nu),
            epsilon=0.1, delta=0.1,
        )
        exact = -math.sqrt(2.0) * nu**3
        worst_b = max(worst_b, abs(fast_coupling(model, 0.0) / exact - 1.0))
        rms = averaged_sharpe(model, z_grid=np.linspace(-1.0, 1.0, 201)).sharpe_rms(0.0)
        worst_rms = max(worst_rms, abs(rms / nu - 1.0))
    elapsed = time.monotonic() - t0
    report(
        "criterion 3 (corrector coupling and averaging oracle)",
        worst_b <= 1e-8 and worst_rms <= 1e-10 and elapsed <= 1.0,
        f"coupling rel {worst_b:.3e} <= 1e-8, rms rel {worst_rms:.3e} <= 1e-10, "
        f"{elapsed:.2f}s <= 1s",
    )


def test_criterion_4_vega_gamma_identity():
    t0 = time.monotonic()
    from multiscale_portfolio.asymptotics import ExpansionBundle

    xs = np.logspace(np.log10(0.1), np.log10(10.0), 25)
    power = make_utility("power", gamma=0.5)
    mixture = make_utility("power_mixture", weights=(1.0, 1.0), exponents=(0.5, 0.25))
    model = MarketModel(
        sharpe=SHARPE_REGISTRY["affine_z"]([0.0, 1.0]),  # rms(z) = z
        sigma=SIGMA_REGISTRY["const"]([0.5]),
        fast=OrnsteinUhlenbeckFactor(mean=0.0, vol=0.5),
        epsilon=0.1, delta=0.1,
    )
    averages = averaged_sharpe(model, z_grid=np.linspace(0.1, 1.1, 201))
    worst = {"power": 0.0, "mixture": 0.0}
    for name, u in (("power", power), ("mixture", mixture)):
        bundle = ExpansionBundle(model, averages, u, 1.0)
        for z in (0.2, 0.5, 1.0):
            for tau in (0.1, 0.5, 1.0):
                t = 1.0 - tau
                for x in xs:
                    worst[name] = max(worst[name],
                                      bundle.vega_gamma_check(t, float(x), z))
    elapsed = time.monotonic() - t0
    report(
        "criterion 4 (Vega-Gamma identity)",
        worst["power"] <= 1e-6 and worst["mixture"] <= 1e-3 and elapsed <= 30.0,
        f"power {worst['power']:.3e} <= 1e-6, mixture {worst['mixture']:.3e} <= 1e-3, "
        f"{elapsed:.1f}s <= 30s",
    )


def test_criterion_5_residual_order(residual_runs):
    study, elapsed, _, _ = residual_runs
    resolved = all(r["resolved"] for r in study.rows)
    in_band = 0.7 <= study.slope <= 1.4
    detail = (
        f"slope {study.slope:.3f} in [0.7, 1.4], "
        f"min |residual|/SE "
        f"{min(abs(r['residual']) / r['se'] for r in study.rows):.1f} > 2, "
        f"{elapsed:.0f}s <= 900s"
    )
    report("criterion 5 (first-order residual scaling)",
           resolved and in_band and elapsed <= 900.0, detail)


def test_criterion_6_asymptotic_optimality(reference_cfg):
    t0 = time.monotonic()
    # (a) perturbed challenger on the reference scenario, full grid
    cfg = replace(reference_cfg, n_paths=100000)
    study = optimality_study(cfg)
    pert_rows = [r for r in study.rows if r["challenger"].startswith("perturbed")]
    assert len(pert_rows) == len(cfg.epsilons)
    a_ok = all(r["ell_hat"] <= 2.0 * r["ell_se"] for r in pert_rows)

    # (b) halved strategy in the constant-coefficient model, finest grid cell
    lam, sigma, gamma, x0, horizon, factor = 0.5, 0.5, 0.5, 1.0, 1.0, 0.5
    const_cfg = replace(
        reference_cfg,
        sharpe_name="const", sharpe_params=(lam,),
        slow_drift_name="zero", slow_drift_params=(),
        slow_vol_name="const", slow_vol_params=(0.0,),
        epsilons=(0.05,), deltas=(0.05,),
        n_paths=100000,
    )
    model = build_model(const_cfg, 0.05, 0.05)
    bundle = build_bundle(const_cfg, model)
    sim_cfg = sim_config_for(const_cfg, model)
    base = ZerothOrder(bundle)
    ensembles = run_ensembles(model, [base, Scaled(base, factor)], bundle, sim_cfg)
    # closed-form value of a constant fraction of the optimal position under
    # geometric dynamics: U(x0) exp((f - f^2/2) gamma lam^2 T / (1 - gamma))
    closed = x0**gamma / gamma * math.exp(
        (factor - 0.5 * factor**2) * gamma * lam**2 * horizon / (1.0 - gamma)
    )
    raw_mean, raw_se, _ = paired_mean_se(ensembles[1].utility_terminal, sim_cfg.chunk_size)
    b_value_ok = abs(raw_mean - closed) <= 3.0 * raw_se
    diff = _pair_statistics(
        (ensembles[1].utility_terminal - ensembles[1].control_variate)
        - (ensembles[0].utility_terminal - ensembles[0].control_variate),
        sim_cfg.chunk_size,
    )
    norm = 2.0 * math.sqrt(0.05)
    ell = float(np.mean(diff)) / norm
    ell_se = float(np.std(diff, ddof=1) / math.sqrt(diff.size)) / norm
    b_gap_ok = ell < 0.0 and abs(ell) > 2.0 * ell_se
    elapsed = time.monotonic() - t0
    report(
        "criterion 6 (asymptotic optimality)",
        a_ok and b_value_ok and b_gap_ok and elapsed <= 900.0,
        f"(a) max gap/SE {max(r['ell_hat'] / max(r['ell_se'], 1e-300) for r in pert_rows):.2f}"
        f" <= 2; (b) |V - closed| = {abs(raw_mean - closed):.2e} <= {3 * raw_se:.2e}, "
        f"gap {ell:.4f} < 0 resolved ({abs(ell) / max(ell_se, 1e-300):.0f} SE); "
        f"{elapsed:.0f}s <= 900s",
    )


def test_criterion_7_drag_sign_tests(reference_cfg):
    t0 = time.monotonic()
    cfg = replace(reference_cfg, n_paths=10000, epsilons=(0.1,), deltas=(0.1,))
    model = build_model(cfg, 0.1, 0.1)
    bundle = build_bundle(cfg, model)
    sim_cfg = sim_config_for(cfg, model)
    base, perturbed, scaled = build_challengers(cfg, bundle)
    ens_p, ens_s = run_ensembles(model, [perturbed, scaled], bundle, sim_cfg, collect_drag=True)
    verdict_p = summarize(ens_p).diagnostics
    verdict_s = summarize(ens_s).diagnostics
    elapsed = time.monotonic() - t0
    report(
        "criterion 7 (pathwise drag sign tests)",
        verdict_p["drag_sign_ok"] and verdict_s["drag_sign_ok"]
        and verdict_p["drag_max_increment"] <= 0.0 and verdict_s["drag_max_increment"] <= 0.0
        and elapsed <= 60.0,
        f"bump max increment {verdict_p['drag_max_increment']:.3e} <= 0, "
        f"mismatch max increment {verdict_s['drag_max_increment']:.3e} <= 0 on "
        f"{ens_p.n_paths} paths, {elapsed:.0f}s <= 60s",
    )


def test_criterion_8_worker_count_determinism(residual_runs, tmp_path):
    study1, t1, study2, t2 = residual_runs
    p1, p2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    write_residual_csv(p1, study1)
    write_residual_csv(p2, study2)
    identical = p1.read_bytes() == p2.read_bytes()
    report(
        "criterion 8 (byte-identical reports across worker counts)",
        identical and (t1 + t2) <= 1800.0,
        f"CSV bytes identical: {identical}, total {t1 + t2:.0f}s <= 1800s",
    )


def test_criterion_9_invariant_suite(reference_cfg):
    t0 = time.monotonic()
    rows = invariant_suite(reference_cfg)
    failing = [r["name"] for r in rows if r["verdict"] != "PASS"]
    elapsed = time.monotonic() - t0
    report(
        "criterion 9 (invariant suite)",
        not failing and elapsed <= 120.0,
        f"{len(rows)} invariants, failing: {failing or 'none'}, {elapsed:.0f}s <= 120s",
    )
