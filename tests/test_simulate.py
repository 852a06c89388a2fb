"""Monte Carlo engine: discretization, determinism, estimators, sign tests."""

import concurrent.futures
import functools
import logging
import math
import multiprocessing
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multiscale_portfolio import factors, simulate
from multiscale_portfolio.asymptotics import ExpansionBundle
from multiscale_portfolio.factors import (
    MarketModel,
    OrnsteinUhlenbeckFactor,
    SHARPE_REGISTRY,
    SIGMA_REGISTRY,
    SLOW_DRIFT_REGISTRY,
    SLOW_VOL_REGISTRY,
    averaged_sharpe,
    z_cache_grid,
)
from multiscale_portfolio.simulate import (
    AllCash,
    Perturbed,
    Scaled,
    SimConfig,
    Strategy,
    ZerothOrder,
    default_fast_bump,
    default_slow_bump,
    dt_for,
    engine_processes,
    estimate_value,
    paired_mean_se,
    run_ensembles,
    summarize,
    wealth_step,
    write_terminal_records,
)
from multiscale_portfolio.utility import make_utility

POWER_HALF = make_utility("power", gamma=0.5)
MIXTURE = make_utility("power_mixture", weights=(1.0, 1.0), exponents=(0.5, 0.25))


def constant_model(lam=0.5, sigma=0.5, eps=0.1, delta=0.1):
    return MarketModel(
        sharpe=SHARPE_REGISTRY["const"]([lam]),
        sigma=SIGMA_REGISTRY["const"]([sigma]),
        fast=OrnsteinUhlenbeckFactor(mean=0.0, vol=0.5),
        rho1=-0.4, rho2=-0.3, rho12=0.1,
        epsilon=eps, delta=delta,
    )


def bundle_for(model, utility=POWER_HALF, halfwidth=0.5):
    averages = averaged_sharpe(model, z_grid=z_cache_grid(0.0, halfwidth))
    return ExpansionBundle(model, averages, utility, 1.0)


def cfg_for(model, n_paths=8192, seed=3, workers=1, dt=None, chunk_size=2048):
    return SimConfig(
        n_paths=n_paths, horizon=1.0,
        dt=min(model.epsilon, model.delta) / 20 if dt is None else dt,
        x0=1.0, seed=seed, chunk_size=chunk_size, workers=workers,
    )


def test_wealth_step_is_the_log_step_and_keeps_wealth_positive():
    x = np.array([1.0, 2.0, 0.5])
    pi = np.array([0.5, 1.0, 60.0])
    dw = np.array([0.02, -0.01, -1.0])
    x_d, growth, var = wealth_step(x, pi, mu=0.1, sigma=0.5, dt=0.01, dw=dw)
    f = pi / x
    exponent = f * 0.5 * dw - 0.5 * (f * 0.5) ** 2 * 0.01
    assert exponent[2] < -40.0  # where x + x expm1(exponent) rounds to 0
    np.testing.assert_allclose(x_d * growth, x * np.exp(f * 0.1 * 0.01) * np.exp(exponent),
                               rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(var, (f * 0.5) ** 2 * 0.01, rtol=1e-15)
    assert np.all(x_d * growth > 0.0)


def test_all_cash_is_exact():
    model = constant_model()
    b = bundle_for(model)
    est = estimate_value(model, AllCash(), b, cfg_for(model, n_paths=512))
    assert est.mean == POWER_HALF.u(1.0)
    assert est.se == 0.0
    assert est.floor_hit_rate == 0.0


def test_constant_model_matches_merton_value():
    model = constant_model()
    b = bundle_for(model)
    cfg = cfg_for(model, n_paths=20000)
    est = estimate_value(model, ZerothOrder(b), b, cfg)
    exact = 2.0 * math.exp(0.5 * 0.25)  # M(0, 1) at rms = 0.5
    assert abs(est.mean - exact) <= 3.0 * est.se


def test_control_variate_reduces_variance_without_bias():
    model = constant_model()
    b = bundle_for(model)
    cfg = cfg_for(model)
    ens = run_ensembles(model, [ZerothOrder(b)], b, cfg)[0]
    cv = summarize(ens)
    raw_mean, raw_se, _ = paired_mean_se(ens.utility_terminal, ens.chunk_size)
    assert cv.se < 0.25 * raw_se
    assert abs(cv.mean - raw_mean) <= 3.0 * math.sqrt(raw_se**2 + cv.se**2)


def test_determinism_across_worker_counts():
    model = constant_model()
    b = bundle_for(model)
    runs = []
    for workers in (1, 3):
        ens = run_ensembles(model, [ZerothOrder(b)], b, cfg_for(model, workers=workers))[0]
        runs.append((ens.x_terminal.copy(), ens.control_variate.copy()))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert np.array_equal(runs[0][1], runs[1][1])


def test_seed_changes_output():
    model = constant_model()
    b = bundle_for(model)
    a = run_ensembles(model, [ZerothOrder(b)], b, cfg_for(model, seed=1))[0]
    c = run_ensembles(model, [ZerothOrder(b)], b, cfg_for(model, seed=2))[0]
    assert not np.array_equal(a.x_terminal, c.x_terminal)


def test_sqrt_n_scaling_of_standard_error():
    model = constant_model()
    b = bundle_for(model)
    se_small = estimate_value(model, ZerothOrder(b), b,
                              cfg_for(model, n_paths=4096)).diagnostics["se_raw"]
    se_big = estimate_value(model, ZerothOrder(b), b,
                            cfg_for(model, n_paths=16384)).diagnostics["se_raw"]
    # quadrupling N halves the SE, within 20%
    assert se_big / se_small == pytest.approx(0.5, rel=0.2)


def test_weak_convergence_in_step_size():
    model = constant_model()
    b = bundle_for(model)
    coarse = estimate_value(model, ZerothOrder(b), b,
                            cfg_for(model, n_paths=16384, dt=0.005))
    fine = estimate_value(model, ZerothOrder(b), b,
                          cfg_for(model, n_paths=16384, dt=0.0025))
    assert abs(coarse.mean - fine.mean) <= 2.0 * (coarse.se + fine.se)


def test_step_rule_enforced():
    model = constant_model(eps=0.1, delta=0.1)
    b = bundle_for(model)
    bad = cfg_for(model, dt=0.02)  # needs <= 0.1/20 = 0.005
    with pytest.raises(ValueError):
        estimate_value(model, AllCash(), b, bad)


def test_step_divisor_must_be_positive():
    with pytest.raises(ValueError, match="positive"):
        dt_for(constant_model(), 0)


def test_antithetic_validation():
    with pytest.raises(ValueError):
        SimConfig(n_paths=7, horizon=1.0, dt=0.005)
    with pytest.raises(ValueError):
        SimConfig(n_paths=8, horizon=1.0, dt=0.005, chunk_size=3)


@pytest.mark.parametrize("utility", [POWER_HALF, MIXTURE], ids=["power", "mixture"])
def test_leveraged_paths_keep_positive_wealth_and_a_finite_control_variate(utility):
    # four times the zeroth-order position: the least terminal wealth is about
    # 2e-9 (power) and 3e-6 (mixture)
    model = constant_model(eps=0.4, delta=0.4)
    b = bundle_for(model, utility)
    cfg = cfg_for(model, n_paths=2048)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the packs and the CV see no wealth <= 0
        ens = run_ensembles(model, [Scaled(ZerothOrder(b), 4.0)], b, cfg,
                            collect_drag=True)[0]
    assert np.all(np.isfinite(ens.x_terminal)) and np.all(ens.x_terminal > 0.0)
    assert not np.any(ens.floor_hit)
    assert np.all(np.isfinite(ens.control_variate)) and np.any(ens.control_variate != 0.0)
    with pytest.raises(ValueError, match="initial wealth must be positive"):
        replace(cfg, x0=0.0)


class AbortsOnePath(Strategy):
    """Half of wealth in the asset, but a NaN position on one path at the first step."""

    name = "aborts_one_path"

    def __init__(self, path):
        self.path = path

    def position(self, step):
        pi = 0.5 * np.asarray(step.x, dtype=float)
        if step.t == 0.0:
            pi[self.path] = np.nan
        return pi


def test_an_aborted_path_drops_its_antithetic_pair(caplog):
    check_an_aborted_path_drops_its_antithetic_pair(caplog, POWER_HALF)


def test_an_aborted_path_in_a_mixture_run_drops_its_antithetic_pair(caplog):
    # the step state reads the aborted path's pack at a stand-in wealth, so no
    # NaN reaches the dual
    check_an_aborted_path_drops_its_antithetic_pair(caplog, MIXTURE)


def check_an_aborted_path_drops_its_antithetic_pair(caplog, utility):
    model = constant_model(eps=0.4, delta=0.4)
    b = bundle_for(model, utility)
    cfg = cfg_for(model, n_paths=64, chunk_size=64)
    # one chunk: path 37 is the antithetic partner of path 5, in pair 5
    with caplog.at_level(logging.WARNING, logger=simulate.__name__):
        base, aborted = run_ensembles(model, [HalfWealth(), AbortsOnePath(37)], b, cfg)
    assert [r.getMessage() for r in caplog.records] == [
        "1 path(s) aborted with non-finite wealth under aborts_one_path; "
        "they are excluded from estimates and counted in the report"]
    assert np.flatnonzero(~np.isfinite(aborted.x_terminal)).tolist() == [37]

    def surviving_pairs(values):
        pairs = 0.5 * (values[:32] + values[32:])
        assert np.flatnonzero(~np.isfinite(pairs)).tolist() == [5]
        return np.delete(pairs, 5)

    est = summarize(aborted)
    pairs = surviving_pairs(aborted.utility_terminal - aborted.control_variate)
    assert est.diagnostics["aborted_paths"] == 1
    assert est.n_effective == cfg.n_paths // 2 - 1
    assert est.mean == np.mean(pairs)
    assert est.se == np.std(pairs, ddof=1) / math.sqrt(pairs.size)

    # the optimality study's gap estimator drops the same pair
    diff = (aborted.utility_terminal - aborted.control_variate) \
        - (base.utility_terminal - base.control_variate)
    gap, gap_se, n_gap = paired_mean_se(diff, cfg.chunk_size)
    gaps = surviving_pairs(diff)
    assert n_gap == gaps.size == cfg.n_paths // 2 - 1
    assert gap == np.mean(gaps) and gap_se == np.std(gaps, ddof=1) / math.sqrt(gaps.size)


def test_a_non_finite_control_variate_counts_as_an_aborted_path():
    model = constant_model(eps=0.4, delta=0.4)
    b = bundle_for(model)
    cfg = cfg_for(model, n_paths=64, chunk_size=64)
    ens = run_ensembles(model, [HalfWealth()], b, cfg)[0]
    ens.control_variate[37] = np.inf  # finite wealth and utility on path 37
    est = summarize(ens)
    assert est.diagnostics["aborted_paths"] == 1
    assert est.n_effective == cfg.n_paths // 2 - 1
    # the raw SE drops the same pair, so the variance ratio compares like with like
    raw = np.delete(0.5 * (ens.utility_terminal[:32] + ens.utility_terminal[32:]), 5)
    assert est.diagnostics["se_raw"] == np.std(raw, ddof=1) / math.sqrt(raw.size)


@pytest.mark.parametrize("utility, cause", [(POWER_HALF, "wealth"),
                                            (MIXTURE, "utility or control variate")],
                         ids=["power", "mixture"])
def test_sixty_fold_leverage_is_reported_not_dropped(caplog, utility, cause):
    # sixty times the zeroth-order position takes wealth below what the packs
    # can represent: power wealth underflows to NaN, and the mixture keeps
    # wealth near 1e-96 but its CV overflows; every path aborts, and says so
    model = constant_model(eps=0.4, delta=0.4)
    b = bundle_for(model, utility)
    cfg = cfg_for(model, n_paths=64)
    with warnings.catch_warnings(), caplog.at_level(logging.WARNING, logger=simulate.__name__):
        warnings.simplefilter("ignore", RuntimeWarning)  # the overflows on the way there
        ens = run_ensembles(model, [Scaled(ZerothOrder(b), 60.0)], b, cfg)[0]
    assert [r.getMessage() for r in caplog.records] == [
        f"64 path(s) aborted with non-finite {cause} under scaled_60_zeroth_order; "
        "they are excluded from estimates and counted in the report"]
    with pytest.raises(RuntimeError, match="every path aborted"):
        summarize(ens)


def test_correlated_increments_match_target():
    model = constant_model()
    chol = model.correlation_cholesky()
    rng = np.random.default_rng(0)
    eta = rng.standard_normal((3, 200000))
    incs = chol @ eta
    sample = np.corrcoef(incs)
    target = np.array([[1, -0.4, -0.3], [-0.4, 1, 0.1], [-0.3, 0.1, 1]])
    assert np.max(np.abs(sample - target)) <= 3.0 / math.sqrt(200000) * 3


def test_uncorrelated_model_produces_uncorrelated_increments():
    model = constant_model()
    model = MarketModel(
        sharpe=model.sharpe, sigma=model.sigma, fast=model.fast,
        rho1=0.0, rho2=0.0, rho12=0.0, epsilon=0.1, delta=0.1,
    )
    assert np.array_equal(model.correlation_cholesky(), np.eye(3))


def test_fast_factor_matches_stationary_distribution():
    # exact OU stepping keeps Y at its stationary law N(mean, vol^2); started
    # at the mean, Y is stationary to 1e-9 in variance by t = 1 - dt
    class LastY(AllCash):
        def position(self, step):
            self.y = np.array(step.y)
            return super().position(step)

    model = constant_model()
    strat = LastY()
    n = 16384  # independent draws: one chunk of 2n paths, so the last call sees every path
    run_ensembles(model, [strat], bundle_for(model),
                  cfg_for(model, n_paths=2 * n, chunk_size=2 * n))
    mean, vol = model.fast.mean, model.fast.vol
    assert strat.y.shape == (2 * n,)
    y = strat.y[:n]  # the chunk's first half; the second half mirrors it
    assert abs(np.mean(y) - mean) <= 4.0 * vol / math.sqrt(n)
    assert abs(np.std(y, ddof=1) - vol) <= 4.0 * vol / math.sqrt(2.0 * (n - 1))


def perturbed_for(b, scale=0.15):
    return Perturbed(
        ZerothOrder(b),
        default_fast_bump(scale),
        default_slow_bump(scale),
        alpha=0.25, beta=0.25,
    )


def drag_of(model, strat, b, cfg):
    """The drag diagnostics of one strategy's run."""
    ens = run_ensembles(model, [strat], b, cfg, collect_drag=True)[0]
    return ens, summarize(ens).diagnostics


def test_bump_drag_sign_is_exact():
    model = constant_model()
    b = bundle_for(model)
    _, verdict = drag_of(model, perturbed_for(b), b, cfg_for(model, n_paths=2048))
    assert verdict["drag_sign_ok"]
    assert verdict["drag_max_increment"] < 0.0  # nonzero bumps give strictly negative drag
    assert verdict["drag_positive_paths"] == 0


def test_zero_bumps_give_zero_drag():
    model = constant_model()
    b = bundle_for(model)
    zero_bump = lambda step: np.zeros(np.shape(step.x))
    strat = Perturbed(ZerothOrder(b), zero_bump, zero_bump, alpha=0.25, beta=0.25)
    ens, verdict = drag_of(model, strat, b, cfg_for(model, n_paths=512))
    assert verdict["drag_sign_ok"]
    assert verdict["drag_max_increment"] == 0.0
    assert np.all(ens.drag_max_increment == 0.0)


def test_mismatch_drag_scaled_and_all_cash():
    model = constant_model()
    b = bundle_for(model)
    for strat in (Scaled(ZerothOrder(b), 0.5), AllCash()):
        _, verdict = drag_of(model, strat, b, cfg_for(model, n_paths=2048))
        assert verdict["drag_sign_ok"]
        assert verdict["drag_max_increment"] < 0.0


def test_mismatch_drag_vanishes_for_base_strategy():
    model = constant_model()
    b = bundle_for(model)
    _, verdict = drag_of(model, ZerothOrder(b), b, cfg_for(model, n_paths=512))
    assert verdict["drag_sign_ok"]
    assert verdict["drag_max_increment"] == 0.0


def test_every_strategy_carries_one_drag():
    # one drag, (pi - pi0)^2, for every strategy; only a perturbation has bumps
    model = constant_model()
    b = bundle_for(model)
    base = ZerothOrder(b)
    roster = [base, perturbed_for(b), Scaled(base, 0.5), AllCash()]
    cfg = cfg_for(model, n_paths=512)
    with_drag = run_ensembles(model, roster, b, cfg, collect_drag=True)
    for ens in with_drag:
        diag = summarize(ens).diagnostics
        assert diag["drag_sign_ok"] and diag["drag_positive_paths"] == 0
        assert (diag["drag_max_increment"] == 0.0) == (ens.strategy_name == base.name)
        assert bool(diag["bump_moments"]) == ens.strategy_name.startswith("perturbed")
    for ens in run_ensembles(model, roster, b, cfg):
        diag = summarize(ens).diagnostics
        assert "drag_sign_ok" not in diag and diag["bump_moments"] == {}


def test_bumps_run_once_per_strategy_step_with_or_without_the_drag():
    calls = []

    def counted_bump(step):
        calls.append(1)
        return np.minimum(1.0, step.x)

    model = constant_model(eps=0.4, delta=0.4)
    b = bundle_for(model)
    strat = Perturbed(ZerothOrder(b), counted_bump, default_slow_bump(0.1), 0.25, 0.25)
    cfg = cfg_for(model, n_paths=32, chunk_size=32)
    assert cfg.n_steps == 50
    for collect_drag in (False, True):
        calls.clear()
        run_ensembles(model, [strat], b, cfg, collect_drag=collect_drag)
        assert len(calls) == cfg.n_steps


def test_perturbed_bump_sizes_follow_the_step_scales():
    # one roster serves every grid point: eps^alpha and delta^beta are the step's
    b = bundle_for(constant_model())
    strat = perturbed_for(b)
    x, y, z = np.array([0.0, 0.5, 2.0]), np.array([0.3, -0.2, 1.0]), np.zeros(3)
    for eps, delta in ((0.1, 0.1), (0.4, 0.2)):
        step = b.with_scales(eps, delta).state(0.3, x, y, z)
        pi = strat.position(step)
        b10, b01 = step.bumps
        e, d = eps ** 0.25, delta ** 0.25
        assert pi.tobytes() == (step.pi0 + e * b10 + d * b01).tobytes()
        assert pi[0] == 0.0  # nothing at zero wealth


def test_perturbation_powers_must_be_positive():
    model = constant_model()
    b = bundle_for(model)
    with pytest.raises(ValueError):
        Perturbed(ZerothOrder(b), default_fast_bump(0.1), default_slow_bump(0.1),
                  alpha=0.0, beta=0.25)


def test_common_random_numbers_couple_strategies():
    model = constant_model()
    b = bundle_for(model)
    base = ZerothOrder(b)
    ens = run_ensembles(model, [base, Scaled(base, 0.999)], b,
                        cfg_for(model, n_paths=4096))
    gap = ens[1].utility_terminal - ens[0].utility_terminal
    # nearly identical strategies on shared noise give a tiny, tight gap
    assert np.std(gap) < 0.01 * np.std(ens[0].utility_terminal)


def test_terminal_record_stream(tmp_path):
    model = constant_model()
    b = bundle_for(model)
    ens = run_ensembles(model, [AllCash()], b, cfg_for(model, n_paths=8, chunk_size=4))[0]
    out = tmp_path / "terminal.csv"
    with open(out, "w") as fh:
        write_terminal_records(ens, fh)
    lines = out.read_text().splitlines()
    assert lines[0] == "path,x_terminal,utility,floor_hit"
    assert len(lines) == 9
    assert lines[1].startswith("0,1.0,2.0,false")


def test_zero_terminal_wealth_is_reported_as_a_floor_hit(tmp_path):
    # the log step keeps wealth positive; floor_hit, its rate and its CSV
    # column read the terminal wealth, so a path at zero still shows
    model = constant_model()
    b = bundle_for(model)
    cfg = cfg_for(model, n_paths=8, chunk_size=4)
    ens = run_ensembles(model, [AllCash()], b, cfg)[0]
    assert not np.any(ens.floor_hit)
    x = ens.x_terminal.copy()
    x[[2, 5]] = 0.0
    zeroed = replace(ens, x_terminal=x)
    hit = [i in (2, 5) for i in range(8)]
    assert zeroed.floor_hit.tolist() == hit
    assert summarize(zeroed).floor_hit_rate == 0.25
    out = tmp_path / "terminal.csv"
    with open(out, "w") as fh:
        write_terminal_records(zeroed, fh)
    rows = out.read_text().splitlines()[1:]
    assert [row.split(",")[3] for row in rows] == ["true" if h else "false" for h in hit]


def test_summarize_pairs_antithetic_partners():
    model = constant_model()
    b = bundle_for(model)
    cfg = cfg_for(model, n_paths=4096)
    ens = run_ensembles(model, [ZerothOrder(b)], b, cfg)[0]
    est = summarize(ens)
    assert est.n_effective == 2048
    assert est.n_paths == 4096


def test_off_table_path_steps_are_counted():
    model = constant_model(eps=0.4, delta=0.4)
    cfg = cfg_for(model, n_paths=64, chunk_size=32)
    pb = bundle_for(model)
    power = estimate_value(model, ZerothOrder(pb), pb, cfg)
    assert power.diagnostics["surface_exact_points"] == 0
    b = bundle_for(model, MIXTURE)
    on_box = estimate_value(model, ZerothOrder(b), b, cfg)
    assert on_box.diagnostics["surface_exact_points"] == 0
    # wealth 1e-6 lies below the table's x-range: every path-step goes to the dual
    tiny = estimate_value(model, ZerothOrder(b), b, replace(cfg, x0=1e-6))
    assert tiny.diagnostics["surface_exact_points"] == cfg.n_paths * cfg.n_steps


class HalfWealth(Strategy):
    """Half of wealth in the asset; reads no Merton surface."""

    def position(self, step):
        return 0.5 * np.asarray(step.x)


def test_mixture_table_is_built_once_under_workers(monkeypatch):
    from multiscale_portfolio import asymptotics

    builds = multiprocessing.Value("i", 0)  # shared, so a child's build would count
    real = asymptotics.MertonTable

    def counting(*args):
        with builds.get_lock():
            builds.value += 1
        return real(*args)

    monkeypatch.setattr(asymptotics, "MertonTable", counting)
    model = constant_model(eps=0.4, delta=0.4)
    runs = []
    for workers in (1, 4):
        # HalfWealth builds nothing: in-process the CV's first step does, and
        # under a pool the caller does before forking, so no child builds one
        b = bundle_for(model, MIXTURE)
        cfg = cfg_for(model, n_paths=128, chunk_size=16, workers=workers)
        runs.append(run_ensembles(model, [HalfWealth()], b, cfg)[0].control_variate)
    assert builds.value == 2
    assert runs[0].tobytes() == runs[1].tobytes() and np.any(runs[0] != 0.0)


@pytest.mark.parametrize("n_strat", [1, 3])
def test_cv_coefficients_are_computed_once_per_step_per_chunk(monkeypatch, n_strat):
    # the z-only coefficients of the CV gradients are shared by the whole
    # roster: their count follows steps and chunks, never the roster size.
    # The chunks run in forked children, so the count lives in shared memory.
    calls = multiprocessing.Value("i", 0)
    real = ExpansionBundle.q_coefficients

    def counted(self, t, y, z):
        with calls.get_lock():
            calls.value += 1
        return real(self, t, y, z)

    monkeypatch.setattr(ExpansionBundle, "q_coefficients", counted)
    model = constant_model(eps=0.4, delta=0.4)
    b = bundle_for(model)
    base = ZerothOrder(b)
    roster = [base, Scaled(base, 0.5), AllCash()][:n_strat]
    cfg = cfg_for(model, n_paths=64, chunk_size=16, workers=2)
    run_ensembles(model, roster, b, cfg)
    assert calls.value == cfg.n_steps * 4


def test_a_mixture_step_interpolates_the_merton_table_once_per_strategy(monkeypatch):
    # the position, the slow bump, the CV's gradients and the drag share one
    # pack per strategy-step, so the table is read once for each
    from multiscale_portfolio.merton import MertonTable

    calls = []
    real = MertonTable._interpolate

    def counted(self, s, logx):
        calls.append(s.size)
        return real(self, s, logx)

    monkeypatch.setattr(MertonTable, "_interpolate", counted)
    model = constant_model(eps=0.4, delta=0.4)
    b = bundle_for(model, MIXTURE)
    base = ZerothOrder(b)
    roster = [base, Perturbed(base, default_fast_bump(0.1), default_slow_bump(0.1),
                              0.25, 0.25), Scaled(base, 0.5)]
    cfg = cfg_for(model, n_paths=64, chunk_size=32)
    run_ensembles(model, roster, b, cfg, collect_drag=True)
    assert len(calls) == cfg.n_steps * len(roster) * 2  # two chunks
    assert set(calls) == {32}


# -- the chunk pool --------------------------------------------------------------


class ChunkFailure(RuntimeError):
    pass


class Failing(Strategy):
    """Raises inside the chunk, as a strategy bug would."""

    def position(self, step):
        raise ChunkFailure("position failed")


def test_pool_leaves_no_child_process_on_success_or_failure():
    model = constant_model(eps=0.4, delta=0.4)
    b = bundle_for(model)
    cfg = cfg_for(model, n_paths=64, chunk_size=16, workers=2)
    run_ensembles(model, [ZerothOrder(b)], b, cfg)
    assert multiprocessing.active_children() == []
    with pytest.raises(ChunkFailure, match="position failed"):
        run_ensembles(model, [Failing()], b, cfg)
    assert multiprocessing.active_children() == []


class RecordingPool:
    """Stand-in executor: records its size and runs the chunks in-process."""

    sizes = []

    def __init__(self, max_workers, mp_context, initializer, initargs):
        self.sizes.append(max_workers)
        self.job = initargs

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, indices):
        return [simulate._run_chunk(self.job, idx) for idx in indices]


class ForbiddenPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a one-process run started a pool")


@pytest.mark.parametrize("workers, n_paths", [(1, 64), (4, 16)], ids=["one_worker", "one_chunk"])
def test_serial_runs_start_no_process(monkeypatch, workers, n_paths):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ForbiddenPool)
    model = constant_model(eps=0.4, delta=0.4)
    b = bundle_for(model)
    cfg = cfg_for(model, n_paths=n_paths, chunk_size=16, workers=workers)
    assert engine_processes(cfg) == 1
    run_ensembles(model, [ZerothOrder(b)], b, cfg)


@pytest.mark.parametrize("workers, cpus, expected", [
    (2, 8, 2),    # the workers
    (16, 64, 4),  # the chunks
    (16, 3, 3),   # the cores
])
def test_pool_size_is_the_least_of_workers_chunks_and_cores(monkeypatch, workers, cpus, expected):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: cpus)
    model = constant_model(eps=0.4, delta=0.4)
    b = bundle_for(model)
    cfg = cfg_for(model, n_paths=64, chunk_size=16, workers=workers)
    pooled = run_ensembles(model, [ZerothOrder(b)], b, cfg)[0]
    assert RecordingPool.sizes == [expected] and engine_processes(cfg) == expected
    serial = run_ensembles(model, [ZerothOrder(b)], b, replace(cfg, workers=1))[0]
    assert pooled.control_variate.tobytes() == serial.control_variate.tobytes()


def test_chunk_counters_come_back_from_the_children():
    # wealth 1e-6 sends every path-step to the dual, so the off-table count,
    # the drag accumulators and the bump moments are all nonzero
    model = constant_model(eps=0.4, delta=0.4)
    b = bundle_for(model, MIXTURE)
    base = ZerothOrder(b)
    roster = [base, Perturbed(base, default_fast_bump(0.1), default_slow_bump(0.1),
                              0.25, 0.25), Scaled(base, 0.5)]
    runs = []
    for workers in (1, 2):
        cfg = cfg_for(model, n_paths=32, chunk_size=16, workers=workers)
        cfg = replace(cfg, x0=1e-6, horizon=0.25)  # 13 steps: every one is a dual solve
        runs.append(run_ensembles(model, roster, b, cfg, collect_drag=True))
    for one, two in zip(*runs):
        assert one.surface_exact_points == two.surface_exact_points > 0
        assert one.drag_max_increment.tobytes() == two.drag_max_increment.tobytes()
        assert one.bump_moments == two.bump_moments
    assert runs[1][1].bump_moments["fast_bump"]["order_1"] > 0.0



# -- the fast factor's term in the control variate ---------------------------------


def tanh_model(eps=0.1, vol=0.7):
    """The reference scenario's coefficients: a Sharpe ratio that moves with y."""
    return MarketModel(
        sharpe=SHARPE_REGISTRY["affine_z_tanh_y"]([0.5, 0.25, 0.35]),
        sigma=SIGMA_REGISTRY["const"]([0.5]),
        fast=OrnsteinUhlenbeckFactor(mean=0.0, vol=vol),
        slow_drift=SLOW_DRIFT_REGISTRY["mean_revert"]([1.0, 0.0]),
        slow_vol=SLOW_VOL_REGISTRY["const"]([0.75]),
        rho1=-0.5, rho2=-0.4, rho12=0.1, epsilon=eps, delta=eps,
    )


@pytest.mark.parametrize("utility, eps, n_paths", [(POWER_HALF, 0.1, 2048), (MIXTURE, 0.4, 512)],
                         ids=["power", "mixture"])
def test_control_variate_with_the_fast_term_stays_mean_zero(utility, eps, n_paths):
    # the Ito term weighs each strategy's own position, and the optimality study
    # subtracts the CV of the perturbed and the scaled challengers too
    model = tanh_model(eps)
    b = bundle_for(model, utility, halfwidth=1.5)
    base = ZerothOrder(b)
    roster = [base, Perturbed(base, default_fast_bump(0.1), default_slow_bump(0.1),
                              0.25, 0.25), Scaled(base, 0.5)]
    cfg = cfg_for(model, n_paths=n_paths, chunk_size=n_paths // 2, seed=17)
    ensembles = run_ensembles(model, roster, b, cfg)
    for ens in ensembles:
        mean, se, _ = paired_mean_se(ens.control_variate, cfg.chunk_size)
        assert abs(mean) <= 4.0 * se, ens.strategy_name
    forked = run_ensembles(model, roster, b, replace(cfg, workers=2))
    for one, two in zip(ensembles, forked):
        assert one.control_variate.tobytes() == two.control_variate.tobytes()
    # the term is live: with theta_y zeroed the CV changes, and the noise does not
    y_grid, table = b.averages.theta_gradient_table()
    b.averages._theta = (y_grid, np.zeros_like(table))
    without = run_ensembles(model, [base], b, cfg)[0]
    assert np.array_equal(ensembles[0].x_terminal, without.x_terminal)
    assert not np.array_equal(ensembles[0].control_variate, without.control_variate)


@functools.cache
def tanh_bundle():
    """One power bundle on tanh_model(0.2), shared by every example below."""
    return bundle_for(tanh_model(0.2), halfwidth=1.5)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_control_variate_mean_is_within_four_se_of_zero_on_any_seed(seed):
    # every increment has zero conditional mean, under each strategy of the
    # roster.  Mixtures stay out: their pair means are skewed at this size
    b = tanh_bundle()
    base = ZerothOrder(b)
    roster = [base, perturbed_for(b, 0.1), Scaled(base, 0.5)]
    cfg = cfg_for(b.model, n_paths=1024, chunk_size=1024, seed=seed)
    for ens in run_ensembles(b.model, roster, b, cfg):
        mean, se, _ = paired_mean_se(ens.control_variate, ens.chunk_size)
        assert abs(mean) <= 4.0 * se, ens.strategy_name


def test_control_variate_with_the_fast_term_is_identical_across_workers():
    model = tanh_model(0.2)
    b = bundle_for(model, halfwidth=1.5)
    base = ZerothOrder(b)
    runs = [run_ensembles(model, [base, Scaled(base, 0.5)], b,
                          cfg_for(model, n_paths=256, chunk_size=64, workers=w))
            for w in (1, 2)]
    for one, two in zip(*runs):
        assert one.control_variate.tobytes() == two.control_variate.tobytes()
        assert one.x_terminal.tobytes() == two.x_terminal.tobytes()


def test_a_degenerate_fast_factor_runs_the_control_variate():
    model = tanh_model(0.4, vol=0.0)
    b = bundle_for(model, halfwidth=1.5)
    est = estimate_value(model, ZerothOrder(b), b, cfg_for(model, n_paths=256, chunk_size=128))
    assert np.all(b.averages.theta_gradient_table()[1] == 0.0)
    assert math.isfinite(est.mean) and est.se > 0.0


def test_theta_table_is_built_once_under_workers(monkeypatch):
    builds = multiprocessing.Value("i", 0)  # shared, so a child's build would count
    real = factors._tabulate

    def counting(*args):
        with builds.get_lock():
            builds.value += 1
        return real(*args)

    monkeypatch.setattr(factors, "_tabulate", counting)
    model = tanh_model(0.4)
    for workers, expected in ((1, 1), (2, 2)):
        b = bundle_for(model, halfwidth=1.5)
        run_ensembles(model, [ZerothOrder(b)], b,
                      cfg_for(model, n_paths=128, chunk_size=32, workers=workers))
        moved = b.with_scales(0.2, 0.2)
        run_ensembles(moved.model, [ZerothOrder(moved)], moved,
                      cfg_for(moved.model, n_paths=128, chunk_size=32, workers=workers))
        assert builds.value == expected


def test_a_bundle_at_other_scales_than_the_model_is_an_error():
    # the control variate would take its scales from the bundle, the paths from the model
    model = tanh_model(0.4)
    b = bundle_for(model, halfwidth=1.5).with_scales(0.2, 0.1)
    named = r"\(0\.2, 0\.1\) differ from the model's \(0\.4, 0\.4\)"
    with pytest.raises(ValueError, match=named):
        run_ensembles(model, [ZerothOrder(b)], b, cfg_for(model, n_paths=32, chunk_size=32))


def test_summarize_reports_the_raw_se_and_the_variance_ratio():
    model = tanh_model(0.2)
    b = bundle_for(model, halfwidth=1.5)
    cfg = cfg_for(model, n_paths=1024, chunk_size=512)
    ens = run_ensembles(model, [ZerothOrder(b)], b, cfg)[0]
    with_cv = summarize(ens)
    raw_se = paired_mean_se(ens.utility_terminal, cfg.chunk_size)[1]
    assert with_cv.diagnostics["se_raw"] == raw_se
    ratio = with_cv.diagnostics["cv_variance_ratio"]
    assert ratio == (raw_se / with_cv.se) ** 2 and ratio > 10.0

