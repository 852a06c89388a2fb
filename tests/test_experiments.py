"""Harness: strict config parsing, slope fits, studies, reports, CLI."""

import json
import logging
import math
import multiprocessing
import os
import re
from dataclasses import replace

import numpy as np
import pytest

from multiscale_portfolio import experiments
from multiscale_portfolio.experiments import (
    ConfigError,
    DEFAULT_CONFIG_TEXT,
    _gap_trend_ok,
    build_bundle,
    build_challengers,
    build_model,
    fit_loglog_slope,
    invariant_suite,
    load_run_config,
    optimality_study,
    parse_config_text,
    residual_order_study,
    run_cli,
    sim_config_for,
    write_optimality_csv,
    write_residual_csv,
)
from multiscale_portfolio.factors import TABLE_COLUMNS
from multiscale_portfolio.simulate import run_ensembles

SMALL_OVERRIDES = dict(n_paths=4000, chunk_size=1000)


@pytest.fixture(scope="module")
def default_cfg():
    return load_run_config("default")


@pytest.fixture(scope="module")
def small_cfg(default_cfg):
    return replace(default_cfg, **SMALL_OVERRIDES)


# -- configuration -------------------------------------------------------------


def test_default_config_parses(default_cfg):
    assert default_cfg.scenario == "reference"
    assert default_cfg.epsilons == (0.4, 0.2, 0.1, 0.05)
    assert default_cfg.deltas == default_cfg.epsilons
    assert default_cfg.slope_band == (0.7, 1.4)


def test_unknown_key_is_an_error_with_line():
    text = DEFAULT_CONFIG_TEXT + "\n[sim]\nn_puths = 3\n"
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert "n_puths" in str(err.value)
    assert err.value.line is not None


def test_unknown_section_is_an_error():
    with pytest.raises(ConfigError):
        parse_config_text("[nonsense]\nkey = 1\n")


def test_duplicate_key_is_an_error():
    with pytest.raises(ConfigError):
        parse_config_text("[sim]\nn_paths = 10\nn_paths = 20\n")


def test_missing_required_key_is_an_error():
    with pytest.raises(ConfigError) as err:
        parse_config_text("[sim]\nn_paths = 10\n")
    assert "fast_vol" in str(err.value) or "sharpe" in str(err.value)


def test_bad_value_reports_line():
    text = DEFAULT_CONFIG_TEXT.replace("n_paths = 400000", "n_paths = lots")
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert err.value.line is not None


def test_missing_file_raises(tmp_path):
    with pytest.raises(ConfigError):
        load_run_config(tmp_path / "nope.cfg")


def test_config_file_round_trip(tmp_path, default_cfg):
    path = tmp_path / "run.cfg"
    path.write_text(DEFAULT_CONFIG_TEXT)
    assert load_run_config(path) == default_cfg


def test_mismatched_deltas_rejected():
    text = DEFAULT_CONFIG_TEXT.replace("deltas = match", "deltas = 0.1, 0.2")
    path_free = parse_config_text  # parse alone is fine; load enforces lengths
    path_free(text)
    import tempfile, os
    with tempfile.NamedTemporaryFile("w", suffix=".cfg", delete=False) as fh:
        fh.write(text)
        name = fh.name
    try:
        with pytest.raises(ConfigError):
            load_run_config(name)
    finally:
        os.unlink(name)


# -- slope fitting ---------------------------------------------------------------


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
def test_synthetic_slope_recovery(p):
    eps = np.array([0.4, 0.2, 0.1, 0.05])
    resid = 3.7 * (2.0 * eps) ** p
    slope, _, _ = fit_loglog_slope(2.0 * eps, resid)
    assert slope == pytest.approx(p, abs=1e-10)


def test_weighted_slope_fit_prefers_precise_points():
    scales = np.array([0.8, 0.4, 0.2, 0.1])
    resid = scales.copy()          # exact slope 1
    resid[0] *= 1.5                # corrupt the coarsest point
    ses = np.array([1.0, 1e-6, 1e-6, 1e-6])  # but mark it as noisy
    slope, _, _ = fit_loglog_slope(scales, resid, ses)
    assert slope == pytest.approx(1.0, abs=1e-6)


def test_slope_fit_needs_two_points():
    with pytest.raises(ValueError):
        fit_loglog_slope([0.1], [0.01])


# -- trend rule ------------------------------------------------------------------


def _on_grid(ells, se):
    """(h, ell, se) on the default grid eps = delta = 0.4, 0.2, 0.1, 0.05."""
    return [(2.0 * math.sqrt(eps), ell, se) for eps, ell in zip((0.4, 0.2, 0.1, 0.05), ells)]


def test_gap_trend_accepts_decreasing_and_stabilizing():
    dec = _on_grid([-0.04, -0.07, -0.10], 1e-4)
    stab = _on_grid([-0.0080, -0.0071, -0.0065, -0.0061], 1e-5)
    # the perturbed challenger's mean gap over 20 seeds of 8,192 paths: it
    # turns up toward small scales with growing steps, and settles below zero
    settling = _on_grid([-6.16e-3, -6.27e-3, -6.08e-3, -5.76e-3], 2e-5)
    assert _gap_trend_ok(dec)
    assert _gap_trend_ok(stab)
    assert _gap_trend_ok(settling)
    assert _gap_trend_ok(list(reversed(settling)))  # the grid's order does not matter
    assert _gap_trend_ok(_on_grid([-0.01], 1e-6))


def test_gap_trend_rejects_accelerating_growth():
    growing = _on_grid([-0.010, -0.008, -0.002, 0.02], 1e-6)
    # below zero on the whole grid, with shrinking steps, but its finest step
    # points above zero at zero scale
    rising = _on_grid([-0.020, -0.012, -0.006, -0.002], 1e-6)
    assert not _gap_trend_ok(growing)
    assert not _gap_trend_ok(rising)
    # the finest step's noise band is 3 SE: 3 ((1 + r) se_n + r se_{n-1})
    r = math.sqrt(0.05) / (math.sqrt(0.1) - math.sqrt(0.05))
    limit = (1.0 + r) * -0.002 - r * -0.006
    assert _gap_trend_ok(_on_grid([-0.020, -0.012, -0.006, -0.002], limit / (3.0 * (1.0 + 2.0 * r))))
    assert not _gap_trend_ok(_on_grid([-0.020, -0.012, -0.006, -0.002],
                                      0.99 * limit / (3.0 * (1.0 + 2.0 * r))))


# -- studies (small scale) --------------------------------------------------------


@pytest.fixture(scope="module")
def small_residual(small_cfg):
    return residual_order_study(replace(small_cfg, n_paths=8000))


def test_residual_study_schema_and_resolution(small_residual):
    rows = small_residual.rows
    assert [r["epsilon"] for r in rows] == [0.4, 0.2, 0.1, 0.05]
    for r in rows:
        assert r["q"] != r["v0"]  # corrections are active in the reference scenario
        assert np.isfinite(r["se"]) and r["se"] > 0.0
        # the CV's variance gain, from summarize's diagnostics.  The floor at the
        # small scales needs the Ito term at its coefficient: over five seeds it
        # read 1,300-5,400 there, and at most 212 and 504 without the term, with
        # it doubled or with M_x in place of M_xx
        floor = 1000.0 if r["epsilon"] <= 0.1 else 10.0
        assert r["cv_variance_ratio"] == (r["se_raw"] / r["se"]) ** 2 > floor
    assert small_residual.verdict in ("PASS", "UNRESOLVED")


def test_constant_model_residual_is_statistical_zero(default_cfg):
    cfg = replace(
        default_cfg,
        sharpe_name="const", sharpe_params=(0.5,),
        slow_drift_name="zero", slow_drift_params=(),
        slow_vol_name="const", slow_vol_params=(0.0,),
        epsilons=(0.4, 0.2, 0.1), deltas=(0.4, 0.2, 0.1),
        n_paths=4000, chunk_size=1000, control_variate=False,
    )
    study = residual_order_study(cfg)
    # Q = leading order = exact value; the residual is discretization noise only
    for r in study.rows:
        assert abs(r["residual"]) <= 4.0 * r["se"]
    assert study.verdict == "UNRESOLVED"


def test_constant_model_residual_with_the_control_variate_is_statistical_zero(default_cfg):
    # Q is exact here, so a residual many SE from zero is the discretization's
    cfg = replace(
        default_cfg,
        sharpe_name="const", sharpe_params=(0.5,),
        slow_drift_name="zero", slow_drift_params=(),
        slow_vol_name="const", slow_vol_params=(0.0,),
        epsilons=(0.4, 0.2, 0.1), deltas=(0.4, 0.2, 0.1),
        n_paths=4000, chunk_size=1000, control_variate=True,
    )
    study = residual_order_study(cfg)
    for r in study.rows:
        assert abs(r["residual"]) <= 4.0 * r["se"]


@pytest.fixture(scope="module")
def small_optimality(small_cfg):
    return optimality_study(replace(small_cfg, epsilons=(0.4, 0.1), deltas=(0.4, 0.1)))


def test_optimality_study_small(small_optimality):
    study = small_optimality
    names = {r["challenger"] for r in study.rows}
    assert "zeroth_order" in names
    assert any(n.startswith("perturbed") for n in names)
    assert any(n.startswith("scaled") for n in names)
    base_rows = [r for r in study.rows if r["challenger"] == "zeroth_order"]
    for r in base_rows:
        assert r["ell_hat"] == 0.0
    assert study.verdict == "PASS"


@pytest.mark.parametrize("study, workers", [(residual_order_study, 1), (optimality_study, 2)])
def test_studies_log_each_grid_point(caplog, small_cfg, study, workers):
    grid = (0.4, 0.2, 0.1)
    cfg = replace(small_cfg, epsilons=grid, deltas=grid, n_paths=128, chunk_size=64,
                  workers=workers)
    with caplog.at_level(logging.INFO, logger="multiscale_portfolio.experiments"):
        study(cfg)
    lines = [r.getMessage() for r in caplog.records
             if r.name == "multiscale_portfolio.experiments"]
    n_strat = 1 if study is residual_order_study else 3
    processes = min(workers, 2, os.cpu_count() or 1)  # two chunks
    assert len(lines) == len(grid)
    for eps, line in zip(grid, lines):
        steps = round(20 / eps)
        assert line.startswith(f"eps {eps:g}, delta {eps:g}: 128 paths x {steps} steps x "
                               f"{n_strat} strategies on {processes} process(es), engine ")
        assert line.endswith(" path-steps/s")


def test_invariant_suite_all_pass(small_cfg):
    rows = invariant_suite(small_cfg)
    assert len(rows) >= 20
    failing = [r["name"] for r in rows if r["verdict"] != "PASS"]
    assert failing == []


def test_invariant_suite_fails_a_zero_sharpe_value_off_the_utility(monkeypatch, small_cfg):
    real = experiments.solve_merton

    def shifted(utility, sharpe, horizon, **kwargs):
        sol = real(utility, sharpe, horizon, **kwargs)
        if sharpe == 0.0:
            value = sol.value
            sol.value = lambda t, x: value(t, x) + 1e-12
        return sol

    monkeypatch.setattr(experiments, "solve_merton", shifted)
    row = {r["name"]: r for r in invariant_suite(small_cfg)}["merton_zero_sharpe_is_utility"]
    assert row["verdict"] == "FAIL" and row["measured"] > 0.0


# -- reports ----------------------------------------------------------------------


def test_residual_csv_layout(tmp_path, small_residual):
    path = tmp_path / "residual.csv"
    write_residual_csv(path, small_residual)
    lines = path.read_text().splitlines()
    assert lines[0] == "epsilon,delta,v0,q,v_hat,se,residual,resolved,se_raw,cv_variance_ratio"
    assert len(lines) == 1 + 4 + 1
    assert lines[-1].startswith("slope,")
    assert lines[-1].split(",")[7] == small_residual.verdict
    assert {line.count(",") for line in lines} == {9}


def test_optimality_csv_layout(tmp_path, small_optimality):
    path = tmp_path / "optimality.csv"
    write_optimality_csv(path, small_optimality)
    lines = path.read_text().splitlines()
    assert lines[0] == ("epsilon,delta,challenger,v_hat,se,ell_hat,ell_se,verdict,"
                        "se_raw,cv_variance_ratio")
    assert len(lines) == 1 + 2 * 3
    assert {line.count(",") for line in lines} == {9}
    for r in small_optimality.rows:  # every challenger's own CV diagnostics
        assert r["cv_variance_ratio"] == (r["se_raw"] / r["se"]) ** 2 > 10.0


def test_report_determinism(tmp_path, small_cfg):
    cfg = replace(small_cfg, epsilons=(0.4, 0.2, 0.1), deltas=(0.4, 0.2, 0.1), n_paths=2000)
    outs = []
    for tag in ("a", "b"):
        study = residual_order_study(cfg)
        path = tmp_path / f"residual_{tag}.csv"
        write_residual_csv(path, study)
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


# -- CLI ---------------------------------------------------------------------------


def test_cli_invariants_default(tmp_path, capsys):
    code = run_cli(["invariants", "--config", "default", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "invariants.csv").is_file()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["verdicts"]["invariants"] == "PASS"


@pytest.mark.parametrize("level, n_lines", [("INFO", 3), ("WARNING", 0)])
def test_cli_log_level_sets_the_package_level(tmp_path, caplog, level, n_lines):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(DEFAULT_CONFIG_TEXT.replace("epsilons = 0.4, 0.2, 0.1, 0.05",
                                               "epsilons = 0.4, 0.2, 0.1")
                   .replace("n_paths = 400000", "n_paths = 64"))
    code = run_cli(["residual-study", "--config", str(cfg), "--out", str(tmp_path),
                    "--log-level", level])
    assert code in (0, 1)  # 64 paths may leave the study unresolved or failing
    points = [r for r in caplog.records if r.name == "multiscale_portfolio.experiments"]
    assert len(points) == n_lines  # one INFO line per grid point, or none
    assert logging.getLogger("multiscale_portfolio").level == logging.NOTSET  # restored


def test_cli_rejects_an_unknown_log_level(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["invariants", "--config", "default", "--log-level", "LOUD"])
    assert exc.value.code == 2
    assert "--log-level" in capsys.readouterr().err


def test_cli_missing_config(tmp_path):
    assert run_cli(["invariants", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_cli_malformed_config(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[sim]\nn_paths = what\n")
    assert run_cli(["invariants", "--config", str(bad)]) == 2


@pytest.mark.parametrize("divisor", [0, 10])
def test_cli_rejects_step_divisor_below_step_rule(tmp_path, capsys, divisor):
    coarse = tmp_path / "coarse.cfg"
    coarse.write_text(
        DEFAULT_CONFIG_TEXT.replace("step_divisor = 20", f"step_divisor = {divisor}")
    )
    code = run_cli(["residual-study", "--config", str(coarse), "--out", str(tmp_path)])
    assert code == 2
    assert "config error: sim.step_divisor must be at least 20" in capsys.readouterr().out


@pytest.mark.parametrize("setting, flags", [
    ("workers = 0", []), ("chunk_size = 16383", []), ("n_paths = 7", []),
    ("n_paths = 0", []), ("horizon = 0.0", []), ("x0 = -1.0", []), ("x0 = 0.0", []),
    (None, ["--workers", "0"]), (None, ["--paths", "3"]),
], ids=["workers", "chunk_size", "odd_paths", "no_paths", "horizon", "x0", "x0_zero",
        "cli_workers", "cli_paths"])
def test_cli_rejects_bad_sim_settings(tmp_path, capsys, setting, flags):
    text = DEFAULT_CONFIG_TEXT
    if setting is not None:
        key = setting.split(" = ")[0]
        line = next(ln for ln in text.splitlines() if ln.startswith(key + " = "))
        text = text.replace(line, setting)
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    code = run_cli(["residual-study", "--config", str(bad), "--out", str(tmp_path)] + flags)
    assert code == 2
    assert "config error: bad [sim] settings" in capsys.readouterr().out


def test_cli_reports_are_identical_on_one_and_two_forked_workers(tmp_path, caplog):
    # chunks of 512 paths make every grid point two chunks, so two workers fork
    small = tmp_path / "small_chunks.cfg"
    small.write_text(DEFAULT_CONFIG_TEXT.replace("chunk_size = 16384", "chunk_size = 512"))
    processes = min(2, os.cpu_count() or 1)
    reports = {}
    for workers in ("1", "2"):
        for command, csv in (("residual-study", "residual_study.csv"),
                             ("optimality-study", "optimality_study.csv")):
            out = tmp_path / workers / command
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="multiscale_portfolio.experiments"):
                code = run_cli([command, "--config", str(small), "--out", str(out),
                                "--paths", "1024", "--workers", workers])
            assert code in (0, 1)  # 1024 paths may leave a verdict short of PASS
            lines = [r.getMessage() for r in caplog.records
                     if r.name == "multiscale_portfolio.experiments"]
            n_proc = 1 if workers == "1" else processes
            assert lines and all(f" on {n_proc} process(es), " in ln for ln in lines)
            reports[workers, command] = [(out / name).read_bytes()
                                         for name in (csv, "summary.json")]
    for command in ("residual-study", "optimality-study"):
        assert reports["1", command] == reports["2", command]


def test_workers_without_fork_are_a_config_error(tmp_path, capsys, monkeypatch):
    import multiprocessing

    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert load_run_config("default").workers == 1
    two = tmp_path / "two.cfg"
    two.write_text(DEFAULT_CONFIG_TEXT.replace("workers = 1", "workers = 2"))
    with pytest.raises(ConfigError, match="cannot fork"):
        load_run_config(two)
    code = run_cli(["residual-study", "--config", "default", "--out", str(tmp_path),
                    "--workers", "2"])
    assert code == 2
    assert "config error: bad [sim] settings: workers = 2 runs chunks on forked " \
           "processes, and this platform cannot fork" in capsys.readouterr().out


def test_cli_rejects_an_unbounded_slow_factor(tmp_path, capsys):
    steep = tmp_path / "steep.cfg"
    steep.write_text(DEFAULT_CONFIG_TEXT.replace(
        "slow_vol = const\nslow_vol_params = 0.75",
        "slow_vol = affine\nslow_vol_params = 0.75, 1.0"))
    code = run_cli(["residual-study", "--config", str(steep), "--out", str(tmp_path)])
    assert code == 2
    assert "config error: the slow factor's range" in capsys.readouterr().out


def _edited_default(*edits):
    text = DEFAULT_CONFIG_TEXT
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    return text


@pytest.mark.parametrize("edits", [
    [("sharpe = affine_z_tanh_y", "sharpe = bogus")],
    [("sigma = const", "sigma = bogus")],
    [("deltas = match", "deltas = 0.1, x, 0.2, 0.3")],
    [("rho1 = -0.5\nrho2 = -0.4\nrho12 = 0.1", "rho1 = 0.9\nrho2 = 0.9\nrho12 = -0.9")],
    [("fast_vol = 0.7", "fast_vol = -0.7")],
    [("sigma_params = 0.5", "sigma_params = -0.5")],
    [("gamma = 0.5", "gamma = 1.5")],
    [("sharpe_params = 0.5, 0.25, 0.35", "sharpe_params = 0.5, 0.25")],
    [("sharpe = affine_z_tanh_y\nsharpe_params = 0.5, 0.25, 0.35",
      "sharpe = const\nsharpe_params = 0.5, 0.25")],
    [("kind = power\ngamma = 0.5",
      "kind = power_mixture\nweights = 1.0\nexponents = 0.5, 0.25")],
    [("slow_drift = mean_revert", "slow_drift = zero")],
    [("alpha = 0.25", "alpha = 0")],
    [("beta = 0.25", "beta = -0.5")],
    [("[merton]\nsharpe = 0.5", "[merton]\nsharpe = -0.5")],
], ids=["sharpe_name", "sigma_name", "deltas", "correlations", "fast_vol", "sigma_params",
        "gamma", "sharpe_params", "const_sharpe_params", "mixture_lengths", "zero_drift_params",
        "alpha", "beta", "merton_sharpe"])
def test_cli_rejects_settings_the_constructors_reject(tmp_path, capsys, edits):
    bad = tmp_path / "bad.cfg"
    bad.write_text(_edited_default(*edits))
    code = run_cli(["expand", "--config", str(bad), "--out", str(tmp_path)])
    assert code == 2
    assert "config error:" in capsys.readouterr().out


@pytest.mark.parametrize("edits", [
    [("slow_drift = mean_revert\nslow_drift_params = 1.0, 0.0", "slow_drift = zero"),
     ("slow_vol_params = 0.75", "slow_vol_params = 0.0")],
    [("slow_drift = mean_revert\nslow_drift_params = 1.0, 0.0", "slow_drift = zero"),
     ("slow_vol_params = 0.75", "slow_vol_params = 0.0"), ("z0 = 0.0", "z0 = 20.0")],
    [("slow_drift_params = 1.0, 0.0", "slow_drift_params = 1.0, 1.0"),
     ("slow_vol_params = 0.75", "slow_vol_params = 0.05")],
], ids=["still_at_0", "still_at_20", "drifting"])
def test_cli_commands_run_on_narrow_and_off_centre_grids(tmp_path, edits):
    cfg = tmp_path / "narrow.cfg"
    cfg.write_text(_edited_default(*edits))
    assert run_cli(["expand", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert run_cli(["invariants", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    verdicts = [line.rsplit(",", 1)[1]
                for line in (tmp_path / "invariants.csv").read_text().splitlines()[1:]]
    assert len(verdicts) > 20 and set(verdicts) == {"PASS"}


@pytest.mark.parametrize("command", ["residual-study", "all"])
@pytest.mark.parametrize("epsilons, reason", [
    ("0.4, 0.2", "at least three grid points"),
    ("0.4, 0.4, 0.4", "at least two distinct values of eps + delta"),
], ids=["two_points", "one_scale"])
def test_cli_rejects_a_grid_with_no_residual_slope(tmp_path, capsys, monkeypatch, command,
                                                   epsilons, reason):
    def forbidden(*args, **kwargs):
        raise AssertionError("a path was simulated")

    from multiscale_portfolio import experiments

    for name in ("run_ensembles", "estimate_value"):
        monkeypatch.setattr(experiments, name, forbidden)
    grid = tmp_path / "grid.cfg"
    grid.write_text(_edited_default(("epsilons = 0.4, 0.2, 0.1, 0.05", f"epsilons = {epsilons}")))
    out = tmp_path / "out"
    code = run_cli([command, "--config", str(grid), "--out", str(out), "--paths", "512"])
    assert code == 2
    assert f"config error: residual study needs {reason}" in capsys.readouterr().out
    assert not out.exists()
    # the grid itself is valid: optimality-study, simulate and invariants accept it
    cfg = replace(load_run_config(grid), n_paths=512)
    with pytest.raises(ValueError, match=re.escape(reason)):
        residual_order_study(cfg)


def test_cli_simulate_names_the_strategies_whose_drag_sign_test_fails(tmp_path, capsys,
                                                                     monkeypatch):
    # a convex value makes every nonzero drag increment positive: the perturbed
    # and the scaled challengers fail, the zeroth-order strategy has none
    from multiscale_portfolio.asymptotics import ExpansionBundle

    real = ExpansionBundle.step_pack

    def convex(self, t, x, rms):  # the pack's m_xx is what the drag reads
        pack, n_exact = real(self, t, x, rms)
        return {**pack, "m_xx": np.ones(np.shape(x))}, n_exact

    monkeypatch.setattr(ExpansionBundle, "step_pack", convex)
    code = run_cli(["simulate", "--config", "default", "--out", str(tmp_path),
                    "--paths", "512"])
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["simulate: drag sign test failed for perturbed_zeroth_order, "
                     "scaled_0.5_zeroth_order"]
    verdicts = [ln.rsplit(",", 1)[1]
                for ln in (tmp_path / "simulation.csv").read_text().splitlines()[1:]]
    assert verdicts == ["true", "false", "false"]


def test_cli_expand_and_solve_merton(tmp_path):
    assert run_cli(["expand", "--config", "default", "--out", str(tmp_path)]) == 0
    assert run_cli(["solve-merton", "--config", "default", "--out", str(tmp_path)]) == 0
    expansion = (tmp_path / "expansion.csv").read_text().splitlines()
    assert expansion[0] == "t,x,z,v0,v_fast,v_slow,q,pi0"
    merton = (tmp_path / "merton_solution.csv").read_text().splitlines()
    assert merton[0] == "t,x,value,value_x,value_xx,risk_tolerance,pde_residual"


def test_cli_simulate_with_terminal_records(tmp_path):
    code = run_cli([
        "simulate", "--config", "default", "--out", str(tmp_path),
        "--paths", "2000", "--terminal-csv", "terminal.csv",
    ])
    assert code == 0
    sim = (tmp_path / "simulation.csv").read_text().splitlines()
    assert sim[0] == "strategy,mean,se,n_paths,floor_hit_rate,drag_sign_ok"
    assert len(sim) == 4
    term = (tmp_path / "terminal.csv").read_text().splitlines()
    assert term[0] == "path,x_terminal,utility,floor_hit"
    assert len(term) == 2001


def test_cli_simulate_runs_a_three_component_mixture(tmp_path, capsys):
    # its Merton table (s_max 3.11) reads the dual at quadrature nodes far
    # enough out that powers of U'' would leave the float range
    cfg = tmp_path / "mixture.cfg"
    cfg.write_text(_edited_default(
        ("kind = power\ngamma = 0.5",
         "kind = power_mixture\nweights = 1, 1, 1\nexponents = 0.2, 0.5, 0.8"),
        ("sharpe_params = 0.5, 0.25, 0.35", "sharpe_params = 0.9, 0.25, 0.35")))
    code = run_cli(["simulate", "--config", str(cfg), "--out", str(tmp_path), "--paths", "64"])
    assert code == 0, capsys.readouterr().out
    assert len((tmp_path / "simulation.csv").read_text().splitlines()) == 4


def test_cli_output_dir_env_override(tmp_path, monkeypatch):
    target = tmp_path / "env_out"
    monkeypatch.setenv("MSPORT_OUTPUT_DIR", str(target))
    monkeypatch.chdir(tmp_path)
    assert run_cli(["invariants", "--config", "default"]) == 0
    assert (target / "invariants.csv").is_file()


def test_build_model_registry_errors(default_cfg):
    bad = replace(default_cfg, sharpe_name="no_such_form")
    with pytest.raises(ConfigError):
        build_model(bad, 0.1, 0.1)


def test_bundle_caching_window_covers_slow_range(default_cfg):
    model = build_model(default_cfg, 0.4, 0.4)
    bundle = build_bundle(default_cfg, model)
    grid = bundle.averages.z_grid
    spread = 6.0 * 0.75 * np.sqrt(0.4)
    assert grid[0] < -spread and grid[-1] > spread


@pytest.mark.parametrize("slow_vol", [0.05, 0.0])
def test_cached_grid_covers_a_slow_factor_drifting_away_from_z0(default_cfg, slow_vol):
    # the drift toward 1 carries z to 1 - exp(-0.4) = 0.33, beyond 6 noise SDs
    cfg = replace(default_cfg, slow_drift_params=(1.0, 1.0), slow_vol_params=(slow_vol,),
                  n_paths=400, chunk_size=200)
    model = build_model(cfg, 0.4, 0.4)
    bundle = build_bundle(cfg, model)
    assert bundle.averages.z_grid[-1] > 1.0 - np.exp(-0.4)
    roster = build_challengers(cfg, bundle)
    for ens in run_ensembles(model, roster, bundle, sim_config_for(cfg, model)):
        assert np.all(np.isfinite(ens.control_variate))


def test_factor_lookup_off_the_cached_grid_is_an_error(default_cfg):
    averages = build_bundle(default_cfg, build_model(default_cfg, 0.4, 0.4)).averages
    lo, hi = averages.z_grid[0], averages.z_grid[-1]
    assert np.all(np.isfinite(averages.table(np.array([lo, hi]))))
    for lookup in [averages.table] + [getattr(averages, name) for name in TABLE_COLUMNS]:
        with pytest.raises(ValueError) as err:
            lookup(np.array([0.0, 20.0]))
        assert f"z in [0, 20] falls outside the cached z-grid [{lo:.6g}, {hi:.6g}]" in str(err.value)


def test_shared_factor_table_keeps_strategies_and_workers_apart(default_cfg):
    cfg = replace(default_cfg, n_paths=2000, chunk_size=500)
    model = build_model(cfg, 0.4, 0.4)
    bundle = build_bundle(cfg, model)
    roster = build_challengers(cfg, bundle)
    runs = [
        run_ensembles(model, roster, bundle, sim_config_for(replace(cfg, workers=w), model))
        for w in (1, 2)
    ]
    single = run_ensembles(model, roster[:1], bundle, sim_config_for(cfg, model))[0]
    fields = ("x_terminal", "utility_terminal", "control_variate", "floor_hit")
    for one, two in zip(*runs):
        assert all(getattr(one, f).tobytes() == getattr(two, f).tobytes() for f in fields)
    assert all(getattr(runs[0][0], f).tobytes() == getattr(single, f).tobytes() for f in fields)
    assert np.any(single.control_variate != 0.0)


@pytest.fixture(scope="module")
def mixture_cfg(default_cfg):
    return replace(default_cfg, utility_kind="power_mixture", weights=(1.0, 1.0),
                   exponents=(0.5, 0.25), n_paths=2048, seed=5)


def test_mixture_optimality_study_reduced_scale(mixture_cfg):
    study = optimality_study(replace(mixture_cfg, epsilons=(0.4, 0.2), deltas=(0.4, 0.2)))
    assert study.verdict == "PASS"
    for r in study.rows:
        if r["challenger"] == "zeroth_order":
            assert r["ell_hat"] == 0.0
        if r["challenger"].startswith("scaled"):
            assert r["ell_hat"] < -2.0 * r["ell_se"]


def test_mixture_residual_study_reduced_scale(mixture_cfg):
    study = residual_order_study(replace(mixture_cfg, epsilons=(0.4, 0.2, 0.1),
                                         deltas=(0.4, 0.2, 0.1)))
    assert study.verdict == "PASS"
    assert all(r["resolved"] for r in study.rows)


@pytest.mark.parametrize("kind", ["power", "mixture"])
def test_a_bundle_moved_in_scale_matches_a_fresh_one(default_cfg, mixture_cfg, kind):
    cfg = default_cfg if kind == "power" else mixture_cfg
    moved = build_bundle(cfg, build_model(cfg, 0.4, 0.4)).with_scales(0.1, 0.05)
    fresh = build_bundle(cfg, build_model(cfg, 0.1, 0.05))
    assert (moved.model.epsilon, moved.model.delta) == (0.1, 0.05)
    t, x = 0.3, np.array([0.5, 1.0, 2.0])
    y, z = np.array([-0.5, 0.0, 0.8]), np.array([-0.2, 0.0, 0.3])

    def bits(bundle):
        return [v.tobytes() for v in (bundle.slow_correction(t, x, z),
                                      bundle.first_order_value(t, x, z),
                                      *bundle.q_coefficients(t, y, z))]

    assert bits(moved) == bits(fresh)


def test_a_mixture_bundle_moved_before_any_run_builds_one_merton_table(monkeypatch, mixture_cfg):
    from multiscale_portfolio import asymptotics

    builds = []
    real = asymptotics.MertonTable

    def counting(*args):
        builds.append(args)
        return real(*args)

    monkeypatch.setattr(asymptotics, "MertonTable", counting)
    bundle = build_bundle(mixture_cfg, build_model(mixture_cfg, 0.4, 0.4))
    points = [bundle.with_scales(eps, eps) for eps in (0.4, 0.2, 0.1)]
    assert all(point.merton_table() is bundle.merton_table() for point in points)
    assert len(builds) == 1


@pytest.mark.parametrize("study", [residual_order_study, optimality_study])
def test_a_study_builds_one_theta_table_under_workers(monkeypatch, small_cfg, study):
    # theta_y depends on the Sharpe ratio and the fast factor, not on (eps, delta):
    # the study's one bundle builds it before forking and every grid point shares it
    from multiscale_portfolio import factors

    builds = multiprocessing.Value("i", 0)  # shared, so a child's build would count
    real = factors._tabulate

    def counting(*args):
        with builds.get_lock():
            builds.value += 1
        return real(*args)

    monkeypatch.setattr(factors, "_tabulate", counting)
    study(replace(small_cfg, epsilons=(0.4, 0.2, 0.1), deltas=(0.4, 0.2, 0.1),
                  n_paths=64, chunk_size=32, workers=2))
    assert builds.value == 1


@pytest.mark.parametrize("study", [residual_order_study, optimality_study])
def test_a_mixture_study_builds_one_merton_table(monkeypatch, mixture_cfg, study):
    # the table depends on the utility, the horizon and the factor averages,
    # none of which moves along the (eps, delta) grid
    from multiscale_portfolio import asymptotics

    builds = []
    real = asymptotics.MertonTable

    def counting(*args):
        builds.append(args)
        return real(*args)

    monkeypatch.setattr(asymptotics, "MertonTable", counting)
    study(replace(mixture_cfg, epsilons=(0.4, 0.2, 0.1), deltas=(0.4, 0.2, 0.1),
                  n_paths=32, chunk_size=32))
    assert len(builds) == 1
