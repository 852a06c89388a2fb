"""Quick self-check of the benchmark at tiny scale.

Run from the root of a checkout:  python3 -m pytest bench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402

bench._load_modules()

import reference  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_PATHS = 32


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_named_metric_is_emitted(workload, trace, section):
    _, result = bench.run(workload, seed=1, seconds=1e-3, trace=trace, n_paths=TINY_PATHS)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC[section]}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    wl = bench.workloads.WORKLOADS[workload]
    assert result["attempted"] % wl.n_ops(wl.config(1, TINY_PATHS)) == 0
    assert 0 <= result["failed"] <= result["attempted"]


@pytest.mark.parametrize("gamma", [0.25, 0.5, 0.75])
def test_dual_reference_reproduces_power_closed_form(gamma):
    lam = reference.rms_sharpe_affine_tanh((0.5, 0.25, 0.35), 0.7, 0.0)
    dual = reference.MixtureDual((1.0,), (gamma,))
    for x in (0.3, 1.0, 4.0):
        closed = reference.power_merton_value(gamma, lam, 1.0, x)
        assert dual.value(lam, 1.0, x) == pytest.approx(closed, rel=1e-12)


def test_rms_sharpe_reference_matches_gauss_hermite():
    nodes, weights = np.polynomial.hermite_e.hermegauss(200)
    weights = weights / math.sqrt(2.0 * math.pi)
    for params, vol, z in (((0.5, 0.25, 0.35), 0.7, 0.0), ((0.2, -0.5, 1.0), 1.3, 0.8)):
        p0, p1, p2 = params
        exact = math.sqrt(weights @ (p0 + p1 * z + p2 * np.tanh(vol * nodes)) ** 2)
        assert reference.rms_sharpe_affine_tanh(params, vol, z) == pytest.approx(exact, rel=1e-13)


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "residual_power", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_round_inputs_follow_the_run_seed():
    workloads = bench.workloads
    for wl in workloads.WORKLOADS.values():
        cfg = wl.config(5, TINY_PATHS)
        seeds = [workloads.round_config(wl, cfg, k).seed for k in range(4)]
        assert seeds[0] == 5
        assert seeds == [workloads.round_config(wl, cfg, k).seed for k in range(4)]
        assert len(set(seeds)) == (4 if wl.reseed_rounds else 1)
