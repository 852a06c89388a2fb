"""The benchmark's hooks and calls into the package.

``bench/tracing.py`` wraps functions and methods of the package for the
length of a ``with`` block, and ``bench/workloads.py`` calls the studies and
their set-up by name.  Renaming or deleting one of them, or changing a
signature the benchmark uses, breaks benchmark runs, which the unit suite
does not otherwise make; these guards enter and exit both hooks without
running a study, and run one tiny untraced round of every workload.
"""

import importlib.util
import json
import math
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"
RUN = ROOT / "bench" / "run.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing_under_test", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("hook", ["Tracer", "EngineTap"])
def test_bench_hooks_find_and_restore_every_attribute(tracing, hook):
    patches = getattr(tracing, hook)()
    with patches:
        saved = list(patches._saved)
        assert saved, f"{hook} patched nothing"
        for owner, attr, original in saved:
            assert owner.__dict__[attr] is not original, f"{hook} left {attr} unwrapped"
    for owner, attr, original in saved:
        assert owner.__dict__[attr] is original, f"{hook} did not restore {attr}"


@pytest.fixture(scope="module")
def bench_run():
    """``bench/run.py`` with its modules loaded.  Loading it pins the BLAS
    threads in the environment, prepends ``src/`` and ``bench/`` to the import
    path and imports the benchmark's modules; all three are undone afterwards."""
    environ, path, modules = dict(os.environ), list(sys.path), set(sys.modules)
    try:
        spec = importlib.util.spec_from_file_location("bench_run_under_test", RUN)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look their module up there
        spec.loader.exec_module(module)
        module._load_modules()
        yield module
    finally:
        os.environ.clear()
        os.environ.update(environ)
        sys.path[:] = path
        for name in set(sys.modules) - modules:
            if Path(getattr(sys.modules[name], "__file__", None) or "").parent == RUN.parent:
                del sys.modules[name]


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_bench_runs_one_untraced_round(bench_run, workload):
    # run() raises when every round fails; an untraced run writes no files
    _, result = bench_run.run(workload, seed=1, seconds=1e-3, trace=False, n_paths=32)
    metrics = result["metrics"]
    for metric in BENCHMARK["end_to_end"]:
        assert math.isfinite(metrics[metric["name"]]["value"]), metric["name"]
