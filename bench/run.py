"""Benchmark of the multiscale-portfolio verification studies.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run repeats the study call until ``--seconds`` have passed and reports
the median round; it sets the workload up three times at the start and once
before every round, and ``setup_s`` is the median of those.  The SE factor of
``time_to_target_se_s`` pools every distinct input the run simulated (see
``workloads.round_config``).  With ``--trace 1`` it alternates untraced and traced rounds
instead and reports the per-layer metrics of the traced ones, with the
tracing overhead; the spans go to ``.bench_out/``.  The outputs are checked
outside the timed window.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One BLAS thread per process, set before numpy loads, so that a run never
# has more threads than the studies' own workers.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import itertools
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "study_s": "s",
    "time_to_target_se_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "factors.build_s": "s",
    "factors.lookup_calls": "count",
    "factors.lookup_self_s": "s",
    "factors.out_of_grid_points": "count",
    "asymptotics.q_gradients_calls": "count",
    "asymptotics.q_gradients_self_s": "s",
    "asymptotics.pi_zero_self_s": "s",
    "asymptotics.risk_tolerance_self_s": "s",
    "asymptotics.first_order_value_s": "s",
    "asymptotics.cv_variance_ratio": "ratio",
    "merton.dual_evaluate_calls": "count",
    "merton.dual_evaluate_self_s": "s",
    "merton.dual_newton_iterations": "count",
    "utility.inverse_marginal_calls": "count",
    "utility.inverse_marginal_points": "count",
    "utility.inverse_marginal_self_s": "s",
    "simulate.path_steps": "count",
    "simulate.engine_s": "s",
    "simulate.engine_self_s": "s",
    "simulate.path_steps_per_s": "1/s",
    "simulate.summarize_s": "s",
    "simulate.floor_hit_rate": "ratio",
    "simulate.aborted_paths": "count",
    "experiments.study_self_s": "s",
    "trace.overhead_s": "s",
}


def _load_modules():
    """Put the checkout's sources first on the path and import the benchmark."""
    if not (SRC / "multiscale_portfolio" / "__init__.py").is_file():
        raise SystemExit(f"bench: package sources not found under {SRC}; "
                         "run from the root of a checkout")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import multiscale_portfolio
    if Path(multiscale_portfolio.__file__).resolve().parent != SRC / "multiscale_portfolio":
        raise SystemExit(f"bench: imported {multiscale_portfolio.__file__}, not the checkout's")
    global tracing, workloads
    import tracing
    import workloads


@dataclass
class Round:
    seconds: float | None = None
    fingerprint: str | None = None
    layers: dict | None = None
    error: str | None = None
    seed: int | None = None


def _round(wl, cfg, tap, tracer=None):
    """One study call; returns the round with the study's output and engine results."""
    tap.calls.clear()
    gc.collect()
    try:
        if tracer is None:
            start = time.perf_counter()
            out = wl.study(cfg)
            seconds = time.perf_counter() - start
        else:
            with tracer:
                tracer.span("bench.setup", workloads.setup, (cfg,))
                out = tracer.span("experiments.study", wl.study, (cfg,))
            study = tracer.spans[-1]
            seconds = study[3] - study[2]
    except Exception:  # a failed study is counted, and the run goes on
        traceback.print_exc()
        return Round(error=traceback.format_exc(limit=1).strip()), None, []
    calls = list(tap.calls)
    layers = None if tracer is None else _layer_metrics(wl, cfg, tracer, calls)
    return Round(seconds, wl.fingerprint(out), layers), out, calls


def _layer_metrics(wl, cfg, tracer, calls) -> dict:
    spans = tracer.spans
    study = spans[-1]
    tot = tracing.layer_totals(spans, study[2], study[3])
    builds = [s[3] - s[2] for s in spans if s[1] == "factors.averaged_sharpe"]
    lookups = [tot[f"factors.{name}"] for name in tracing.LOOKUPS]
    dual = [tot[f"merton.dual.{name}"] for name in tracing.DUAL]
    engine = tot["simulate.run_ensembles"]
    inverse = tot["utility.inverse_marginal"]
    ensembles = [ens for call in calls for ens in call]
    n_paths = sum(ens.n_paths for ens in ensembles)
    return {
        "factors.build_s": statistics.fmean(builds),
        "factors.lookup_calls": sum(r["calls"] for r in lookups),
        "factors.lookup_self_s": sum(r["self_s"] for r in lookups),
        "factors.out_of_grid_points": sum(r["info"] for r in lookups),
        "asymptotics.q_gradients_calls": tot["asymptotics.q_gradients"]["calls"],
        "asymptotics.q_gradients_self_s": tot["asymptotics.q_gradients"]["self_s"],
        "asymptotics.pi_zero_self_s": tot["asymptotics.pi_zero"]["self_s"],
        "asymptotics.risk_tolerance_self_s": tot["asymptotics.risk_tolerance"]["self_s"],
        "asymptotics.first_order_value_s": tot["asymptotics.first_order_value"]["total_s"],
        "asymptotics.cv_variance_ratio":
            workloads.cv_variance_ratio(wl.decisive_ensemble(calls), cfg.chunk_size),
        "merton.dual_evaluate_calls": tot["merton.dual.evaluate"]["calls"],
        "merton.dual_evaluate_self_s": sum(r["self_s"] for r in dual),
        "merton.dual_newton_iterations": tot["merton.dual.derivs"]["in_newton"],
        "utility.inverse_marginal_calls": inverse["calls"],
        "utility.inverse_marginal_points": inverse["info"],
        "utility.inverse_marginal_self_s": inverse["self_s"],
        "simulate.path_steps": engine["info"],
        "simulate.engine_s": engine["total_s"],
        "simulate.engine_self_s": engine["self_s"] + tot["simulate.chunk"]["self_s"],
        "simulate.path_steps_per_s": engine["info"] / engine["total_s"],
        "simulate.summarize_s": tot["simulate.summarize"]["total_s"],
        "simulate.floor_hit_rate": sum(int(ens.floor_hit.sum()) for ens in ensembles) / n_paths,
        "simulate.aborted_paths":
            sum(int((~np.isfinite(ens.x_terminal)).sum()) for ens in ensembles),
        "experiments.study_self_s": tot["experiments.study"]["self_s"],
    }


def run(workload: str, seed: int, seconds: float, trace: bool, n_paths: int | None = None):
    """Run one workload; returns the result object printed as the last line."""
    wl = workloads.WORKLOADS[workload]
    cfg = wl.config(seed, n_paths or wl.n_paths)
    n_ops = wl.n_ops(cfg)

    # set-up is timed before every batch of rounds as well as at the start, so
    # that its median samples the whole run and not one quiet or busy moment
    setup_s = []

    def timed_setup():
        start = time.perf_counter()
        workloads.setup(cfg)
        setup_s.append(time.perf_counter() - start)

    for _ in range(SETUP_REPEATS):
        timed_setup()
    rounds, tracers, inputs = [], [], {}
    with tracing.EngineTap() as tap:
        start = time.perf_counter()
        for k in itertools.count():
            rcfg = workloads.round_config(wl, cfg, k)
            timed_setup()
            for tracer in (None, tracing.Tracer()) if trace else (None,):
                rnd, out, calls = _round(wl, rcfg, tap, tracer)
                rnd.seed = rcfg.seed
                rounds.append(rnd)
                if tracer is not None:
                    tracers.append(tracer)
                if rnd.error is None and rcfg.seed not in inputs:
                    inputs[rcfg.seed] = rcfg, out, calls
            if time.perf_counter() - start >= seconds:
                break

    if not inputs:
        raise RuntimeError(f"every round of {workload} failed: {rounds[0].error}")
    # every distinct input is checked once; a round that repeats an input must
    # reproduce its first output
    checked = {seed: (wl.fingerprint(out), wl.decisive_se(out), wl.checks(rcfg, out, calls))
               for seed, (rcfg, out, calls) in inputs.items()}
    failed, notes = 0, []
    for i, rnd in enumerate(rounds):
        if rnd.error is not None:
            failed += n_ops
            notes.append(f"round {i}: {rnd.error}")
        elif rnd.fingerprint != checked[rnd.seed][0]:
            failed += n_ops
            notes.append(f"round {i}: output differs from the first round on the same inputs")
        else:
            failed += sum(1 for msgs in checked[rnd.seed][2] if msgs)
    notes += [f"seed {seed} operation {k}: {msg}" for seed, (_, _, per_op) in checked.items()
              for k, msgs in enumerate(per_op) for msg in msgs]

    good = [r for r in rounds if r.error is None]
    untraced = statistics.median(r.seconds for r in good if r.layers is None)
    if trace:
        traced = [r for r in good if r.layers is not None]
        values = {k: statistics.median(r.layers[k] for r in traced) for k in traced[0].layers}
        values["trace.overhead_s"] = statistics.median(r.seconds for r in traced) - untraced
        units = PER_LAYER_UNITS
        OUT_DIR.mkdir(exist_ok=True)
        for k, tracer in enumerate(tracers):
            tracer.write(OUT_DIR / f"trace-{workload}-seed{seed}-{k}.json",
                         workload=workload, seed=seed)
    else:
        # every input has the same path count, so the mean of the squared SEs
        # is the squared SE of one round's paths with the variance pooled
        se2 = statistics.fmean(se ** 2 for _, se, _ in checked.values())
        values = {
            "setup_s": statistics.median(setup_s),
            "study_s": untraced,
            "time_to_target_se_s": untraced * se2 / wl.se_target ** 2,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    return notes, {
        "correct": failed == 0,
        "attempted": n_ops * len(rounds),
        "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
    }


def main(argv=None) -> int:
    _load_modules()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    notes, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for note in notes:
        print(f"check: {note}")
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload}: {result['attempted']} attempted, {result['failed']} failed")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
