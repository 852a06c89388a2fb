"""Spans and engine output capture, installed from outside the package.

Wrappers replace the public entry points of each module for the duration of
a ``with`` block and put the originals back afterwards.  They go on class
attributes and on every module name through which a caller looks a function
up: ``experiments`` imports ``run_ensembles``, ``estimate_value``,
``summarize`` and ``averaged_sharpe`` by name, so those are replaced there as
well as in their home modules.

A span is ``(id, name, start, end, parent, thread, info)``.  Spans are kept
in memory and written out once, at the end of a run.  The parent is the span
open on the same thread; a span opened on a pool thread with nothing open
there takes the engine span that dispatched it, so a chunk simulated on a
worker thread is a child of its ``run_ensembles``.  Self time is a span's
duration minus the union of its children's intervals: children on the same
thread never overlap, and for children on worker threads the union is the
time the dispatching thread spent waiting for them.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict

import numpy as np

from multiscale_portfolio import asymptotics, experiments, factors, merton, simulate, utility

LOOKUPS = ("sharpe_rms", "sharpe_mean", "sharpe_rms_slope", "sharpe_mean_slope",
           "sharpe_rms_curve", "coupling", "coupling_slope")
EXPANSION = ("q_gradients", "pi_zero", "risk_tolerance", "first_order_value", "leading_order")
DUAL = ("evaluate", "marginal_value", "derivs")


class _Patches:
    """Replace attributes in a ``with`` block and restore them on exit."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, make):
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False


class EngineTap(_Patches):
    """Keeps every ``run_ensembles`` result so the checks can read the paths.

    It costs one list append per engine call and records no time, so it stays
    installed while the untraced rounds are timed.
    """

    def __init__(self):
        super().__init__()
        self.calls = []

    def __enter__(self):
        def make(original):
            def run_ensembles(*args, **kwargs):
                ensembles = original(*args, **kwargs)
                self.calls.append(ensembles)
                return ensembles
            return run_ensembles

        for module in (simulate, experiments):
            self.replace(module, "run_ensembles", make)
        return self


def _z_outside(averages, z):
    grid = getattr(averages, "z_grid", None)
    if grid is None:
        return 0
    z = np.asarray(z, dtype=float)
    lo, hi = grid[0], grid[-1]
    if z.min(initial=lo) >= lo and z.max(initial=hi) <= hi:
        return 0
    return int(np.count_nonzero((z < lo) | (z > hi)))


def _lookup_info(args, kwargs):
    return _z_outside(args[0], args[1] if len(args) > 1 else kwargs["z"])


def _inverse_marginal_info(args, kwargs):
    return int(np.size(args[1] if len(args) > 1 else kwargs["y"]))


def _engine_info(args, kwargs):
    strategies, cfg = args[1], args[3] if len(args) > 3 else kwargs["cfg"]
    return len(strategies) * cfg.n_paths * cfg.n_steps


class Tracer(_Patches):
    """Records a span around each wrapped call while the block is open."""

    def __init__(self):
        super().__init__()
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._dispatcher = None  # open run_ensembles span, parent of pool-thread chunks

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, fn, args=(), kwargs=None, info=None, dispatcher=False):
        """Call fn(*args, **kwargs) inside a span named `name`."""
        kwargs = kwargs or {}
        stack = self._stack()
        parent = stack[-1] if stack else self._dispatcher
        sid = next(self._ids)
        extra = info(args, kwargs) if info is not None else None
        stack.append(sid)
        outer_dispatcher = self._dispatcher
        if dispatcher:
            self._dispatcher = sid
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            if dispatcher:
                self._dispatcher = outer_dispatcher
            self.spans.append((sid, name, start, end, parent, threading.get_ident(), extra))

    def _wrapper(self, name, info=None, dispatcher=False):
        def make(original):
            def traced(*args, **kwargs):
                return self.span(name, original, args, kwargs, info, dispatcher)
            return traced
        return make

    def __enter__(self):
        for module in (factors, experiments):
            self.replace(module, "averaged_sharpe", self._wrapper("factors.averaged_sharpe"))
        for attr in LOOKUPS:
            self.replace(factors.FactorAverages, attr,
                         self._wrapper(f"factors.{attr}", info=_lookup_info))
        for attr in EXPANSION:
            self.replace(asymptotics.ExpansionBundle, attr, self._wrapper(f"asymptotics.{attr}"))
        for attr in DUAL:
            self.replace(merton._DualCore, attr, self._wrapper(f"merton.dual.{attr}"))
        self.replace(utility.UtilitySpec, "inverse_marginal",
                     self._wrapper("utility.inverse_marginal", info=_inverse_marginal_info))
        for module in (simulate, experiments):
            self.replace(module, "run_ensembles",
                         self._wrapper("simulate.run_ensembles", info=_engine_info,
                                       dispatcher=True))
            self.replace(module, "estimate_value", self._wrapper("simulate.estimate_value"))
            self.replace(module, "summarize", self._wrapper("simulate.summarize"))
        self.replace(simulate, "_simulate_chunk", self._wrapper("simulate.chunk"))
        return self

    def write(self, path, **header):
        rows = [list(s) for s in sorted(self.spans)]
        path.write_text(json.dumps(
            {**header, "fields": ["id", "name", "start", "end", "parent", "thread", "info"],
             "spans": rows}))


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _, start, end, _, _, _ in spans:
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[sid] = (end - start) - covered
    return out


def layer_totals(spans, start: float, end: float) -> dict:
    """Per span name, over the spans inside [start, end]: calls, total and self
    seconds, summed ``info``, and calls whose parent is a Newton solve."""
    names = {s[0]: s[1] for s in spans}
    selfs = self_times(spans)
    totals = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "info": 0,
                                  "in_newton": 0})
    for sid, name, s0, s1, parent, _, info in spans:
        if s0 < start or s1 > end:
            continue
        row = totals[name]
        row["calls"] += 1
        row["total_s"] += s1 - s0
        row["self_s"] += selfs[sid]
        row["info"] += info or 0
        row["in_newton"] += names.get(parent) == "merton.dual.marginal_value"
    return totals
