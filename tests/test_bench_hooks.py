"""The benchmark's tracing hooks replace package attributes by name.

``bench/tracing.py`` wraps functions and methods of the package for the
length of a ``with`` block.  Renaming or deleting one of them breaks traced
benchmark runs, which the unit suite does not run; this guard enters and
exits both hooks without running a study.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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
