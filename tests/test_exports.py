"""Every name the package and its modules export resolves.

A stale ``__all__`` entry (a name renamed, moved or deleted) breaks only
``from ... import *``, which nothing else in the suite runs.
"""

import importlib
import pkgutil

import pytest

import multiscale_portfolio

MODULES = [multiscale_portfolio.__name__] + [
    f"{multiscale_portfolio.__name__}.{info.name}"
    for info in pkgutil.iter_modules(multiscale_portfolio.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = list(getattr(module, "__all__", ()))
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    namespace = {}
    exec(f"from {name} import *", namespace)  # raises AttributeError on a stale entry
    assert set(exported) <= set(namespace)

