"""Every name that the package or one of its modules exports resolves."""

import importlib
import pkgutil

import pytest

import fracmirror

_MODULES = ["fracmirror"] + [
    f"fracmirror.{info.name}" for info in pkgutil.iter_modules(fracmirror.__path__)
]


@pytest.mark.parametrize("name", _MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= namespace.keys()
