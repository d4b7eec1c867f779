"""Every name a module exports through ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import insiderlab

MODULES = ["insiderlab"] + [
    f"insiderlab.{m.name}" for m in pkgutil.iter_modules(insiderlab.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
