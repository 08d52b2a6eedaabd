"""Public names: every entry of an ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import covertjam

_MODULES = ["covertjam"] + [
    f"covertjam.{info.name}"
    for info in pkgutil.iter_modules(covertjam.__path__)]


@pytest.mark.parametrize("module_name", _MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    names = getattr(module, "__all__", [])
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(module, name)]
    assert not missing
