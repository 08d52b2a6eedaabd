"""Public names: every entry of an ``__all__`` resolves, and README's
library example runs."""

import importlib
import pkgutil
from pathlib import Path

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


def test_readme_library_example_runs(capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(readme), "exec"), {})
    # The last line it prints is the audit verdict of the POA allocation.
    assert capsys.readouterr().out.splitlines()[-1] == "True"
