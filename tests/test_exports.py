"""Every exported name resolves, the removed time-grid layer stays gone, and
the README's Python API example runs against the package."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import photonstat as ps

MODULES = [m.name for m in pkgutil.iter_modules(ps.__path__, "photonstat.")]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


def test_package_reexports_resolve():
    tree = ast.parse(Path(ps.__file__).read_text())
    imports = [node for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"photonstat.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), f"photonstat.{node.module}.{alias.name}"
            assert getattr(ps, alias.asname or alias.name) is getattr(module, alias.name)


@pytest.mark.parametrize("name", ["segment_propagators", "PropagatorGrid", "GridError"])
def test_time_grid_layer_removed(name):
    for module in [ps, *map(importlib.import_module, MODULES)]:
        assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_readme_api_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("## Python API"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out
