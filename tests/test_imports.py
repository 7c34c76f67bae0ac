"""Every name a module of the package imports is used in that module.

The package's __init__ is exempt: it imports names to re-export them.  Its
namespace is checked instead: what it binds and what __all__ names agree.
Every function the benchmark's tracer wraps by name must exist.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

import ellipkint

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ellipkint"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def _imported_names(tree: ast.Module):
    """The names the module's import statements bind, bar `from __future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_the_package_has_modules():
    assert len(MODULES) >= 9


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for name in _imported_names(tree) if name not in used] == []


def test_the_package_namespace_matches_its_all():
    public = {
        name
        for name, value in vars(ellipkint).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public <= set(ellipkint.__all__)
    assert [name for name in ellipkint.__all__ if not hasattr(ellipkint, name)] == []


@pytest.mark.parametrize("name", ["tanh_sinh_integrate", "Surd", "surd_normalize"])
def test_a_removed_name_is_not_in_the_package_namespace(name):
    # each lives in its own module: ellipkint.quadrature, ellipkint.quadfield
    assert not hasattr(ellipkint, name)


def _traced_names():
    """module.name for every function perfbench/worker.py's TRACED wraps, read from its source."""
    tree = ast.parse((ROOT / "perfbench" / "worker.py").read_text(encoding="utf-8"))
    (traced,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and "TRACED" in [getattr(t, "id", None) for t in node.targets]
    ]
    return [f"{module}.{name}" for module, names in ast.literal_eval(traced).items() for name in names]


@pytest.mark.parametrize("traced", _traced_names())
def test_every_traced_name_is_a_function_of_its_module(traced):
    # the benchmark's tracer wraps these by name and reports a missing one as
    # absent, so removing or renaming one breaks the benchmark, not the library
    module, name = traced.split(".")
    assert callable(getattr(importlib.import_module(f"ellipkint.{module}"), name, None))
