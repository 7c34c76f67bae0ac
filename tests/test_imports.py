"""Every name a module of the package imports is used in that module.

The package's __init__ is exempt: it imports names to re-export them.  Its
namespace is checked instead: what it binds and what __all__ names agree.
"""

import ast
import types
from pathlib import Path

import pytest

import ellipkint

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ellipkint"
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
