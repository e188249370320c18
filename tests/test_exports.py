"""Every public name of the package resolves: the names in each module's
``__all__``, and each name ``schemeflow/__init__.py`` re-exports, which is
also public in the module it comes from."""

import ast
import importlib
import pkgutil

import pytest

import schemeflow

MODULES = sorted(m.name for m in pkgutil.iter_modules(schemeflow.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"schemeflow.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_reexports_resolve():
    with open(schemeflow.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"schemeflow.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, (node.module, alias.name)
            assert getattr(schemeflow, alias.asname or alias.name) is getattr(module, alias.name)
