"""Every name an efsim module exports through ``__all__`` resolves, so a
deleted function cannot leave its export behind, and no module imports a
name it never uses, so a deleted call cannot leave its import behind."""

import ast
import importlib
import os
import pkgutil

import pytest

import efsim

MODULES = ["efsim", *(m.name for m in pkgutil.walk_packages(efsim.__path__, "efsim."))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def _imported_names(tree: ast.Module, package: bool) -> dict[str, int]:
    """Every name a module's imports bind, with its line; ``__future__``
    imports are left out, and so are a package's submodule imports
    (``from . import x``)."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            if package and node.level and node.module is None:
                continue
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    module = importlib.import_module(name)
    path = module.__file__
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | set(getattr(module, "__all__", ()))
    imported = _imported_names(tree, os.path.basename(path) == "__init__.py")
    unused = {n: line for n, line in imported.items() if n not in used}
    assert unused == {}, f"{path}: imported but never used (name: line)"
