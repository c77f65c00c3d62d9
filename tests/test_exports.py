"""Every name an efsim module exports through ``__all__`` resolves, so a
deleted function cannot leave its export behind, no module imports a name
it never uses, so a deleted call cannot leave its import behind, and the
modules import each other without a cycle."""

import ast
import graphlib
import importlib.util
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


def _efsim_imports(name: str) -> set[str]:
    """The efsim modules that module ``name`` imports anywhere in its source,
    inside functions too: ``from X import y`` counts as importing X.y where
    that is a module, else X."""
    module = importlib.import_module(name)
    package = name if os.path.basename(module.__file__) == "__init__.py" else name.rpartition(".")[0]
    with open(module.__file__) as fh:
        tree = ast.parse(fh.read(), module.__file__)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = importlib.util.resolve_name("." * node.level + (node.module or ""), package)
            imported |= {f"{base}.{alias.name}" if f"{base}.{alias.name}" in MODULES else base for alias in node.names}
    return imported & set(MODULES)


def test_module_imports_form_no_cycle():
    try:
        graphlib.TopologicalSorter({name: _efsim_imports(name) for name in MODULES}).prepare()
    except graphlib.CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")


# definitions no efsim code uses by name, each kept for a caller outside src
UNUSED_IN_SRC = {
    "compress": "perfbench/tracing.py wraps compress.compress by name",
    "read_trace_csv": "the trace format's reader, for reports that read written traces",
    "_Parser.error": "it overrides argparse.ArgumentParser.error, which argparse calls",
}


def test_every_definition_is_used_in_src():
    """Every module-level function or class, and every method but the
    dunders, of every efsim module has its name used, as a name or an
    attribute, somewhere in efsim's source.  The check is by name: an unused
    override of a used name, or a definition that only its own body uses,
    passes it."""
    defined, used = {}, set()
    for name in MODULES:
        path = importlib.import_module(name).__file__
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
        defs = [("", node) for node in tree.body] + [(f"{c.name}.", node) for c in classes for node in c.body]
        for prefix, node in defs:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("__"):
                defined[prefix + node.name] = (node.name, f"{name}:{node.lineno}")
        used |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    unused = {q: where for q, (n, where) in defined.items() if n not in used and q not in UNUSED_IN_SRC}
    assert unused == {}, "defined but never used in src (name: module:line)"
