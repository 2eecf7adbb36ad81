"""Every name a module of the package or a test module imports is used in
that module, and the package imports only at module level.

A deletion can strand the import of a name it no longer needs; this guard
reads each module's syntax tree with the standard library ``ast`` and fails
on any imported name that is never referenced.  Names listed in a module's
``__all__`` count as used, since they are re-exported.  An import inside a
function hides a module's dependencies from its header, so the package has
none.
"""

import ast
from pathlib import Path

import pytest

import chatelet

PACKAGE = sorted(Path(chatelet.__file__).parent.glob("*.py"))
MODULES = PACKAGE + sorted(Path(__file__).parent.glob("*.py"))


def _bound_names(tree: ast.AST) -> dict[str, int]:
    """Name bound by each import (``import a.b`` binds ``a``) -> its line."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    return bound


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            ann = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            ann = node.returns
        else:
            continue
        if ann is not None:
            yield ann


def _used_names(tree: ast.AST) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # quoted annotations ("QuadExt") are strings in the tree; parse them too
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used_names(ast.parse(node.value, mode="eval"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = _bound_names(tree)
    unused = sorted(set(bound) - _used_names(tree))
    assert not unused, [f"{path.name}:{bound[n]}: {n}" for n in unused]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_imports_in_functions(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    nested = sorted(
        node.lineno
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom)))
    assert not nested, [f"{path.name}:{line}" for line in nested]
