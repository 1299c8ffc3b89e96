"""How the package meets the code around it.  The traced benchmark run
(perfbench) wraps package functions by name, so a refactor that renames or
removes one would silently drop its layer.  And the package carries no API
that only tests call."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

from perfbench.spans import LAYER_FUNCTIONS


def test_layer_functions_resolve():
    for qualname in LAYER_FUNCTIONS:
        module, name = qualname.split(".")
        assert callable(getattr(importlib.import_module(f"linkscope.{module}"), name, None)), qualname


def _top_level_definitions(tree: ast.Module):
    """(name, statement) for each name a module's top-level statements bind
    by def, class or assignment."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            yield stmt.name, stmt
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    yield target.id, stmt
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            yield stmt.target.id, stmt


def _names_used(stmt: ast.stmt) -> set[str]:
    """Names a statement uses as code, bare or as attributes; a mention in a
    docstring or another string does not count."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(stmt)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_every_public_name_is_used_outside_tests():
    """No API that only tests call: each public top-level name of the package
    is referenced by the code of the package or of the benchmark harness,
    outside its own definition."""
    root = Path(__file__).resolve().parents[1]
    package = sorted((root / "src" / "linkscope").glob("*.py"))
    files = package + sorted((root / "perfbench").glob("*.py"))
    trees = {f: ast.parse(f.read_text(encoding="utf-8")) for f in files}
    used = [(stmt, _names_used(stmt)) for tree in trees.values() for stmt in tree.body]
    unused = [
        f"{f.stem}.{name}"
        for f in package
        for name, own in _top_level_definitions(trees[f])
        if not name.startswith("_") and not any(name in names for stmt, names in used if stmt is not own)
    ]
    assert unused == []
