"""Source rules: invariants must survive `python -O`, and public names have callers.

`python -O` strips `assert` statements and folds `__debug__` to False, so a
check written either way silently disappears.  Every module of the package
raises explicitly instead.

A public module-level function or class that no module of the package names
is reachable only from tests; it either becomes a `verify` check or goes.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "walkgrammar"
MODULES = sorted(PACKAGE.rglob("*.py"))


def test_package_has_modules():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_or_debug_guard(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    offenders = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert) or (isinstance(node, ast.Name) and node.id == "__debug__")
    ]
    assert not offenders, f"stripped by python -O: {offenders}"


def _references(module: ast.Module) -> set[tuple[str, str | None]]:
    """(name, enclosing top-level def) for every name a module mentions outside a def line."""
    found = set()
    for stmt in module.body:
        owner = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                found.add((node.id, owner))
            elif isinstance(node, ast.Attribute):
                found.add((node.attr, owner))
            elif isinstance(node, ast.alias):
                found.add((node.name, owner))
    return found


def test_every_public_name_has_a_caller():
    trees = {
        p.name: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES if p.name != "__init__.py"
    }
    references = set().union(*(_references(tree) for tree in trees.values()))
    orphans = [
        f"{name}:{stmt.name}"
        for name, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not stmt.name.startswith("_")
        and not any(ref == stmt.name and owner != stmt.name for ref, owner in references)
    ]
    assert not orphans, f"public names with no caller in the package: {orphans}"
