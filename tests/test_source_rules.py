"""Source rules: invariants must survive `python -O`.

`python -O` strips `assert` statements and folds `__debug__` to False, so a
check written either way silently disappears.  Every module of the package
raises explicitly instead.
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
