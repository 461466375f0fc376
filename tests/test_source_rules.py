"""Source rules: invariants survive `python -O`, public names have callers, defaults vary.

`python -O` strips `assert` statements and folds `__debug__` to False, so a
check written either way silently disappears.  Every module of the package
raises explicitly instead.

A public module-level function or class that no module of the package names
is reachable only from tests; it either becomes a `verify` check or goes.

A defaulted parameter that no call in the package passes only ever takes its
default; it becomes the constant it always was.

The exact layers (words, orbits, graphs, coalgebra, the CLI's top level)
import neither numpy nor the numeric modules when they load, so the
commands that need no complex arithmetic start without numpy.

The package's `__init__` is its docstring alone: every name is reached
through the module that defines it, never through a second namespace.
"""

import ast
import re
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


# The console entry point: tests and perfbench pass argv, the package does not.
ENTRY_POINTS = {("cli.py", "main")}


def _defaulted_parameters(tree: ast.Module):
    """(function, index, name) per defaulted parameter; index counts positions after self/cls."""
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef) or re.fullmatch(r"__\w+__", node.name):
            continue
        positional = node.args.posonlyargs + node.args.args
        static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
        if id(node) in methods and not static:
            positional = positional[1:]
        first_default = len(positional) - len(node.args.defaults)
        for index, arg in enumerate(positional[first_default:], start=first_default):
            yield node.name, index, arg.arg
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield node.name, None, arg.arg


def _passed_arguments(tree: ast.Module):
    """(callee name, positional count, keyword names) per call; a splat passes everything."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        splat = any(isinstance(a, ast.Starred) for a in node.args)
        keywords = {k.arg for k in node.keywords}
        yield name, float("inf") if splat else len(node.args), keywords


def unpassed_defaults(paths) -> list[str]:
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in paths if p.name != "__init__.py"}
    calls = [c for tree in trees.values() for c in _passed_arguments(tree)]
    return [
        f"{module}:{function}({param})"
        for module, tree in trees.items()
        for function, index, param in _defaulted_parameters(tree)
        if (module, function) not in ENTRY_POINTS
        and not any(
            name == function
            and (param in keywords or None in keywords or (index is not None and count > index))
            for name, count, keywords in calls
        )
    ]


def test_every_defaulted_parameter_is_passed_somewhere():
    unpassed = unpassed_defaults(MODULES)
    assert not unpassed, f"defaulted parameters that only ever take their default: {unpassed}"


CORE = {"coalgebra", "graphs", "language", "orbits", "cli", "__init__"}
NUMERIC = {"quantize", "walk", "verify"}


def _load_time_imports(tree: ast.Module):
    """Every module an import statement outside a function body names."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                yield node.module
            else:
                yield from (alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))


def test_core_modules_import_no_numeric_code_at_load_time():
    assert {p.stem for p in MODULES} == CORE | NUMERIC
    offenders = [
        f"{path.name}: {name}"
        for path in MODULES
        if path.stem in CORE
        for name in _load_time_imports(ast.parse(path.read_text(encoding="utf-8")))
        if name.split(".")[0] in NUMERIC | {"numpy"}
    ]
    assert not offenders, f"core modules importing numeric code when they load: {offenders}"


def test_package_init_binds_no_name():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert ast.get_docstring(tree) and len(tree.body) == 1, "__init__.py is its docstring alone"
