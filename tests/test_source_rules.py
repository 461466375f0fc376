"""Source rules: invariants survive `python -O`, public names have callers, defaults vary.

`python -O` strips `assert` statements and folds `__debug__` to False, so a
check written either way silently disappears.  Every module of the package
raises explicitly instead.

A public module-level function or class that no module of the package names
is reachable only from tests; it either becomes a `verify` check or goes.
The same holds for the public methods and properties of public classes,
apart from the hooks the benchmark's layer tracer reads.

A defaulted parameter that no call in the package passes only ever takes its
default; it becomes the constant it always was.  One that every call in the
package passes has a default only tests take; the default goes.

The exact layers (words, orbits, graphs, coalgebra, the CLI's top level)
import neither numpy nor the numeric modules when they load, so the
commands that need no complex arithmetic start without numpy.

The package's `__init__` is its docstring alone: every name is reached
through the module that defines it, never through a second namespace.

No module reads another module's private name, as `module._name` or
`from .module import _name`: what one module needs from another is public,
so the caller rule sees it.

Records are named tuples, and a validated record checks its fields in
`__new__`.  No module imports `dataclasses`, and none calls a named tuple's
`_make` or `_replace`, which build a record without calling `__new__`.

A law is reported as a `verify` check's result, never as an exception:
no module raises or catches `AssertionError`.  Every name a module imports is used in
that module; a name a test reads is read from the module that defines it.

Only `language` reads the word-set cap WORD_TIME_MAX: its
`require_word_time` is the one rule that admits a word-set time, and no
other module bounds, clamps or restates that time on its own.
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


def _attribute_reads(module: ast.Module) -> set[tuple[str, str | None]]:
    """(attribute, enclosing Class.method or None) for every `x.attribute` in a module."""
    found = set()
    for stmt in module.body:
        inside = {id(n): f"{stmt.name}.{f.name}" for f in _methods(stmt) for n in ast.walk(f)}
        for node in ast.walk(stmt):
            if isinstance(node, ast.Attribute):
                found.add((node.attr, inside.get(id(node))))
    return found


def _methods(stmt: ast.stmt) -> list[ast.FunctionDef]:
    """The methods and properties a class statement defines; none for any other statement."""
    if not isinstance(stmt, ast.ClassDef):
        return []
    return [f for f in stmt.body if isinstance(f, ast.FunctionDef)]


def _trees(paths) -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in paths if p.name != "__init__.py"}


# Read only by the benchmark's layer tracer (perfbench/layers.py), never by the package.
BENCHMARK_HOOKS = {("walk.py", "SymbolicState.total_words")}


def uncalled_names(paths) -> list[str]:
    """Public module-level names, and public methods and properties of public classes,
    that no other code in the package mentions.

    A module-level name counts as mentioned anywhere outside its own
    definition.  A method counts as read by any `x.method` outside its own
    body, matched by name whatever the receiver: it passes when a method
    of that name on any class is read.
    """
    trees = _trees(paths)
    references = set().union(*(_references(tree) for tree in trees.values()))
    reads = set().union(*(_attribute_reads(tree) for tree in trees.values()))
    public = [
        (module, stmt)
        for module, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_")
    ]
    orphans = [
        f"{module}:{stmt.name}"
        for module, stmt in public
        if not any(ref == stmt.name and owner != stmt.name for ref, owner in references)
    ]
    orphans += [
        f"{module}:{qualified}"
        for module, stmt in public
        for method in _methods(stmt)
        if not method.name.startswith("_")
        for qualified in [f"{stmt.name}.{method.name}"]
        if (module, qualified) not in BENCHMARK_HOOKS
        and not any(attr == method.name and owner != qualified for attr, owner in reads)
    ]
    return orphans


def test_every_public_name_has_a_caller():
    orphans = uncalled_names(MODULES)
    assert not orphans, f"public names with no caller in the package: {orphans}"


def test_a_method_read_only_by_itself_or_by_nothing_has_no_caller(tmp_path):
    (tmp_path / "m.py").write_text(
        "class Box:\n"
        "    def used(self):\n"
        "        return self.size\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 1\n"
        "    def unused(self):\n"
        "        return self.unused()\n"
        "    @property\n"
        "    def shape(self):\n"
        "        return ()\n"
        "def run():\n"
        "    return Box().used()\n"
        "run()\n",
        encoding="utf-8",
    )
    assert uncalled_names([tmp_path / "m.py"]) == ["m.py:Box.unused", "m.py:Box.shape"]


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


def _default_uses(paths) -> list[tuple[str, set[bool]]]:
    """Per defaulted parameter, whether each call of its function in the package passes it."""
    trees = _trees(paths)
    calls = [c for tree in trees.values() for c in _passed_arguments(tree)]
    return [
        (
            f"{module}:{function}({param})",
            {
                param in keywords or None in keywords or (index is not None and count > index)
                for name, count, keywords in calls
                if name == function
            },
        )
        for module, tree in trees.items()
        for function, index, param in _defaulted_parameters(tree)
        if (module, function) not in ENTRY_POINTS
    ]


def unpassed_defaults(paths) -> list[str]:
    return [param for param, passed in _default_uses(paths) if True not in passed]


def test_every_defaulted_parameter_is_passed_somewhere():
    unpassed = unpassed_defaults(MODULES)
    assert not unpassed, f"defaulted parameters that only ever take their default: {unpassed}"


def defaults_never_taken(paths) -> list[str]:
    """Defaulted parameters that every call in the package passes: only tests take the default."""
    return [param for param, passed in _default_uses(paths) if False not in passed]


def test_every_default_is_taken_by_some_call():
    always_passed = defaults_never_taken(MODULES)
    assert not always_passed, f"defaults that no package call relies on: {always_passed}"


def test_a_default_every_call_passes_is_never_taken(tmp_path):
    (tmp_path / "m.py").write_text(
        "def f(a, b=1, c=2, *, d=3):\n"
        "    return a + b + c + d\n"
        "def __repr__(x=0):\n"
        "    return x\n"
        "f(1, 2, d=4)\n"
        "f(1, b=2, d=5)\n"
        "f(*[1, 2, 3], d=6)\n",
        encoding="utf-8",
    )
    assert defaults_never_taken([tmp_path / "m.py"]) == ["m.py:f(b)", "m.py:f(d)"]


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


def _private(name: str) -> bool:
    return name.startswith("_") and not re.fullmatch(r"__\w+__", name)


def private_reads(paths) -> list[str]:
    """Every `module._name` on a package module and every relative import of a private name."""
    modules = {p.stem for p in paths}
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in modules and _private(node.attr):
                    found.append(f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.level:
                found += [
                    f"{path.name}:{node.lineno}: from .{node.module or ''} import {alias.name}"
                    for alias in node.names
                    if _private(alias.name)
                ]
    return found


def test_no_module_reads_another_modules_private_name():
    offenders = private_reads(MODULES)
    assert not offenders, f"private names read from another module: {offenders}"


def record_bypasses(paths) -> list[str]:
    """Every import of dataclasses and every `._make(` or `._replace(` call."""
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                names = [f".{node.func.attr}("]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno}: {name}"
                for name in names
                if name.split(".")[0] == "dataclasses" or name in ("._make(", "._replace(")
            ]
    return found


def test_records_are_built_through_their_constructor():
    offenders = record_bypasses(MODULES)
    assert not offenders, f"dataclasses imports or constructor bypasses: {offenders}"


def test_a_dataclass_import_or_a_constructor_bypass_is_found(tmp_path):
    (tmp_path / "m.py").write_text(
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "from collections import namedtuple\n"
        "Pair = namedtuple('Pair', 'a b')\n"
        "p = Pair._make([1, 2])._replace(a=3)\n"
        "q = p.replace('a', 'b')\n",
        encoding="utf-8",
    )
    assert record_bypasses([tmp_path / "m.py"]) == [
        "m.py:1: dataclasses",
        "m.py:2: dataclasses",
        "m.py:5: ._replace(",
        "m.py:5: ._make(",
    ]


def assertion_catches(paths) -> list[str]:
    """Every `except` clause that names AssertionError, alone or in a tuple."""
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                names = {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
                if "AssertionError" in names:
                    found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_module_catches_assertion_error():
    offenders = assertion_catches(MODULES)
    assert not offenders, f"AssertionError caught: {offenders}"


def test_an_assertion_error_handler_is_found(tmp_path):
    (tmp_path / "m.py").write_text(
        "try:\n"
        "    pass\n"
        "except AssertionError:\n"
        "    pass\n"
        "try:\n"
        "    pass\n"
        "except (ValueError, AssertionError) as exc:\n"
        "    pass\n"
        "try:\n"
        "    raise AssertionError('raised, not caught')\n"
        "except ValueError:\n"
        "    pass\n",
        encoding="utf-8",
    )
    assert assertion_catches([tmp_path / "m.py"]) == ["m.py:3", "m.py:7"]


def assertion_raises(paths) -> list[str]:
    """Every `raise` of AssertionError, the class or a call of it."""
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(raised, ast.Name) and raised.id == "AssertionError":
                    found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_module_raises_assertion_error():
    offenders = assertion_raises(MODULES)
    assert not offenders, f"AssertionError raised: {offenders}"


def test_an_assertion_error_raise_is_found(tmp_path):
    (tmp_path / "m.py").write_text(
        "def f(x):\n"
        "    if x:\n"
        "        raise AssertionError('a law broken')\n"
        "    raise AssertionError\n"
        "def g():\n"
        "    raise ValueError('AssertionError')\n"
        "def h():\n"
        "    try:\n"
        "        pass\n"
        "    except AssertionError:\n"
        "        raise\n",
        encoding="utf-8",
    )
    assert sorted(assertion_raises([tmp_path / "m.py"])) == ["m.py:3", "m.py:4"]


def unused_imports(paths) -> list[str]:
    """Every name an import statement binds that its module never reads."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        found.append(f"{path.name}:{node.lineno}: {bound}")
    return found


def test_every_imported_name_is_used():
    offenders = unused_imports(MODULES)
    assert not offenders, f"imported names the module never reads: {offenders}"


def test_an_unused_import_is_found(tmp_path):
    (tmp_path / "m.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from math import comb, hypot\n"
        "def f(x: np.ndarray):\n"
        "    return comb(2, 1)\n",
        encoding="utf-8",
    )
    assert unused_imports([tmp_path / "m.py"]) == ["m.py:2: os", "m.py:4: hypot"]


def foreign_reads(paths, name: str, home: str) -> list[str]:
    """Every mention of `name` outside the module `home`: as a name, an attribute or an import."""
    found = []
    for path in paths:
        if path.name == home:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name
                or isinstance(node, ast.alias) and node.name == name
            ):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_only_language_reads_the_word_set_cap():
    offenders = foreign_reads(MODULES, "WORD_TIME_MAX", "language.py")
    assert not offenders, f"WORD_TIME_MAX read outside language.require_word_time: {offenders}"


def test_a_read_of_a_name_outside_its_home_is_found(tmp_path):
    (tmp_path / "language.py").write_text(
        "WORD_TIME_MAX = 24\n"
        "def require(t):\n"
        "    return t <= WORD_TIME_MAX\n",
        encoding="utf-8",
    )
    (tmp_path / "m.py").write_text(
        "from . import language\n"
        "from .language import WORD_TIME_MAX as CAP\n"
        "def f(t):\n"
        "    return min(t, language.WORD_TIME_MAX)\n"
        "def g(t):\n"
        "    return 'WORD_TIME_MAX', language.require(t)\n",
        encoding="utf-8",
    )
    paths = [tmp_path / "language.py", tmp_path / "m.py"]
    assert foreign_reads(paths, "WORD_TIME_MAX", "language.py") == ["m.py:2", "m.py:4"]
