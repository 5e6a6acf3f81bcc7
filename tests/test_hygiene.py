"""Code hygiene: no unused imports, no dead definitions, no asserts that act,
and an oracle that shares no code with what it referees.

There is no linter in the toolchain, so these checks walk syntax trees with
``ast``.  Every name a module of the package (except the re-exporting
``__init__``) imports must appear as a ``Name`` node in that module.  Every
top-level function, class and assignment of the package, and every method
that is not a dunder, must be read somewhere in ``src/``, ``tests/`` or
``bench/``: as a loaded ``Name`` or as the attribute of an ``Attribute``.
The second check goes by name only, so a definition whose name is also read
for an unrelated object escapes it.  Likewise by name, every parameter
default of a package function must be overridden by some call there, by
keyword or by position: a default that no call changes is a constant.  No ``assert`` in the package may bind a
name or call a mutating method in its test, because ``python -O`` strips the
whole statement and the effect with it; and every ``assert`` only narrows a
type (``x is not None``, possibly several joined by ``and``), because a
check that must hold under ``-O`` raises instead.  ``oracle.py`` may import neither the
fast counters (``evaluate``, ``count_subword``, ``apply_nielsen``,
``substitute``) nor any module of the algebra it checks (``relations``,
``action``, ``speed``, ``fixpoints``).  The package ``__init__`` lists in ``__all__`` each name it
imports, once, and no other.  Every source parses under the Python 3.10 grammar, the
oldest that CI runs; that checks syntax only, not stdlib names new in 3.11.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Optional

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qmforge"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "annotations":
                    imported.append(name)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_sees_an_unused_import():
    assert _unused_imports("import os\nfrom typing import Any, Optional\nx: Optional[int]\n") == [
        "os",
        "Any",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(source: str) -> list[str]:
    """Top-level functions, classes and assigned names, plus non-dunder methods."""
    names: list[str] = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names.extend(item.name for item in node.body if isinstance(item, ast.FunctionDef))
        elif isinstance(node, ast.Assign):
            names.extend(n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name))
        elif isinstance(node, ast.AnnAssign):
            names.extend(n.id for n in ast.walk(node.target) if isinstance(n, ast.Name))
    return [name for name in names if not _is_dunder(name)]


def _reads(source: str) -> set[str]:
    out: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def test_the_check_sees_a_dead_definition():
    source = (
        "X = 1\nY = X\n"
        "def used(): pass\ndef dead(): pass\n"
        "class C:\n    def __init__(self): pass\n    def m(self): pass\n    def gone(self): pass\n"
        "used(); C().m()\n"
    )
    assert [d for d in _definitions(source) if d not in _reads(source)] == ["Y", "dead", "gone"]


def _project_paths() -> list[Path]:
    return [
        path
        for folder in ("src", "tests", "bench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    ]


def _project_sources() -> list[str]:
    return [path.read_text() for path in _project_paths()]


def test_every_definition_is_used():
    read = set().union(*map(_reads, _project_sources()))
    dead = {
        path.name: [name for name in _definitions(path.read_text()) if name not in read]
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {module: names for module, names in dead.items() if names} == {}


def _defaulted_parameters(source: str) -> list[tuple[str, str, Optional[int]]]:
    """(function, parameter, position) of every parameter with a default.

    The position is the parameter's index among those a call passes
    positionally, not counting a method's self; None for keyword-only ones.
    """
    out: list[tuple[str, str, Optional[int]]] = []

    def visit(node: ast.AST, in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                args = child.args
                positional = args.posonlyargs + args.args
                static = any(getattr(d, "id", None) == "staticmethod" for d in child.decorator_list)
                if in_class and not static:
                    positional = positional[1:]
                first = len(positional) - len(args.defaults)
                out.extend((child.name, p.arg, i) for i, p in enumerate(positional) if i >= first)
                out.extend(
                    (child.name, p.arg, None)
                    for p, d in zip(args.kwonlyargs, args.kw_defaults)
                    if d is not None
                )
            visit(child, isinstance(child, ast.ClassDef))

    visit(ast.parse(source), False)
    return out


def _call_shapes(sources: list[str]) -> tuple[dict[str, float], set[tuple[str, Optional[str]]]]:
    """Per called name, the most arguments any call passes positionally
    (unbounded after a *splat), and every (name, keyword) passed (keyword
    None for a **splat)."""
    most: dict[str, float] = {}
    keywords: set[tuple[str, Optional[str]]] = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name is None:
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            most[name] = max(most.get(name, 0), float("inf") if starred else len(node.args))
            keywords.update((name, k.arg) for k in node.keywords)
    return most, keywords


def _constant_defaults(
    source: str, shapes: tuple[dict[str, float], set[tuple[str, Optional[str]]]]
) -> list[str]:
    """function.parameter for each default of source that no call of the given
    _call_shapes overrides."""
    most, keywords = shapes
    return [
        f"{name}.{param}"
        for name, param, position in _defaulted_parameters(source)
        if (name, param) not in keywords
        and (name, None) not in keywords
        and (position is None or most.get(name, 0) <= position)
    ]


def test_the_check_sees_a_default_no_call_overrides():
    source = (
        "def f(x, y=1, z=2, *, k=3, j=4): pass\n"
        "class C:\n    def m(self, a=0, b=0): pass\n"
        "    @staticmethod\n    def s(a=0): pass\n"
        "def g(a=0, *, k=1): pass\n"
        "f(0, 1)\nf(0, j=5)\nC().m(1)\nC.s(2)\ng(*[1], **{'k': 2})\n"
    )
    assert _constant_defaults(source, _call_shapes([source])) == ["f.z", "f.k", "m.b"]


def test_every_default_is_overridden_by_some_call():
    shapes = _call_shapes(_project_sources())
    constant = {path.name: _constant_defaults(path.read_text(), shapes) for path in MODULES}
    assert {module: names for module, names in constant.items() if names} == {}


MUTATORS = {
    "setdefault", "pop", "append", "extend", "update", "add",
    "remove", "insert", "clear", "popitem", "discard",
}


def _acting_asserts(source: str) -> list[int]:
    """Lines of asserts whose test contains a walrus or a mutating method call."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assert) and any(
            isinstance(sub, ast.NamedExpr)
            or (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in MUTATORS
            )
            for sub in ast.walk(node.test)
        ):
            lines.append(node.lineno)
    return lines


def test_the_check_sees_an_acting_assert():
    source = (
        "d, xs = {}, []\n"
        "assert d.setdefault(1, 2) == 2\n"
        "assert (n := len(xs)) == 0\n"
        "assert d.get(1) == 2, xs.append(0)\n"
        "assert len(xs.copy()) == 0\n"
        "if d.setdefault(3, 4) != 4:\n    raise ValueError\n"
    )
    assert _acting_asserts(source) == [2, 3]


def test_no_assert_acts():
    acting = {path.name: _acting_asserts(path.read_text()) for path in MODULES}
    assert {module: lines for module, lines in acting.items() if lines} == {}


def _is_narrowing(test: ast.expr) -> bool:
    """`x is not None`, or a conjunction of such tests."""
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        return all(_is_narrowing(value) for value in test.values)
    return (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], ast.IsNot)
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    )


def _checking_asserts(source: str) -> list[int]:
    """Lines of asserts that check a fact rather than narrow a type."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Assert) and not _is_narrowing(node.test)
    ]


def test_the_check_sees_an_assert_that_checks():
    source = (
        "x = y = None\n"
        "assert x is not None\n"
        "assert x is not None and y is not None\n"
        "assert x is not None and y\n"
        "assert x >= 1\n"
        "assert x is None\n"
        "assert x is not y\n"
        "assert x is not None, 'message'\n"
        "assert x is not None or y is not None\n"
    )
    assert _checking_asserts(source) == [4, 5, 6, 7, 9]


def test_every_assert_only_narrows_types():
    checking = {path.name: _checking_asserts(path.read_text()) for path in MODULES}
    assert {module: lines for module, lines in checking.items() if lines} == {}


REFEREED_NAMES = {"evaluate", "count_subword", "apply_nielsen", "substitute"}
REFEREED_MODULES = {"relations", "action", "speed", "fixpoints"}


def _refereed_imports(source: str) -> list[str]:
    """Names and modules of the checked code that an oracle source imports."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            paths = [f"{node.module or ''}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        else:
            continue
        for path in paths:
            parts = path.split(".")
            found.extend(p for p in parts if p in REFEREED_MODULES)
            if parts[-1] in REFEREED_NAMES:
                found.append(parts[-1])
    return found


def test_the_check_sees_an_oracle_import_of_checked_code():
    source = (
        "from .counting import BrooksSum, evaluate\n"
        "from .freegroup import ball\n"
        "from .relations import normal_form\n"
        "from . import action\n"
        "import qmforge.speed\n"
        "def f():\n    from .freegroup import apply_nielsen\n"
    )
    assert _refereed_imports(source) == ["evaluate", "relations", "action", "speed", "apply_nielsen"]


def test_the_oracle_imports_none_of_the_code_it_checks():
    assert _refereed_imports((PACKAGE / "oracle.py").read_text()) == []


def _export_mismatch(source: str) -> dict[str, list[str]]:
    """Where a package __init__'s imports and its __all__ disagree: names
    imported but not listed, listed but not imported, and listed twice."""
    imported: set[str] = set()
    listed: list[str] = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
            listed = ast.literal_eval(node.value)
    found = {
        "not listed": sorted(imported - set(listed)),
        "not imported": sorted(set(listed) - imported),
        "listed twice": sorted({name for name in listed if listed.count(name) > 1}),
    }
    return {why: names for why, names in found.items() if names}


def test_the_check_sees_an_export_mismatch():
    source = (
        "from __future__ import annotations\n"
        "from .action import act, nrep\nfrom .counting import phi as p\n"
        "__version__ = '0'\n"
        "__all__ = ['act', 'p', 'speed', 'p']\n"
    )
    assert _export_mismatch(source) == {
        "not listed": ["nrep"],
        "not imported": ["speed"],
        "listed twice": ["p"],
    }


def test_the_package_exports_exactly_what_it_imports():
    assert _export_mismatch((PACKAGE / "__init__.py").read_text()) == {}


def _newer_grammar(source: str) -> Optional[str]:
    """Where and why source fails to parse as Python 3.10, or None."""
    try:
        ast.parse(source, feature_version=(3, 10))
    except SyntaxError as exc:
        return f"line {exc.lineno}: {exc.msg}"
    return None


def test_the_check_sees_grammar_newer_than_3_10():
    assert _newer_grammar("try:\n    pass\nexcept* ValueError:\n    pass\n") == (
        "line 4: Exception groups are only supported in Python 3.11 and greater"
    )
    assert _newer_grammar("match x:\n    case [1, *rest]:\n        pass\n") is None


def test_every_source_parses_as_python_3_10():
    newer = {path.relative_to(ROOT): _newer_grammar(path.read_text()) for path in _project_paths()}
    assert {str(path): why for path, why in newer.items() if why} == {}
