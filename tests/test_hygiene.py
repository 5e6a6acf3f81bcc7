"""Code hygiene: no unused imports and no dead definitions.

There is no linter in the toolchain, so these checks walk syntax trees with
``ast``.  Every name a module of the package (except the re-exporting
``__init__``) imports must appear as a ``Name`` node in that module.  Every
top-level function, class and assignment of the package, and every method
that is not a dunder, must be read somewhere in ``src/``, ``tests/`` or
``bench/``: as a loaded ``Name`` or as the attribute of an ``Attribute``.
The second check goes by name only, so a definition whose name is also read
for an unrelated object escapes it.
"""

from __future__ import annotations

import ast
from pathlib import Path

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


def test_every_definition_is_used():
    sources = [
        path.read_text()
        for folder in ("src", "tests", "bench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    ]
    read = set().union(*map(_reads, sources))
    dead = {
        path.name: [name for name in _definitions(path.read_text()) if name not in read]
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {module: names for module, names in dead.items() if names} == {}
