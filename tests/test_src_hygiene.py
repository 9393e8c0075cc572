"""Tooling checks on the package source."""

import ast
import functools
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "plotburn"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# Where a definition in src/plotburn may be used: a definition only tests call
# is a test oracle, and belongs in tests/.
USERS = sorted(p for d in ("src", "perfbench") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names an import binds that the module never reads, as
    "<line>: <name>"; an import on a line marked noqa is exempt, and so is
    from __future__."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append(f"{node.lineno}: {name}")
    return unused


def references(tree) -> list[tuple[str, int]]:
    """Each name the tree refers to, with its line: names read or bound,
    attributes, imported names, and string constants (a name passed as a
    string, as to getattr)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node.lineno))
        elif isinstance(node, ast.alias):
            found.append((node.name.rpartition(".")[2], node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.append((node.value, node.lineno))
    return found


@functools.cache
def referenced_names(path: pathlib.Path) -> frozenset[str]:
    return frozenset(name for name, _ in references(ast.parse(path.read_text())))


def unreferenced(source: str, elsewhere: set[str]) -> list[str]:
    """The top-level functions and classes of source that neither source,
    outside their own definitions, nor the names in elsewhere refer to."""
    tree = ast.parse(source)
    found = references(tree)
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        own = range(node.lineno, node.end_lineno + 1)
        if node.name not in elsewhere and not any(
                name == node.name and line not in own for name, line in found):
            unused.append(node.name)
    return unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_definition_is_used(path):
    elsewhere = set().union(*(referenced_names(p) for p in USERS if p != path))
    assert unreferenced(path.read_text(), elsewhere) == []


def test_the_check_finds_an_unused_definition():
    source = ("def used():\n    pass\n\n\ndef unused(n):\n    return unused(n - 1)\n\n\n"
              "class Named:\n    pass\n\n\nclass Imported:\n    pass\n\n\nused()\n")
    other = ast.parse("import x\nfrom m import Imported\ngetattr(x, 'Named')\n")
    assert unreferenced(source, {name for name, _ in references(other)}) == ["unused"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    # __init__.py is exempt: its imports are the package's re-exports.
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_a_stale_import():
    source = ("import os\nimport sys  # noqa: F401\nfrom math import inf, pi\n"
              "from . import cv as crossval\nprint(pi, crossval)\n")
    assert unused_imports(source) == ["1: os", "3: inf"]
