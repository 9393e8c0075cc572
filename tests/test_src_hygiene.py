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


# Only child.py starts, pipes to and reaps processes: one fork helper, whose
# parent reaps its own pids and never a child another part of a run tracks.
PROCESS_CALLS = ("fork", "pipe", "wait4")


def process_calls(source: str) -> list[str]:
    """Each os.fork, os.pipe and os.wait4 the source names, by attribute or
    by import, as "<line>: os.<name>", in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in PROCESS_CALLS
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append((node.lineno, f"os.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, f"os.{alias.name}") for alias in node.names
                      if alias.name in PROCESS_CALLS]
    return [f"{line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_child_forks_pipes_and_reaps(path):
    calls = process_calls(path.read_text())
    if path.name == "child.py":
        assert {call.split(": ")[1] for call in calls} == {f"os.{n}" for n in PROCESS_CALLS}
    else:
        assert calls == []


def test_the_check_finds_a_fork_outside_child():
    source = ("import os\nfrom os import pipe, getpid\nif hasattr(os, 'fork'):\n"
              "    pid = os.fork()\nos.wait4(pid, 0)\n")
    assert process_calls(source) == ["2: os.pipe", "4: os.fork", "5: os.wait4"]


# A SceneCube holds its passes as arrays. BandObservation is the view of one
# pass that SceneCube.observations makes, not a second way to build a cube.
def observation_calls(source: str) -> list[str]:
    """Each call of BandObservation the source makes, by name or attribute,
    as "<line>: <where>", where the dotted class and function names around
    the call ("<module>" outside any), in line order."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if where == "<module>" else f"{where}.{child.name}")
                continue
            if isinstance(child, ast.Call) and "BandObservation" in (
                    getattr(child.func, "id", None), getattr(child.func, "attr", None)):
                found.append((child.lineno, where))
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return [f"{line}: {where}" for line, where in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_cube_view_makes_observations(path):
    where = {call.split(": ")[1] for call in observation_calls(path.read_text())}
    assert where == ({"SceneCube.observations"} if path.name == "scene.py" else set())


def test_the_check_finds_an_observation_outside_the_view():
    source = ("from plotburn import scene\nobs = scene.BandObservation('A', None, {}, None, None)\n"
              "class Cube:\n    def observations(self):\n"
              "        return [BandObservation(*o) for o in self.passes]\n"
              "def build():\n    return Cube(sorted(BandObservation(), key=len))\n")
    assert observation_calls(source) == ["2: <module>", "5: Cube.observations", "7: build"]
