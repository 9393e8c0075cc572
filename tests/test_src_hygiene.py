"""Tooling checks on the package source."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "plotburn"


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


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_import(path):
    # __init__.py is exempt: its imports are the package's re-exports.
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_a_stale_import():
    source = ("import os\nimport sys  # noqa: F401\nfrom math import inf, pi\n"
              "from . import cv as crossval\nprint(pi, crossval)\n")
    assert unused_imports(source) == ["1: os", "3: inf"]
