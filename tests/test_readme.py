"""The README's library sketch imports only names the package provides, and its
command-line usage block only flags the parser accepts."""

import argparse
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_imports_resolve():
    text = README.read_text()
    imports = re.findall(r"^from plotburn[\w.]* import (?:\([^)]*\)|.*)$", text, re.M)
    assert any(line.startswith("from plotburn import (") for line in imports)
    for statement in imports:
        exec(statement, {})


def test_usage_block_flags_are_accepted():
    """Every --flag of the "Command line" usage block is an option of its
    subcommand in cli.build_parser(); the parser is read, nothing is run."""
    from plotburn.cli import build_parser

    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    flags: dict[str, set[str]] = {}
    for line in block.splitlines():
        if line.startswith("plotburn "):
            command = line.split()[1]
        for flag in re.findall(r"--[\w-]+", line):
            flags.setdefault(command, set()).add(flag)

    (subparsers,) = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    assert set(flags) <= set(subparsers.choices)
    for command, used in flags.items():
        accepted = set(subparsers.choices[command]._option_string_actions)
        assert used <= accepted, (command, sorted(used - accepted))
