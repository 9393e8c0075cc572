"""The README's library sketch imports only names the package provides, its
command-line usage block only flags the parser accepts, and its run config
table lists RunConfig's fields with their defaults."""

import argparse
import dataclasses
import json
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


def test_config_table_lists_the_run_config_fields():
    """The field table under "The fields:" names each RunConfig field once,
    with its default: (required), none, or the JSON value."""
    from plotburn.pipeline import RunConfig

    table = README.read_text().split("The fields:\n\n", 1)[1].split("\n\n", 1)[0]
    listed = {}
    for row in table.splitlines()[2:]:
        names, default = row.split(" | ")[:2]
        for name in re.findall(r"`(\w+)`", names):
            assert name not in listed, name
            listed[name] = default
    expected = {f.name: "(required)" if f.default is dataclasses.MISSING
                else "none" if f.default is None else f"`{json.dumps(f.default)}`"
                for f in dataclasses.fields(RunConfig)}
    assert listed == expected
