"""The README's library sketch imports only names the package provides."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_imports_resolve():
    text = README.read_text()
    imports = re.findall(r"^from plotburn[\w.]* import (?:\([^)]*\)|.*)$", text, re.M)
    assert any(line.startswith("from plotburn import (") for line in imports)
    for statement in imports:
        exec(statement, {})
