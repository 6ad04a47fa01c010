"""Every name that a module of ``src/polyode`` imports is used in that
module or exported through its ``__all__``. An import kept only for code
that looks it up from outside (the benchmark tracer wraps some names where
they are imported) carries ``# noqa: F401`` on its line."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "polyode"


def unused_imports(source: str) -> list[str]:
    """``line: name`` for each imported name of ``source`` that is neither
    read as a name, listed in ``__all__``, nor on a ``# noqa: F401`` line."""
    tree, lines = ast.parse(source), source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(f"{alias.lineno}: {name}")
    return unused


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_flags_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from math import (\n"
        "    pi,\n"
        "    tau,  # noqa: F401\n"
        "    inf,\n"
        ")\n"
        "import os.path\n"
        "__all__ = ['pi']\n"
        "x = os.path.join('a')\n"
    )
    assert unused_imports(source) == ["2: np", "6: inf"]
