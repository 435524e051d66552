"""Every module of the package reads each name it imports."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rootspin"


def unused_imports(source: str) -> list[str]:
    """The names source imports and never reads, in order of appearance.

    A name counts as read wherever it occurs as an ast.Name, annotations
    included.  __future__ imports, star imports and names on a line marked
    `# noqa` (a deliberate re-export) are exempt.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name != "*" and name not in read and "# noqa" not in lines[alias.lineno - 1]:
                unused.append(name)
    return unused


def test_the_guard_finds_an_unused_name_and_honours_noqa():
    source = (
        "import os.path\n"
        "from json import dumps as write, loads\n"
        "from .roots import vec  # noqa: F401  (re-exported)\n"
        "from .lattice import (\n"
        "    Matrix,\n"
        "    negated,\n"
        ")\n"
        "def f(x: Matrix) -> None:\n"
        "    return loads(x)\n"
    )
    assert unused_imports(source) == ["os", "write", "negated"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text()) == []
