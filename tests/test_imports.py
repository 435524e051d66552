"""Every module of the package reads each name it imports, none reads the environment,
the package keeps a fixed number of caches, and only roots.py builds a Lattice."""

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


_ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list[str]:
    """The os.environ / os.getenv reads in source, as "line N: name", in order.

    Covers `os.<name>` under any alias of os and `from os import <name>`.
    """
    tree = ast.parse(source)
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name == "os"
    }
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases and node.attr in _ENVIRONMENT:
                reads.append((node.lineno, f"os.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            reads += [(node.lineno, f"os.{a.name}") for a in node.names if a.name in _ENVIRONMENT]
    return [f"line {line}: {name}" for line, name in sorted(reads)]


def test_the_environment_guard_finds_every_spelling():
    source = (
        "import os\n"
        "import os as system\n"
        "from os import getenv, path\n"
        "CAP = os.environ.get('CAP')\n"
        "HOME = system.getenv('HOME')\n"
        "SEP = os.sep\n"
    )
    assert environment_reads(source) == ["line 3: os.getenv", "line 4: os.environ",
                                         "line 5: os.getenv"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reads_the_environment(path):
    # no setting outside a call's arguments may change an answer
    assert environment_reads(path.read_text()) == []


def lru_caches(source: str) -> list[str]:
    """The functions source decorates with functools.lru_cache, called or bare, in order.

    Covers `@lru_cache`, `@lru_cache(...)` and the same under `functools.`.
    """
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for deco in node.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                if (isinstance(target, ast.Name) and target.id == "lru_cache") or (
                    isinstance(target, ast.Attribute) and target.attr == "lru_cache"
                ):
                    names.append(node.name)
    return names


def test_the_cache_guard_finds_every_spelling():
    source = (
        "import functools\n"
        "from functools import lru_cache\n"
        "@lru_cache\n"
        "def a(): pass\n"
        "@lru_cache(maxsize=1)\n"
        "def b(): pass\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def c(): pass\n"
        "@staticmethod\n"
        "def d(): pass\n"
    )
    assert lru_caches(source) == ["a", "b", "c"]


def test_the_package_keeps_its_six_caches():
    # a cache is a second copy of a fact: adding one changes this number on purpose
    caches = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py")) for name in lru_caches(path.read_text())
    ]
    assert len(caches) == 6, caches


def calls_of(name: str, source: str) -> list[int]:
    """The lines on which source calls name, bare or as an attribute (`x.name(...)`)."""
    return [
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and (
            (isinstance(node.func, ast.Name) and node.func.id == name)
            or (isinstance(node.func, ast.Attribute) and node.func.attr == name)
        )
    ]


def test_the_call_guard_finds_every_spelling():
    source = "from . import lattice\nLattice(1)\nlattice.Lattice(2)\nLattice\nf(Lattice)\n"
    assert calls_of("Lattice", source) == [2, 3]


def test_only_roots_builds_a_lattice():
    # a Lattice takes a RootSystem's distinct nonzero rows, so RootSystem.lattice
    # is the one place that builds one
    builders = {
        path.name: lines for path in sorted(PACKAGE.glob("*.py"))
        if (lines := calls_of("Lattice", path.read_text()))
    }
    assert list(builders) == ["roots.py"] and len(builders["roots.py"]) == 1, builders
