"""README's "Package layout" names every module of the package and every script in tools/."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def layout_names(readme: str) -> set[str]:
    """The file names (`x.py`) in the code block under README's "Package layout" heading."""
    block = re.search(r"^## Package layout\n+```\n(.*?)^```", readme, re.M | re.S)
    assert block, "README has no Package layout block"
    return set(re.findall(r"[\w.]+\.py\b", block.group(1)))


def test_the_layout_reader_finds_the_names_of_its_block_only():
    readme = ("intro names cli.py\n## Package layout\n\n```\nsrc/\n  a.py    one\n"
              "tools/  b.py: two; c.py: three\n```\nafter: d.py\n")
    assert layout_names(readme) == {"a.py", "b.py", "c.py"}


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "rootspin").glob("*.py"))
                         + sorted((ROOT / "tools").glob("*.py")),
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_the_package_layout_names_every_module_and_tool(path):
    assert path.name in layout_names((ROOT / "README.md").read_text())
