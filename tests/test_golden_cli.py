"""CLI answers pinned to recorded digests.

`golden_cli.json` maps each command line below to the sha256 of its
(exit code, stdout, stderr) from an in-process `cli.main` call.  A change
that alters any answer, message or exit code on these verbs fails here.
When an answer is meant to change, regenerate the file and say why in the
change log:

    PYTHONPATH=src python tests/test_golden_cli.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from rootspin.caps import ENV_VAR
from rootspin.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

RANK3 = ["A1xA1xA1", "A3", "B3", "H3", *(f"A1xI2-{n}" for n in (2, 3, 4, 6, 8, 12))]
PRESETS = RANK3 + [*(f"I2-{n}" for n in (2, 3, 4, 6, 8, 12)), "D4", "F4", "H4"]

COMMANDS = (
    [["classify", "--preset", name] for name in PRESETS]
    + [["verify", "--preset", name] for name in PRESETS]
    + [["induce", "--preset", name, "--format", "json"] for name in RANK3]
    + [["survey"], ["survey", "--format", "csv"]]
    + [["selfdual", str(n)] for n in range(2, 13)]
)


def digest(argv: list[str]) -> str:
    """sha256 of the JSON triple [exit code, stdout, stderr] of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _key(argv: list[str]) -> str:
    return " ".join(argv)


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_command(golden):
    assert sorted(golden) == sorted(map(_key, COMMANDS))


@pytest.mark.parametrize("argv", COMMANDS, ids=_key)
def test_cli_output_matches_golden(argv, golden, monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    assert digest(argv) == golden[_key(argv)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_cli.py --write")
    os.environ.pop(ENV_VAR, None)
    table = {_key(argv): digest(argv) for argv in COMMANDS}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} digests to {GOLDEN}")
