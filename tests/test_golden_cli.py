"""CLI answers pinned to recorded digests.

`golden_cli.json` maps each command line below to the sha256 of its
(exit code, stdout, stderr) from an in-process `cli.main` call.  A change
that alters any answer, message or exit code on these verbs fails here.

To pin commands newly added to COMMANDS, record only their digests:

    PYTHONPATH=src python tests/test_golden_cli.py --add

When an answer is meant to change, rewrite the digests of the named
commands only, and show the old and the new output in the change log:

    PYTHONPATH=src python tests/test_golden_cli.py --update "classify --preset I2-8" ...

Both exit non-zero, naming each command and writing nothing, if any other
recorded digest no longer matches.  The file is never regenerated wholesale:
an answer that changes unnamed is a regression until shown otherwise.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from rootspin.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

RANK3 = ["A1xA1xA1", "A3", "B3", "H3", *(f"A1xI2-{n}" for n in (2, 3, 4, 6, 8, 12))]
PRESETS = RANK3 + [*(f"I2-{n}" for n in (2, 3, 4, 6, 8, 12)), "D4", "F4", "H4"]

COMMANDS = (
    [["classify", "--preset", name] for name in PRESETS]
    + [["verify", "--preset", name] for name in PRESETS]
    + [["induce", "--preset", name, "--format", "json"] for name in RANK3]
    + [["induce", "--preset", name, "--format", "text"] for name in RANK3]
    + [["induce", "--preset", f"I2-{n}"] for n in (2, 3, 4, 6, 8, 12)]
    + [["survey"], ["survey", "--format", "csv"]]
    + [["selfdual", str(n)] for n in range(2, 13)]
    + [["roots", "--preset", name, "--format", fmt]
       for name in PRESETS for fmt in ("json", "text")]
    # options the verb does not read are refused; no verb takes --cap
    + [["verify", "--preset", "F4", "--format", "json"],
       ["classify", "--preset", "F4", "--format", "json"],
       ["selfdual", "4", "--format", "csv"],
       ["survey", "--cap", "3"],
       ["survey", "--format", "json"],
       ["roots", "--preset", "H4", "--cap", "120"],
       ["induce", "--preset", "H3", "--cap", "1000"],
       ["classify", "--preset", "H4", "--cap", "10"],
       ["selfdual", "6", "--cap", "10"]]
    # a name no preset has is a usage error
    + [["roots", "--preset", "XYZ"]]
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
def test_cli_output_matches_golden(argv, golden):
    assert digest(argv) == golden[_key(argv)]


def test_update_rewrites_only_the_named_digests(tmp_path, monkeypatch, capsys):
    original = GOLDEN.read_text(encoding="utf-8")
    recorded = json.loads(original)
    copy = tmp_path / GOLDEN.name
    monkeypatch.setitem(globals(), "GOLDEN", copy)
    named, other = "classify --preset A3", "verify --preset A3"
    stale = dict(recorded, **{named: "0" * 64, other: "0" * 64})
    copy.write_text(json.dumps(stale), encoding="utf-8")
    assert _record([named]) == 1  # the other stale digest is not named
    assert _record(["classify --preset A9"]) == 1
    assert json.loads(copy.read_text(encoding="utf-8")) == stale
    assert other in capsys.readouterr().err
    stale[other] = recorded[other]
    copy.write_text(json.dumps(stale), encoding="utf-8")
    assert _record([named]) == 0
    assert copy.read_text(encoding="utf-8") == original


def _record(named: list[str] | None) -> int:
    """Write golden_cli.json: the missing digests (named is None, --add) or the named ones."""
    commands = {_key(argv): argv for argv in COMMANDS}
    unknown = [key for key in named or () if key not in commands]
    if unknown:
        print("not in COMMANDS:", *unknown, sep="\n  ", file=sys.stderr)
        return 1
    table = json.loads(GOLDEN.read_text(encoding="utf-8"))
    digests = {key: digest(argv) for key, argv in commands.items()}
    changed = [
        key for key, value in table.items()
        if key not in (named or ()) and digests.get(key, value) != value
    ]
    if changed:
        print("recorded digests no longer match:", *changed, sep="\n  ", file=sys.stderr)
        return 1
    written = digests.keys() - table.keys() if named is None else named
    table.update((key, digests[key]) for key in written)
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(written)} digests to {GOLDEN}")
    return 0


if __name__ == "__main__":
    mode, named = sys.argv[1:2], sys.argv[2:]
    if mode == ["--add"] and not named:
        sys.exit(_record(None))
    if mode == ["--update"] and named:
        sys.exit(_record(named))
    sys.exit('usage: python tests/test_golden_cli.py --add | --update "<command>" ...')
