"""tools/mutants.py: each mutant's old string occurs exactly once in src/, in the
file it names, and the mutated file still compiles, so the list follows the code; and
a run prints each mutant's every killing test as it ends."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"
_spec = importlib.util.spec_from_file_location("mutants", _PATH)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_the_old_string_occurs_once_and_the_mutant_compiles(mutant):
    assert mutants.occurrences(mutant) == {mutant.file: 1}
    assert mutant.new != mutant.old and mutant.fault
    path = mutants.source(mutant)
    compile(path.read_text().replace(mutant.old, mutant.new), str(path), "exec")


def test_the_names_are_distinct_and_the_check_passes():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    assert mutants.main([]) == 0


def test_a_stale_mutant_is_reported(monkeypatch, capsys):
    stale = mutants.Mutant("stale", "roots.py", "no such line", "", "nothing")
    monkeypatch.setattr(mutants, "MUTANTS", (*mutants.MUTANTS, stale))
    assert mutants.main([]) == 1
    assert capsys.readouterr().out == "stale: old string found nowhere, not once in its file alone\n"


def test_a_run_prints_every_killing_test_as_each_mutant_ends(monkeypatch, capsys):
    # the table names three killers; the stderr line of each mutant names them all
    killers = [f"tests/test_x.py::test_{k}" for k in range(5)]
    two = mutants.MUTANTS[:2]

    def run_one(m, tree):
        print(f"running {m.name}", file=sys.stderr)
        return {"mutant": m.name, "tree": tree, "verdict": "killed" if m is two[0] else "survived",
                "killers": killers if m is two[0] else [], "summary": "", "seconds": 1.5}

    monkeypatch.setattr(mutants, "MUTANTS", two)
    monkeypatch.setattr(mutants, "tree_of", lambda rev: "tree")
    monkeypatch.setattr(mutants, "run_one", run_one)
    assert mutants.main(["--run"]) == 0
    out, err = capsys.readouterr()
    assert err.splitlines() == [
        f"running {two[0].name}",
        f"{two[0].name}: killed in 1.5 s by {', '.join(killers)}",
        f"running {two[1].name}",
        f"{two[1].name}: survived in 1.5 s",
    ]
    assert "`tests/test_x.py::test_2` and 2 more" in out and "1 of 2 killed" in out
