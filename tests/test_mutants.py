"""tools/mutants.py: each mutant's old string occurs exactly once in src/, in the
file it names, and the mutated file still compiles, so the list follows the code."""

from __future__ import annotations

import importlib.util
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
