"""tools/mutants.py: each mutant's old string occurs exactly once in src/, in the
file it names, and the mutated file still compiles, so the list follows the code; a
run prints each mutant's every killing test as it ends; and a tier-1 child that meets
the time or the memory limit gets that limit as its verdict, with its whole process
group gone."""

from __future__ import annotations

import importlib.util
import sys
import textwrap
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


def _fake_tier1(monkeypatch, code: str) -> dict:
    """run_one with a child that runs code in place of tier-1, on no tree and no mutant."""
    monkeypatch.setattr(mutants, "unpack", lambda tree, side: None)
    monkeypatch.setattr(mutants, "apply", lambda m, side: None)
    monkeypatch.setattr(mutants, "TIER1", [sys.executable, "-c", textwrap.dedent(code)])
    return mutants.run_one(mutants.MUTANTS[0], "tree")


def _gone(pid: int) -> bool:
    # no such process, or a zombie that no longer runs
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] in "ZX"
    except FileNotFoundError:
        return True


def test_a_child_past_the_time_limit_is_stopped_with_its_process_group(monkeypatch, capsys):
    monkeypatch.setattr(mutants, "TIME_LIMIT_S", 1)
    result = _fake_tier1(monkeypatch, """
        import subprocess, sys, time
        grandchild = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
        print("FAILED tests/test_x.py::test_a", grandchild.pid, flush=True)
        time.sleep(60)
    """)
    assert result["verdict"] == "time-limit" and result["killers"] == []
    assert 1 <= result["seconds"] < 30
    assert _gone(int(result["summary"].split()[-1]))
    assert mutants.progress(result) == f"{result['mutant']}: time-limit in {result['seconds']} s"
    lines = mutants.table([result])
    assert "| time-limit | - |" in lines[2] and lines[-1] == "\n0 of 1 killed, 1 time-limit"


def test_a_child_past_the_memory_limit_is_named_by_that_limit(monkeypatch):
    monkeypatch.setattr(mutants, "MEMORY_LIMIT_BYTES", 300 * 2**20)
    result = _fake_tier1(monkeypatch, """
        print(len(bytearray(2**30)))  # one GiB of address space: past the limit
    """)
    assert result["verdict"] == "memory-limit" and result["killers"] == []
    lines = mutants.table([result, {**result, "verdict": "killed", "killers": ["t"]}])
    assert "| memory-limit | - |" in lines[2] and lines[-1] == "\n1 of 2 killed, 1 memory-limit"


def test_a_failing_and_a_passing_child_are_killed_and_survived(monkeypatch):
    killed = _fake_tier1(monkeypatch, """
        print("FAILED tests/test_x.py::test_a - AssertionError")
        raise SystemExit(1)
    """)
    assert killed["verdict"] == "killed" and killed["killers"] == ["tests/test_x.py::test_a"]
    assert _fake_tier1(monkeypatch, "print('1 passed')")["verdict"] == "survived"
