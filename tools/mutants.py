"""Mutation run: does tier-1 catch each of a list of planted faults?

    python tools/mutants.py                      # check the list against src/
    python tools/mutants.py --run

A mutant is one exact edit to a file under src/: an old string that occurs
there exactly once, the new string that replaces it, and one line on the
fault it models.  Without --run the script only checks that every old string
still occurs exactly once in src/, so the list follows the code.  With --run
each mutant is applied to its own `git archive` copy of the working tree
(tools/abbench.py's "worktree" tree), tier-1 runs there, and the mutant is
"killed" when tier-1 fails, with the failing tests named, or "survived" when
it passes; tests/test_mutants.py, the list check, is left out of these runs.
Each result is printed to stderr as it ends, with every killing test, and the
table at the end, which names the first three, is the one the change log
carries.  One tier-1 run takes
35-240 s on a 2-vCPU host, longer the more tests fail and the longer
hypothesis shrinks a failing example.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

sys.path.insert(0, str(Path(__file__).resolve().parent))
from abbench import ROOT, tree_of, unpack  # noqa: E402

# tier-1 without the check of this list, which every mutant fails by design: its
# old string is gone from the mutated copy
TIER1 = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--ignore=tests/test_mutants.py"]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/rootspin
    old: str
    new: str
    fault: str


MUTANTS = (
    Mutant("pair-products-no-closure", "induction.py",
           "    if rs.lattice.axiom_witnesses()[1] is not None:\n",
           "    if False:\n",
           "pair_products multiplies an input that is not reflection-closed as it is"),
    Mutant("field-sign-in-floats", "qfield.py",
           "bigger = x if x * x > disc * y * y else y",
           "bigger = x if abs(x) > disc ** 0.5 * abs(y) else y",
           "field_sign compares abs(x) with sqrt(d) abs(y) in floats"),
    Mutant("vector-product-e13-surd-sign", "lattice.py",
           "p1 * t3 + q1 * r3 - p3 * t1 - q3 * r1,",
           "p1 * t3 + q1 * r3 - p3 * t1 + q3 * r1,",
           "one sign in the e13 surd term of int_vector_product"),
    Mutant("readout-e13-sign", "lattice.py",
           "return x[:4] + (-x[4], -x[5]) + x[6:]",
           "return x[:4] + (x[4], x[5]) + x[6:]",
           "vec4_numerators reads e13 without its sign, as if e13 were I e2"),
    Mutant("add-no-lcm-rescale", "lattice.py",
           "out = [p * a + r * b for p, r in zip(x[:-1], y[:-1])]",
           "out = [p * a + r for p, r in zip(x[:-1], y[:-1])]",
           "Exact.__add__ adds the second row without rescaling it to the common denominator"),
    Mutant("add-left-disc", "lattice.py",
           "        d = self.disc if self.disc == other.disc else vectors_disc((self, other))\n"
           "        x, y = self.row, other.row\n",
           "        d = self.disc\n"
           "        x, y = self.row, other.row\n",
           "a sum takes the left operand's field, even when only the right one has a surd"),
    Mutant("2d-pad-in-front", "induction.py",
           "half = [u[:4] + (0, 0) + u[4:] for u in half]",
           "half = [(0, 0) + u for u in half]",
           "a 2D root is padded into the e2 e3 plane instead of the e1 e2 plane"),
    Mutant("2d-no-closure", "induction.py",
           "    if rs.lattice.axiom_witnesses()[1] is not None:\n",
           "    if rs.dim == 3 and rs.lattice.axiom_witnesses()[1] is not None:\n",
           "a 2D input that is not reflection-closed is not closed first"),
    Mutant("induced-set-not-stored", "induction.py",
           "    if lattice.induced is None:\n",
           "    if True:\n",
           "the induced set is computed again on every call"),
    Mutant("induced-set-on-the-outputs-record", "induction.py",
           "        lattice.induced = out.lattice\n",
           "        lattice = out.lattice\n"
           "        lattice.induced = out.lattice\n",
           "the induced set is stored on the output's record, not the input's"),
    Mutant("rotor-group-no-product-check", "clifford.py",
           "if int_product(x, y, EVEN_BY_EVEN, d) not in rows:",
           "if False:",
           "RotorGroup accepts a set that is not closed under the product"),
    Mutant("registry-key-without-disc", "roots.py",
           "key = frozenset(rows), disc",
           "key = frozenset(rows)",
           "the same integer rows over two fields share one registry entry"),
    Mutant("record-in-given-order", "roots.py",
           "Lattice(tuple(sorted_numerators(list(rows), disc)), disc)",
           "Lattice(tuple(rows), disc)",
           "a new record keeps its rows in the order given, not in canonical order"),
    Mutant("record-not-registered", "roots.py",
           "lattice = _LATTICES[key] = Lattice(",
           "lattice = Lattice(",
           "a new record is not registered, so each RootSystem builds its own"),
    Mutant("registry-keeps-records-alive", "roots.py",
           "_LATTICES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()",
           "_LATTICES: dict = {}",
           "the registry holds its records strongly, so none goes with its last RootSystem"),
    Mutant("roots-decoded-per-view", "roots.py",
           "            lattice.roots = tuple(row_vector(x, self.disc) for x in self.rows)\n"
           "        return lattice.roots\n",
           "            return tuple(row_vector(x, self.disc) for x in self.rows)\n"
           "        return lattice.roots\n",
           "RootSystem.roots decodes the rows on every read and stores nothing in the record"),
    Mutant("angle-key-no-field-tag", "lattice.py",
           "values[s // g, t // g, r // g, d if t else 1] += c",
           "values[s // g, t // g, r // g, d] += c",
           "a rational angle key carries the set's field, so equal values differ across fields"),
    Mutant("angle-key-no-conjugate", "lattice.py",
           "s, t, r = p * m - d * q * n, q * m - p * n, m * m - d * n * n",
           "s, t, r = p * m + d * q * n, q * m + p * n, m * m - d * n * n",
           "the squared cosine is multiplied by the product of the norms, not its conjugate"),
    Mutant("angle-counts-keep-the-pair-r-r", "lattice.py",
           "            counts[ga[r], gb[r], products[r]] -= size  # not the pair (r, r)\n",
           "",
           "angle_counts counts each root paired with itself"),
    Mutant("label-obtuse-test-dropped", "classify.py",
           "field_sign(*dot(y)[:2], d) > 0 or ",
           "",
           "_label takes a pair with (a|b) > 0 as simple when its step is the nearest"),
    Mutant("label-nearest-test-dropped", "classify.py",
           " or any(\n"
           "        field_sign(s * w - p * n, t * w - q * n, d) < 0 for p, q, w in map(dot, cycle[1:-1])\n"
           "    )",
           "",
           "_label takes any obtuse pair as simple, whatever the rotation's step"),
    Mutant("label-antiparallel-test-dropped", "classify.py",
           " or len(cycle) < 2",
           "",
           "_label gives a root and its negative the label 1"),
    Mutant("label-step-bound-11", "classify.py",
           "if len(cycle) == 12:",
           "if len(cycle) == 11:",
           "_label calls a cycle of 12 points an infinite group, so I2(12) has no label"),
    Mutant("row-wrap-unchecked", "lattice.py",
           "        check_row(x)\n"
           "        out = object.__new__(cls)\n",
           "        out = object.__new__(cls)\n",
           "Exact._from_row wraps a row past the 64-bit bound without raising"),
    Mutant("rotor-unit-check-dropped", "clifford.py",
           "        if not _is_unit(mv.row, mv.disc):\n"
           "            raise NonUnitVector(f\"not normalised",
           "        if False:\n"
           "            raise NonUnitVector(f\"not normalised",
           "Rotor accepts an even element with R ~R != 1"),
    Mutant("mirror-unit-check-dropped", "clifford.py",
           "    if not _is_unit(mv.row, mv.disc):  # v v is the sum of the squared coordinates\n",
           "    if False:\n",
           "reflect and rotor_from_vectors accept a mirror vector with v v != 1"),
)


def source(m: Mutant, root: Path = ROOT) -> Path:
    return root / "src" / "rootspin" / m.file


def occurrences(m: Mutant, root: Path = ROOT) -> dict[str, int]:
    """The files under src/ that hold m's old string, with the count in each."""
    found = {}
    for path in sorted((root / "src").rglob("*.py")):
        n = path.read_text().count(m.old)
        if n:
            found[str(path.relative_to(root / "src" / "rootspin"))] = n
    return found


def apply(m: Mutant, root: Path) -> None:
    path = source(m, root)
    text = path.read_text()
    if text.count(m.old) != 1:
        raise SystemExit(f"{m.name}: the old string occurs {text.count(m.old)} times in {m.file}")
    path.write_text(text.replace(m.old, m.new))


def run_one(m: Mutant, tree: str) -> dict:
    """Tier-1 on a copy of tree with m applied: verdict, failing tests and wall time."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        side = Path(tmp)
        unpack(tree, side)
        apply(m, side)
        env = {**os.environ, "PYTHONPATH": str(side / "src")}
        start = time.perf_counter()
        proc = subprocess.run(TIER1, cwd=side, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
    failed = re.findall(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", proc.stdout, re.M)
    summary = (proc.stdout.strip().splitlines() or [""])[-1]
    return {"mutant": m.name, "tree": tree, "verdict": "killed" if proc.returncode else "survived",
            "killers": failed, "summary": summary, "seconds": round(seconds, 1)}


def progress(r: dict) -> str:
    """The line printed as a mutant's run ends: its verdict, time and every killing test."""
    line = f"{r['mutant']}: {r['verdict']} in {r['seconds']} s"
    return f"{line} by {', '.join(r['killers'])}" if r["killers"] else line


def table(results: list[dict]) -> list[str]:
    faults = {m.name: m.fault for m in MUTANTS}
    out = ["| mutant | fault | verdict | killing tests | s |", "|---|---|---|---|---|"]
    for r in results:
        killers = ", ".join(f"`{k}`" for k in r["killers"][:3])
        if len(r["killers"]) > 3:
            killers += f" and {len(r['killers']) - 3} more"
        out.append(f"| {r['mutant']} | {faults.get(r['mutant'], '')} | {r['verdict']} | "
                   f"{killers or '-'} | {r['seconds']} |")
    killed = sum(r["verdict"] == "killed" for r in results)
    out.append(f"\n{killed} of {len(results)} killed")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--run", action="store_true", help="run tier-1 on each mutant")
    args = ap.parse_args(argv)
    stale = [(m.name, occurrences(m)) for m in MUTANTS if occurrences(m) != {m.file: 1}]
    for name, found in stale:
        print(f"{name}: old string found {found or 'nowhere'}, not once in its file alone")
    if stale or not args.run:
        return 1 if stale else 0
    tree, results = tree_of("worktree"), []
    for m in MUTANTS:
        results.append(run_one(m, tree))
        print(progress(results[-1]), file=sys.stderr)
    print("\n".join(table(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
