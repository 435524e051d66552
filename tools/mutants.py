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

Each tier-1 child runs in a session of its own under two limits: TIME_LIMIT_S
of wall time, after which its whole process group is killed, and
MEMORY_LIMIT_BYTES of address space, set with resource.setrlimit in the child
alone and inherited by the processes it starts.  A run that meets either
limit gets the verdict "time-limit" or "memory-limit" (a MemoryError in its
output), never "killed", so a mutant that makes tier-1 loop or grow is named
and the run goes on to the next one.
"""

from __future__ import annotations

import argparse
import os
import re
import resource
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

sys.path.insert(0, str(Path(__file__).resolve().parent))
from abbench import ROOT, tree_of, unpack  # noqa: E402

# tier-1 without the check of this list, which every mutant fails by design: its
# old string is gone from the mutated copy
TIER1 = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--ignore=tests/test_mutants.py"]
TIME_LIMIT_S = 600
MEMORY_LIMIT_BYTES = 3_000_000 * 1024  # `ulimit -v 3000000`


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
    Mutant("field-sign-in-floats", "lattice.py",
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
           "        field_cmp(first, z, d) < 0 for z in map(dot, cycle[1:-1])\n"
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
    Mutant("field-sqrt-smaller-part-first", "qfield.py",
           "(2 * (x + s), 2 * (x - s))",
           "(2 * (x - s), 2 * (x + s))",
           "field_sqrt reads the smaller part first, so it may return the negative root"),
    Mutant("field-sqrt-surd-value-has-no-root", "qfield.py",
           "if x < 0 or s * s != n:",
           "if x < 0 or s * s != n or y:",
           "field_sqrt returns None for every value with a surd part"),
    Mutant("field-sqrt-no-q-root", "qfield.py",
           "(1, disc)):",
           "(1, 1)):",
           "field_sqrt never reads q off 4 d q^2, so it misses a root q sqrt(d) such as sqrt(2)"),
    Mutant("unit-rows-no-conjugate", "roots.py",
           "field_sqrt(s, -t, s * s - d * t * t, d)",
           "field_sqrt(s, t, s * s - d * t * t, d)",
           "unit_rows takes the root of (s + t sqrt(d)) / N, not of its inverse (s - t sqrt(d)) / N"),
    Mutant("scale-factor-unchecked", "lattice.py",
           "            check_row(factor)\n",
           "",
           "Exact.scale takes a factor past the 64-bit bound when the product is within it"),
    Mutant("scale-keeps-the-values-field", "lattice.py",
           "            factor, d = s.row, vectors_disc((self, s))\n",
           "            factor, d = s.row, self.disc\n",
           "Exact.scale by a QScalar keeps the value's disc, even where the factor has a surd"),
    Mutant("scale-by-the-conjugate", "lattice.py",
           "            factor, d = s.row, vectors_disc((self, s))\n",
           "            factor, d = s.conjugate().row, vectors_disc((self, s))\n",
           "Exact.scale by a QScalar multiplies the row by the factor's Galois conjugate"),
    Mutant("dot-surd-part-dropped", "roots.py",
           "x, z = sum(map(mul, u, y)), sum(map(mul, v, y))",
           "x, z = sum(map(mul, u, y)), 0",
           "Vector.dot drops the surd part of (a|b)"),
    Mutant("grade-row-unreduced", "clifford.py",
           "        g = math.gcd(*out)\n"
           "        return Multivector._from_row(tuple(z // g for z in out), self.disc)\n",
           "        g = 1\n"
           "        return Multivector._from_row(tuple(z // g for z in out), self.disc)\n",
           "Multivector.grade leaves its row unreduced, so equal values have unequal rows"),
    Mutant("order-surd-dropped", "lattice.py",
           "field_sign(s[0] * t[2] - t[0] * s[2], s[1] * t[2] - t[1] * s[2], disc)",
           "field_sign(s[0] * t[2] - t[0] * s[2], 0, disc)",
           "field_cmp drops the q terms, so it orders values by their rational parts alone"),
    Mutant("order-no-cross-multiply", "lattice.py",
           "field_sign(s[0] * t[2] - t[0] * s[2], s[1] * t[2] - t[1] * s[2], disc)",
           "field_sign(s[0] - t[0], s[1] - t[1], disc)",
           "field_cmp compares p_s with p_t and q_s with q_t across different D"),
    Mutant("order-left-field", "lattice.py",
           "field_cmp(s, t, common_disc(((self.disc, s[1]), (other.disc, t[1]))))",
           "field_cmp(s, t, self.disc)",
           "Exact's < takes the left operand's field, even when only the right one has a surd"),
    Mutant("rotor-group-given-order", "clifford.py",
           "group = cls._trusted([by_row[x] for x in sorted_numerators(list(by_row), d)])",
           "group = cls._trusted(list(by_row.values()))",
           "RotorGroup(...) keeps its elements in the order given, not in canonical order"),
    Mutant("format-value-minus-as-plus", "qfield.py",
           "return f\"{rat}{'+' if surd > 0 else '-'}{text}\"",
           "return f\"{rat}+{text}\"",
           "format_value prints a + b sqrt(d) with a negative b as a plus"),
    Mutant("norm-named-as-text", "qfield.py",
           "        return QScalar(rat, surd, disc)\n    except",
           "        return format_value(rat, surd, disc)\n    except",
           "scalar_or_text gives the text of every value, so NormNotInField holds no QScalar"),
    Mutant("qscalar-mul-drops-d-q-t", "lattice.py",
           "int_product(x, factor, ROW_BY_SCALAR[len(x) // 2], d), d)",
           "int_product(x, factor, ROW_BY_SCALAR[len(x) // 2], d if len(x) > 3 else 0), d)",
           "Exact.scale on one coordinate, QScalar's *, drops d q t from the rational part"),
    Mutant("qscalar-rational-hash-is-row-hash", "qfield.py",
           "return hash(self.row) if q else hash(Fraction(p, den))",
           "return hash(self.row)",
           "a rational QScalar hashes its row, not its Fraction, so it hashes unlike an equal int"),
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


def _limit_memory() -> None:
    # run in the tier-1 child before it starts: the address-space limit is its own
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT_BYTES, MEMORY_LIMIT_BYTES))


def run_one(m: Mutant, tree: str) -> dict:
    """Tier-1 on a copy of tree with m applied, under the time and memory limits:
    verdict, failing tests and wall time."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        side = Path(tmp)
        unpack(tree, side)
        apply(m, side)
        env = {**os.environ, "PYTHONPATH": str(side / "src")}
        start = time.perf_counter()
        proc = subprocess.Popen(TIER1, cwd=side, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True,
                                preexec_fn=_limit_memory)
        try:
            out, err = proc.communicate(timeout=TIME_LIMIT_S)
            verdict = "killed" if proc.returncode else "survived"
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # pytest and every process it started
            out, err = proc.communicate()
            verdict = "time-limit"
        seconds = time.perf_counter() - start
    if verdict != "time-limit" and "MemoryError" in out + err:
        verdict = "memory-limit"
    failed = re.findall(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", out, re.M)
    summary = (out.strip().splitlines() or [""])[-1]
    return {"mutant": m.name, "tree": tree, "verdict": verdict,
            "killers": failed if verdict == "killed" else [], "summary": summary,
            "seconds": round(seconds, 1)}


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
    verdicts = Counter(r["verdict"] for r in results)
    out.append(f"\n{verdicts['killed']} of {len(results)} killed" + "".join(
        f", {verdicts[v]} {v}" for v in ("time-limit", "memory-limit") if verdicts[v]))
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
