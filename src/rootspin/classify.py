"""Recognition of root systems by exact invariants.

The fingerprint of a root set is its Signature: ambient dimension, root
count, the multiset of pairwise angles (each pair's signed squared cosine
sign(a|b) (a|b)^2 / ((a|a)(b|b)) with its multiplicity, as
Lattice.angle_counts counts them), and the component sizes of the
non-orthogonality graph.  All four are invariant under exact orthogonal
changes of frame, and none depends on root lengths, which matters because
induced systems always come out unit-length (an F4 configuration with both
orbits at unit length is still F4 here).  The angle key lies in the field of
the roots, so no root is normalized and no square root is taken; it is a
reduced row of ints (lattice.AngleKey), so it has no 64-bit bound.  The
counts and the Coxeter order are read off the orbits of the reflection table
of the input's RootSystem.lattice (roots.py), built once per row set, shared
by every live set with the same rows (a relabelled copy), and computed once;
what is stored is read, never mutated.

The catalog used by identify() is generated from each member's own defining
data at call time; nothing is matched against transcribed numbers.  Entries
are indexed on (dimension, root count), taken from the presets' defining
data, and identify() computes the signatures of an input's candidates only.
Likewise coxeter_matrix reads each label off its own pair of roots, not off a
table of cos^2(pi/m): the label is the order of s_a s_b, run on the pair's
rows with the one reflection formula (lattice.int_reflect), and it builds no
RootSystem, so no record.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .errors import NotRepresentable, RootspinError, UnknownAngle, ZeroRoot
from .presets import a1_system, build_preset, direct_sum, get_preset
from .lattice import AngleKey, field_cmp, field_sign, int_mirror, int_reflect, vectors_disc
from .roots import RootSystem, Vector, row_in, row_vector
from .roots import simple_roots_of  # noqa: F401  (re-exported: coxeter_matrix takes its output)


class Signature(NamedTuple):
    """Rotation-invariant fingerprint of a root system.

    spectrum holds the (key, multiplicity) pairs of Lattice.angle_counts,
    unordered.  A key (s, t, r, e) is the signed squared cosine
    (s + t sqrt(e)) / r, reduced with r > 0, and e is the field: the roots'
    disc where t != 0, else 1, so a rational value has one key in every
    field and two signatures are equal exactly when their values are.
    __str__ still says "distinct inner products", the words it printed when
    the spectrum held the inner products of the unit-normalized roots: the
    signed squared cosine is a one-to-one function of that inner product, so
    on a set with one root per direction the count is the same, and the
    classify output stays byte-identical.
    """

    dim: int
    count: int
    spectrum: frozenset[tuple[AngleKey, int]]
    components: tuple[int, ...]  # component sizes, descending

    def __str__(self) -> str:
        return (
            f"dim {self.dim}, {self.count} roots, "
            f"{len(self.spectrum)} distinct inner products, "
            f"components {list(self.components)}"
        )


def signature(rs: RootSystem) -> Signature:
    """Exact signature of a root system, read off rs.lattice's rows as stored."""
    angles, components = rs.lattice.angle_counts()
    return Signature(
        dim=rs.dim,
        count=len(rs),
        spectrum=frozenset(angles.items()),
        components=tuple(sorted(components, reverse=True)),
    )


@lru_cache(maxsize=1)
def _catalog_table() -> dict[str, tuple[tuple[int, int], tuple[str, ...]]]:
    """Entry name -> ((dimension, root count), parts), in catalog order.

    Members: A1^k, the dihedrals I2(n) for n in {2, 3, 4, 6}, A3, B3, H3,
    D4, F4, H4, and all direct sums that fit in dimension 4 within a single
    quadratic field.  I2(8) and I2(12) close exactly and have signatures,
    since a signature takes no square root, but they are not members yet: an
    input with their signature is "unrecognized".  A part is "A1" or a
    preset; keys add (1, 2) per A1 and each preset's dim and expected_count.
    """
    i2, rank3 = ("I2-3", "I2-4", "I2-6"), ("A3", "B3", "H3")
    same_field_pairs = ((3, 3), (3, 6), (4, 4), (6, 6))
    table = {}
    for parts in (
        ("A1",), ("A1", "A1"), *((p,) for p in i2),
        ("A1xA1xA1",), *((p, "A1") for p in i2), *((p,) for p in rank3),
        ("A1",) * 4, *((p, "A1", "A1") for p in i2),
        *((f"I2-{m}", f"I2-{n}") for m, n in same_field_pairs),
        *((p, "A1") for p in rank3), ("D4",), ("F4",), ("H4",),
    ):
        presets = [get_preset(p) for p in parts if p != "A1"]
        a1s = parts.count("A1")
        dim = a1s + sum(p.dim for p in presets)
        count = 2 * a1s + sum(p.expected_count for p in presets)
        table["x".join(parts)] = (dim, count), parts
    return table


@lru_cache(maxsize=None)  # keyed on entry names, so at most 26 values
def _entry_signature(name: str) -> Signature:
    _, parts = _catalog_table()[name]
    systems = [a1_system() if p == "A1" else build_preset(p) for p in parts]
    return signature(systems[0] if len(systems) == 1 else direct_sum(*systems, label=name))


def catalog() -> tuple[tuple[str, Signature], ...]:
    """Named signatures for every recognizable system of dimension 1..4."""
    return tuple((name, _entry_signature(name)) for name in _catalog_table())


catalog.cache_info = _entry_signature.cache_info
catalog.cache_clear = _entry_signature.cache_clear


def identify(sig: Signature) -> str:
    """Catalog name matching the signature, or "unrecognized".

    Only the entries with the input's (dimension, root count) get a signature.
    """
    key = (sig.dim, sig.count)
    for name, (entry_key, _) in _catalog_table().items():
        if entry_key == key and _entry_signature(name) == sig:
            return name
    return "unrecognized"


# -- Coxeter group order ------------------------------------------------------


def coxeter_order(rs: RootSystem) -> int:
    """Order of the group generated by all root reflections, acting on roots.

    Read off rs.lattice, which finds it once per row set from the reflection
    table the axiom check reads (Lattice.coxeter_order).  RootspinError at
    the first root whose reflection leaves the set, as that check finds it.
    """
    lattice = rs.lattice
    missing = lattice.axiom_witnesses()[1]
    if missing is not None:
        root = row_vector(rs.rows[missing[0]], rs.disc)
        raise RootspinError(
            f"{rs!r} is not reflection-closed at root {root}; run verify_root_axioms"
        )
    return lattice.coxeter_order()


# -- Coxeter matrix of simple roots --------------------------------------------


class CoxeterMatrix(NamedTuple):
    rank: int
    entries: tuple[tuple[int, ...], ...]

    def __str__(self) -> str:
        return "\n".join(" ".join(f"{m:2d}" for m in row) for row in self.entries)


def coxeter_matrix(simple: Sequence[Vector]) -> CoxeterMatrix:
    """Labels m_ij with (a_i|a_j)/(|a_i||a_j|) = -cos(pi/m_ij), exactly.

    m_ij is the order of the rotation s_i s_j: the cycle length of a_i under
    it, read on the pair's own rows with the one reflection formula
    (lattice.int_reflect), so an orthogonal pair gives 2 with no special case.
    The rotation turns the plane of the pair by twice the angle between the
    mirrors, so the pair is simple exactly when (a_i|a_j) <= 0 and s_i s_j
    moves a_i to its nearest point on the cycle, at the angle 2pi/m: I2(8)'s
    pair at 5pi/8 has the cycle length 8 too, but its step is 3pi/4.  A
    quadratic field holds cos(2pi/m) only where phi(m) <= 4, so a finite
    cycle has at most 12 points.  A cycle past 12 (an infinite group) and a
    pair that is not simple raise UnknownAngle; a zero vector raises ZeroRoot.
    """
    if any(a.is_zero() for a in simple):
        raise ZeroRoot("the zero vector has no angle to a simple root")
    rank = len(simple)
    rows = [[1] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            rows[i][j] = rows[j][i] = _label(simple[i], simple[j])
    return CoxeterMatrix(rank, tuple(tuple(r) for r in rows))


def _label(a: Vector, b: Vector) -> int:
    """m for the simple pair a, b of a finite dihedral group; UnknownAngle otherwise."""
    a._operand(b)
    d = vectors_disc((a, b))
    x, y = row_in(a, d), row_in(b, d)
    mirror_a, mirror_b = int_mirror(x, d), int_mirror(y, d)
    cycle = [int_reflect(int_reflect(x, mirror_b, d), mirror_a, d)]  # s_a s_b a, ... , a
    while cycle[-1] != x:
        if len(cycle) == 12:
            raise UnknownAngle(f"{a} and {b} generate an infinite reflection group")
        cycle.append(int_reflect(int_reflect(cycle[-1], mirror_b, d), mirror_a, d))

    def dot(z):  # D_a (a|z) as (s + t sqrt(d)) / D_z, read through a's dual rows
        return sum(map(mul, mirror_a[2], z)), sum(map(mul, mirror_a[3], z)), z[-1]

    first = dot(cycle[0])
    if field_sign(*dot(y)[:2], d) > 0 or len(cycle) < 2 or any(
        field_cmp(first, z, d) < 0 for z in map(dot, cycle[1:-1])
    ):
        raise UnknownAngle(f"{a} and {b} are not the simple roots of the group they generate")
    return len(cycle)


# -- survey --------------------------------------------------------------------


SURVEY_INPUTS = (
    "A1xA1xA1",
    "A1xI2-3",
    "A1xI2-4",
    "A1xI2-5",
    "A1xI2-6",
    "A3",
    "B3",
    "H3",
)

COUNTEREXAMPLE_NAME = "I2-4xA1xA1"


class SurveyRow(NamedTuple):
    input: str
    dim: int
    root_count: Optional[int]
    spinor_order: Optional[int]
    induced_name: str
    axioms_ok: Optional[bool]
    note: str = ""


class SurveyTable(NamedTuple):
    rows: tuple[SurveyRow, ...]
    counterexample_name: str
    counterexample_absent: bool

    def _grid(self, blank: str, verdict: dict) -> list[tuple[str, ...]]:
        """The header, then one row of cells per input: a count there is none of is blank,
        and axioms_ok is written verdict[axioms_ok]."""
        grid = [("input", "dim", "root_count", "spinor_order", "induced_name", "axioms_ok")]
        for r in self.rows:
            counts = (blank if n is None else str(n) for n in (r.root_count, r.spinor_order))
            grid.append((r.input, str(r.dim), *counts, r.induced_name, verdict[r.axioms_ok]))
        return grid

    def to_text(self) -> str:
        grid = self._grid("-", {None: "n/a", True: "yes", False: "NO"})
        widths = [max(map(len, column)) for column in zip(*grid)]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in grid]
        verdict = "absent" if self.counterexample_absent else "PRESENT"
        lines += ["", f"signature of {self.counterexample_name} among induced systems: {verdict}"]
        lines += [f"note [{r.input}]: {r.note}" for r in self.rows if r.note]
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        grid = self._grid("", {None: "", True: "true", False: "false"})
        return "".join(",".join(row) + "\n" for row in grid)


@lru_cache(maxsize=None)
def survey() -> SurveyTable:
    """Induce every rank-3 catalog member and classify the results.

    Also checks the negative claim: no induced signature may coincide with
    the signature of I2(4) x A1 x A1, so the induction map cannot be onto in
    rank 4.  Inputs with no exact quadratic realization are reported as
    unrealizable rows rather than silently dropped.
    """
    from .induction import induce_4d  # only the survey induces: classify alone never loads it

    rows: list[SurveyRow] = []
    induced_signatures: list[Signature] = []
    for name in SURVEY_INPUTS:
        try:
            rs = build_preset(name)
        except NotRepresentable as exc:
            rows.append(
                SurveyRow(
                    input=name,
                    dim=3,
                    root_count=None,
                    spinor_order=None,
                    induced_name="unrealizable",
                    axioms_ok=None,
                    note=str(exc),
                )
            )
            continue
        induced = induce_4d(rs)
        sig = signature(induced)
        induced_signatures.append(sig)
        rows.append(
            SurveyRow(
                input=name,
                dim=rs.dim,
                root_count=len(rs),
                spinor_order=len(induced),
                induced_name=identify(sig),
                axioms_ok=True,  # induce_4d raises unless the axioms hold
            )
        )
    target = _entry_signature(COUNTEREXAMPLE_NAME)  # a catalog entry: identify may have built it
    absent = all(sig != target for sig in induced_signatures)
    return SurveyTable(tuple(rows), COUNTEREXAMPLE_NAME, absent)
