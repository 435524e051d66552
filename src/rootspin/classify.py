"""Recognition of root systems by exact invariants.

The fingerprint of a root set is its Signature: ambient dimension, root
count, the multiset of pairwise inner products of the unit-normalized roots
(each exact value with its multiplicity, as Lattice.pair_counts counts them),
and the component sizes of the non-orthogonality graph.  All four are
invariant under exact orthogonal changes of frame, and none depends on root
lengths, which matters because induced systems always come out unit-length
(an F4 configuration with both orbits at unit length is still F4 here).

The catalog used by identify() is generated from each member's own defining
data at call time; nothing is matched against transcribed numbers.  Entries
are indexed on (dimension, root count), taken from the presets' defining
data, and identify() computes the signatures of an input's candidates only.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

from .errors import (
    NotRepresentable,
    RootspinError,
    UnknownAngle,
    ZeroRoot,
)
from .lattice import Lattice
from .presets import a1_system, build_preset, direct_sum, get_preset
from .qfield import QScalar
from .roots import RootSystem, Vector, row_vector, unit_rows
from .roots import simple_roots_of  # noqa: F401  (re-exported: coxeter_matrix takes its output)


class Signature(NamedTuple):
    """Rotation-invariant fingerprint of a root system.

    spectrum holds the (inner product, multiplicity) pairs of pair_counts,
    unordered; a rational inner product equals itself under any disc tag.
    """

    dim: int
    count: int
    spectrum: frozenset[tuple[QScalar, int]]
    components: tuple[int, ...]  # component sizes, descending

    def __str__(self) -> str:
        return (
            f"dim {self.dim}, {self.count} roots, "
            f"{len(self.spectrum)} distinct inner products, "
            f"components {list(self.components)}"
        )


def signature(rs: RootSystem) -> Signature:
    """Exact signature of a root system (roots are unit-normalized first)."""
    units = unit_rows(rs)
    values, components = Lattice(units, rs.disc).pair_counts()
    return Signature(
        dim=rs.dim,
        count=len(units),
        spectrum=frozenset(values.items()),
        components=tuple(sorted(components, reverse=True)),
    )


@lru_cache(maxsize=1)
def _catalog_table() -> dict[str, tuple[tuple[int, int], tuple[str, ...]]]:
    """Entry name -> ((dimension, root count), parts), in catalog order.

    Members: A1^k, the exactly-realizable unit dihedrals I2(n) for n in
    {2, 3, 4, 6}, A3, B3, H3, D4, F4, H4, and all direct sums that fit in
    dimension 4 within a single quadratic field.  I2(8) and I2(12) close
    exactly but their unit normalisations leave every quadratic field, so
    they carry no computable signature and are absent.  A part is "A1" or a
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

    Orbit-stabilizer: the stabilizer of a root r is generated by the reflections
    in the roots orthogonal to r (Steinberg; Humphreys 1990, 1.12).
    """
    lattice = Lattice(rs.rows, rs.disc)
    table = lattice.reflection_table()
    for i, row in enumerate(table):
        if -1 in row:
            raise RootspinError(
                f"{rs!r} is not reflection-closed at root {row_vector(rs.rows[i], rs.disc)}; "
                "run verify_root_axioms"
            )
    order = 1
    neg = lattice.neg  # complete: s_a(a) = -a
    live = [i for i in range(len(table)) if i < neg[i]]  # one mirror per line: s_{-a} = s_a
    while live:
        r = live[0]
        orbit, frontier = {r}, {r}
        while frontier:
            frontier = set().union(*(map(table[i].__getitem__, frontier) for i in live)) - orbit
            orbit |= frontier
        order *= len(orbit)
        live = [j for j in live if table[r][j] == j]  # orthogonal to r: fixed by its reflection
    return order


# -- Coxeter matrix of simple roots --------------------------------------------


class CoxeterMatrix(NamedTuple):
    rank: int
    entries: tuple[tuple[int, ...], ...]

    def __str__(self) -> str:
        return "\n".join(" ".join(f"{m:2d}" for m in row) for row in self.entries)


def _cos2_target(m: int, disc: int) -> Optional[QScalar]:
    """cos^2(pi/m) as an exact element of Q(sqrt(disc)), if it lives there."""
    rational = {2: Fraction(0), 3: Fraction(1, 4), 4: Fraction(1, 2), 6: Fraction(3, 4)}
    if m in rational:
        return QScalar(rational[m])
    surd = {
        5: (5, Fraction(3, 8), Fraction(1, 8)),
        8: (2, Fraction(1, 2), Fraction(1, 4)),
        10: (5, Fraction(5, 8), Fraction(1, 8)),
        12: (3, Fraction(1, 2), Fraction(1, 4)),
    }
    if m in surd:
        d, a, b = surd[m]
        if d == disc:
            return QScalar(a, b, d)
    # m in {7, 9, 11}: cos^2(pi/m) has degree 3 over the rationals and can
    # never equal a quadratic-field inner product
    return None


_SUPPORTED_M = tuple(range(2, 13))


def coxeter_matrix(simple: Sequence[Vector]) -> CoxeterMatrix:
    """Labels m_ij with (a_i|a_j)/(|a_i||a_j|) = -cos(pi/m_ij), exactly.

    Matching is done on the squared cosine, which stays inside the field
    even when the root lengths themselves do not.  A zero vector raises ZeroRoot.
    """
    if any(a.is_zero() for a in simple):
        raise ZeroRoot("the zero vector has no angle to a simple root")
    rank = len(simple)
    norms = [a.norm_squared() for a in simple]
    rows = [[1] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            d = simple[i].dot(simple[j])
            if d.sign() > 0:
                raise UnknownAngle(
                    f"positive inner product between simple roots {simple[i]} "
                    f"and {simple[j]}"
                )
            m_found = None
            if d.is_zero():
                m_found = 2
            else:
                c2 = (d * d) / (norms[i] * norms[j])
                for m in _SUPPORTED_M:
                    target = _cos2_target(m, c2.disc)
                    if target is not None and c2 == target:
                        m_found = m
                        break
            if m_found is None:
                raise UnknownAngle(
                    f"angle between {simple[i]} and {simple[j]} matches no "
                    f"supported label m in {list(_SUPPORTED_M)}"
                )
            rows[i][j] = rows[j][i] = m_found
    return CoxeterMatrix(rank, tuple(tuple(r) for r in rows))


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

    def to_text(self) -> str:
        headers = ("input", "dim", "root_count", "spinor_order", "induced_name", "axioms_ok")
        grid = [headers]
        for r in self.rows:
            grid.append(
                (
                    r.input,
                    str(r.dim),
                    "-" if r.root_count is None else str(r.root_count),
                    "-" if r.spinor_order is None else str(r.spinor_order),
                    r.induced_name,
                    "n/a" if r.axioms_ok is None else ("yes" if r.axioms_ok else "NO"),
                )
            )
        widths = [max(len(row[c]) for row in grid) for c in range(len(headers))]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in grid]
        verdict = "absent" if self.counterexample_absent else "PRESENT"
        lines.append("")
        lines.append(
            f"signature of {self.counterexample_name} among induced systems: {verdict}"
        )
        notes = [r for r in self.rows if r.note]
        for r in notes:
            lines.append(f"note [{r.input}]: {r.note}")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        lines = ["input,dim,root_count,spinor_order,induced_name,axioms_ok"]
        for r in self.rows:
            lines.append(
                ",".join(
                    (
                        r.input,
                        str(r.dim),
                        "" if r.root_count is None else str(r.root_count),
                        "" if r.spinor_order is None else str(r.spinor_order),
                        r.induced_name,
                        "" if r.axioms_ok is None else str(r.axioms_ok).lower(),
                    )
                )
            )
        return "\n".join(lines) + "\n"


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
    target = signature(
        direct_sum(build_preset("I2-4"), a1_system(), a1_system(),
                   label=COUNTEREXAMPLE_NAME)
    )
    absent = all(sig != target for sig in induced_signatures)
    return SurveyTable(tuple(rows), COUNTEREXAMPLE_NAME, absent)
