"""Exact Euclidean vectors, root systems, reflection closure and root-system axioms.

A Vector is a lattice.Exact, as a clifford.Multivector is: it holds its
row, the reduced integer tuple of lattice.py, and its field's disc, decodes
its QScalar coords on first read, and takes its arithmetic from Exact; its
`unit` is unit_rows on its row, and its `dot` reads the two rows through
lattice.int_mirror's dual rows and builds one QScalar, the value it returns.
A RootSystem stores its roots as rows, deduplicated and in canonical order
(lattice.sorted_numerators', which is Vector's `<`), and takes a
Vector's row as it is when the Vector is over its field or rational.  The
stages below read the rows directly, so a root is encoded once, where it
enters (a Vector built from QScalars, or a JSON file's quads), and decoded
only where its coords are read: output, and the witnesses and error
messages that name it.  Every row, stored or new, is wrapped by
row_vector, which 64-bit-checks it.

Generating a root system means closing a set of simple roots under the
reflections they generate; verifying one means checking the two defining
axioms (only +-alpha among parallel members, invariance under all member
reflections) with exact arithmetic, so a verdict is a fact rather than a
tolerance call.

Each row set has one record, its lattice.Lattice, built here and nowhere
else, once: every RootSystem is made by one trusted constructor,
RootSystem._from_rows, which looks (frozenset(rows), disc) up in
`_LATTICES`, a registry of weak references to the records of the live
RootSystems.  Rows no live set holds are sorted, and their record built and
registered; otherwise the live set's record is taken.  A RootSystem is a
named view of its record (RootSystem.lattice), which holds the rows in
canonical order, the root Vectors once decoded, and the record of the
unnamed result of induction.induce_4d or induce_2d once computed.  So a
relabelled or shuffled copy, a file read back and an induced set equal to a
catalog entry all share one order and one record, which lives only as long
as a RootSystem holds it: the registry keeps nothing alive, and a stored
induced set goes with its input's last RootSystem.  The record computes its
reflection table, angle counts, axiom witnesses and Coxeter order once and
stores them; the axiom check, simple_roots_of, the signature and the Coxeter
order (classify.py) read them and never mutate them.
"""

from __future__ import annotations

import math
import weakref
from fractions import Fraction
from operator import mul
from typing import Collection, Iterable, NamedTuple, Optional, Sequence, Union

from .caps import ROOT_CLOSURE_CAP, admit
from .errors import DegenerateFunctional, DimensionMismatch, ZeroRoot
from .errors import NormNotInField, RootspinError
from .lattice import (
    Exact,
    Lattice,
    Numerators,
    field_sign,
    int_mirror,
    int_norm,
    int_reflect,
    negated,
    sorted_numerators,
    vectors_disc,
)
from .qfield import QScalar, _is_square_free, field_sqrt, scalar_or_text

Coord = Union[QScalar, int, Fraction]


class Vector(Exact):
    """Immutable exact vector of dimension 1..4 (1 only as a sum block).

    A Vector is a lattice.Exact: its row (p_1, q_1, ..., D) and its field's
    disc, with its coords, the QScalars, decoded on first read or kept as
    given.  Exact's arithmetic, equality, hashing and RootSystem membership
    work on the row.  All coordinates share one field: two surds from
    different fields raise FieldMismatch.
    """

    __slots__ = ()

    def __init__(self, coords: Iterable[Coord], disc: int | None = None):
        cs = []
        for c in coords:
            if not isinstance(c, QScalar):
                c = QScalar(c)
            if disc is not None:
                c = c if c.disc == disc else c.promote(disc)
            cs.append(c)
        if not 1 <= len(cs) <= 4:
            raise DimensionMismatch(f"vector dimension {len(cs)} outside 1..4")
        super().__init__(tuple(cs), disc)

    coords = property(Exact._decoded, doc="The coordinates as QScalars over Q(sqrt(disc)).")

    @property
    def dim(self) -> int:
        return len(self.row) // 2

    def dot(self, other: "Vector") -> QScalar:
        """(self|other), read on the rows through self's dual rows (lattice.int_mirror)."""
        self._check(other)
        d = vectors_disc((self, other))
        if self.is_zero():  # no mirror
            return QScalar(0, 0, d)
        _, _, u, v, *_ = int_mirror(self.row, d)
        y, den = other.row, self.row[-1] * other.row[-1]
        return QScalar(Fraction(sum(map(mul, u, y)), den), Fraction(sum(map(mul, v, y)), den), d)

    def norm_squared(self) -> QScalar:
        return self.dot(self)

    def unit(self) -> "Vector":
        """Scale to exact unit length: the row unit_rows gives for the vector's row.

        NormNotInField if sqrt leaves the field; the zero vector has no unit
        multiple: ZeroRoot.
        """
        if self.is_zero():
            raise ZeroRoot("the zero vector has no unit length")
        return row_vector(unit_rows([self.row], self.disc)[0], self.disc)

    def __iter__(self):
        return iter(self.coords)

    def __repr__(self) -> str:
        return f"Vector(({', '.join(str(c) for c in self.coords)}))"

    def __str__(self) -> str:
        return f"({', '.join(str(c) for c in self.coords)})"


def vec(*coords: Coord, disc: int | None = None) -> Vector:
    return Vector(coords, disc=disc)


# the Vector whose row is x, over Q(sqrt(disc)), 64-bit-checked; its coords are decoded
# on first read
row_vector = Vector._from_row


def row_in(v: Vector, disc: int) -> Numerators:
    """v's row as a vector over Q(sqrt(disc)).

    The row itself when v is over that field or rational; anything else goes
    through Vector(v.coords, disc=disc), whose promotion raises FieldMismatch
    or DomainError as QScalar.promote does.
    """
    if isinstance(v, Vector) and (
        v.disc == disc or not any(v.row[1:-1:2]) and _is_square_free(disc)
    ):
        return v.row
    return Vector(v.coords, disc=disc).row


class Provenance(NamedTuple):
    preset: Optional[str] = None
    file: Optional[str] = None
    induced_from: Optional[str] = None

    def as_dict(self) -> dict:
        out = {}
        if self.preset:
            out["preset"] = self.preset
        if self.file:
            out["file"] = self.file
        if self.induced_from:
            out["induced-from"] = self.induced_from
        return out


class RootSystem:
    """Canonically ordered duplicate-free set of roots, held as rows, plus field metadata.

    A named view of its row set's one record, the lattice.Lattice `lattice`,
    which every live RootSystem with the same rows shares: the rows in
    canonical order, their decoded root Vectors, their stored facts and the
    record of their unnamed induced set.  Equality and hashing ignore label
    and provenance.
    """

    __slots__ = ("dim", "disc", "rows", "label", "provenance", "lattice")

    def __new__(cls, roots: Iterable[Vector], disc: int, label: str | None = None,
                provenance: Provenance | None = None) -> "RootSystem":
        rows = dict.fromkeys(row_in(r, disc) for r in roots)
        if not rows:
            raise ZeroRoot("a root system needs at least one root")
        dims = {len(x) // 2 for x in rows}
        if len(dims) != 1:
            raise DimensionMismatch(f"mixed root dimensions {sorted(dims)}")
        if any(not any(x[:-1]) for x in rows):
            raise ZeroRoot("the zero vector cannot be a root")
        return cls._from_rows(rows, disc, label, provenance)

    @classmethod
    def _from_rows(cls, rows: Collection[Numerators], disc: int, label: str | None = None,
                   provenance: Provenance | None = None) -> "RootSystem":
        """The RootSystem of trusted rows: reduced, distinct, nonzero, of one dimension
        and over disc, in any order.

        When a live set has these rows, its record is taken; otherwise the rows
        are sorted, as given (nearly sorted rows sort fastest), and their
        record built and registered.
        """
        key = frozenset(rows), disc
        lattice = _LATTICES.get(key)
        if lattice is None:
            lattice = _LATTICES[key] = Lattice(tuple(sorted_numerators(list(rows), disc)), disc)
        return cls._of(lattice, label, provenance)

    @classmethod
    def _of(cls, lattice: Lattice, label: str | None,
            provenance: Provenance | None) -> "RootSystem":
        # the rows of lattice, a registered record, under a name
        out = object.__new__(cls)
        object.__setattr__(out, "dim", len(lattice.rows[0]) // 2)
        object.__setattr__(out, "disc", lattice.disc)
        object.__setattr__(out, "rows", lattice.rows)
        object.__setattr__(out, "label", label)
        object.__setattr__(out, "provenance", provenance or Provenance())
        object.__setattr__(out, "lattice", lattice)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("RootSystem is immutable")

    @property
    def roots(self) -> tuple[Vector, ...]:
        """The roots as Vectors, in canonical order, built on first access and
        stored in the record.

        Each Vector decodes its coords when they are first read.
        """
        lattice = self.lattice
        if lattice.roots is None:
            lattice.roots = tuple(row_vector(x, self.disc) for x in self.rows)
        return lattice.roots

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.roots)

    def __contains__(self, v) -> bool:
        # a row with a surd part from another field is no member's
        return (
            isinstance(v, Vector)
            and v.dim == self.dim
            and (v.disc == self.disc or not any(v.row[1:-1:2]))
            and v.row in self.rows
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RootSystem)
            and self.dim == other.dim
            and self.disc == other.disc
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.dim, self.disc, self.rows))

    def __repr__(self) -> str:
        name = self.label or "?"
        return f"RootSystem({name}, dim={self.dim}, disc={self.disc}, |roots|={len(self)})"


# (frozenset(rows), disc) -> the record (Lattice) of the live RootSystems with those
# rows; an entry goes when its last RootSystem does
_LATTICES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def reflect_euclid(lam: Vector, alpha: Vector) -> Vector:
    """Reflect lam in the hyperplane perpendicular to alpha (exactly)."""
    if alpha.is_zero():
        raise ZeroRoot("cannot reflect in the zero vector")
    lam._check(alpha)
    d = vectors_disc((lam, alpha))
    return row_vector(int_reflect(lam.row, int_mirror(alpha.row, d), d), d)


def close_under_reflections(
    simple: Sequence[Vector],
    disc: int | None = None,
    label: str | None = None,
    provenance: Provenance | None = None,
) -> RootSystem:
    """Smallest set containing +-simple and closed under member reflections.

    That set is W.(+-simple) for the group W the simple reflections generate,
    because the reflection in w(a) is w s_a w^-1 and so lies in W: a
    breadth-first search on the roots' integer numerator tuples reflects each
    new root in the len(simple) seed mirrors only.  Every root, the seeds
    included, enters through caps.admit: ClosureCapExceeded as soon as an
    insertion passes this module's ROOT_CLOSURE_CAP, read at call time, which
    turns an infinite-group input into a clean error after at most that cap
    plus one roots, and OverflowError for a root whose components leave
    QScalar's 64-bit range, before it is inserted.  No caller sets the cap.
    """
    if not simple:
        raise ZeroRoot("no simple roots given")
    for s in simple:
        if s.is_zero():
            raise ZeroRoot("zero vector among simple roots")
    if disc is None:
        disc = vectors_disc(simple)
    dims = {s.dim for s in simple}
    if len(dims) != 1:
        raise DimensionMismatch(f"mixed root dimensions {sorted(dims)}")
    seed = [row_in(s, disc) for s in simple]
    mirrors = [int_mirror(x, disc) for x in seed]
    found = list(dict.fromkeys(seed + [negated(x) for x in seed]))
    seen: set[Numerators] = set()
    for x in found:
        admit(x, seen, ROOT_CLOSURE_CAP, "reflection closure", "roots")
    for r in found:  # found grows behind r: a breadth-first search
        for m in mirrors:
            cand = int_reflect(r, m, disc)
            if cand not in seen:
                admit(cand, seen, ROOT_CLOSURE_CAP, "reflection closure", "roots")
                found.append(cand)
    return RootSystem._from_rows(found, disc, label, provenance)


class AxiomReport(NamedTuple):
    """Outcome of checking the two root-system axioms. Failures are data."""

    axiom1_ok: bool
    axiom1_witness: Optional[tuple[Vector, Vector]]
    axiom2_ok: bool
    axiom2_witness: Optional[tuple[Vector, Vector]]

    @property
    def ok(self) -> bool:
        return self.axiom1_ok and self.axiom2_ok

    def summary(self) -> str:
        a1 = "pass" if self.axiom1_ok else f"FAIL witness {self.axiom1_witness}"
        a2 = "pass" if self.axiom2_ok else f"FAIL witness {self.axiom2_witness}"
        return f"axiom1 (scalar multiples): {a1}; axiom2 (reflection closure): {a2}"


def verify_root_axioms(rs: RootSystem) -> AxiomReport:
    """Exact check of both axioms, reporting a witness for the first failure.

    Witnesses are the first failing pair in canonical root order, as
    Lattice.axiom_witnesses finds them once per row set on rs.lattice's
    reflection table; only they are decoded.  Axiom 1's witness is (a, -a)
    when -a is missing, else two roots on one line; axiom 2's is a root and
    a root whose image in it is missing.
    """
    def pair(w: tuple[int, int] | None) -> tuple[Vector, Vector] | None:
        if w is None:
            return None
        a = row_vector(rs.rows[w[0]], rs.disc)
        return a, -a if w[1] < 0 else row_vector(rs.rows[w[1]], rs.disc)

    witness1, witness2 = rs.lattice.axiom_witnesses()
    return AxiomReport(witness1 is None, pair(witness1), witness2 is None, pair(witness2))


def require_root_system(rs: RootSystem, what: str) -> None:
    """RootspinError, naming rs as what and verify_root_axioms' witnesses, unless rs passes."""
    report = verify_root_axioms(rs)
    if not report.ok:
        raise RootspinError(f"{what} is not a root system: {report.summary()}")


def normalize_roots(rs: RootSystem) -> list[Vector]:
    """All roots scaled to exact unit length (deduplicated, sorted).

    A thin wrapper over unit_rows.  Raises NormNotInField naming the
    offending root if some squared norm has no square root in the field.
    """
    units = unit_rows(rs.rows, rs.disc)
    if units is rs.rows:  # each root is its own unit
        return list(rs.roots)
    return [row_vector(x, rs.disc) for x in sorted_numerators(units, rs.disc)]


def unit_rows(rows: Sequence[Numerators], d: int) -> Sequence[Numerators]:
    """The distinct unit multiples of nonzero rows over Q(sqrt(d)), in no set order.

    rows itself, in its order, comes back when every row is already unit; a
    caller that needs canonical order sorts the others.  Each row's primitive
    integer vector is multiplied by the inverse square root of its squared
    norm, qfield.field_sqrt's on ints, taken once per distinct norm, so no
    squared norm meets a 64-bit bound, and the unit of -x is minus the unit
    of x.
    NormNotInField names the first row whose squared norm has no square
    root in the field, and that norm, int_norm's, by qfield.scalar_or_text:
    a QScalar where it fits the 64-bit bound and its text past it.
    """
    if all(_is_unit(x, d) for x in rows):
        return rows
    inverse_roots: dict[tuple[int, int], tuple[int, int, int] | None] = {}
    units = set()
    for x in rows:
        g = math.gcd(*x[:-1])
        p, q = [e // g for e in x[:-1:2]], [f // g for f in x[1:-1:2]]
        s, t = (z // (g * g) for z in int_norm(x, d))  # of the primitive vector
        if (s, t) not in inverse_roots:  # the root of 1 / (s + t sqrt(d)), over s^2 - d t^2 > 0
            inverse_roots[s, t] = field_sqrt(s, -t, s * s - d * t * t, d)
        if inverse_roots[s, t] is None:  # the norm, as int_norm gives it, may pass 64 bits
            rat, surd = (Fraction(z, x[-1] ** 2) for z in int_norm(x, d))
            raise NormNotInField(row_vector(x, d), scalar_or_text(rat, surd, d))
        u, w, n = inverse_roots[s, t]
        out = [z for e, f in zip(p, q) for z in (e * u + d * f * w, e * w + f * u)]
        h = math.gcd(n, *out)
        units.add(tuple(z // h for z in out) + (n // h,))
    return list(units)


def _is_unit(x: tuple[int, ...], disc: int) -> bool:
    # |x|^2 == 1 for the numerators x = (p_1, q_1, ..., D): int_norm(x) == (D^2, 0)
    return int_norm(x, disc) == (x[-1] ** 2, 0)


def simple_roots_of(rs: RootSystem) -> list[Vector]:
    """Simple system of a root system, in canonical order, read off its reflection table.

    RootspinError, from require_root_system, unless rs passes both axioms.
    A generic rational functional (weights 1, t, t^2, ...; t perturbed
    deterministically until no root is annihilated) splits the roots into
    positive and negative halves, and a positive root is simple iff its
    reflection maps every other positive root to a positive one (Humphreys
    1990, 1.4): a lookup of table[i][j] in rs.lattice's table, the one the
    axiom check read.  Only the simple roots are decoded.
    """
    require_root_system(rs, repr(rs))
    d, rows = rs.disc, rs.rows
    table = rs.lattice.reflection_table()
    for attempt in range(16):
        t = Fraction(2) + Fraction(attempt, 17)
        # t^i scaled by den(t)^(dim - 1) > 0, which keeps every sign
        weights = [t.numerator**i * t.denominator ** (rs.dim - 1 - i) for i in range(rs.dim)]
        signs = [
            field_sign(sum(map(mul, x[:-1:2], weights)), sum(map(mul, x[1:-1:2], weights)), d)
            for x in rows
        ]
        if 0 in signs:
            continue
        positive = [j for j, s in enumerate(signs) if s > 0]
        return [
            row_vector(rows[i], d) for i in positive
            if all(signs[table[i][j]] > 0 for j in positive if j != i)
        ]
    raise DegenerateFunctional(
        "no generic positivity functional found in 16 deterministic attempts"
    )
