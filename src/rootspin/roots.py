"""Exact Euclidean vectors, reflection closure and root-system axioms.

Roots are vectors with QScalar coordinates.  Generating a root system means
closing a set of simple roots under reflection in every member; verifying
one means checking the two defining axioms (only +-alpha among parallel
members, invariance under all member reflections) with exact arithmetic, so
a verdict is a fact rather than a tolerance call.

The loops over roots run on integers.  The reflection closure, unit
normalisation and simple-root extraction hold each root as its reduced
numerator tuple (lattice.int_numerators), and the first and last reflect
with lattice.int_reflect; the axiom check reads lattice.Lattice's
reflection table, and the Gram spectrum its Gram matrix.  QScalars are
built for the final roots only.  The canonical order of roots (and of
rotors) is Vector.__lt__'s, computed by canonical_sorted from integer ranks
of the few distinct coordinate values.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress
from operator import attrgetter, eq, mul
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, TypeVar, Union

from .caps import ROOT_CLOSURE_CAP, resolve_cap
from .errors import ClosureCapExceeded, DegenerateFunctional, DimensionMismatch, ZeroRoot
from .errors import NormNotInField
from .lattice import (
    Lattice,
    Numerators,
    canonical_order,
    check_range,
    field_disc,
    field_sign,
    from_numerators,
    int_mirror,
    int_numerators,
    int_reflect,
    sorted_numerators,
)
from .qfield import QScalar

Coord = Union[QScalar, int, Fraction]
T = TypeVar("T")


class Vector:
    """Immutable exact vector of dimension 1..4 (1 only as a sum block)."""

    __slots__ = ("coords",)

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
        object.__setattr__(self, "coords", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Vector is immutable")

    @classmethod
    def _make(cls, coords: tuple) -> "Vector":
        # trusted constructor: coords is already a tuple of QScalars
        v = object.__new__(cls)
        object.__setattr__(v, "coords", coords)
        return v

    @property
    def dim(self) -> int:
        return len(self.coords)

    def disc(self) -> int:
        for c in self.coords:
            if not c.is_rational():
                return c.disc
        return 1

    def _check_dim(self, other: "Vector") -> None:
        if self.dim != other.dim:
            raise DimensionMismatch(f"dim {self.dim} vs {other.dim}")

    def __add__(self, other: "Vector") -> "Vector":
        self._check_dim(other)
        return Vector(a + b for a, b in zip(self.coords, other.coords))

    def __sub__(self, other: "Vector") -> "Vector":
        self._check_dim(other)
        return Vector(a - b for a, b in zip(self.coords, other.coords))

    def __neg__(self) -> "Vector":
        return Vector(-c for c in self.coords)

    def scale(self, s: Coord) -> "Vector":
        return Vector(c * s for c in self.coords)

    def dot(self, other: "Vector") -> QScalar:
        self._check_dim(other)
        acc = self.coords[0] * other.coords[0]
        for a, b in zip(self.coords[1:], other.coords[1:]):
            acc = acc + a * b
        return acc

    def norm_squared(self) -> QScalar:
        return self.dot(self)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def unit(self) -> "Vector":
        """Scale to exact unit length; NormNotInField if sqrt leaves the field.

        The length is taken of the primitive integer multiple of the vector,
        so a large rational scale factor never reaches the 64-bit bound.
        """
        parts = [f for c in self.coords for f in (c.rat, c.surd) if f]
        step = Fraction(math.lcm(*(f.denominator for f in parts)),
                        math.gcd(*(f.numerator for f in parts)) or 1)
        primitive = Vector._make(
            tuple(QScalar(c.rat * step, c.surd * step, c.disc) for c in self.coords)
        )
        root = primitive.norm_squared().sqrt()
        if root is None:
            raise NormNotInField(self, self.norm_squared())
        return primitive.scale(root.inverse())

    def __eq__(self, other) -> bool:
        return isinstance(other, Vector) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __lt__(self, other: "Vector") -> bool:
        self._check_dim(other)
        for a, b in zip(self.coords, other.coords):
            if a != b:  # exact, and far cheaper than the subtraction
                return (a - b).sign() < 0
        return False

    def __iter__(self):
        return iter(self.coords)

    def __repr__(self) -> str:
        return f"Vector(({', '.join(str(c) for c in self.coords)}))"

    def __str__(self) -> str:
        return f"({', '.join(str(c) for c in self.coords)})"


def vec(*coords: Coord, disc: int | None = None) -> Vector:
    return Vector(coords, disc=disc)


_coords = attrgetter("coords")


def canonical_sorted(items: Iterable[T], coords: Callable[[T], tuple] = _coords) -> list[T]:
    """items in lexicographic order of their coordinate tuples, as Vector.__lt__ sorts.

    Each coordinate becomes its reduced integer triple (p, q, D), and
    lattice.canonical_order ranks the few distinct triples exactly.  Every
    tuple must have the same length and lie in one field.
    """
    items = list(items)
    values = [coords(x) for x in items]
    order = canonical_order([[_triple(c) for c in cs] for cs in values], field_disc(values))
    return [items[i] for i in order]


def _triple(c: QScalar) -> tuple[int, int, int]:
    # (p, q, D) with c = (p + q sqrt(d)) / D, reduced because rat and surd are
    r, s = c.rat, c.surd
    a, b = r.denominator, s.denominator
    den = math.lcm(a, b)
    return r.numerator * (den // a), s.numerator * (den // b), den


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
    """Canonically ordered duplicate-free set of roots plus field metadata."""

    __slots__ = ("dim", "disc", "roots", "label", "provenance", "_set")

    def __init__(
        self,
        roots: Iterable[Vector],
        disc: int,
        label: str | None = None,
        provenance: Provenance | None = None,
    ):
        distinct = {Vector(r.coords, disc=disc) for r in roots}
        if not distinct:
            raise ZeroRoot("a root system needs at least one root")
        dims = {r.dim for r in distinct}
        if len(dims) != 1:
            raise DimensionMismatch(f"mixed root dimensions {sorted(dims)}")
        if any(r.is_zero() for r in distinct):
            raise ZeroRoot("the zero vector cannot be a root")
        self._fill(canonical_sorted(distinct), disc, label, provenance)

    @classmethod
    def _trusted(cls, roots: list[Vector], disc: int) -> "RootSystem":
        # roots already distinct, nonzero, of one dimension, over disc and sorted
        out = object.__new__(cls)
        out._fill(roots, disc, None, None)
        return out

    def _fill(self, roots: list[Vector], disc: int, label, provenance) -> None:
        object.__setattr__(self, "dim", roots[0].dim)
        object.__setattr__(self, "disc", disc)
        object.__setattr__(self, "roots", tuple(roots))
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "provenance", provenance or Provenance())
        object.__setattr__(self, "_set", frozenset(roots))

    def __setattr__(self, name, value):
        raise AttributeError("RootSystem is immutable")

    def _relabel(self, label: str | None, provenance: Provenance | None) -> "RootSystem":
        # trusted constructor: the same roots under another name, no re-sort
        out = object.__new__(RootSystem)
        for name in ("dim", "disc", "roots", "_set"):
            object.__setattr__(out, name, getattr(self, name))
        object.__setattr__(out, "label", label)
        object.__setattr__(out, "provenance", provenance or Provenance())
        return out

    def __len__(self) -> int:
        return len(self.roots)

    def __iter__(self):
        return iter(self.roots)

    def __contains__(self, v: Vector) -> bool:
        return v in self._set

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RootSystem)
            and self.dim == other.dim
            and self.disc == other.disc
            and self.roots == other.roots
        )

    def __hash__(self):
        return hash((self.dim, self.disc, self.roots))

    def __repr__(self) -> str:
        name = self.label or "?"
        return f"RootSystem({name}, dim={self.dim}, disc={self.disc}, |roots|={len(self)})"


def reflect_euclid(lam: Vector, alpha: Vector) -> Vector:
    """Reflect lam in the hyperplane perpendicular to alpha (exactly)."""
    if alpha.is_zero():
        raise ZeroRoot("cannot reflect in the zero vector")
    lam._check_dim(alpha)
    d = field_disc((lam, alpha))
    image = int_reflect(int_numerators(lam.coords), int_mirror(int_numerators(alpha.coords), d), d)
    return Vector._make(from_numerators(image, d))


def close_under_reflections(
    simple: Sequence[Vector],
    disc: int | None = None,
    cap: int | None = None,
    label: str | None = None,
    provenance: Provenance | None = None,
) -> RootSystem:
    """Smallest set containing +-simple and closed under member reflections.

    Worklist fixpoint on the roots' integer numerator tuples, each mirror's
    (a|a) and field norm computed once; aborts with ClosureCapExceeded as
    soon as an insertion passes the cap (default 10^4), which turns an
    infinite-group input into a clean error after at most cap + 1 roots.  A
    root whose components leave QScalar's 64-bit range is refused with
    OverflowError before it is inserted.
    """
    cap = resolve_cap(cap, ROOT_CLOSURE_CAP)
    if not simple:
        raise ZeroRoot("no simple roots given")
    for s in simple:
        if s.is_zero():
            raise ZeroRoot("zero vector among simple roots")
    if disc is None:
        disc = 1
        for s in simple:
            if s.disc() != 1:
                disc = s.disc()
                break
    dims = {s.dim for s in simple}
    if len(dims) != 1:
        raise DimensionMismatch(f"mixed root dimensions {sorted(dims)}")
    seed = [int_numerators(Vector(s.coords, disc=disc).coords) for s in simple]
    seed += [tuple(-v for v in x[:-1]) + x[-1:] for x in seed]
    mirrors = {x: int_mirror(x, disc) for x in seed}  # every root is a mirror

    def check_cap() -> None:
        if len(mirrors) > cap:
            raise ClosureCapExceeded(
                f"reflection closure exceeded cap of {cap} roots"
            )

    check_cap()
    frontier = list(mirrors)
    try:
        while frontier:
            current = list(mirrors.items())
            found: list[tuple[int, ...]] = []
            for r in frontier:
                mr = mirrors[r]
                for m, mm in current:
                    for cand in (int_reflect(r, mm, disc), int_reflect(m, mr, disc)):
                        if cand not in mirrors:
                            check_range(cand)
                            mirrors[cand] = int_mirror(cand, disc)
                            found.append(cand)
                            check_cap()
            frontier = found
    except OverflowError as exc:
        raise OverflowError(f"reflection closure overflowed at {len(mirrors)} roots; "
                            "the input likely generates an infinite group") from exc
    roots = (Vector._make(from_numerators(x, disc)) for x in mirrors)
    return RootSystem(roots, disc=disc, label=label, provenance=provenance)


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

    Witnesses are the first failing pair in canonical root order.  Axiom 1
    asks for -a in the set and for no other root on the line of a; axiom 2
    for every reflection image in the set.  Both are read off the reflection
    table.
    """
    return axiom_report(axiom_failures(Lattice(rs.roots, rs.disc)), rs.roots)


Pair = Optional[tuple[int, int]]


def axiom_failures(lattice: Lattice) -> tuple[Pair, Pair]:
    """Positions (i, j) of the first failing pair of each axiom, None where it holds.

    An axiom 1 failure (i, -1) means -x_i is missing.  Once negation closure
    holds, x_j lies on the line of x_i exactly when s_i(x_j) = -x_j, that is
    table[i][j] == neg[j]; x_i and -x_i share a row, so the rows of first
    roots of +-pairs suffice.
    """
    neg = lattice.neg
    table = lattice.reflection_table()
    axiom1 = axiom2 = None
    if -1 in neg:
        axiom1 = (neg.index(-1), -1)
    else:
        for i, row in enumerate(table):
            if neg[i] > i:
                hits = map(eq, row[i + 1:], neg[i + 1:])
                on_line = [j for j in compress(range(i + 1, len(row)), hits) if j != neg[i]]
                if on_line:
                    axiom1 = (i, on_line[0])
                    break
    for i, row in enumerate(table):
        if -1 in row:
            axiom2 = (i, row.index(-1))
            break
    return axiom1, axiom2


def axiom_report(failures: tuple[Pair, Pair], roots: Sequence[Vector]) -> AxiomReport:
    """The AxiomReport of axiom_failures' positions into roots."""
    one, two = failures
    witness1 = None if one is None else (
        roots[one[0]], roots[one[1]] if one[1] >= 0 else -roots[one[0]]
    )
    witness2 = None if two is None else (roots[two[0]], roots[two[1]])
    return AxiomReport(one is None, witness1, two is None, witness2)


def normalize_roots(rs: RootSystem) -> list[Vector]:
    """All roots scaled to exact unit length (deduplicated, sorted).

    A thin wrapper over unit_rows, on the roots' numerator tuples.  Raises
    NormNotInField naming the offending root if some squared norm has no
    square root in the field.
    """
    rows = [int_numerators(r.coords) for r in rs.roots]
    units = unit_rows(rs, rows)
    if units is rows:  # each root is its own unit
        return list(rs.roots)
    return [Vector._make(from_numerators(x, rs.disc)) for x in units]


def unit_rows(rs: RootSystem, rows: list[Numerators]) -> list[Numerators]:
    """The numerator tuples of the distinct unit roots, in canonical order.

    rows are the numerators of rs.roots, and are returned themselves when
    every root is already unit.  Each root's primitive integer vector is
    divided by the square root of its squared norm, taken once per distinct
    norm, so a large rational scale factor never reaches QScalar's 64-bit
    bound.  NormNotInField names the first root whose squared norm has no
    square root in the field.
    """
    d = rs.disc
    if all(_is_unit(x, d) for x in rows):
        return rows
    inverse_roots: dict[tuple[int, int], tuple[int, int, int]] = {}
    units = set()
    for r, x in zip(rs.roots, rows):
        g = math.gcd(*x[:-1])
        p, q = [e // g for e in x[:-1:2]], [f // g for f in x[1:-1:2]]
        norm = sum(map(mul, p, p)) + d * sum(map(mul, q, q)), 2 * sum(map(mul, p, q))
        if norm not in inverse_roots:
            root = QScalar(*norm, d).sqrt()
            if root is None:
                raise NormNotInField(r, r.norm_squared())
            # 1 / ((a + b sqrt(d)) / c) = c (a - b sqrt(d)) / (a^2 - d b^2)
            a, b, c = int_numerators((root,))
            inverse_roots[norm] = c * a, -c * b, a * a - d * b * b
        u, w, n = inverse_roots[norm]
        out = [z for e, f in zip(p, q) for z in (e * u + d * f * w, e * w + f * u)]
        h = math.gcd(n, *out)
        if n < 0:
            h = -h
        units.add(tuple(z // h for z in out) + (n // h,))
    return sorted_numerators(list(units), d)


def _is_unit(x: tuple[int, ...], disc: int) -> bool:
    # |x|^2 == 1 for the numerators x = (p_1, q_1, ..., D): sum p q = 0 and
    # sum p^2 + d sum q^2 = D^2
    p, q = x[:-1:2], x[1:-1:2]
    return not sum(map(mul, p, q)) and (
        sum(map(mul, p, p)) + disc * sum(map(mul, q, q)) == x[-1] ** 2
    )


def gram_spectrum(vectors: Sequence[Vector]) -> tuple[QScalar, ...]:
    """Sorted multiset of pairwise inner products over ordered distinct pairs.

    Rotation-invariant fingerprint, read off the exact Gram matrix; sorting
    happens on the (few) distinct exact values, so large sets stay cheap.
    """
    if not vectors:
        return ()
    lattice = Lattice(vectors, field_disc(vectors))
    values = lattice.inner_products(lattice.gram())
    out: list[QScalar] = []
    for value in sorted(values):
        out.extend([value] * values[value])
    return tuple(out)


def extract_simple_roots(roots: Sequence[Vector]) -> list[Vector]:
    """Simple system of a reflection-closed root set.

    Splits the set into positive/negative halves with a generic rational
    functional (weights 1, t, t^2, ...; t perturbed deterministically until
    no root is annihilated), then keeps the positive roots alpha whose
    reflection maps every other positive root to a positive one.  Roots are
    numerator tuples here, and each sign is an integer test.
    """
    dim = roots[0].dim
    d = field_disc(roots)
    rows = [int_numerators(r.coords) for r in roots]
    for attempt in range(16):
        t = Fraction(2) + Fraction(attempt, 17)
        # t^i scaled by den(t)^(dim - 1) > 0, which keeps every sign
        weights = [t.numerator**i * t.denominator ** (dim - 1 - i) for i in range(dim)]

        def f(x: tuple[int, ...]) -> int:
            return field_sign(
                sum(map(mul, x[:-1:2], weights)), sum(map(mul, x[1:-1:2], weights)), d
            )

        signs = [f(x) for x in rows]
        if 0 in signs:
            continue
        positive = [x for x, s in zip(rows, signs) if s > 0]
        simple = []
        for a, root, s in zip(rows, roots, signs):
            if s < 0:
                continue
            mirror = int_mirror(a, d)
            if all(f(int_reflect(b, mirror, d)) >= 0 for b in positive if b != a):
                simple.append(root)
        return sorted(simple)
    raise DegenerateFunctional(
        "no generic positivity functional found in 16 deterministic attempts"
    )


def span_rank(vectors: Sequence[Vector]) -> int:
    """Rank of the span, by exact elimination that stops at full rank.

    Each vector is reduced against an echelon basis of the ones before it
    (each basis row is 1 at its pivot and 0 at every earlier pivot); a
    nonzero remainder joins the basis.
    """
    basis: list[tuple[int, list[QScalar]]] = []  # (pivot column, row)
    for v in vectors:
        row = list(v.coords)
        for col, b in basis:
            f = row[col]
            if not f.is_zero():
                row = [x - f * y for x, y in zip(row, b)]
        pivot = next((c for c, x in enumerate(row) if not x.is_zero()), None)
        if pivot is None:
            continue
        inv = row[pivot].inverse()
        basis.append((pivot, [x * inv for x in row]))
        if len(basis) == len(row):
            break
    return len(basis)
