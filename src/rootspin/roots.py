"""Exact Euclidean vectors, reflection closure and root-system axioms.

Roots are vectors with QScalar coordinates.  Generating a root system means
closing a set of simple roots under reflection in every member; verifying
one means checking the two defining axioms (only +-alpha among parallel
members, invariance under all member reflections) with exact arithmetic, so
a verdict is a fact rather than a tolerance call.

The loops over roots run on integers.  The reflection closure, unit
normalisation and simple-root extraction hold each root as its reduced
numerator tuple (lattice.int_numerators), and the first and last reflect
with lattice.int_reflect; the axiom check and the Gram spectrum read
lattice.Lattice.  QScalars are built for the final roots only.  The
canonical order of roots (and of rotors) is Vector.__lt__'s, computed by
canonical_sorted from integer ranks of the few distinct coordinate values.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import attrgetter, mul
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, TypeVar, Union

from .caps import ROOT_CLOSURE_CAP, resolve_cap
from .errors import ClosureCapExceeded, DegenerateFunctional, DimensionMismatch, ZeroRoot
from .errors import NormNotInField
from .lattice import (
    Lattice,
    check_range,
    field_disc,
    field_sign,
    from_numerators,
    int_mirror,
    int_numerators,
    int_reflect,
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

    The few distinct coordinate values are ranked once with QScalar's exact
    order; the sort itself then compares tuples of ranks.  Every tuple must
    have the same length.
    """
    items = list(items)
    ranks = {c: i for i, c in enumerate(sorted({c for x in items for c in coords(x)}))}
    return sorted(items, key=lambda x: tuple(map(ranks.__getitem__, coords(x))))


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
        rs = canonical_sorted(distinct)
        object.__setattr__(self, "dim", rs[0].dim)
        object.__setattr__(self, "disc", disc)
        object.__setattr__(self, "roots", tuple(rs))
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "provenance", provenance or Provenance())
        object.__setattr__(self, "_set", frozenset(rs))

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
    asks for -a in the set and for no other root on the line of a (equality
    in Cauchy-Schwarz); axiom 2 for every reflection image in the set.
    """
    roots = rs.roots
    lattice = Lattice(roots, rs.disc)
    gram = lattice.gram()
    n, neg = len(roots), lattice.neg
    axiom1_ok, axiom1_witness = True, None
    if -1 in neg:
        a = roots[neg.index(-1)]
        axiom1_ok, axiom1_witness = False, (a, -a)
    else:
        line = lattice.lines(gram)
        pairs = (
            (i, j) for i in range(n) for j in range(i + 1, n)
            if line[i] == line[j] and neg[i] != j
        )
        first = next(pairs, None)
        if first:
            axiom1_ok, axiom1_witness = False, (roots[first[0]], roots[first[1]])
    axiom2_ok, axiom2_witness = True, None
    for i, row in enumerate(lattice.reflection_table(gram)):
        if -1 in row:
            axiom2_ok, axiom2_witness = False, (roots[i], roots[row.index(-1)])
            break
    return AxiomReport(axiom1_ok, axiom1_witness, axiom2_ok, axiom2_witness)


def normalize_roots(rs: RootSystem) -> list[Vector]:
    """All roots scaled to exact unit length (deduplicated, sorted).

    Runs on the roots' numerator tuples: each root's primitive integer
    vector is divided by the square root of its squared norm, taken once per
    distinct norm, so a large rational scale factor never reaches QScalar's
    64-bit bound.  Raises NormNotInField naming the offending root if some
    squared norm has no square root in the field.
    """
    d = rs.disc
    rows = [int_numerators(r.coords) for r in rs.roots]
    if all(_is_unit(x, d) for x in rows):  # each root is its own unit, and rs.roots is sorted
        return list(rs.roots)
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
    return canonical_sorted(Vector._make(from_numerators(x, d)) for x in units)


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
    """Rank of the span, by exact Gaussian elimination."""
    rows = [list(v.coords) for v in vectors]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    col = 0
    while col < ncols and rank < len(rows):
        pivot = None
        for r in range(rank, len(rows)):
            if not rows[r][col].is_zero():
                pivot = r
                break
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].inverse()
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and not rows[r][col].is_zero():
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank
