"""Exact Euclidean vectors, reflection closure and root-system axioms.

Roots are vectors with QScalar coordinates.  Generating a root system means
closing a set of simple roots under reflection in every member; verifying
one means checking the two defining axioms (only +-alpha among parallel
members, invariance under all member reflections) with exact arithmetic, so
a verdict is a fact rather than a tolerance call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .caps import ROOT_CLOSURE_CAP, resolve_cap
from .errors import ClosureCapExceeded, DegenerateFunctional, DimensionMismatch, ZeroRoot
from .errors import NormNotInField
from .lattice import Lattice
from .qfield import QScalar

Coord = Union[QScalar, int, Fraction]


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


@dataclass(frozen=True)
class Provenance:
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
        rs = sorted(set(Vector(r.coords, disc=disc) for r in roots))
        if not rs:
            raise ZeroRoot("a root system needs at least one root")
        dims = {r.dim for r in rs}
        if len(dims) != 1:
            raise DimensionMismatch(f"mixed root dimensions {sorted(dims)}")
        if any(r.is_zero() for r in rs):
            raise ZeroRoot("the zero vector cannot be a root")
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
    return _reflect_fast(lam, alpha, _mirror_factor(alpha))


def _mirror_factor(alpha: Vector) -> QScalar:
    # the reusable 2/(alpha|alpha) part of the reflection formula
    return alpha.norm_squared().inverse() * 2


def _reflect_fast(lam: Vector, alpha: Vector, factor: QScalar) -> Vector:
    c = lam.dot(alpha) * factor
    if c.is_zero():
        return lam
    return Vector._make(
        tuple(
            x if y.is_zero() else x - y * c
            for x, y in zip(lam.coords, alpha.coords)
        )
    )


def close_under_reflections(
    simple: Sequence[Vector],
    disc: int | None = None,
    cap: int | None = None,
    label: str | None = None,
    provenance: Provenance | None = None,
) -> RootSystem:
    """Smallest set containing +-simple and closed under member reflections.

    Worklist fixpoint; aborts with ClosureCapExceeded as soon as an insertion
    passes the cap (default 10^4), which turns an infinite-group input into a
    clean error after at most cap + 1 roots.
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
    seed = [Vector(s.coords, disc=disc) for s in simple]
    roots: set[Vector] = set(seed) | {-s for s in seed}

    def check_cap() -> None:
        if len(roots) > cap:
            raise ClosureCapExceeded(
                f"reflection closure exceeded cap of {cap} roots"
            )

    check_cap()
    factors: dict[Vector, QScalar] = {}
    frontier = list(roots)
    while frontier:
        current = list(roots)
        found: list[Vector] = []
        try:
            for r in frontier:
                fr = factors.get(r)
                if fr is None:
                    fr = factors[r] = _mirror_factor(r)
                for m in current:
                    fm = factors.get(m)
                    if fm is None:
                        fm = factors[m] = _mirror_factor(m)
                    for cand in (_reflect_fast(r, m, fm), _reflect_fast(m, r, fr)):
                        if cand not in roots:
                            roots.add(cand)
                            found.append(cand)
                            check_cap()
        except OverflowError as exc:
            raise OverflowError(f"reflection closure overflowed at {len(roots)} roots; "
                                "the input likely generates an infinite group") from exc
        frontier = found
    return RootSystem(roots, disc=disc, label=label, provenance=provenance)


@dataclass(frozen=True)
class AxiomReport:
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

    Raises NormNotInField naming the offending root if some squared norm has
    no square root in the field.
    """
    if all(map(_is_unit, rs)):  # each root is its own unit(), and rs.roots is sorted
        return list(rs.roots)
    return sorted({r.unit() for r in rs})


def _is_unit(v: Vector) -> bool:
    # |v|^2 == 1 on unbounded Fractions, so a large vector is not rejected by
    # QScalar's 64-bit bound before unit() can reduce it
    return sum(c.rat * c.surd for c in v.coords) == 0 and 1 == sum(
        c.rat * c.rat + c.disc * c.surd * c.surd for c in v.coords
    )


def gram_spectrum(vectors: Sequence[Vector]) -> tuple[QScalar, ...]:
    """Sorted multiset of pairwise inner products over ordered distinct pairs.

    Rotation-invariant fingerprint, read off the exact Gram matrix; sorting
    happens on the (few) distinct exact values, so large sets stay cheap.
    """
    if not vectors:
        return ()
    lattice = Lattice(vectors, vectors[0].coords[0].disc)
    values = lattice.inner_products(lattice.gram())
    out: list[QScalar] = []
    for value in sorted(values):
        out.extend([value] * values[value])
    return tuple(out)


def _functional_weights(dim: int, t: Fraction) -> list[Fraction]:
    return [t**i for i in range(dim)]


def extract_simple_roots(roots: Sequence[Vector]) -> list[Vector]:
    """Simple system of a reflection-closed root set.

    Splits the set into positive/negative halves with a generic rational
    functional (weights 1, t, t^2, ...; t perturbed deterministically until
    no root is annihilated), then keeps the positive roots alpha whose
    reflection maps every other positive root to a positive one.
    """
    dim = roots[0].dim
    for attempt in range(16):
        t = Fraction(2) + Fraction(attempt, 17)
        weights = _functional_weights(dim, t)

        def f(v: Vector) -> int:
            acc = v.coords[0] * weights[0]
            for c, w in zip(v.coords[1:], weights[1:]):
                acc = acc + c * w
            return acc.sign()

        signs = [f(r) for r in roots]
        if any(s == 0 for s in signs):
            continue
        positive = [r for r, s in zip(roots, signs) if s > 0]
        simple = []
        for a in positive:
            fa = _mirror_factor(a)
            interior = True
            for b in positive:
                if b == a:
                    continue
                if f(_reflect_fast(b, a, fa)) < 0:
                    interior = False
                    break
            if interior:
                simple.append(a)
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
