"""Exact integer-lattice kernel: the row encoding, the geometric product, angle counts
and reflection tables.

A vector, multivector or rotor is held as one reduced tuple of Python ints, its row

    (p_1, q_1, ..., p_k, q_k, D),   coordinate i = (p_i + q_i sqrt(d)) / D,

with the gcd of all entries 1 and D > 0, so equal values are equal tuples.
`Exact` holds one such row and its field's disc, and defines once their
immutability, equality, hashing, `is_zero`, order, lazy decoding and
arithmetic (`+`, `-`, negation, `scale`), all on the row alone: `scale` is
int_product of the row and its factor's row, whether the factor is an int, a
Fraction or a QScalar, and `<` compares the rows' `coordinates` in turn by
qfield.field_cmp.  roots.Vector and clifford.Multivector are its subclasses,
and a RootSystem (roots.py) holds its roots' rows.  `int_numerators` encodes
the QScalars a value is built from, `from_numerators` decodes a row when its
QScalars are first read (every row is 64-bit-checked as it is wrapped, by
`Exact._from_row`), and `sorted_numerators` sorts rows by exact value, by the
same field_cmp: one order, on ints with no bound, for `<`, for every canonical
order and for both of clifford.RotorGroup's constructors.

`int_product` is the geometric product of Cl(2) and Cl(3), on rows of
blade coefficients; the blade convention and the 4D readout of the even
subalgebra (`vec4_numerators`) are stated with it.  Multivector's product
(clifford.py) runs it on rows, so a product neither encodes nor decodes.
The rotor group's pair products (induction.py) run `int_vector_product`,
the product of two 3D vectors in closed form (the scalar a.b and the
bivector a^b), for a 2D set too, its roots padded into the e1 e2 plane;
the generic product with the VECTOR_BY_VECTOR structure equals it and
stays as the tests' reference.  EVEN_BY_EVEN multiplies even rows, as
clifford.RotorGroup's product check does, and ROW_BY_SCALAR a row by a
scalar's row (a, b, c), value (a + b sqrt(d)) / c, as Exact.scale does.

`int_norm` is the one squared-norm formula, (x|x) of a row.  `int_mirror`
holds a mirror a's dual rows, which give every (a|b), Vector.dot's too, and
2 / (a|a);
`int_reflect` gives the reduced image b - 2 (a|b) / (a|a) a: the one
reflection formula of the reflection closure, the Coxeter labels and the
reflection table, which the axiom check, the Coxeter order and simple-root
extraction read.
A Lattice holds a RootSystem's rows, distinct and nonzero, and looks each
image up by value, so every complete row of its reflection table is a
permutation of positions.  Every decision is an exact integer comparison,
and Python ints never overflow.  A Lattice is the one record of a root
set's rows: roots.RootSystem._from_rows, the only place one is built, builds
it when it registers a new row set, and every live RootSystem with those
rows holds it as its `lattice`, which also stores their decoded roots and
the record of their induced set.  The Lattice computes its reflection
table, its angle counts, the positions of its axiom witnesses and its
Coxeter order once and returns them as stored, so callers read them and
never mutate them.

Root sets are closed under negation, or nearly so, and three identities let
the reflection table compute few rows from inner products:

    s_{-a} = s_a,   s_a(-b) = -s_a(b),   s_a(s_a(b)) = b.

The others follow by s_{s_a(b)} = s_a s_b s_a, as compositions of complete
rows.  A complete row is an isometry that permutes the positions, and
`orbit` finds a position's orbit under such rows: the angle counts take one
Gram row per orbit, and the Coxeter order multiplies orbit sizes.

The angle counts hold the package's one formula for the signed squared
cosine sign(a|b) (a|b)^2 / ((a|a)(b|b)).  Each value is keyed as a reduced
row of ints (s, t, r) with its field e, an AngleKey: never a QScalar, so a
key has no 64-bit bound.  classify's Signature and induction's self-duality
check read these keys; classify's Coxeter labels run int_reflect on a pair's
own rows instead.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import cmp_to_key, partial
from itertools import accumulate, chain, compress, repeat
from operator import eq, mul, or_
from typing import Iterable, Sequence

from .errors import DimensionMismatch
from .qfield import QScalar, _coerce, check_row, common_disc, field_cmp, field_sign

Matrix = list[list[int]]
Numerators = tuple[int, ...]
AngleKey = tuple[int, int, int, int]  # (s, t, r, e): the value (s + t sqrt(e)) / r, reduced


def field_disc(vectors: Iterable[Iterable[QScalar]]) -> int:
    """The one d whose sqrt(d) the coordinates use, by qfield.common_disc's rule.

    Takes Vectors or any sequences of QScalars; with no coordinates it is 1.
    """
    return common_disc((c.disc, c.surd) for v in vectors for c in v)


def vectors_disc(vectors: Iterable["Exact"]) -> int:
    """field_disc of the values of Vectors (or Multivectors), read off their rows."""
    return common_disc((v.disc, any(v.row[1:-1:2])) for v in vectors)


def int_numerators(scalars: Iterable[QScalar]) -> Numerators:
    """(p_1, q_1, ..., p_k, q_k, D) with scalar i = (p_i + q_i sqrt(d)) / D, reduced."""
    parts = [f for c in scalars for f in (c.rat, c.surd)]
    den = math.lcm(*(f.denominator for f in parts))
    return tuple(f.numerator * (den // f.denominator) for f in parts) + (den,)


def from_numerators(x: Numerators, disc: int) -> tuple[QScalar, ...]:
    """The QScalars whose numerators are x, over Q(sqrt(disc))."""
    return tuple(QScalar(Fraction(p, den), Fraction(q, den), disc) for p, q, den in coordinates(x))


def negated(x: Numerators) -> Numerators:
    """The row of -x."""
    return tuple(-z for z in x[:-1]) + x[-1:]


class Exact:
    """An immutable value held as its row over Q(sqrt(disc)): the base of roots.Vector
    and clifford.Multivector, and their one copy of the row arithmetic.

    The QScalars the row stands for are decoded on first read (`_decoded`), except
    that a value built from QScalars keeps the ones it was given.  Equality, hashing
    and `is_zero` read the row: two values of one type are equal when their rows are
    and they share a field or have no surd part, as QScalar equality says.  `+`, `-`,
    negation and `scale` run on rows and decode nothing, a new row 64-bit-checked by
    `_from_row`; `<` compares the coordinates in turn by qfield.field_cmp, each pair
    in its own field by common_disc's rule, and decodes nothing either.  `_check`
    refuses an operand of another type or dimension.
    """

    __slots__ = ("row", "disc", "_values")

    def __init__(self, values: tuple[QScalar, ...], disc: int | None = None):
        # values over Q(sqrt(disc)), or over their one field when disc is None
        object.__setattr__(self, "row", int_numerators(values))
        object.__setattr__(self, "disc", field_disc((values,)) if disc is None else disc)
        object.__setattr__(self, "_values", values)

    @classmethod
    def _from_row(cls, x: Numerators, disc: int):
        """The value whose reduced row is x, over Q(sqrt(disc)), decoded on first read:
        the one way a row is wrapped.

        qfield.check_row raises QScalar's OverflowError for the first component
        that leaves the 64-bit bound.
        """
        check_row(x)
        out = object.__new__(cls)
        object.__setattr__(out, "row", x)
        object.__setattr__(out, "disc", disc)
        object.__setattr__(out, "_values", None)
        return out

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _decoded(self) -> tuple[QScalar, ...]:
        values = self._values
        if values is None:
            values = from_numerators(self.row, self.disc)
            object.__setattr__(self, "_values", values)
        return values

    def is_zero(self) -> bool:
        return not any(self.row[:-1])

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.row == other.row and (
            self.disc == other.disc or not any(self.row[1:-1:2])
        )

    def __hash__(self):
        return hash(self.row)

    def __lt__(self, other) -> bool:
        # the coordinates compared in turn by qfield.field_cmp, each pair in its own field
        self._check(other)
        signs = (field_cmp(s, t, common_disc(((self.disc, s[1]), (other.disc, t[1]))))
                 for s, t in zip(coordinates(self.row), coordinates(other.row)))
        return next(filter(None, signs), 0) < 0

    def _check(self, other) -> None:
        if type(other) is not type(self):
            raise TypeError(f"expected {type(self).__name__}, got {type(other).__name__}")
        if len(other.row) != len(self.row):
            raise DimensionMismatch(f"dim {self.dim} vs {other.dim}")

    def __add__(self, other):
        # the rows over their common denominator, in the operands' field
        self._check(other)
        d = self.disc if self.disc == other.disc else vectors_disc((self, other))
        x, y = self.row, other.row
        den = math.lcm(x[-1], y[-1])
        a, b = den // x[-1], den // y[-1]
        out = [p * a + r * b for p, r in zip(x[:-1], y[:-1])]
        g = math.gcd(den, *out)
        return self._from_row(tuple(z // g for z in out) + (den // g,), d)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self._from_row(negated(self.row), self.disc)

    def scale(self, s):
        """s times the value, for an int, a Fraction or a QScalar s within 64 bits: the
        product of the row and s's row (a, b, c) by int_product, in the field of both."""
        if isinstance(s, (int, Fraction)):
            factor, d = (s.numerator, 0, s.denominator), self.disc
        else:  # a surd survives only a nonzero factor, as in QScalar's *
            s = _coerce(s)  # TypeError for anything but a QScalar
            factor = int_numerators((s,))
            d = common_disc(((self.disc, s and any(self.row[1:-1:2])), (s.disc, s.surd)))
        check_row(factor)
        x = self.row
        return self._from_row(int_product(x, factor, ROW_BY_SCALAR[len(x) // 2], d), d)


def int_norm(x: Numerators, disc: int) -> tuple[int, int]:
    """(s, t) with (x|x) = (s + t sqrt(d)) / D^2 for the row x = (p_1, q_1, ..., D):
    s = sum p^2 + d sum q^2 and t = 2 sum p q.

    For x != 0 the field norm s^2 - d t^2 is positive: the conjugate of a sum of
    squares sum_i c_i^2 is sum_i c_i'^2, a sum of real squares, not all zero.
    """
    p, q = x[:-1:2], x[1:-1:2]
    return sum(map(mul, p, p)) + disc * sum(map(mul, q, q)), 2 * sum(map(mul, p, q))


def int_mirror(a: Numerators, disc: int) -> tuple:
    """(p, q, u, v, U, V, N): a's numerators, dual rows and 2 / (a|a) = D_a^2 (U + V sqrt(d)) / N.

    (a|b) = (u.b + (v.b) sqrt(d)) / (D_a D_b) with u = (p_1, d q_1, ...) and v = (q_1, p_1, ...),
    as map(mul) stops before b's D.  (a|a) = (r + t sqrt(d)) / D_a^2 (int_norm) has the
    positive field norm n = r^2 - d t^2, so 2 / (a|a) = D_a^2 (2r - 2t sqrt(d)) / n; U, V
    and N > 0 are those three numbers divided by their gcd.
    """
    p, q = a[:-1:2], a[1:-1:2]
    u = tuple(map(mul, a, (1, disc) * len(p)))
    v = tuple(chain.from_iterable(zip(q, p)))
    r, t = int_norm(a, disc)
    n = r * r - disc * t * t
    h = math.gcd(2 * r, 2 * t, n)
    return p, q, u, v, 2 * r // h, -2 * t // h, n // h


def int_reflect(b: Numerators, mirror: tuple, disc: int) -> Numerators:
    """Reduced numerators of b - 2 (a|b) / (a|a) a, for a = the mirror's vector.

    With (a|b) = (x + y sqrt(d)) / (D_a D_b) and (s + w sqrt(d)) =
    (x + y sqrt(d)) (U + V sqrt(d)), the shift 2 (a|b) / (a|a) a has the
    numerators (s + w sqrt(d)) (p + q sqrt(d)) over N D_b: D_a cancels.
    """
    p, q, right_a, right_b, u, v, n = mirror
    x, y = sum(map(mul, right_a, b)), sum(map(mul, right_b, b))
    if not x and not y:
        return b
    s, w = x * u + disc * y * v, x * v + y * u
    out = []
    for e, f, g, k in zip(p, q, b[:-1:2], b[1:-1:2]):
        out.append(n * g - s * e - disc * w * f)
        out.append(n * k - s * f - w * e)
    out.append(n * b[-1])
    h = math.gcd(*out)
    return tuple(z // h for z in out)


# -- the geometric product of Cl(2) and Cl(3) on rows ----------------------------
#
# A multivector is a row of blade coefficients.  A blade is a bitmask: bit i
# set means the basis vector e_{i+1} is present, so 0 is the scalar and
# 2^dim - 1 the pseudoscalar.  With e_i^2 = 1, blade a times blade b is
# _blade_sign(a, b) times blade a ^ b.  The bivector basis is fixed to
# (I e1, I e2, I e3) = (e2 e3, e3 e1, e1 e2): an even element of Cl(3),
# a0 + a1 e23 + a2 e13 + a3 e12, is the row of its coefficients on EVEN_MASKS,
# and vec4_numerators reads it as a 4D vector.  Changing the convention
# silently breaks every group comparison downstream, so it lives here and
# nowhere else; the even product is the quaternion product.

# e23 = 0b110 carries I e1, e13 = 0b101 carries -I e2, e12 = 0b011 carries I e3
EVEN_MASKS = (0b000, 0b110, 0b101, 0b011)


def _blade_sign(a: int, b: int) -> int:
    # parity of transpositions needed to merge blade a into blade b
    s = 0
    a >>= 1
    while a:
        s += (a & b).bit_count()
        a >>= 1
    return -1 if s & 1 else 1


def _structure(left: Sequence[int], right: Sequence[int], out: Sequence[int]) -> tuple:
    """(width, terms) of a product of rows on the blades left and right, read on the blades out.

    width = 2 len(out) numerators precede the result's D; a term (2k, 2i, 2j, sign)
    says blade left[i] times blade right[j] is sign * blade out[k].
    """
    pos = {m: k for k, m in enumerate(out)}
    return 2 * len(out), tuple(
        (2 * pos[a ^ b], 2 * i, 2 * j, _blade_sign(a, b))
        for i, a in enumerate(left)
        for j, b in enumerate(right)
    )


BLADES = {dim: _structure(range(1 << dim), range(1 << dim), range(1 << dim)) for dim in (2, 3)}
# a row of k coordinates or blade coefficients times a scalar's row, slot by slot: Exact.scale
ROW_BY_SCALAR = {k: _structure(range(k), (0,), range(k)) for k in (1, 2, 3, 4, 8)}
# the tests' reference for int_vector_product, and the rotor group's product check
VECTOR_BY_VECTOR = _structure((0b001, 0b010, 0b100), (0b001, 0b010, 0b100), EVEN_MASKS)
EVEN_BY_EVEN = _structure(EVEN_MASKS, EVEN_MASKS, EVEN_MASKS)


def int_product(x: Numerators, y: Numerators, structure: tuple, disc: int) -> Numerators:
    """The reduced row of the product x y; structure (a _structure) names their blades."""
    width, terms = structure
    out = [0] * width
    for k, i, j, sign in terms:
        p, q = x[i], x[i + 1]
        r, t = y[j], y[j + 1]
        if sign > 0:
            out[k] += p * r + disc * q * t
            out[k + 1] += p * t + q * r
        else:
            out[k] -= p * r + disc * q * t
            out[k + 1] -= p * t + q * r
    den = x[-1] * y[-1]
    g = math.gcd(den, *out)
    return tuple(v // g for v in out) + (den // g,)


def int_vector_product(a: Numerators, b: Numerators, disc: int) -> Numerators:
    """The reduced even row of the product a b of two 3D vectors, in closed form.

    a b = a.b + a^b: the scalar a.b, then the bivector a^b on EVEN_MASKS,
    (a_2 b_3 - a_3 b_2) e23 + (a_1 b_3 - a_3 b_1) e13 + (a_1 b_2 - a_2 b_1) e12,
    each coordinate product (p + q sqrt(d)) (r + t sqrt(d)) expanded.  It
    equals int_product(a, b, VECTOR_BY_VECTOR, disc), the generic loop over
    the 9 blade pairs, and b a is its reverse, the bivector negated.
    """
    p1, q1, p2, q2, p3, q3, da = a
    r1, t1, r2, t2, r3, t3, db = b
    out = (
        p1 * r1 + p2 * r2 + p3 * r3 + disc * (q1 * t1 + q2 * t2 + q3 * t3),
        p1 * t1 + q1 * r1 + p2 * t2 + q2 * r2 + p3 * t3 + q3 * r3,
        p2 * r3 - p3 * r2 + disc * (q2 * t3 - q3 * t2),
        p2 * t3 + q2 * r3 - p3 * t2 - q3 * r2,
        p1 * r3 - p3 * r1 + disc * (q1 * t3 - q3 * t1),
        p1 * t3 + q1 * r3 - p3 * t1 - q3 * r1,
        p1 * r2 - p2 * r1 + disc * (q1 * t2 - q2 * t1),
        p1 * t2 + q1 * r2 - p2 * t1 - q2 * r1,
    )
    den = da * db
    g = math.gcd(den, *out)
    return tuple(v // g for v in out) + (den // g,)


def vec4_numerators(x: Numerators) -> Numerators:
    """The row of the 4D vector read off the even element x of Cl(3).

    The readout convention lives here alone: a0 + a1 e23 + a2 e13 + a3 e12,
    held as x, reads as (a0, a1, -a2, a3), since e13 = -I e2.
    """
    return x[:4] + (-x[4], -x[5]) + x[6:]


def coordinates(x: Numerators) -> list[tuple[int, int, int]]:
    """The coordinates (p_i, q_i, D) of the row x, coordinate i = (p_i + q_i sqrt(d)) / D."""
    return list(zip(x[:-1:2], x[1:-1:2], repeat(x[-1])))


def sorted_numerators(xs: Sequence[Numerators], disc: int) -> list[Numerators]:
    """xs in lexicographic order of their coordinate values, by qfield.field_cmp, the
    package's one exact order (Exact's `<` is the same order, one pair at a time).

    The few distinct coordinates are ranked once by field_cmp, so that equal
    values in rows of different D share a rank; the sort then compares tuples
    of ranks.
    """
    coords = [coordinates(x) for x in xs]
    cmp = partial(field_cmp, disc=disc)
    ordered = sorted({t for ts in coords for t in ts}, key=cmp_to_key(cmp))
    # a coordinate's rank counts the changes of value before it
    rank = dict(zip(ordered, accumulate((cmp(s, t) != 0 for s, t in zip(ordered, ordered[1:])),
                                        initial=0)))
    keys = [tuple(map(rank.__getitem__, ts)) for ts in coords]
    return [xs[i] for i in sorted(range(len(xs)), key=keys.__getitem__)]


def orbit(start: int, perms: Sequence[Sequence[int]]) -> set[int]:
    """The positions that the group perms generate takes start to, by breadth-first search.

    Each perm is a permutation of the positions, such as a complete row of a
    reflection table; with no perms the orbit is {start}.
    """
    seen, frontier = {start}, {start}
    while frontier:
        frontier = set().union(*[map(p.__getitem__, frontier) for p in perms]) - seen
        seen |= frontier
    return seen


class Lattice:
    """The record of one row set: a RootSystem's n rows of dimension k, distinct,
    nonzero and reduced as int_numerators gives them, kept in the order given,
    and the facts stored about them.

    `neg[i]` is the position of -x_i, -1 where it is not in the set.  `roots`
    holds the rows decoded as Vectors and `induced` the record of the unnamed
    induced set, each None until roots.RootSystem.roots and induction's
    induce_4d or induce_2d store it.
    """

    __slots__ = ("disc", "rows", "neg", "roots", "induced", "_index", "_table", "_gens",
                 "_angles", "_witnesses", "_order", "__weakref__")

    def __init__(self, rows: Sequence[Numerators], disc: int):
        self.disc = disc
        self.rows = rows
        self.roots = self.induced = None
        self._index = index = {x: i for i, x in enumerate(rows)}
        self.neg = [index.get(negated(x), -1) for x in rows]
        self._table: Matrix | None = None
        self._angles: tuple[dict[AngleKey, int], list[int]] | None = None
        self._witnesses: tuple[tuple[int, int] | None, tuple[int, int] | None] | None = None
        self._order: int | None = None

    def angle_counts(self) -> tuple[dict[AngleKey, int], list[int]]:
        """Angles over ordered pairs i != j, with their multiplicities,
        and the component sizes of the non-orthogonality graph.  The angle is keyed on
        sign(a|b) (a|b)^2 / ((a|a)(b|b)), the signed squared cosine, which determines
        it and lies in the field even where the norms have no square root.

        A key is (s, t, r, e), the value (s + t sqrt(e)) / r with gcd(s, t, r) = 1 and
        r > 0, and e the field: the disc where t != 0, else 1, so a rational value has
        one key in every field.  Ints, with no bound: a key is never a QScalar.

        A complete table row is an isometry that permutes the rows, so one Gram row per
        `orbit` under the table's generators, weighted by its size, counts every pair,
        and an orbit lies in one component.  With (a|b) = x + y sqrt(d) and (a|a)(b|b) =
        m + n sqrt(d) over the rows' own D, the value is +-(x + y sqrt(d))^2 (m - n sqrt(d))
        / (m^2 - d n^2), reduced once per (x, y, m, n): the product of the norms is
        symmetric, so (a, b) and (b, a) share it.  m^2 - d n^2 > 0, a product of
        int_norm's positive field norms.

        The counts are computed on the first call and returned as stored after
        that, so a caller reads them and never mutates them.
        """
        if self._angles is not None:
            return self._angles
        self.reflection_table()  # its generators give the orbits
        d, rows = self.disc, self.rows
        first: dict[int, int] = {}  # position -> the first position of its orbit
        for r in range(len(rows)):
            if r not in first:
                first.update(dict.fromkeys(orbit(r, self._gens), r))
        sizes = Counter(first.values())  # orbit sizes, by first position
        norms = [int_norm(x, d) for x in rows]  # G(j, j)
        counts: Counter = Counter()  # (G(r, j), G(r, r) G(j, j)) numerators -> ordered pairs
        parts = {r: [r] for r in sizes}  # parts[r]: the orbits linked to r's
        for r, size in sizes.items():
            _, _, u, v, *_ = int_mirror(rows[r], d)
            ga, gb = [sum(map(mul, u, x)) for x in rows], [sum(map(mul, v, x)) for x in rows]
            a, b = norms[r]
            products = [(a * e + d * b * f, a * f + b * e) for e, f in norms]
            for key, c in Counter(zip(ga, gb, products)).items():
                counts[key] += c * size
            counts[ga[r], gb[r], products[r]] -= size  # not the pair (r, r)
            for o in {first[j] for j in compress(range(len(rows)), map(or_, ga, gb))}:
                if parts[o] is not parts[r]:  # merge o's part into r's
                    merged = parts[o]
                    parts[r] += merged
                    for w in merged:
                        parts[w] = parts[r]
        values: Counter = Counter()
        for (x, y, (m, n)), c in (+counts).items():
            sign = field_sign(x, y, d)
            p, q = sign * (x * x + d * y * y), sign * 2 * x * y
            s, t, r = p * m - d * q * n, q * m - p * n, m * m - d * n * n
            g = math.gcd(s, t, r)  # r > 0
            values[s // g, t // g, r // g, d if t else 1] += c
        # each part is listed once, at its first member
        self._angles = values, [sum(map(sizes.__getitem__, part))
                                for r, part in parts.items() if part[0] == r]
        return self._angles

    def reflection_table(self) -> Matrix:
        """table[i][j]: position of x_j reflected in x_i, -1 if it is not in the set.

        Most rows follow from a few others by s_{s_a(b)} = s_a s_b s_a
        (Humphreys 1990, 1.2): when the rows of a and b are complete (no -1),
        the row of c = s_a(x_b) is a o b o a.  A row is computed directly
        (_direct_row) only for a mirror that no complete row reaches.  Each
        complete direct row is a generator, applied to every complete row in
        BFS order; that reaches every mirror of the reflection subgroup the
        generators span, a set closed under s_a s_b s_a.  A row with a -1
        derives nothing, so every row equals the directly computed one on
        any input, and a complete row is a permutation of the positions.
        The rows of x and -x are one list, since s_{-a} = s_a.

        The table is computed on the first call and returned as stored after
        that, so a caller reads it and never mutates it.
        """
        if self._table is not None:
            return self._table
        neg = self.neg
        table: Matrix = [None] * len(neg)  # type: ignore[list-item]

        def fill(c: int, row: list[int]) -> None:
            table[c] = row
            if neg[c] >= 0:
                table[neg[c]] = row

        gens: list[list[int]] = []
        reached: list[int] = []  # one position per complete line
        for i in range(len(neg)):
            if table[i] is not None:
                continue
            gen = self._direct_row(i)
            fill(i, gen)
            if -1 in gen:
                continue
            gens.append(gen)
            reached.append(i)
            k = 0
            while k < len(reached):  # a worklist: it also visits what it appends
                b = reached[k]
                rb = table[b]
                for g in gens:
                    c = g[b]
                    if table[c] is None:
                        fill(c, list(map(g.__getitem__, map(rb.__getitem__, g))))
                        reached.append(c)
                k += 1
        self._table, self._gens = table, gens  # gens generate every complete row
        return table

    def axiom_witnesses(self) -> tuple[tuple[int, int] | None, tuple[int, int] | None]:
        """Positions (i, j) of the first failure of each root-system axiom, None where it holds.

        Axiom 1 asks for -x_i in the set, and (i, -1) says it is missing; then
        for no other row on the line of x_i.  Once negation closure holds,
        x_j lies on the line of x_i exactly when s_i(x_j) = -x_j, that is
        table[i][j] == neg[j], which j = i and j = neg[i] always meet; x_i and
        -x_i share a row, so the rows of first roots of +-pairs suffice.
        Axiom 2 asks for every reflection image in the set: (i, j) is the
        first -1 of the reflection table, in row order.

        The positions are found on the first call and returned as stored after it.
        """
        if self._witnesses is not None:
            return self._witnesses
        neg, table = self.neg, self.reflection_table()
        witness1 = witness2 = None
        if -1 in neg:
            witness1 = (neg.index(-1), -1)
        else:
            for i, row in enumerate(table):
                if neg[i] > i and sum(map(eq, row, neg)) > 2:  # a third root on the line
                    hits = compress(range(i + 1, len(row)), map(eq, row[i + 1:], neg[i + 1:]))
                    witness1 = (i, next(j for j in hits if j != neg[i]))
                    break
        for i, row in enumerate(table):
            if -1 in row:
                witness2 = (i, row.index(-1))
                break
        self._witnesses = witness1, witness2
        return self._witnesses

    def coxeter_order(self) -> int:
        """Order of the group the reflections generate, on a complete reflection table.

        Orbit-stabilizer: the stabilizer of a root r is generated by the
        reflections in the roots orthogonal to r (Steinberg; Humphreys 1990,
        1.12), so the order multiplies the sizes of r's `orbit` under the live
        mirrors down a chain of stabilizers, found once and then returned as stored.
        """
        if self._order is not None:
            return self._order
        table, neg = self.reflection_table(), self.neg  # complete: s_a(a) = -a
        order = 1
        live = [i for i in range(len(table)) if i < neg[i]]  # one mirror per line: s_{-a} = s_a
        while live:
            r = live[0]
            order *= len(orbit(r, [table[i] for i in live]))
            live = [j for j in live if table[r][j] == j]  # orthogonal to r: fixed by its reflection
        self._order = order
        return order

    def _direct_row(self, i: int) -> list[int]:
        """Row i of the reflection table: int_reflect's image y of each x_j that no
        earlier image placed, looked up by value.  s_i is an involution and
        s_i(-b) = -s_i(b), so y also gives s_i(y) = x_j, s_i(-x_j) = -y and
        s_i(-y) = -x_j, each entry a position or -1 where the image is missing."""
        d, rows, index, neg = self.disc, self.rows, self._index, self.neg
        mirror = int_mirror(rows[i], d)
        row: list = [None] * len(rows)
        for j, x in enumerate(rows):
            if row[j] is not None:  # the image of an earlier column, or its negative
                continue
            image = int_reflect(x, mirror, d)
            found = row[j] = index.get(image, -1)
            other = neg[found] if found >= 0 else index.get(negated(image), -1)  # -y
            back = neg[j]  # -x_j
            if found >= 0:
                row[found] = j
            if back >= 0:
                row[back] = other
            if other >= 0:
                row[other] = back
        return row
