"""Exact integer-lattice kernel: the row encoding, the geometric product, angle counts
and reflection tables.

A vector, multivector or rotor is held as one reduced tuple of Python ints, its row

    (p_1, q_1, ..., p_k, q_k, D),   coordinate i = (p_i + q_i sqrt(d)) / D,

with the gcd of all entries 1 and D > 0, so equal values are equal tuples.
`Exact` holds one such row and its field's disc, and defines once their
immutability, equality, hashing, `is_zero`, order and lazy decoding;
roots.Vector and clifford.Multivector are its subclasses, and a RootSystem
(roots.py) holds its roots' rows.  `int_numerators` encodes the QScalars a value is built
from, `from_numerators` decodes a row when its QScalars are first read, and
`sorted_numerators` sorts rows by exact value, in the order of Exact's `<`.

`int_product` is the one geometric product of Cl(2) and Cl(3), on rows of
blade coefficients; the blade convention and the 4D readout of the even
subalgebra (`vec4_numerators`) are stated with it.  The rotor closure
(induction.py) and Multivector's product (clifford.py) both run it on rows,
so a product neither encodes nor decodes.

`int_mirror` holds a mirror a's dual rows, which give every (a|b), and
2 / (a|a); `int_reflect` gives the reduced image b - 2 (a|b) / (a|a) a: the
one reflection formula of the reflection closure and the reflection table,
which the axiom check, the Coxeter order and simple-root extraction read.
A Lattice keeps the rows it is given and looks each image up by value.
Every decision is an exact integer comparison, and Python ints never
overflow.  A root set's Lattice is its RootSystem's `lattice` (roots.py),
built on first access and shared by every live RootSystem with the same
rows; the Lattice computes its reflection table and its angle counts once
and returns them as stored, so callers read them and never mutate them.

Root sets are closed under negation, or nearly so, and three identities let
the kernel compute only the pairs of representatives (the first root of each
+-pair, or a root whose negative is missing) and count or fill in the rest:

    G(+-a, +-b) = +-G(a, b),   s_{-a} = s_a,   s_a(-b) = -s_a(b).

The reflection table computes few rows from inner products: the others
follow by s_{s_a(b)} = s_a s_b s_a, as compositions of complete rows.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import cmp_to_key
from itertools import chain, compress, repeat
from operator import mul, or_
from typing import Iterable, Sequence

from .errors import FieldMismatch
from .qfield import _INT64_MAX, QScalar, field_sign

Matrix = list[list[int]]
Numerators = tuple[int, ...]


def field_disc(vectors: Iterable[Iterable[QScalar]]) -> int:
    """The one d whose sqrt(d) the coordinates use; plain rationals fit any field.

    Takes Vectors or any sequences of QScalars; with no coordinates it is 1.
    """
    surd = list(dict.fromkeys(c.disc for v in vectors for c in v if c.surd))
    if len(surd) > 1:
        raise FieldMismatch(f"cannot combine Q(sqrt({surd[0]})) with Q(sqrt({surd[1]}))")
    return surd[0] if surd else max((c.disc for v in vectors for c in v), default=1)


def int_numerators(scalars: Iterable[QScalar]) -> Numerators:
    """(p_1, q_1, ..., p_k, q_k, D) with scalar i = (p_i + q_i sqrt(d)) / D, reduced."""
    parts = [f for c in scalars for f in (c.rat, c.surd)]
    den = math.lcm(*(f.denominator for f in parts))
    return tuple(f.numerator * (den // f.denominator) for f in parts) + (den,)


def from_numerators(x: Numerators, disc: int) -> tuple[QScalar, ...]:
    """The QScalars whose numerators are x, over Q(sqrt(disc))."""
    den = x[-1]
    return tuple(
        QScalar(Fraction(p, den), Fraction(q, den), disc) for p, q in zip(x[:-1:2], x[1:-1:2])
    )


def negated(x: Numerators) -> Numerators:
    """The row of -x."""
    return tuple(-z for z in x[:-1]) + x[-1:]


class Exact:
    """An immutable value held as its row over Q(sqrt(disc)): the base of roots.Vector
    and clifford.Multivector.

    The QScalars the row stands for are decoded on first read (`_decoded`), except
    that a value built from QScalars keeps the ones it was given.  Equality, hashing
    and `is_zero` read the row: two values of one type are equal when their rows are
    and they share a field or have no surd part, as QScalar equality says.  `<`
    compares the values in turn (a subclass's `_check` refuses an operand of
    another shape).
    """

    __slots__ = ("row", "disc", "_values")

    def __init__(self, values: tuple[QScalar, ...], disc: int | None = None):
        # values over Q(sqrt(disc)), or over their one field when disc is None
        object.__setattr__(self, "row", int_numerators(values))
        object.__setattr__(self, "disc", field_disc((values,)) if disc is None else disc)
        object.__setattr__(self, "_values", values)

    @classmethod
    def _from_row(cls, x: Numerators, disc: int):
        """The value whose reduced row is x, over Q(sqrt(disc)).

        A row with an entry past the 64-bit bound is decoded at once, so that
        QScalar raises its OverflowError for a component that leaves the bound.
        """
        out = object.__new__(cls)
        object.__setattr__(out, "row", x)
        object.__setattr__(out, "disc", disc)
        wide = max(x) > _INT64_MAX or min(x) < -_INT64_MAX
        object.__setattr__(out, "_values", from_numerators(x, disc) if wide else None)
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
        # the values compared in turn: the reference order of sorted_numerators
        self._check(other)
        for a, b in zip(self._decoded(), other._decoded()):
            if a != b:  # exact, and far cheaper than the subtraction
                return (a - b).sign() < 0
        return False


def int_mirror(a: Numerators, disc: int) -> tuple:
    """(p, q, u, v, U, V, N): a's numerators, dual rows and 2 / (a|a) = D_a^2 (U + V sqrt(d)) / N.

    (a|b) = (u.b + (v.b) sqrt(d)) / (D_a D_b) with u = (p_1, d q_1, ...) and v = (q_1, p_1, ...),
    as map(mul) stops before b's D.  (a|a) = (r + t sqrt(d)) / D_a^2 has the nonzero field
    norm n = r^2 - d t^2, so 2 / (a|a) = D_a^2 (2r - 2t sqrt(d)) / n; U, V and N > 0 are
    those three numbers divided by their gcd.
    """
    p, q = a[:-1:2], a[1:-1:2]
    u = tuple(map(mul, a, (1, disc) * len(p)))
    v = tuple(chain.from_iterable(zip(q, p)))
    r, t = sum(map(mul, u, a)), sum(map(mul, v, a))
    n = r * r - disc * t * t
    h = math.gcd(2 * r, 2 * t, n)
    if n < 0:
        h = -h
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
VECTOR_BY_VECTOR = _structure((0b001, 0b010, 0b100), (0b001, 0b010, 0b100), EVEN_MASKS)
EVEN_BY_EVEN = _structure(EVEN_MASKS, EVEN_MASKS, EVEN_MASKS)
VECTOR_BY_VECTOR_2D = _structure((0b01, 0b10), (0b01, 0b10), (0b00, 0b11))  # a0 + a3 e1 e2


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


def vec4_numerators(x: Numerators) -> Numerators:
    """The row of the 4D vector read off the even element x of Cl(3).

    The readout convention lives here alone: a0 + a1 e23 + a2 e13 + a3 e12,
    held as x, reads as (a0, a1, -a2, a3), since e13 = -I e2.
    """
    return x[:4] + (-x[4], -x[5]) + x[6:]


def sorted_numerators(xs: Sequence[Numerators], disc: int) -> list[Numerators]:
    """xs in lexicographic order of their coordinate values: Exact.__lt__'s order.

    The few distinct coordinates (p, q, D), value (p + q sqrt(d)) / D, are
    ranked once, comparing s and t by the sign of (p_s D_t - p_t D_s) +
    (q_s D_t - q_t D_s) sqrt(d), so that equal values in rows of different D
    share a rank; the sort then compares tuples of ranks.
    """
    coords = [list(zip(x[:-1:2], x[1:-1:2], repeat(x[-1]))) for x in xs]

    def cmp(s: tuple, t: tuple) -> int:
        return field_sign(s[0] * t[2] - t[0] * s[2], s[1] * t[2] - t[1] * s[2], disc)

    rank: dict[tuple, int] = {}
    r, prev = -1, None
    for t in sorted({t for ts in coords for t in ts}, key=cmp_to_key(cmp)):
        if prev is None or cmp(prev, t):
            r += 1
        rank[t], prev = r, t
    keys = [tuple(map(rank.__getitem__, ts)) for ts in coords]
    return [xs[i] for i in sorted(range(len(xs)), key=keys.__getitem__)]


class Lattice:
    """n rows of dimension k, reduced as int_numerators gives them, kept as given.

    `neg[i]` is the position of -x_i, -1 where it is not in the set; a value
    that occurs more than once is found at its last position.
    """

    # __weakref__: roots.py registers a root set's Lattice by weak reference
    __slots__ = ("disc", "rows", "neg", "_index", "_reps", "_table", "_angles", "__weakref__")

    def __init__(self, rows: Sequence[Numerators], disc: int):
        self.disc = disc
        self.rows = rows
        self._index = index = {x: i for i, x in enumerate(rows)}
        self.neg = [index.get(negated(x), -1) for x in rows]
        # x_i = sign * x_rep for each i: the representative's position and the sign
        self._reps = [(i, 1) if j < 0 or j >= i else (j, -1) for i, j in enumerate(self.neg)]
        self._table: Matrix | None = None
        self._angles: tuple[dict[QScalar, int], list[int]] | None = None

    def angle_counts(self) -> tuple[dict[QScalar, int], list[int]]:
        """Angles over ordered pairs i != j of nonzero vectors, with their multiplicities,
        and the component sizes of the non-orthogonality graph.  The angle is keyed on
        sign(a|b) (a|b)^2 / ((a|a)(b|b)), the signed squared cosine, which determines
        it and lies in the field even where the norms have no square root.

        With (a|b) = x + y sqrt(d) and (a|a)(b|b) = m + n sqrt(d) over a common
        denominator, it is +-(x + y sqrt(d))^2 (m - n sqrt(d)) / (m^2 - d n^2),
        each part reduced as a Fraction of ints before it becomes a QScalar.

        The counts are computed on the first call and returned as stored after
        that, so a caller reads them and never mutates them.
        """
        if self._angles is not None:
            return self._angles
        counts, sizes = self._pairs()
        d = self.disc
        values: Counter = Counter()
        for (x, y, (a, b), (e, f)), c in counts.items():
            if (a or b) and (e or f):  # a zero vector has no angle
                sign, m, n = field_sign(x, y, d), a * e + d * b * f, a * f + b * e
                s, t, r = sign * (x * x + d * y * y), sign * 2 * x * y, m * m - d * n * n
                values[QScalar(Fraction(s * m - d * t * n, r), Fraction(t * m - s * n, r), d)] += c
        self._angles = values, sizes
        return self._angles

    def _pairs(self) -> tuple[Counter, list[int]]:
        """(G(r, s), G(r, r), G(s, s)) numerators over one den^2 -> ordered pairs i != j
        with x_i = +-x_r and x_j = +-x_s, and the component sizes.

        Representative r stands for x_r and m_r copies of -x_r, and
        G(+-a, +-b) = +-G(a, b), so each pair r <= s is multiplied once:
        r = s gives m(m - 1) pairs G(r, r) and 2m pairs -G(r, r); r != s
        gives 2(1 + m_r m_s) pairs G(r, s) and 2(m_r + m_s) pairs -G(r, s).
        A component of representatives, linked by G(r, s) != 0, has
        1 + m_r positions per member.
        """
        d, rows = self.disc, self.rows
        copies = Counter(j for j, s in self._reps if s < 0)
        firsts = [i for i, (_, s) in enumerate(self._reps) if s > 0]
        ms = [copies[i] for i in firsts]
        den = math.lcm(*(rows[i][-1] for i in firsts))
        xs = [tuple(z * (den // rows[i][-1]) for z in rows[i]) for i in firsts]  # over one D
        # int_mirror's dual rows u, v of each x_s: G(r, s) = (u.x_r + (v.x_r) sqrt(d)) / den^2
        right_a = [tuple(map(mul, x, (1, d) * (len(x) // 2))) for x in xs]
        right_b = [tuple(chain.from_iterable(zip(x[1::2], x[::2]))) for x in xs]
        norms = [(sum(map(mul, x, u)), sum(map(mul, x, v)))  # G(s, s)
                 for x, u, v in zip(xs, right_a, right_b)]
        counts: Counter = Counter()  # (G(r, s), G(r, r), G(s, s)) numerators -> ordered pairs
        pairs: Counter = Counter()  # (G(r, s), m_r, m_s, G(r, r), G(s, s)) -> pairs r < s
        parts = [[t] for t in range(len(firsts))]  # parts[t]: the representatives linked to t
        for t, x in enumerate(xs):
            m, (a, b) = ms[t], norms[t]
            ga = [sum(map(mul, x, y)) for y in right_a[t + 1:]]
            gb = [sum(map(mul, x, y)) for y in right_b[t + 1:]]
            counts[a, b, (a, b), (a, b)] += m * (m - 1)
            counts[-a, -b, (a, b), (a, b)] += 2 * m
            pairs.update(zip(ga, gb, repeat(m), ms[t + 1:], repeat((a, b)), norms[t + 1:]))
            for u in compress(range(t + 1, len(firsts)), map(or_, ga, gb)):
                if parts[u] is not parts[t]:  # merge u's part into t's
                    merged = parts[u]
                    parts[t] += merged
                    for v in merged:
                        parts[v] = parts[t]
        for (a, b, m, n, nr, ns), c in pairs.items():
            counts[a, b, nr, ns] += 2 * c * (1 + m * n)
            counts[-a, -b, nr, ns] += 2 * c * (m + n)
        # each part is listed once, at its first member
        sizes = [sum(1 + ms[v] for v in part) for t, part in enumerate(parts) if part[0] == t]
        return +counts, sizes

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
        any input, repeated vectors included.  The rows of x, -x and their
        repeats are one list, since s_{-a} = s_a.

        The table is computed on the first call and returned as stored after
        that, so a caller reads it and never mutates it.
        """
        if self._table is not None:
            return self._table
        rows, neg = self.rows, self.neg
        where: dict[tuple[int, ...], list[int]] = {}
        for i, row in enumerate(rows):
            where.setdefault(row, []).append(i)
        table: Matrix = [None] * len(rows)  # type: ignore[list-item]

        def fill(c: int, row: list[int]) -> None:
            for p in where[rows[c]] + (where[rows[neg[c]]] if neg[c] >= 0 else []):
                table[p] = row

        negatives: list[list[int]] = [[] for _ in rows]  # the positions of -x_j, for each j
        for i, (j, s) in enumerate(self._reps):
            if s < 0:
                negatives[j].append(i)
        columns = [(j, negatives[j]) for j, s in self._reps if s > 0]
        gens: list[list[int]] = []
        reached: list[int] = []  # one position per complete line
        for i in range(len(rows)):
            if table[i] is not None:
                continue
            gen = self._direct_row(i, columns)
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
        self._table = table
        return table

    def _direct_row(self, i: int, columns: list[tuple[int, list[int]]]) -> list[int]:
        """Row i of the reflection table: int_reflect's image of each representative x_j
        in columns, looked up by value, and -s_i(x_j) for x_j's negatives: s_a(-b) = -s_a(b)."""
        d, rows, index, neg = self.disc, self.rows, self._index, self.neg
        mirror = int_mirror(rows[i], d)
        row = [-1] * len(rows)
        for j, negatives in columns:
            image = int_reflect(rows[j], mirror, d)
            found = row[j] = index.get(image, -1)
            if negatives:
                other = neg[found] if found >= 0 else index.get(negated(image), -1)
                for c in negatives:
                    row[c] = other
        return row
