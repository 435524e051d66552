"""Exact integer-lattice kernel: the row encoding, pair counts and reflection tables.

A vector or rotor is held as one reduced tuple of Python ints, its row

    (p_1, q_1, ..., p_k, q_k, D),   coordinate i = (p_i + q_i sqrt(d)) / D,

with the gcd of all entries 1 and D > 0, so equal values are equal tuples.
RootSystem stores its roots this way; `int_numerators` encodes QScalars
and `from_numerators` decodes a row for output.  The reflection closure,
simple-root extraction and the rotor closure run on rows: `int_reflect`
reflects, and `check_range` is the insertion guard both closures share.
`sorted_numerators` sorts rows by exact value.

A Lattice brings n rows to a common denominator L, so that root i is
(A_i + B_i sqrt(d)) / L with integer tuples A_i, B_i.  The per-pair scalar
work of the axiom check, the signature and the Coxeter order then becomes
integer arithmetic:

    (x_i|x_j) = (A_i.A_j + d B_i.B_j + (A_i.B_j + B_i.A_j) sqrt(d)) / L^2

and the image of b under reflection in a is b - (2 G_ab / G_aa) a, whose
integer numerators must divide exactly for the image to lie in the lattice
again.  Every decision stays an exact integer comparison, and Python ints
never overflow.

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
from itertools import compress, repeat
from operator import mul, or_, sub
from typing import Callable, Iterable, Sequence

from .errors import FieldMismatch
from .qfield import QScalar

Matrix = list[list[int]]
Numerators = tuple[int, ...]

_INT64_MAX = 2**63 - 1


def field_disc(vectors: Iterable[Iterable[QScalar]]) -> int:
    """The one d whose sqrt(d) the coordinates use; plain rationals fit any field.

    Takes Vectors or any sequences of QScalars.
    """
    surd = list(dict.fromkeys(c.disc for v in vectors for c in v if c.surd))
    if len(surd) > 1:
        raise FieldMismatch(f"cannot combine Q(sqrt({surd[0]})) with Q(sqrt({surd[1]}))")
    return surd[0] if surd else max(c.disc for v in vectors for c in v)


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


def check_range(x: Numerators) -> None:
    """OverflowError unless every reduced component p_i/D, q_i/D fits QScalar's 64-bit bound."""
    if max(map(abs, x)) > _INT64_MAX:
        for p in x[:-1]:
            QScalar(Fraction(p, x[-1]))


def int_mirror(a: Numerators, disc: int) -> tuple:
    """(p, q, U, V, N) for reflecting in a, with 2 / (a|a) = D_a^2 (U + V sqrt(d)) / N.

    (a|a) = (r + t sqrt(d)) / D_a^2 has the nonzero field norm n = r^2 - d t^2,
    so 2 / (a|a) = D_a^2 (2r - 2t sqrt(d)) / n; U, V and N > 0 are those three
    numbers divided by their gcd.
    """
    p, q = a[:-1:2], a[1:-1:2]
    r = sum(map(mul, p, p)) + disc * sum(map(mul, q, q))
    t = 2 * sum(map(mul, p, q))
    n = r * r - disc * t * t
    h = math.gcd(2 * r, 2 * t, n)
    if n < 0:
        h = -h
    return p, q, 2 * r // h, -2 * t // h, n // h


def int_reflect(b: Numerators, mirror: tuple, disc: int) -> Numerators:
    """Reduced numerators of b - 2 (a|b) / (a|a) a, for a = the mirror's vector.

    With (a|b) = (x + y sqrt(d)) / (D_a D_b) and (s + w sqrt(d)) =
    (x + y sqrt(d)) (U + V sqrt(d)), the shift 2 (a|b) / (a|a) a has the
    numerators (s + w sqrt(d)) (p + q sqrt(d)) over N D_b: D_a cancels.
    """
    p, q, u, v, n = mirror
    pb, qb = b[:-1:2], b[1:-1:2]
    x = sum(map(mul, p, pb)) + disc * sum(map(mul, q, qb))
    y = sum(map(mul, p, qb)) + sum(map(mul, q, pb))
    if not x and not y:
        return b
    s, w = x * u + disc * y * v, x * v + y * u
    out = []
    for e, f, g, k in zip(p, q, pb, qb):
        out.append(n * g - s * e - disc * w * f)
        out.append(n * k - s * f - w * e)
    out.append(n * b[-1])
    h = math.gcd(*out)
    return tuple(z // h for z in out)


def field_sign(x: int, y: int, disc: int) -> int:
    """Sign of x + y sqrt(d), from x^2 against d y^2 when the signs differ."""
    if x >= 0 and y >= 0:
        return 1 if x or y else 0
    if x <= 0 and y <= 0:
        return -1
    bigger = x if x * x > disc * y * y else y  # never equal: d is square-free and y != 0
    return 1 if bigger > 0 else -1


Triple = tuple[int, int, int]


def _triples(x: Numerators) -> list[Triple]:
    """The coordinates of x as reduced (p, q, D), value (p + q sqrt(d)) / D.

    Equal values are equal triples; gcd(p, q, D) = 1 and D > 0.
    """
    den = x[-1]
    out = []
    for p, q in zip(x[:-1:2], x[1:-1:2]):
        g = math.gcd(p, q, den)
        out.append((p // g, q // g, den // g))
    return out


def sorted_numerators(
    xs: Sequence[Numerators], disc: int, key: Callable[[Numerators], Numerators] | None = None
) -> list[Numerators]:
    """xs in lexicographic order of their coordinate values: Vector.__lt__'s order.

    key(x), if given, holds x's coordinates in comparison order.  The few
    distinct reduced triples (see _triples) are ranked once, comparing s and t
    by the sign of (p_s D_t - p_t D_s) + (q_s D_t - q_t D_s) sqrt(d); the sort
    then compares tuples of ranks.
    """
    coords = [_triples(key(x) if key else x) for x in xs]
    distinct = sorted(
        {t for ts in coords for t in ts},
        key=cmp_to_key(
            lambda s, t: field_sign(s[0] * t[2] - t[0] * s[2], s[1] * t[2] - t[1] * s[2], disc)
        ),
    )
    rank = {t: i for i, t in enumerate(distinct)}
    keys = [tuple(map(rank.__getitem__, ts)) for ts in coords]
    return [xs[i] for i in sorted(range(len(xs)), key=keys.__getitem__)]


class Lattice:
    """n vectors of dimension k as int tuples: x_i = (A_i + B_i sqrt(d)) / L.

    Built from the vectors' rows xs (reduced, as int_numerators gives them).
    `neg[i]` is the position of -x_i, -1 where it is not in the set; a value
    that occurs more than once is found at its last position.
    """

    __slots__ = ("disc", "den", "rows", "neg", "_index", "_reps")

    def __init__(self, xs: Sequence[Numerators], disc: int):
        den = math.lcm(*(x[-1] for x in xs))
        self.disc = disc
        self.den = den
        self.rows = rows = [tuple(z * (den // x[-1]) for z in x[:-1:2] + x[1:-1:2]) for x in xs]
        self._index = {row: i for i, row in enumerate(rows)}
        self.neg = [self._index.get(tuple(-x for x in row), -1) for row in rows]
        # x_i = sign * x_rep for each i: the representative's position and the sign
        self._reps = [(i, 1) if j < 0 or j >= i else (j, -1) for i, j in enumerate(self.neg)]

    def pair_counts(self) -> tuple[dict[QScalar, int], list[int]]:
        """Inner products over ordered pairs i != j with their multiplicities,
        and the component sizes of the non-orthogonality graph.

        Representative r stands for x_r and m_r copies of -x_r, and
        G(+-a, +-b) = +-G(a, b), so each pair r <= s is multiplied once:
        r = s gives m(m - 1) pairs G(r, r) and 2m pairs -G(r, r); r != s
        gives 2(1 + m_r m_s) pairs G(r, s) and 2(m_r + m_s) pairs -G(r, s).
        A component of representatives, linked by G(r, s) != 0, has
        1 + m_r positions per member.
        """
        d, rows = self.disc, self.rows
        k = len(rows[0]) // 2
        copies = Counter(j for j, s in self._reps if s < 0)
        firsts = [i for i, (_, s) in enumerate(self._reps) if s > 0]
        ms = [copies[i] for i in firsts]
        # (a|b) = a.[A, dB] + (a.[B, A]) sqrt(d), with b = [A, B]
        right_a = [rows[i][:k] + tuple(d * y for y in rows[i][k:]) for i in firsts]
        right_b = [rows[i][k:] + rows[i][:k] for i in firsts]
        counts: Counter = Counter()  # G numerators -> ordered pairs
        pairs: Counter = Counter()  # (G numerators, m_r, m_s) -> pairs r < s
        parts = [[t] for t in range(len(firsts))]  # parts[t]: the representatives linked to t
        for t, i in enumerate(firsts):
            x, m = rows[i], ms[t]
            ga = [sum(map(mul, x, y)) for y in right_a[t:]]
            gb = [sum(map(mul, x, y)) for y in right_b[t:]]
            counts[ga[0], gb[0]] += m * (m - 1)
            counts[-ga[0], -gb[0]] += 2 * m
            pairs.update(zip(ga[1:], gb[1:], repeat(m), ms[t + 1:]))
            for u in compress(range(t + 1, len(firsts)), map(or_, ga[1:], gb[1:])):
                if parts[u] is not parts[t]:  # merge u's part into t's
                    merged = parts[u]
                    parts[t] += merged
                    for v in merged:
                        parts[v] = parts[t]
        for (a, b, m, n), c in pairs.items():
            counts[a, b] += 2 * c * (1 + m * n)
            counts[-a, -b] += 2 * c * (m + n)
        scale = self.den**2
        values = {
            QScalar(Fraction(p, scale), Fraction(q, scale), d): c
            for (p, q), c in counts.items()
            if c
        }
        # each part is listed once, at its first member
        sizes = [sum(1 + ms[v] for v in part) for t, part in enumerate(parts) if part[0] == t]
        return values, sizes

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
        """
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
        return table

    def _direct_row(self, i: int, columns: list[tuple[int, list[int]]]) -> list[int]:
        """Row i of the reflection table, from inner products with x_i.

        2 G_ij / G_ii = G_ij (U + V sqrt(d)) / D, where U + V sqrt(d) is
        twice the conjugate of G_ii and D its norm, both divided by their
        common gcd.  That coefficient c times x_i has numerators over D L,
        and the image x_j - c x_i lies in the lattice exactly when D divides
        all of them.  The shift depends on G_ij alone, so it is computed once
        per distinct inner product; an orthogonal x_j is its own image.  Only
        the representatives j in columns are reflected, each with the
        positions of -x_j: s_a(-b) = -s_a(b).
        """
        d, rows, index, neg = self.disc, self.rows, self._index, self.neg
        k = len(rows[0]) // 2
        a, b = rows[i][:k], rows[i][k:]
        # (x|x_i) = x.[A, dB] + (x.[B, A]) sqrt(d), with x_i = [A, B]
        right_a, right_b = a + tuple(d * y for y in b), b + a
        r, t = sum(map(mul, rows[i], right_a)), sum(map(mul, rows[i], right_b))
        norm = r * r - d * t * t  # nonzero: G_ii > 0 and d is square-free
        h = math.gcd(2 * r, 2 * t, norm)
        u, v, den = 2 * r // h, -2 * t // h, norm // h
        shifts: dict[tuple[int, int], tuple[int, ...] | None] = {}
        row = [-1] * len(rows)
        for j, negatives in columns:
            xj = rows[j]
            x, y = sum(map(mul, xj, right_a)), sum(map(mul, xj, right_b))
            if x or y:
                if (x, y) not in shifts:
                    p, q = x * u + d * y * v, x * v + y * u
                    num = [p * e + d * q * f for e, f in zip(a, b)]
                    num += [p * f + q * e for e, f in zip(a, b)]
                    exact = not any(z % den for z in num)
                    shifts[x, y] = tuple(z // den for z in num) if exact else None
                shift = shifts[x, y]
                if shift is None:  # the image, and so its negative, leaves the lattice
                    continue
                image = tuple(map(sub, xj, shift))
                found = index.get(image, -1)
            else:
                image, found = xj, index[xj]
            row[j] = found
            if negatives:
                other = neg[found] if found >= 0 else index.get(tuple(-z for z in image), -1)
                for c in negatives:
                    row[c] = other
        return row
