"""Exact integer-lattice kernel: Gram matrices and reflection tables.

Every coordinate of a root set lies in (1/L) Z[sqrt(d)] for a common
denominator L, so a root of dimension k is held as one tuple of 2k Python
ints (A_1..A_k, B_1..B_k) with root = (A + B sqrt(d)) / L.  The per-pair
scalar work of the axiom check, the signature and the Coxeter order then
becomes integer arithmetic on those tuples:

    Gram = (A A^T + d B B^T) + (A B^T + B A^T) sqrt(d), over L^2

and the image of b under reflection in a is b - (2 G_ab / G_aa) a, whose
integer numerators must divide exactly for the image to lie in the lattice
again.  Every decision stays an exact integer comparison, and Python ints
never overflow.

Root sets are closed under negation, or nearly so, and three identities let
the kernel compute only the pairs of representatives (the first root of each
+-pair, or a root whose negative is missing) and fill in the rest:

    G(+-a, +-b) = +-G(a, b),   s_{-a} = s_a,   s_a(-b) = -s_a(b).

QScalar stays the public scalar: this module only replaces loops over root
pairs.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from operator import mul, sub
from typing import TYPE_CHECKING, Sequence

from .qfield import QScalar

if TYPE_CHECKING:  # roots imports this module
    from .roots import Vector

Matrix = list[list[int]]


class Lattice:
    """n vectors of dimension k as int tuples: x_i = (A_i + B_i sqrt(d)) / L.

    `neg[i]` is the position of -x_i, -1 where it is not in the set; a value
    that occurs more than once is found at its last position.
    """

    __slots__ = ("disc", "den", "rows", "neg", "_index", "_reps")

    def __init__(self, vectors: Sequence[Vector], disc: int):
        den = math.lcm(
            *(f.denominator for v in vectors for c in v.coords for f in (c.rat, c.surd))
        )
        self.disc = disc
        self.den = den
        self.rows = [
            tuple(c.rat.numerator * (den // c.rat.denominator) for c in v.coords)
            + tuple(c.surd.numerator * (den // c.surd.denominator) for c in v.coords)
            for v in vectors
        ]
        self._index = {row: i for i, row in enumerate(self.rows)}
        self.neg = [self._index.get(tuple(-x for x in row), -1) for row in self.rows]
        # x_i = sign * x_rep for each i: the representative's position and the sign
        self._reps = [(i, 1) if j < 0 or j > i else (j, -1) for i, j in enumerate(self.neg)]

    def gram(self) -> tuple[Matrix, Matrix]:
        """Numerators (GA, GB) of the Gram matrix: (x_i|x_j) = (GA + GB sqrt(d)) / L^2."""
        d, rows, reps = self.disc, self.rows, self._reps
        k = len(rows[0]) // 2
        firsts = [i for i, (_, s) in enumerate(reps) if s > 0]
        m = len(firsts)
        # column j of a row is entry pos[j] of [the row over the representatives] + [its negative]
        rank = {i: t for t, i in enumerate(firsts)}
        pos = [rank[j] if s > 0 else m + rank[j] for j, s in reps]
        ga: Matrix = [[]] * len(rows)
        gb: Matrix = [[]] * len(rows)
        # (a|b) = a.[A, dB] + (a.[B, A]) sqrt(d), with a = [A, B]
        right_a = [rows[i][:k] + tuple(d * y for y in rows[i][k:]) for i in firsts]
        right_b = [rows[i][k:] + rows[i][:k] for i in firsts]
        half_a: Matrix = []
        half_b: Matrix = []
        for t, i in enumerate(firsts):
            x = rows[i]
            # the representatives' Gram is symmetric: columns before t come from earlier rows
            ra = [r[t] for r in half_a] + [sum(map(mul, x, y)) for y in right_a[t:]]
            rb = [r[t] for r in half_b] + [sum(map(mul, x, y)) for y in right_b[t:]]
            half_a.append(ra)
            half_b.append(rb)
            ga[i] = list(map((ra + [-v for v in ra]).__getitem__, pos))
            gb[i] = list(map((rb + [-v for v in rb]).__getitem__, pos))
        for i, (j, s) in enumerate(reps):
            if s < 0:  # x_i = -x_j: every sign flips
                ga[i] = [-v for v in ga[j]]
                gb[i] = [-v for v in gb[j]]
        return ga, gb

    def inner_products(self, gram: tuple[Matrix, Matrix]) -> dict[QScalar, int]:
        """Distinct inner products over ordered pairs i != j, with multiplicities."""
        ga, gb = gram
        counts: Counter = Counter()
        for row_a, row_b in zip(ga, gb):
            counts.update(zip(row_a, row_b))
        counts -= Counter((ga[i][i], gb[i][i]) for i in range(len(ga)))
        scale = self.den**2
        return {
            QScalar(Fraction(p, scale), Fraction(q, scale), self.disc): c
            for (p, q), c in counts.items()
        }

    def lines(self, gram: tuple[Matrix, Matrix]) -> list[int]:
        """For each vector, the first position on its line through the origin.

        x_i and x_j are parallel exactly when Cauchy-Schwarz is an equality,
        G_ij^2 = G_ii G_jj; x_i and -x_i always share a line.
        """
        d = self.disc
        ga, gb = gram
        out = []
        leaders: list[int] = []
        for i, (j, s) in enumerate(self._reps):
            if s < 0:
                out.append(out[j])
                continue
            pa, pb = ga[i][i], gb[i][i]
            for lead in leaders:
                x, y = ga[i][lead], gb[i][lead]
                qa, qb = ga[lead][lead], gb[lead][lead]
                if x * x + d * y * y == pa * qa + d * pb * qb and 2 * x * y == pa * qb + pb * qa:
                    out.append(lead)
                    break
            else:
                leaders.append(i)
                out.append(i)
        return out

    def reflection_table(self, gram: tuple[Matrix, Matrix]) -> Matrix:
        """table[i][j]: position of x_j reflected in x_i, -1 if it is not in the set.

        2 G_ij / G_ii = G_ij (U_i + V_i sqrt(d)) / D_i, where U_i + V_i sqrt(d)
        is twice the conjugate of G_ii and D_i its norm, both divided by
        their common gcd.  That coefficient c times x_i has numerators over
        D_i L, and the image x_j - c x_i lies in the lattice exactly when D_i
        divides all of them.  The shift depends on G_ij alone, so each mirror
        computes it once per distinct inner product.
        """
        d, rows, index, neg = self.disc, self.rows, self._index, self.neg
        ga, gb = gram
        k = len(rows[0]) // 2
        columns = [j for j, s in self._reps if s > 0]
        negated: list[list[int]] = [[] for _ in rows]  # the positions of -x_j, for each j
        for i, (j, s) in enumerate(self._reps):
            if s < 0:
                negated[j].append(i)
        table: Matrix = [[]] * len(rows)
        for i in columns:
            gai, gbi = ga[i], gb[i]
            r, t = gai[i], gbi[i]
            norm = r * r - d * t * t  # nonzero: G_ii > 0 and d is square-free
            h = math.gcd(2 * r, 2 * t, norm)
            u, v, den = 2 * r // h, -2 * t // h, norm // h
            a, b = rows[i][:k], rows[i][k:]
            shifts = {}
            for x, y in set(zip(gai, gbi)):
                p, q = x * u + d * y * v, x * v + y * u
                num = [p * e + d * q * f for e, f in zip(a, b)]
                num += [p * f + q * e for e, f in zip(a, b)]
                shifts[x, y] = None if any(z % den for z in num) else tuple(z // den for z in num)
            row = [-1] * len(rows)
            for j in columns:
                shift = shifts[gai[j], gbi[j]]
                if shift is None:  # the image, and so its negative, leaves the lattice
                    continue
                image = tuple(map(sub, rows[j], shift))
                row[j] = found = index.get(image, -1)
                if negated[j]:
                    other = neg[found] if found >= 0 else index.get(tuple(-z for z in image), -1)
                    for c in negated[j]:
                        row[c] = other
            table[i] = row
        for i, (j, s) in enumerate(self._reps):
            if s < 0:
                table[i] = list(table[j])
        return table
