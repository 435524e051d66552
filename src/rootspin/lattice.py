"""Exact integer-lattice kernel: Gram matrices and reflection tables.

Every coordinate of a root set lies in (1/L) Z[sqrt(d)] for a common
denominator L, so n roots of dimension k are held as two integer n x k
arrays A and B with root_i = (A_i + B_i sqrt(d)) / L.  The per-pair scalar
work of the axiom check, the signature and the Coxeter order then becomes
integer array arithmetic:

    Gram = (A A^T + d B B^T) + (A B^T + B A^T) sqrt(d), over L^2

and the image of b under reflection in a is b - (2 G_ab / G_aa) a, whose
integer numerators must divide exactly for the image to lie in the lattice
again.  Every decision stays an exact integer comparison.

numpy int64 wraps silently on overflow.  Before each product the magnitudes
it can reach are bounded from the largest |entry| of its operands, the
dimension and d; the product runs in int64 only when the bound fits, and on
arrays of Python ints otherwise.  QScalar stays the public scalar: this
module only replaces loops over root pairs.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .qfield import QScalar

if TYPE_CHECKING:  # roots imports this module
    from .roots import Vector

_INT64_MAX = 2**63 - 1


def _exact(bound: int, *arrays: np.ndarray) -> list[np.ndarray]:
    """The arrays as int64 when every value up to `bound` fits, else as Python ints."""
    dtype = np.int64 if bound <= _INT64_MAX else object
    return [a.astype(dtype, copy=False) for a in arrays]


def _max_abs(*arrays: np.ndarray) -> int:
    return max(int(abs(a).max()) for a in arrays)


class Lattice:
    """n vectors of dimension k as integer arrays: x_i = (A_i + B_i sqrt(d)) / L."""

    __slots__ = ("disc", "den", "a", "b", "_index")

    def __init__(self, vectors: Sequence[Vector], disc: int):
        parts = [(c.rat, c.surd) for v in vectors for c in v.coords]
        den = math.lcm(*(f.denominator for p in parts for f in p))
        shape = (len(vectors), vectors[0].dim)
        a = np.array([r.numerator * (den // r.denominator) for r, _ in parts], dtype=object)
        b = np.array([s.numerator * (den // s.denominator) for _, s in parts], dtype=object)
        self.disc = disc
        self.den = den
        self.a, self.b = _exact(_max_abs(a, b), a.reshape(shape), b.reshape(shape))
        self._index = {row: i for i, row in enumerate(self._keys(self.a, self.b))}

    @staticmethod
    def _keys(a: np.ndarray, b: np.ndarray) -> list[tuple]:
        # rows keyed by value: object rows have no stable .tobytes()
        return [tuple(row) for row in np.concatenate([a, b], axis=-1).tolist()]

    def find(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Positions of the vectors with numerator rows (a, b), -1 where absent."""
        return np.array([self._index.get(k, -1) for k in self._keys(a, b)], dtype=np.int64)

    def negatives(self) -> np.ndarray:
        """Position of -x_i for every i, -1 where it is not in the set."""
        return self.find(-self.a, -self.b)

    def gram(self) -> tuple[np.ndarray, np.ndarray]:
        """Numerators (GA, GB) of the Gram matrix: (x_i|x_j) = (GA + GB sqrt(d)) / L^2."""
        d = self.disc
        m = _max_abs(self.a, self.b)
        a, b = _exact(self.a.shape[1] * (1 + d) * m * m, self.a, self.b)
        ab = np.concatenate([a, b], axis=1)
        return (
            ab @ np.concatenate([a, d * b], axis=1).T,
            ab @ np.concatenate([b, a], axis=1).T,
        )

    def inner_products(self, gram: tuple[np.ndarray, np.ndarray]) -> dict[QScalar, int]:
        """Distinct inner products over ordered pairs i != j, with multiplicities."""
        ga, gb = gram
        counts: Counter = Counter()
        for row_a, row_b in zip(ga, gb):  # row by row: no n x n list is built
            counts.update(zip(row_a.tolist(), row_b.tolist()))
        counts -= Counter(zip(ga.diagonal().tolist(), gb.diagonal().tolist()))
        scale = self.den**2
        return {
            QScalar(Fraction(p, scale), Fraction(q, scale), self.disc): c
            for (p, q), c in counts.items()
        }

    def parallel(self, gram: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """Pairs on a common line, by Cauchy-Schwarz equality G_ij^2 = G_ii G_jj."""
        d = self.disc
        ga, gb = _exact((1 + d) * _max_abs(*gram) ** 2, *gram)
        pa, pb = ga.diagonal(), gb.diagonal()
        out = np.empty(ga.shape, dtype=bool)
        for i, (x, y) in enumerate(zip(ga, gb)):  # row by row: no n x n temporaries
            out[i] = (x * x + d * (y * y) == pa[i] * pa + d * (pb[i] * pb)) & (
                2 * x * y == pa[i] * pb + pb[i] * pa
            )
        return out

    def reflection_table(self, gram: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """table[i, j]: position of x_j reflected in x_i, -1 if it is not in the set.

        2 G_ij / G_ii = G_ij (U_i + V_i sqrt(d)) / D_i, where U_i + V_i sqrt(d)
        is twice the conjugate of G_ii and D_i its norm, both divided by
        their common gcd.  The image of x_j then has numerators X, Y over
        D_i L, and lies in the lattice exactly when D_i divides them.
        """
        d = self.disc
        ga, gb = gram
        u, v, den = [], [], []
        for r, s in zip(ga.diagonal().tolist(), gb.diagonal().tolist()):
            norm = r * r - d * s * s  # nonzero: G_ii > 0 and d is square-free
            h = math.gcd(2 * r, 2 * s, norm)
            u.append(2 * r // h)
            v.append(-2 * s // h)
            den.append(norm // h)
        u, v, den = (np.array(x, dtype=object) for x in (u, v, den))
        pq = (1 + d) * _max_abs(ga, gb) * _max_abs(u, v)
        bound = _max_abs(self.a, self.b) * (_max_abs(den) + (1 + d) * pq)
        a, b, ga, gb, u, v, den = _exact(bound, self.a, self.b, ga, gb, u, v, den)
        table = np.empty(ga.shape, dtype=np.int64)
        for i in range(len(a)):
            p = ga[i] * u[i] + d * gb[i] * v[i]
            q = ga[i] * v[i] + gb[i] * u[i]
            p, q = p[:, None], q[:, None]
            x = den[i] * a - p * a[i] - d * (q * b[i])
            y = den[i] * b - p * b[i] - q * a[i]
            inside = ((x % den[i] == 0) & (y % den[i] == 0)).all(axis=1)
            table[i] = np.where(inside, self.find(x // den[i], y // den[i]), -1)
        return table
