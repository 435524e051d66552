"""Shared generators for randomized algebra tests."""

from __future__ import annotations

import random
from fractions import Fraction

from rootspin import Multivector, QScalar, Vector, build_preset, normalize_roots
from rootspin.lattice import EVEN_MASKS

DISCS = (1, 2, 3, 5)


def random_qscalar(rng: random.Random, disc: int, span: int = 6) -> QScalar:
    a = Fraction(rng.randint(-span, span), rng.randint(1, 4))
    if disc == 1:
        return QScalar(a)
    b = Fraction(rng.randint(-span, span), rng.randint(1, 4))
    return QScalar(a, b, disc)


def random_multivector(rng: random.Random, dim: int, disc: int) -> Multivector:
    return Multivector(dim, [random_qscalar(rng, disc, 3) for _ in range(1 << dim)])


def random_vector_mv(rng: random.Random, dim: int, disc: int) -> Multivector:
    coeffs = [QScalar(0)] * (1 << dim)
    for i in range(dim):
        coeffs[1 << i] = random_qscalar(rng, disc, 3)
    return Multivector(dim, coeffs)


def unit_pool_3d() -> dict[int, list[Vector]]:
    """Exactly-unit 3D vectors per field, harvested from preset root systems."""
    pool: dict[int, list[Vector]] = {}
    pool[1] = normalize_roots(build_preset("A1xA1xA1"))
    pool[2] = normalize_roots(build_preset("B3"))
    pool[3] = normalize_roots(build_preset("A1xI2-6"))
    pool[5] = normalize_roots(build_preset("H3"))
    return pool


def random_unit_mv(rng: random.Random, pool: list[Vector]) -> Multivector:
    return Multivector.from_vector(rng.choice(pool))


def even_from_numerators(x: tuple[int, ...], disc: int) -> Multivector:
    """The even Cl(3) multivector whose integer numerators are x, over Q(sqrt(disc)).

    Built from its QScalar coefficients, so it checks the row route independently.
    """
    den = x[-1]
    cs = [QScalar(0)] * 8
    for k, m in enumerate(EVEN_MASKS):
        cs[m] = QScalar(Fraction(x[2 * k], den), Fraction(x[2 * k + 1], den), disc)
    return Multivector(3, cs)
