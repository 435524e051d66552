"""Shared generators for randomized algebra tests, and an exact reference for the field.

The reference computes in pairs (a, b) of Fractions, the value a + b sqrt(d), and
takes nothing from rootspin.qfield or rootspin.lattice, so a test that checks
QScalar, Vector or Multivector arithmetic against it checks the package against
code it does not share.  A reference value is a triple (a, b, d): its two parts
and its field's disc, the tag a QScalar carries.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from rootspin import (
    FieldMismatch, Multivector, QScalar, RootSystem, Vector, build_preset, normalize_roots, vec,
)

DISCS = (1, 2, 3, 5)
# the even blades of Cl(3) as bitmasks, in the package's order: 1, e23, e13, e12
EVEN_BLADES = (0b000, 0b110, 0b101, 0b011)


def random_qscalar(rng: random.Random, disc: int, span: int = 6) -> QScalar:
    a = Fraction(rng.randint(-span, span), rng.randint(1, 4))
    if disc == 1:
        return QScalar(a)
    b = Fraction(rng.randint(-span, span), rng.randint(1, 4))
    return QScalar(a, b, disc)


def random_multivector(rng: random.Random, disc: int) -> Multivector:
    return Multivector(3, [random_qscalar(rng, disc, 3) for _ in range(8)])


def random_vector_mv(rng: random.Random, disc: int) -> Multivector:
    coeffs = [QScalar(0)] * 8
    for i in range(3):
        coeffs[1 << i] = random_qscalar(rng, disc, 3)
    return Multivector(3, coeffs)


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
    for k, m in enumerate(EVEN_BLADES):
        cs[m] = QScalar(Fraction(x[2 * k], den), Fraction(x[2 * k + 1], den), disc)
    return Multivector(3, cs)


def partial_cases() -> dict[str, RootSystem]:
    """Sets off the root-system happy path: negatives missing, multiples, off-lattice."""
    h3, b3 = build_preset("H3"), build_preset("B3")
    return {
        "H3-positive-half": RootSystem([r for r in h3 if -r < r], disc=h3.disc),
        "B3-minus-one-root": RootSystem(b3.roots[1:], disc=b3.disc),
        "off-lattice": RootSystem([vec(1, 0), vec(-1, 0), vec(1, 2), vec(-1, -2)], disc=1),
        "root-and-double": RootSystem(
            [vec(1, 0, 0), vec(2, 0, 0), vec(-2, 0, 0), vec(0, 1, 0), vec(0, -1, 0)], disc=2
        ),
        "paired-multiples": RootSystem(
            [vec(1, 0), vec(-1, 0), vec(2, 0), vec(-2, 0), vec(1, 1), vec(-1, -1)], disc=2
        ),
    }


# -- the reference: Fraction pairs, sharing no code with rootspin.qfield or rootspin.lattice

INT64_MAX = 2**63 - 1


def ref(value) -> tuple[Fraction, Fraction, int]:
    """The reference triple (a, b, d) of a QScalar, an int or a Fraction (over Q, tag 1)."""
    if isinstance(value, (int, Fraction)):
        return Fraction(value), Fraction(0), 1
    return Fraction(value.rat), Fraction(value.surd), value.disc


def key(x: tuple) -> tuple:
    """x with the tag of a rational value dropped: equal values have one key, as QScalar's
    == says, whatever field a rational one is tagged with."""
    return x[0], x[1], x[2] if x[1] else 1


def field(*values: tuple) -> int:
    """The field of reference values: a surd's field wins, a rational fits any field, and
    otherwise the largest tag; FieldMismatch when surds of two fields meet."""
    surds = sorted({d for _, b, d in values if b})
    if len(surds) > 1:
        raise FieldMismatch(f"cannot combine Q(sqrt({surds[0]})) with Q(sqrt({surds[1]}))")
    return surds[0] if surds else max((d for *_, d in values), default=1)


def times(x, y, disc):
    """(r + s sqrt(d)) (u + v sqrt(d)) on pairs of Fractions, with no 64-bit bound."""
    return x[0] * y[0] + disc * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def dot(a, b, disc):
    """(a|b) of two sequences of QScalars, as a pair of Fractions over Q(sqrt(disc))."""
    terms = [times(ref(s), ref(t), disc) for s, t in zip(a, b)]
    return sum(r for r, _ in terms), sum(v for _, v in terms)


def ref_sum(x: tuple, y: tuple) -> tuple:
    return x[0] + y[0], x[1] + y[1], field(x, y)


def ref_neg(x: tuple) -> tuple:
    return -x[0], -x[1], x[2]


def ref_product(x: tuple, y: tuple) -> tuple:
    d = field(x, y)
    return (*times(x, y, d), d)


def ref_inverse(x: tuple) -> tuple:
    """1 / x, by the conjugate: x times a - b sqrt(d) is the rational a^2 - d b^2."""
    norm = x[0] * x[0] - x[2] * x[1] * x[1]
    if not norm:
        raise ZeroDivisionError("inverse of zero")
    return x[0] / norm, -x[1] / norm, x[2]


def reference_sign(x: Fraction, y: Fraction, d: int) -> int:
    """The sign of x + y sqrt(d) for Fractions x, y and a square-free d: where x and y
    differ in sign, the sign of the part whose square, x^2 or d y^2, is the larger (they
    are never equal, as sqrt(d) is irrational for d > 1)."""
    sx, sy = (x > 0) - (x < 0), (y > 0) - (y < 0)
    if sx * sy >= 0:
        return sx or sy
    return sx if x * x > d * y * y else sy


def ref_cmp(x: tuple, y: tuple) -> int:
    """The sign of x - y, in the field of the two."""
    return reference_sign(x[0] - y[0], x[1] - y[1], field(x, y))


def bounded(x: tuple) -> tuple:
    """x, or OverflowError where a reduced part leaves the 64-bit bound, as a QScalar's would."""
    for f in x[:2]:
        if abs(f.numerator) > INT64_MAX or f.denominator > INT64_MAX:
            raise OverflowError(f"rational component {f.numerator}/{f.denominator} exceeds "
                                "64-bit range")
    return x


def ref_row(values) -> tuple[int, ...]:
    """(p_1, q_1, ..., D) of reference values: value i = (p_i + q_i sqrt(d)) / D, D > 0 and
    the gcd of all entries 1, so equal values give equal rows."""
    fs = [f for x in values for f in x[:2]]
    den = math.lcm(*(f.denominator for f in fs))
    return tuple(int(f * den) for f in fs) + (den,)
