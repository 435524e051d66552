"""Geometric algebra of 2 and 3 Euclidean dimensions over exact scalars.

Multivectors are stored as 2^dim blade coefficients indexed by bitmask:
bit i set means the basis vector e_{i+1} is present, so index 0 is the
scalar and index 2^dim - 1 the pseudoscalar.  The product sign comes from
transposition counting on the masks; with e_i^2 = 1 the whole product table
reduces to sign * XOR.

The bivector basis is fixed to (I e1, I e2, I e3) = (e2 e3, e3 e1, e1 e2);
the 4D reinterpretation of even elements reads its coefficients in exactly
that order.  Changing the convention silently breaks every group
comparison downstream, so it is centralised here and nowhere else.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .errors import DimensionMismatch, NonUnitVector, OddGradePresent
from .lattice import field_disc, int_numerators
from .qfield import QScalar
from .roots import Vector, row_vector

_ZERO = QScalar(0)
_ONE = QScalar(1)

Scalarish = Union[QScalar, int, Fraction]


def _blade_sign(a: int, b: int) -> int:
    # parity of transpositions needed to merge blade a into blade b
    s = 0
    a >>= 1
    while a:
        s += (a & b).bit_count()
        a >>= 1
    return -1 if s & 1 else 1


@lru_cache(maxsize=None)
def _sign_table(dim: int) -> tuple[tuple[int, ...], ...]:
    n = 1 << dim
    return tuple(tuple(_blade_sign(a, b) for b in range(n)) for a in range(n))


def _grade(mask: int) -> int:
    return mask.bit_count()


_REVERSE_SIGN = {0: 1, 1: 1, 2: -1, 3: -1}  # (-1)^(k(k-1)/2)


class Multivector:
    """Element of Cl(2) or Cl(3) with QScalar blade coefficients."""

    __slots__ = ("dim", "coeffs")

    def __init__(self, dim: int, coeffs):
        if dim not in (2, 3):
            raise DimensionMismatch(f"Cl({dim}) not supported, dim must be 2 or 3")
        cs = tuple(c if isinstance(c, QScalar) else QScalar(c) for c in coeffs)
        if len(cs) != 1 << dim:
            raise DimensionMismatch(
                f"Cl({dim}) needs {1 << dim} coefficients, got {len(cs)}"
            )
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def scalar(cls, value: Scalarish, dim: int) -> "Multivector":
        cs = [_ZERO] * (1 << dim)
        cs[0] = value if isinstance(value, QScalar) else QScalar(value)
        return cls(dim, cs)

    @classmethod
    def basis_vector(cls, i: int, dim: int) -> "Multivector":
        if not 1 <= i <= dim:
            raise DimensionMismatch(f"e{i} does not exist in Cl({dim})")
        cs = [_ZERO] * (1 << dim)
        cs[1 << (i - 1)] = _ONE
        return cls(dim, cs)

    @classmethod
    def from_vector(cls, v: Vector) -> "Multivector":
        cs = [_ZERO] * (1 << v.dim)
        for i, c in enumerate(v.coords):
            cs[1 << i] = c
        return cls(v.dim, cs)

    # -- structure ---------------------------------------------------------

    def grades(self) -> set[int]:
        return {_grade(m) for m, c in enumerate(self.coeffs) if not c.is_zero()}

    def grade(self, k: int) -> "Multivector":
        cs = [c if _grade(m) == k else _ZERO for m, c in enumerate(self.coeffs)]
        return Multivector(self.dim, cs)

    def scalar_part(self) -> QScalar:
        return self.coeffs[0]

    def is_vector(self) -> bool:
        return self.grades() <= {1}

    def is_even(self) -> bool:
        return all(g % 2 == 0 for g in self.grades())

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Multivector") -> "Multivector":
        self._check(other)
        return Multivector(self.dim, (a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Multivector") -> "Multivector":
        self._check(other)
        return Multivector(self.dim, (a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Multivector":
        return Multivector(self.dim, (-c for c in self.coeffs))

    def _check(self, other: "Multivector") -> None:
        if not isinstance(other, Multivector):
            raise TypeError(f"expected Multivector, got {type(other).__name__}")
        if self.dim != other.dim:
            raise DimensionMismatch(f"Cl({self.dim}) vs Cl({other.dim})")

    def __mul__(self, other):
        """Geometric product, or coefficient scaling for scalar operands."""
        if isinstance(other, (QScalar, int, Fraction)):
            return Multivector(self.dim, (c * other for c in self.coeffs))
        self._check(other)
        table = _sign_table(self.dim)
        out: list = [None] * (1 << self.dim)
        for a, xa in enumerate(self.coeffs):
            if xa.is_zero():
                continue
            row = table[a]
            for b, yb in enumerate(other.coeffs):
                if yb.is_zero():
                    continue
                term = xa * yb
                if row[b] < 0:
                    term = -term
                m = a ^ b
                out[m] = term if out[m] is None else out[m] + term
        return Multivector(self.dim, (_ZERO if c is None else c for c in out))

    def __rmul__(self, other):
        if isinstance(other, (QScalar, int, Fraction)):
            return Multivector(self.dim, (other * c for c in self.coeffs))
        return NotImplemented

    def reverse(self) -> "Multivector":
        """Reversal anti-automorphism: grade k picks up (-1)^(k(k-1)/2)."""
        return Multivector(
            self.dim,
            (
                c if _REVERSE_SIGN[_grade(m)] > 0 else -c
                for m, c in enumerate(self.coeffs)
            ),
        )

    # -- identity ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Multivector)
            and self.dim == other.dim
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.dim, self.coeffs))

    def __lt__(self, other: "Multivector") -> bool:
        self._check(other)
        for a, b in zip(self.coeffs, other.coeffs):
            if a != b:  # exact, and far cheaper than the subtraction
                return (a - b).sign() < 0
        return False

    def __repr__(self) -> str:
        return f"Multivector(Cl({self.dim}), [{', '.join(str(c) for c in self.coeffs)}])"

    def __str__(self) -> str:
        names = _blade_names(self.dim)
        parts = [
            f"{c}{names[m]}" for m, c in enumerate(self.coeffs) if not c.is_zero()
        ]
        return " + ".join(parts) if parts else "0"


@lru_cache(maxsize=None)
def _blade_names(dim: int) -> tuple[str, ...]:
    names = []
    for m in range(1 << dim):
        if m == 0:
            names.append("")
        else:
            names.append("*" + "".join(f"e{i + 1}" for i in range(dim) if m >> i & 1))
    return tuple(names)


def geometric_product(m: Multivector, n: Multivector) -> Multivector:
    return m * n


def reverse(m: Multivector) -> Multivector:
    return m.reverse()


def _as_unit_vector_mv(v) -> Multivector:
    mv = Multivector.from_vector(v) if isinstance(v, Vector) else v
    if not mv.is_vector():
        raise NonUnitVector(f"{mv} is not a pure vector")
    if (mv * mv).scalar_part() != _ONE:
        raise NonUnitVector(f"{mv} is not exactly unit length")
    return mv


def reflect(a: Multivector, n) -> Multivector:
    """Image -n a n of the vector a under reflection in the mirror normal n."""
    n = _as_unit_vector_mv(n)
    if not a.is_vector():
        raise OddGradePresent(f"reflect expects a pure vector, got {a}")
    return -(n * a * n)


class Rotor:
    """Normalised even multivector R with R * ~R = 1 exactly."""

    __slots__ = ("mv",)

    def __init__(self, mv: Multivector):
        if not mv.is_even():
            raise OddGradePresent(f"rotor has odd-grade parts: {mv}")
        if (mv * mv.reverse()) != Multivector.scalar(1, mv.dim):
            raise NonUnitVector(f"not normalised: R~R != 1 for {mv}")
        object.__setattr__(self, "mv", mv)

    def __setattr__(self, name, value):
        raise AttributeError("Rotor is immutable")

    @property
    def dim(self) -> int:
        return self.mv.dim

    def reverse(self) -> "Rotor":
        return Rotor(self.mv.reverse())

    def __mul__(self, other: "Rotor") -> "Rotor":
        return Rotor(self.mv * other.mv)

    def __neg__(self) -> "Rotor":
        return Rotor(-self.mv)

    def __eq__(self, other) -> bool:
        return isinstance(other, Rotor) and self.mv == other.mv

    def __hash__(self):
        return hash(self.mv)

    def __lt__(self, other: "Rotor") -> bool:
        return self.mv < other.mv

    def __repr__(self) -> str:
        return f"Rotor({self.mv})"


def rotor_from_vectors(m, n) -> Rotor:
    """Rotor m n of the rotation given by reflecting first in n then in m."""
    mv_m = _as_unit_vector_mv(m)
    mv_n = _as_unit_vector_mv(n)
    return Rotor(mv_m * mv_n)


def rotate(a: Multivector, r: Rotor) -> Multivector:
    """Image R a ~R of the vector a."""
    if not a.is_vector():
        raise OddGradePresent(f"rotate expects a pure vector, got {a}")
    return r.mv * a * r.mv.reverse()


# mask layout in Cl(3): e23 = 0b110 carries I e1, e13 = 0b101 carries -I e2,
# e12 = 0b011 carries I e3
_IE1, _IE2_NEG, _IE3 = 0b110, 0b101, 0b011


def spinor_to_vec4(psi) -> Vector:
    """Read an even Cl(3) element a0 + a1 Ie1 + a2 Ie2 + a3 Ie3 as (a0,a1,a2,a3)."""
    mv = psi.mv if isinstance(psi, Rotor) else psi
    if mv.dim != 3:
        raise DimensionMismatch("spinor_to_vec4 needs Cl(3)")
    if not mv.is_even():
        raise OddGradePresent(f"odd grades present in {mv}")
    c = tuple(mv.coeffs[m] for m in EVEN_MASKS)
    return row_vector(vec4_numerators(int_numerators(c)), field_disc((c,)))


def spinor_to_vec2(psi) -> Vector:
    """Read an even Cl(2) element a + b e1 e2 as (a, b)."""
    mv = psi.mv if isinstance(psi, Rotor) else psi
    if mv.dim != 2:
        raise DimensionMismatch("spinor_to_vec2 needs Cl(2)")
    if not mv.is_even():
        raise OddGradePresent(f"odd grades present in {mv}")
    return Vector((mv.coeffs[0], mv.coeffs[0b11]))


# -- exact integer kernel of the even subalgebra of Cl(3) -------------------
#
# An element a0 + a1 e23 + a2 e13 + a3 e12 with a_k = (p_k + q_k sqrt(d)) / D
# is the tuple (p_0, q_0, ..., p_3, q_3, D) of Python ints, divided by the gcd
# of all nine and with D > 0, so equal elements are equal tuples.  A vector
# x1 e1 + x2 e2 + x3 e3 is held the same way with three pairs.  Products take
# their structure constants from _sign_table, so the blade convention above
# stays the only one; the even product is the quaternion product.  The
# encoder, int_numerators, is lattice.py's, shared with the reflection closure.

EVEN_MASKS = (0, _IE1, _IE2_NEG, _IE3)


def _structure(left: tuple[int, ...], right: tuple[int, ...]) -> tuple:
    """(2k, 2i, 2j, sign): blade left[i] times blade right[j] is sign * even blade k."""
    table = _sign_table(3)
    pos = {m: k for k, m in enumerate(EVEN_MASKS)}
    return tuple(
        (2 * pos[a ^ b], 2 * i, 2 * j, table[a][b])
        for i, a in enumerate(left)
        for j, b in enumerate(right)
    )


VECTOR_BY_VECTOR = _structure((0b001, 0b010, 0b100), (0b001, 0b010, 0b100))
EVEN_BY_EVEN = _structure(EVEN_MASKS, EVEN_MASKS)


def int_product(x: tuple[int, ...], y: tuple[int, ...], structure, disc: int) -> tuple[int, ...]:
    """Product of two integer-numerator elements, reduced; structure picks their grades."""
    out = [0] * 8
    for k, i, j, sign in structure:
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


def even_from_numerators(x: tuple[int, ...], disc: int) -> Multivector:
    """The even Cl(3) multivector whose integer numerators are x, over Q(sqrt(disc))."""
    den = x[-1]
    cs = [_ZERO] * 8
    for k, m in enumerate(EVEN_MASKS):
        p, q = x[2 * k], x[2 * k + 1]
        if p or q:
            cs[m] = QScalar(Fraction(p, den), Fraction(q, den), disc)
    return Multivector(3, cs)


def vec4_numerators(x: tuple[int, ...]) -> tuple[int, ...]:
    """Numerators of the 4D vector spinor_to_vec4 reads off the even element x.

    The readout convention lives here alone: the element a0 + a1 e23 +
    a2 e13 + a3 e12, held as x, reads as (a0, a1, -a2, a3), since e13 = -I e2.
    """
    return x[:4] + (-x[4], -x[5]) + x[6:]


# the even coefficients' slots in blade-mask order, the order Multivector.__lt__ compares
_MASK_ORDER = sorted(range(4), key=EVEN_MASKS.__getitem__)


def mask_ordered(x: tuple[int, ...]) -> tuple[int, ...]:
    """The even element x with its coefficient pairs in blade-mask order."""
    return tuple(v for k in _MASK_ORDER for v in x[2 * k:2 * k + 2]) + x[-1:]
