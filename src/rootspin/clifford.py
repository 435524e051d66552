"""Geometric algebra of 2 and 3 Euclidean dimensions over exact scalars.

Multivectors are stored as 2^dim QScalar blade coefficients indexed by
bitmask: bit i set means the basis vector e_{i+1} is present, so index 0 is
the scalar and index 2^dim - 1 the pseudoscalar.  The geometric product is
lattice.py's `int_product`, run on the coefficients' integer numerators: the
blade convention, the bivector basis (I e1, I e2, I e3) = (e2 e3, e3 e1, e1 e2)
and the 4D readout of even elements are stated there, once.

Only this module builds a Rotor: Rotor checks R ~R = 1, and RotorGroup and
generate_rotor_group wrap induction.py's integer rotor closure, whose
products are unit rotors by construction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

from .errors import DimensionMismatch, NonUnitVector, OddGradePresent, RootspinError
from .induction import rotor_closure
from .lattice import (
    BLADES,
    EVEN_MASKS,
    field_disc,
    from_numerators,
    int_numerators,
    int_product,
    mask_ordered,
    sorted_numerators,
    vec4_numerators,
)
from .qfield import QScalar
from .roots import Vector, row_vector

_ZERO = QScalar(0)
_ONE = QScalar(1)

Scalarish = Union[QScalar, int, Fraction]


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
        d = field_disc((self.coeffs, other.coeffs))
        x, y = int_numerators(self.coeffs), int_numerators(other.coeffs)
        return Multivector(self.dim, from_numerators(int_product(x, y, BLADES[self.dim], d), d))

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


def _trusted_rotor(mv: Multivector) -> Rotor:
    # products of unit rotors are unit rotors; skip re-validation in closures
    r = object.__new__(Rotor)
    object.__setattr__(r, "mv", mv)
    return r


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


def even_from_numerators(x: tuple[int, ...], disc: int) -> Multivector:
    """The even Cl(3) multivector whose integer numerators are x, over Q(sqrt(disc))."""
    den = x[-1]
    cs = [_ZERO] * 8
    for k, m in enumerate(EVEN_MASKS):
        p, q = x[2 * k], x[2 * k + 1]
        if p or q:
            cs[m] = QScalar(Fraction(p, den), Fraction(q, den), disc)
    return Multivector(3, cs)


class RotorGroup:
    """Finite group of rotors, canonically ordered, closed under the product."""

    __slots__ = ("dim", "elements", "_set")

    def __init__(self, elements: Sequence[Rotor]):
        elems = set(elements)
        if not elems:
            raise RootspinError("a rotor group needs at least one element")
        dims = {r.dim for r in elems}
        if len(dims) != 1:
            raise DimensionMismatch(f"mixed rotor dimensions {sorted(dims)}")
        self._fill(sorted(elems))
        self._validate()

    @classmethod
    def _trusted(cls, elems: list[Rotor]) -> "RotorGroup":
        # elements already distinct, canonically ordered and validated
        group = object.__new__(cls)
        group._fill(elems)
        return group

    def _fill(self, elems: list[Rotor]) -> None:
        object.__setattr__(self, "dim", elems[0].dim)
        object.__setattr__(self, "elements", tuple(elems))
        object.__setattr__(self, "_set", frozenset(r.mv for r in elems))

    def __setattr__(self, name, value):
        raise AttributeError("RotorGroup is immutable")

    def _validate(self) -> None:
        if len(self.elements) % 2 != 0:
            raise RootspinError(f"rotor group of odd order {len(self.elements)}")
        if Multivector.scalar(1, self.dim) not in self._set:
            raise RootspinError("rotor group does not contain 1")
        for r in self.elements:
            if (-r.mv) not in self._set:
                raise RootspinError(f"rotor group not closed under negation at {r}")

    @property
    def order(self) -> int:
        return len(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, r) -> bool:
        mv = r.mv if isinstance(r, Rotor) else r
        return mv in self._set

    def __repr__(self) -> str:
        return f"RotorGroup(dim={self.dim}, order={self.order})"


def generate_rotor_group(unit_roots: Sequence[Vector]) -> RotorGroup:
    """The group generated by {alpha_i alpha_j : all ordered root pairs}.

    A thin wrapper over induction.py's rotor_closure: Multivectors are built
    once, for the final elements, in the canonical order of their integer
    numerators.  The closure runs on Cl(3)'s even rows, so every vector must be 3D.
    """
    if not unit_roots:
        raise NonUnitVector("no roots given")
    dims = {r.dim for r in unit_roots}
    if dims != {3}:
        raise DimensionMismatch(f"rotor closure needs 3D vectors, got dimensions {sorted(dims)}")
    d = field_disc(unit_roots)
    elements = rotor_closure([int_numerators(r.coords) for r in unit_roots], d)
    ordered = sorted_numerators(elements, d, key=mask_ordered)
    return RotorGroup._trusted([_trusted_rotor(even_from_numerators(x, d)) for x in ordered])
