"""Geometric algebra of 2 and 3 Euclidean dimensions over exact scalars.

A Multivector is a lattice.Exact, as a Vector is: the row of its 2^dim
blade coefficients and its field's disc, with the QScalar coeffs decoded on
first read.  Slot m of the row holds blade m, a bitmask: bit i set means the
basis vector e_{i+1} is present, so slot 0 is the scalar and slot 2^dim - 1
the pseudoscalar.  The geometric product is lattice.py's `int_product` on
the two rows; the blade convention, the bivector basis (I e1, I e2, I e3) =
(e2 e3, e3 e1, e1 e2) and the 4D readout of even elements are stated there,
once.  Sums, negation and scaling are Exact's; reversion, grades,
from_vector and the spinor readouts also read or build the row, so none of
them encodes or decodes a QScalar.

Every Rotor is built by Rotor(mv), which checks that mv is even with
R ~R = 1, the unit rotors of induction.py's integer pair products included;
generate_rotor_group puts those in a RotorGroup unchecked, since they are a
group by construction.  R ~R of an even element is the sum of its squared
coefficients, the squared 4D norm of its readout (in Cl(2), of (a, b)), as
v v of a vector is the sum of its squared coordinates: so Rotor and the
mirror check of reflect and rotor_from_vectors test unit length with
roots._is_unit on the row, as roots and generate_rotor_group do.
RotorGroup's public constructor checks the group laws of the elements a
caller gives it.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Sequence, Union

from .errors import DimensionMismatch, NonUnitVector, OddGradePresent, RootspinError
from .induction import pair_products
from .lattice import (
    BLADES,
    EVEN_BY_EVEN,
    EVEN_MASKS,
    Exact,
    Numerators,
    int_product,
    sorted_numerators,
    vec4_numerators,
    vectors_disc,
)
from .qfield import QScalar
from .roots import RootSystem, Vector, _is_unit, row_vector

_ZERO = QScalar(0)
_ONE = QScalar(1)

Scalarish = Union[QScalar, int, Fraction]

# per row entry, the sign (-1)^(k(k-1)/2) that reversion gives its blade of grade k
_REVERSE_SIGNS = {
    dim: tuple(1 if m.bit_count() < 2 else -1 for m in range(1 << dim) for _ in "pq") + (1,)
    for dim in (2, 3)
}
# per blade mask, its name in output: "" for the scalar, "*e1e2" for e1 e2
_BLADE_NAMES = {
    dim: tuple("*" * (m > 0) + "".join(f"e{i + 1}" for i in range(dim) if m >> i & 1)
               for m in range(1 << dim))
    for dim in (2, 3)
}


def _slotted(x: Numerators, masks: Sequence[int], dim: int) -> Numerators:
    """The row of Cl(dim) whose blades masks hold x's coefficients, in turn, and 0 elsewhere."""
    out = [0] * (2 << dim) + [x[-1]]
    for k, m in enumerate(masks):
        out[2 * m:2 * m + 2] = x[2 * k:2 * k + 2]
    return tuple(out)


def _read(x: Numerators, masks: Sequence[int]) -> Numerators:
    """The row of the coefficients of x on the blades masks; reduced when x is 0 elsewhere."""
    return tuple(v for m in masks for v in x[2 * m:2 * m + 2]) + x[-1:]


class Multivector(Exact):
    """Element of Cl(2) or Cl(3), held as the row of its QScalar blade coefficients."""

    __slots__ = ()

    def __init__(self, dim: int, coeffs):
        if dim not in (2, 3):
            raise DimensionMismatch(f"Cl({dim}) not supported, dim must be 2 or 3")
        cs = tuple(c if isinstance(c, QScalar) else QScalar(c) for c in coeffs)
        if len(cs) != 1 << dim:
            raise DimensionMismatch(
                f"Cl({dim}) needs {1 << dim} coefficients, got {len(cs)}"
            )
        super().__init__(cs)

    coeffs = property(Exact._decoded, doc="The blade coefficients as QScalars, by bitmask.")

    @property
    def dim(self) -> int:
        return (len(self.row) // 2).bit_length() - 1

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
        if v.dim not in (2, 3):
            raise DimensionMismatch(f"Cl({v.dim}) not supported, dim must be 2 or 3")
        return cls._from_row(_slotted(v.row, [1 << i for i in range(v.dim)], v.dim), v.disc)

    # -- structure ---------------------------------------------------------

    def grades(self) -> set[int]:
        x = self.row
        return {m.bit_count() for m in range(len(x) // 2) if x[2 * m] or x[2 * m + 1]}

    def grade(self, k: int) -> "Multivector":
        cs = [c if m.bit_count() == k else _ZERO for m, c in enumerate(self.coeffs)]
        return Multivector(self.dim, cs)

    def scalar_part(self) -> QScalar:
        return self.coeffs[0]

    def is_vector(self) -> bool:
        return self.grades() <= {1}

    def is_even(self) -> bool:
        return all(g % 2 == 0 for g in self.grades())

    # -- arithmetic ----------------------------------------------------------

    def _from_values(self, values) -> "Multivector":
        return Multivector(self.dim, values)

    def __mul__(self, other):
        """Geometric product, or Exact.scale for scalar operands."""
        if isinstance(other, (QScalar, int, Fraction)):
            return self.scale(other)
        self._check(other)
        d = self.disc if self.disc == other.disc else vectors_disc((self, other))
        return Multivector._from_row(int_product(self.row, other.row, BLADES[self.dim], d), d)

    def __rmul__(self, other):
        return self.scale(other) if isinstance(other, (QScalar, int, Fraction)) else NotImplemented

    def reverse(self) -> "Multivector":
        """Reversal anti-automorphism: grade k picks up (-1)^(k(k-1)/2)."""
        signs = _REVERSE_SIGNS[self.dim]
        return Multivector._from_row(tuple(map(mul, self.row, signs)), self.disc)

    # -- output ----------------------------------------------------------------

    def __repr__(self) -> str:
        return f"Multivector(Cl({self.dim}), [{', '.join(str(c) for c in self.coeffs)}])"

    def __str__(self) -> str:
        names = _BLADE_NAMES[self.dim]
        parts = [
            f"{c}{names[m]}" for m, c in enumerate(self.coeffs) if not c.is_zero()
        ]
        return " + ".join(parts) if parts else "0"


def geometric_product(m: Multivector, n: Multivector) -> Multivector:
    return m * n


def reverse(m: Multivector) -> Multivector:
    return m.reverse()


def _as_unit_vector_mv(v) -> Multivector:
    mv = Multivector.from_vector(v) if isinstance(v, Vector) else v
    if not mv.is_vector():
        raise NonUnitVector(f"{mv} is not a pure vector")
    if not _is_unit(mv.row, mv.disc):  # v v is the sum of the squared coordinates
        raise NonUnitVector(f"{mv} is not exactly unit length")
    return mv


def reflect(a: Multivector, n) -> Multivector:
    """Image -n a n of the vector a under reflection in the mirror normal n."""
    n = _as_unit_vector_mv(n)
    if not a.is_vector():
        raise OddGradePresent(f"reflect expects a pure vector, got {a}")
    return -(n * a * n)


class Rotor:
    """Normalised even multivector R with R * ~R = 1 exactly.

    R ~R is the sum of R's squared coefficients, the squared 4D norm of its
    readout spinor_to_vec4(R) (in Cl(2), of spinor_to_vec2(R)), so R is unit
    when its row is (roots._is_unit).
    """

    __slots__ = ("mv",)

    def __init__(self, mv: Multivector):
        if not mv.is_even():
            raise OddGradePresent(f"rotor has odd-grade parts: {mv}")
        if not _is_unit(mv.row, mv.disc):
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


def _even(psi, dim: int, reader: str) -> Multivector:
    # the even element of Cl(dim) that psi, a Rotor or a Multivector, holds, for reader
    mv = psi.mv if isinstance(psi, Rotor) else psi
    if mv.dim != dim:
        raise DimensionMismatch(f"{reader} needs Cl({dim})")
    if not mv.is_even():
        raise OddGradePresent(f"odd grades present in {mv}")
    return mv


def spinor_to_vec4(psi) -> Vector:
    """Read an even Cl(3) element a0 + a1 Ie1 + a2 Ie2 + a3 Ie3 as (a0,a1,a2,a3)."""
    mv = _even(psi, 3, "spinor_to_vec4")
    return row_vector(vec4_numerators(_read(mv.row, EVEN_MASKS)), mv.disc)


def spinor_to_vec2(psi) -> Vector:
    """Read an even Cl(2) element a + b e1 e2 as (a, b)."""
    mv = _even(psi, 2, "spinor_to_vec2")
    return row_vector(_read(mv.row, (0b00, 0b11)), mv.disc)


class RotorGroup:
    """Finite group of rotors, canonically ordered, closed under the product.

    The public constructor checks that the elements hold 1 and are closed under
    negation and the product, an int_product of Cl(3) even rows (a Cl(2) rotor's
    padded) per ordered pair.  It and generate_rotor_group, on induction.py's
    products, build the group by the one body `_trusted`, which checks nothing.
    """

    __slots__ = ("dim", "elements", "_set")

    def __new__(cls, elements: Sequence[Rotor]) -> "RotorGroup":
        elems = set(elements)
        if not elems:
            raise RootspinError("a rotor group needs at least one element")
        dims = {r.dim for r in elems}
        if len(dims) != 1:
            raise DimensionMismatch(f"mixed rotor dimensions {sorted(dims)}")
        group = cls._trusted(sorted(elems))
        group._validate()
        return group

    @classmethod
    def _trusted(cls, elems: list[Rotor]) -> "RotorGroup":
        # elements already distinct, canonically ordered and validated
        group = object.__new__(cls)
        object.__setattr__(group, "dim", elems[0].dim)
        object.__setattr__(group, "elements", tuple(elems))
        object.__setattr__(group, "_set", frozenset(r.mv for r in elems))
        return group

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
        d = vectors_disc(r.mv for r in self.elements)
        rows = {_read(_slotted(r.mv.row, range(1 << r.dim), 3), EVEN_MASKS): r
                for r in self.elements}
        for x, r in rows.items():
            for y, s in rows.items():
                if int_product(x, y, EVEN_BY_EVEN, d) not in rows:
                    raise RootspinError(f"rotor group not closed under the product at {r} * {s}")

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

    A thin wrapper over induction.py's pair_products, which runs on Cl(3)'s
    even rows, so every vector must be 3D and exactly unit, checked on the
    rows.  The products of the roots' reflection closure are that group, by
    Carter's lemma (see pair_products).  Each row is put in its blade slots,
    and the full rows are sorted by sorted_numerators: that is
    Multivector.__lt__'s order, and it decodes nothing.  Each element is
    wrapped by Rotor, which checks it is even and unit on its row.
    """
    if not unit_roots:
        raise NonUnitVector("no roots given")
    dims = {r.dim for r in unit_roots}
    if dims != {3}:
        raise DimensionMismatch(f"rotor group needs 3D vectors, got dimensions {sorted(dims)}")
    d = vectors_disc(unit_roots)
    for r in unit_roots:
        if not _is_unit(r.row, d):
            raise NonUnitVector(f"root {r} is not exactly unit length")
    elements = pair_products(RootSystem(unit_roots, d))
    ordered = sorted_numerators([_slotted(x, EVEN_MASKS, 3) for x in elements], d)
    return RotorGroup._trusted([Rotor(Multivector._from_row(x, d)) for x in ordered])
