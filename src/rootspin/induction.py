"""The rank-3 to rank-4 induction and its 2D counterpart.

Pipeline: unit-normalize roots, close the rotors alpha_i alpha_j into the
group they generate under the geometric product, then read each group
element's even-grade coefficients as a Euclidean vector.  The resulting 4D
(or 2D) point set is re-verified against the root-system axioms instead of
being trusted: the verification *is* the computational content here.  Both
pipelines run on the input's rows (roots.py) from input to output.  The
check builds the output's RootSystem.lattice (roots.py), which its named
copies share and a later signature reads; its stored table is never mutated.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Sequence

from .caps import GROUP_CLOSURE_CAP, admit
from .clifford import (
    EVEN_BY_EVEN,
    VECTOR_BY_VECTOR,
    Multivector,
    Rotor,
    even_from_numerators,
    int_product,
    mask_ordered,
    vec4_numerators,
)
from .errors import DimensionMismatch, NonUnitVector, RootspinError
from .lattice import (
    Numerators,
    field_disc,
    int_numerators,
    negated,
    sorted_numerators,
)
from .qfield import QScalar
from .roots import (
    Provenance,
    RootSystem,
    Vector,
    _is_unit,
    require_root_system,
    row_vector,
    unit_rows,
)

_ONE = (1, 0, 0, 0, 0, 0, 0, 0, 1)  # the scalar 1 as integer numerators


def _trusted_rotor(mv: Multivector) -> Rotor:
    # products of unit rotors are unit rotors; skip re-validation in closures
    r = object.__new__(Rotor)
    object.__setattr__(r, "mv", mv)
    return r


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

    A thin wrapper over rotor_closure: Multivectors are built once, for the
    final elements, in the canonical order of their integer numerators.
    The integer kernel is Cl(3)'s, so every vector must be 3D.
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


def rotor_closure(vecs: Sequence[Numerators], d: int) -> list[Numerators]:
    """Numerators of the group generated by the products of the unit vectors vecs.

    Since alpha_i alpha_j = (alpha_i alpha_1)(alpha_1 alpha_j) and alpha_i
    alpha_1 is the inverse of alpha_1 alpha_i, the n products alpha_1 alpha_j
    generate it.  They are closed into {1} one generator at a time, and a
    generator already in the closure is skipped, so H3 keeps 2 of its 29.
    The loop runs on the integer numerators of clifford's even kernel, and
    the group checks (even order, 1, negation) run on the tuples.  Every
    element met, the n seed products included, enters through caps.admit,
    so a group over GROUP_CLOSURE_CAP costs at most that cap + 1 elements of
    work.
    """
    for x in vecs:
        if not _is_unit(x, d):
            raise NonUnitVector(
                f"root {row_vector(x, d)} is not exactly unit length"
            )
    known: set[Numerators] = set()
    elements = [_ONE]  # the closure so far, closed under right multiplication by gens
    closed = {_ONE}
    for b in vecs:  # alpha_1 alpha_1 = 1 comes first
        x = int_product(vecs[0], b, VECTOR_BY_VECTOR, d)
        if x not in known:
            admit(x, known, GROUP_CLOSURE_CAP, "rotor", "elements")
    gens: list[Numerators] = []
    for g in sorted(known - closed):
        if g in closed:
            continue
        gens.append(g)
        # the old elements lack only the new generator, the new ones lack all
        old = len(elements)
        for i, x in enumerate(elements):  # a worklist: it also visits what it appends
            for h in gens[-1:] if i < old else gens:
                y = int_product(x, h, EVEN_BY_EVEN, d)
                if y not in closed:
                    if y not in known:
                        admit(y, known, GROUP_CLOSURE_CAP, "rotor", "elements")
                    closed.add(y)
                    elements.append(y)
    if len(elements) % 2 != 0:
        raise RootspinError(f"rotor group of odd order {len(elements)}")
    if _ONE not in known:
        raise RootspinError("rotor group does not contain 1")
    for x in elements:
        if negated(x) not in known:
            rotor = _trusted_rotor(even_from_numerators(x, d))
            raise RootspinError(f"rotor group not closed under negation at {rotor}")
    return elements


def _named(out: RootSystem, source: str) -> RootSystem:
    return out._relabel(f"induced({source})", Provenance(induced_from=source))


def _verified(rows: list[Numerators], d: int, what: str) -> RootSystem:
    # the steps of RootSystem and require_root_system, on rows already distinct
    out = RootSystem._from_rows(sorted_numerators(rows, d), d)
    require_root_system(out, what)
    return out


# The cache keys on root content alone (RootSystem equality ignores label and
# provenance), so it holds unnamed results; every call names its result after
# the caller's own input.
@lru_cache(maxsize=128)
def _induced_4d(rs: RootSystem) -> RootSystem:
    # the steps of normalize_roots, generate_rotor_group and spinor_to_vec4, on rows
    d = rs.disc
    rows = [vec4_numerators(x) for x in rotor_closure(unit_rows(rs), d)]
    return _verified(rows, d, f"induced set from {rs.label or 'rank-3 input'}")


def induce_4d(rs: RootSystem) -> RootSystem:
    """4D root system read off the rotor group of a rank-3 root system."""
    if rs.dim != 3:
        raise DimensionMismatch(f"induce_4d needs a 3D system, got dim {rs.dim}")
    return _named(_induced_4d(rs), rs.label or "rank-3 input")


induce_4d.cache_info = _induced_4d.cache_info
induce_4d.cache_clear = _induced_4d.cache_clear


def induce_2d(rs: RootSystem) -> RootSystem:
    """2D spinor image of a 2D root system: alpha_i -> alpha_1 alpha_i.

    alpha_1 is the first unit root in canonical order; the recorded
    convention only rotates the output, which no congruence test sees.
    """
    if rs.dim != 2:
        raise DimensionMismatch(f"induce_2d needs a 2D system, got dim {rs.dim}")
    # the steps of normalize_roots and spinor_to_vec2, on rows padded to 3D: the
    # product of two vectors in the e1 e2 plane is a0 + a3 e1 e2, and its e2 e3
    # and e1 e3 slots are zero, so (a0, a3) over D is still reduced
    d = rs.disc
    units = [x[:-1] + (0, 0) + x[-1:] for x in unit_rows(rs)]
    products = (int_product(units[0], u, VECTOR_BY_VECTOR, d) for u in units)
    rows = [x[:2] + x[6:] for x in products]
    out = _verified(rows, d, f"2D spinor image of {rs.label or 'rank-2 input'}")
    return _named(out, rs.label or "rank-2 input")


class SelfDualityReport(NamedTuple):
    label: str
    input_count: int
    induced_count: int
    input_spectrum: tuple[QScalar, ...]
    induced_spectrum: tuple[QScalar, ...]

    @property
    def self_dual(self) -> bool:
        return (
            self.input_count == self.induced_count
            and self.input_spectrum == self.induced_spectrum
        )

    def summary(self) -> str:
        verdict = "self-dual" if self.self_dual else "NOT self-dual"
        return (
            f"{self.label}: {verdict} "
            f"({self.input_count} roots <-> {self.induced_count} spinors)"
        )


def check_self_dual(rs: RootSystem) -> SelfDualityReport:
    """Congruence test between a 2D system and its spinor image.

    Cardinalities and angle spectra (Lattice.angle_counts, read off each
    set's RootSystem.lattice) must agree; the comparison is rotation-invariant,
    so the verdict does not depend on the alpha_1 convention inside induce_2d.
    """
    induced = induce_2d(rs)
    return SelfDualityReport(
        label=rs.label or "rank-2 input",
        input_count=len(rs),
        induced_count=len(induced),
        input_spectrum=_angle_spectrum(rs),
        induced_spectrum=_angle_spectrum(induced),
    )


def _angle_spectrum(rs: RootSystem) -> tuple[QScalar, ...]:
    angles, _ = rs.lattice.angle_counts()
    return tuple(value for value in sorted(angles) for _ in range(angles[value]))
