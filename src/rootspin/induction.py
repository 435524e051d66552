"""The rank-3 to rank-4 induction and its 2D counterpart.

Pipeline: unit-normalize roots, close the rotors alpha_i alpha_j into the
group they generate under the geometric product, then read each group
element's even-grade coefficients as a Euclidean vector.  The resulting 4D
(or 2D) point set is re-verified against the root-system axioms instead of
being trusted: the verification *is* the computational content here.  Both
pipelines run on the input's rows (roots.py) from input to output, and every
product is lattice.py's int_product: this module builds no Multivector, and
the public rotor group of Multivectors (clifford.py) wraps rotor_closure.  The
check reads the output's RootSystem.lattice (roots.py), which its named
copies share and a later signature reads; its stored table is never mutated.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Sequence

from .caps import GROUP_CLOSURE_CAP, admit
from .errors import DimensionMismatch, NonUnitVector, RootspinError
from .lattice import (
    EVEN_BY_EVEN,
    VECTOR_BY_VECTOR,
    VECTOR_BY_VECTOR_2D,
    Numerators,
    int_product,
    negated,
    sorted_numerators,
    vec4_numerators,
)
from .qfield import QScalar
from .roots import (
    Provenance,
    RootSystem,
    _is_unit,
    require_root_system,
    row_vector,
    unit_rows,
)

_ONE = (1, 0, 0, 0, 0, 0, 0, 0, 1)  # the scalar 1 as integer numerators


def rotor_closure(vecs: Sequence[Numerators], d: int) -> list[Numerators]:
    """Numerators of the group generated by the products of the unit vectors vecs.

    Since alpha_i alpha_j = (alpha_i alpha_1)(alpha_1 alpha_j) and alpha_i
    alpha_1 is the inverse of alpha_1 alpha_i, the n products alpha_1 alpha_j
    generate it.  They are closed into {1} one generator at a time, and a
    generator already in the closure is skipped, so H3 keeps 2 of its 29.
    The loop runs on even rows with lattice.py's int_product, and the group
    checks (even order, 1, negation) run on the tuples.  Every
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
            at = row_vector(vec4_numerators(x), d)
            raise RootspinError(f"rotor group not closed under negation at {at}")
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
    # the steps of normalize_roots and spinor_to_vec2, on rows: the product of
    # two vectors in the e1 e2 plane is a0 + a3 e1 e2, the row (a0, a3)
    d = rs.disc
    units = unit_rows(rs)
    rows = [int_product(units[0], u, VECTOR_BY_VECTOR_2D, d) for u in units]
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
