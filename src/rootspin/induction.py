"""The rank-3 to rank-4 induction and its 2D counterpart.

Pipeline: unit-normalize roots, form all pairwise rotors alpha_i alpha_j,
close them into a group under the geometric product, then read each group
element's even-grade coefficients as a Euclidean vector.  The resulting 4D
(or 2D) point set is re-verified against the root-system axioms instead of
being trusted: the verification *is* the computational content here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .caps import GROUP_CLOSURE_CAP, resolve_cap
from .clifford import (
    EVEN_BY_EVEN,
    VECTOR_BY_VECTOR,
    Multivector,
    Rotor,
    even_from_numerators,
    int_numerators,
    int_product,
    spinor_to_vec2,
    spinor_to_vec4,
)
from .errors import (
    ClosureCapExceeded,
    DimensionMismatch,
    FieldMismatch,
    NonUnitVector,
    RootspinError,
)
from .qfield import QScalar
from .roots import (
    Provenance,
    RootSystem,
    Vector,
    gram_spectrum,
    normalize_roots,
    verify_root_axioms,
)

_ONE_Q = QScalar(1)
_ONE = (1, 0, 0, 0, 0, 0, 0, 0, 1)  # the scalar 1 as integer numerators
_INT64_MAX = 2**63 - 1


def _trusted_rotor(mv: Multivector) -> Rotor:
    # products of unit rotors are unit rotors; skip re-validation in closures
    r = object.__new__(Rotor)
    object.__setattr__(r, "mv", mv)
    return r


class RotorGroup:
    """Finite group of rotors, canonically ordered, closed under the product."""

    __slots__ = ("dim", "elements", "_set")

    def __init__(self, elements: Sequence[Rotor]):
        elems = sorted(set(elements))
        dims = {r.dim for r in elems}
        if len(dims) != 1:
            raise DimensionMismatch(f"mixed rotor dimensions {sorted(dims)}")
        object.__setattr__(self, "dim", elems[0].dim)
        object.__setattr__(self, "elements", tuple(elems))
        object.__setattr__(self, "_set", frozenset(r.mv for r in elems))
        self._validate()

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


def _field_disc(vectors: Sequence[Vector]) -> int:
    """The one d whose sqrt(d) the coordinates use; plain rationals fit any field."""
    surd = list(dict.fromkeys(c.disc for v in vectors for c in v.coords if c.surd))
    if len(surd) > 1:
        raise FieldMismatch(f"cannot combine Q(sqrt({surd[0]})) with Q(sqrt({surd[1]}))")
    return surd[0] if surd else max(c.disc for v in vectors for c in v.coords)


def _check_range(x: tuple[int, ...], d: int) -> None:
    # past the cheap bound, building the QScalars applies their own 64-bit
    # check to each reduced component p/D and q/D, and raises OverflowError
    *nums, den = x
    if den > _INT64_MAX or max(map(abs, nums)) > _INT64_MAX:
        even_from_numerators(x, d)


def generate_rotor_group(
    unit_roots: Sequence[Vector], cap: int | None = None
) -> RotorGroup:
    """Close {alpha_i alpha_j : all ordered root pairs} under the product.

    The loop runs on the integer numerators of clifford's even kernel;
    Multivectors are built once, for the final elements.  The cap is
    checked on every insertion, so an oversized group costs at most cap + 1
    elements of work.
    """
    cap = resolve_cap(cap, GROUP_CLOSURE_CAP)
    if not unit_roots:
        raise NonUnitVector("no roots given")
    for r in unit_roots:
        if r.norm_squared() != _ONE_Q:
            raise NonUnitVector(f"root {r} is not exactly unit length")
    d = _field_disc(unit_roots)
    vecs = [int_numerators(r.coords) for r in unit_roots]
    known: set[tuple[int, ...]] = set()
    elements: list[tuple[int, ...]] = []

    def insert(x: tuple[int, ...]) -> None:
        if x in known:
            return
        _check_range(x, d)
        known.add(x)
        elements.append(x)
        if len(known) > cap:
            raise ClosureCapExceeded(f"rotor closure exceeded cap of {cap}")

    try:
        for a in vecs:
            for b in vecs:
                insert(int_product(a, b, VECTOR_BY_VECTOR, d))
        # closing under right multiplication by {alpha_1 alpha_j} alone
        # reaches the whole group generated by the seed: any alpha_i alpha_j
        # equals (alpha_1 alpha_i)~ (alpha_1 alpha_j), so the subset generates it
        gens = sorted({int_product(vecs[0], b, VECTOR_BY_VECTOR, d) for b in vecs} - {_ONE})
        for x in elements:  # a worklist: the loop also visits what it appends
            for g in gens:
                insert(int_product(x, g, EVEN_BY_EVEN, d))
    except OverflowError as exc:
        raise OverflowError(f"rotor closure overflowed at {len(known)} elements; "
                            "the input likely generates an infinite group") from exc
    return RotorGroup([_trusted_rotor(even_from_numerators(x, d)) for x in elements])


def _named(out: RootSystem, source: str) -> RootSystem:
    return out._relabel(f"induced({source})", Provenance(induced_from=source))


# The caches below key on root content alone (RootSystem equality ignores
# label and provenance), so they hold unnamed results; every call names its
# result after the caller's own input.


@lru_cache(maxsize=128)
def _induced_4d(rs: RootSystem, cap: int) -> RootSystem:
    units = normalize_roots(rs)
    group = generate_rotor_group(units, cap=cap)
    out = RootSystem([spinor_to_vec4(r) for r in group], disc=rs.disc)
    report = verify_root_axioms(out)
    if not report.ok:
        raise RootspinError(
            f"induced set from {rs.label or 'rank-3 input'} is not a root system: "
            f"{report.summary()}"
        )
    return out


def induce_4d(rs: RootSystem, cap: int | None = None) -> RootSystem:
    """4D root system read off the rotor group of a rank-3 root system."""
    if rs.dim != 3:
        raise DimensionMismatch(f"induce_4d needs a 3D system, got dim {rs.dim}")
    out = _induced_4d(rs, resolve_cap(cap, GROUP_CLOSURE_CAP))
    return _named(out, rs.label or "rank-3 input")


induce_4d.cache_info = _induced_4d.cache_info
induce_4d.cache_clear = _induced_4d.cache_clear


@lru_cache(maxsize=128)
def _induced_2d(rs: RootSystem) -> RootSystem:
    units = normalize_roots(rs)
    first = Multivector.from_vector(units[0])
    vecs = [spinor_to_vec2(first * Multivector.from_vector(u)) for u in units]
    out = RootSystem(vecs, disc=rs.disc)
    report = verify_root_axioms(out)
    if not report.ok:
        raise RootspinError(
            f"2D spinor image of {rs.label or 'rank-2 input'} is not a root system: "
            f"{report.summary()}"
        )
    return out


def induce_2d(rs: RootSystem) -> RootSystem:
    """2D spinor image of a 2D root system: alpha_i -> alpha_1 alpha_i.

    alpha_1 is the first unit root in canonical order; the recorded
    convention only rotates the output, which no congruence test sees.
    """
    if rs.dim != 2:
        raise DimensionMismatch(f"induce_2d needs a 2D system, got dim {rs.dim}")
    return _named(_induced_2d(rs), rs.label or "rank-2 input")


induce_2d.cache_info = _induced_2d.cache_info
induce_2d.cache_clear = _induced_2d.cache_clear


@dataclass(frozen=True)
class SelfDualityReport:
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

    Cardinalities and Gram spectra of the unit-normalized sets must agree;
    the spectrum comparison is rotation-invariant, so the verdict does not
    depend on the alpha_1 convention inside induce_2d.
    """
    induced = induce_2d(rs)
    units_in = normalize_roots(rs)
    units_out = normalize_roots(induced)
    return SelfDualityReport(
        label=rs.label or "rank-2 input",
        input_count=len(units_in),
        induced_count=len(units_out),
        input_spectrum=gram_spectrum(units_in),
        induced_spectrum=gram_spectrum(units_out),
    )
