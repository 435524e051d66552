"""The rank-3 to rank-4 induction and its 2D counterpart: one construction.

Pipeline: unit-normalize roots, take the rotors alpha_i alpha_j of every
pair of them, which on a reflection-closed set are already the group they
generate (pair_products), then read each rotor's even-grade coefficients as
a Euclidean vector.  A 2D set lies in the e1 e2 plane of Cl(3), so its
rotors are a0 + a3 e1 e2, read as (a0, a3), and a 3D set's are read as 4D
vectors (lattice.vec4_numerators).  The resulting point set is re-verified
against the root-system axioms instead of being trusted: the verification
*is* the computational content here.  The pipeline runs on the input's rows
(roots.py) from input to output, and its one product is lattice.py's
closed-form int_vector_product, once per unordered pair of roots.  This
module builds no Multivector, and the public rotor group of Multivectors
(clifford.py) wraps pair_products.  The output's record (its Lattice,
roots.py) is stored in the input's, once per live row set, and each call
names it after its caller.  The output's rows are a live set's when they
equal one, such as H4's for every copy of H3, and then that set's record is
taken: the check reads its stored verdict, which its named copies share and
a later signature reads; nothing stored is mutated.  check_self_dual
compares a 2D set with its image by the integer angle keys of both
Lattices, as a Signature does.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .caps import GROUP_CLOSURE_CAP, admit
from .errors import DimensionMismatch
from .lattice import AngleKey, Numerators, int_vector_product, negated, vec4_numerators
from .roots import (
    Provenance,
    RootSystem,
    close_under_reflections,
    require_root_system,
    unit_rows,
)


def pair_products(rs: RootSystem) -> set[Numerators]:
    """Cl(3) even rows of the rotor group that the reflections in rs's roots generate.

    In 3D every rotation of a finite reflection group W is a product of two
    of its reflections (Carter, "Conjugacy classes in the Weyl group",
    Compositio Math. 25 (1972), Lemma 2), and in 2D every rotation of I2(n)
    is, so the rotors are the products a b of unit roots of W.Phi, with no
    closure.  rs is replaced by its reflection closure only when its table
    (rs.lattice's) holds a -1.  Since (-a) b = -(a b) and b a is the reverse
    of a b, one root of each +-pair is normalized, each unordered pair of
    these is multiplied once, by lattice.int_vector_product, and each new
    product x brings -x, its reverse and the reverse's negative.  A 2D root
    lies in the e1 e2 plane: it is padded with a zero e3 coordinate, so its
    products are a0 + a3 e1 e2.  Every element met enters through caps.admit,
    so a group over GROUP_CLOSURE_CAP costs at most that cap + 1 elements of
    work.
    """
    if rs.lattice.axiom_witnesses()[1] is not None:
        rs = close_under_reflections(rs.roots, rs.disc)
    d, neg = rs.disc, rs.lattice.neg  # complete: -x is in rs for each x, as s_x(x) = -x
    # each +-pair's first root, so NormNotInField still names rs's first failing root
    half = unit_rows([x for i, x in enumerate(rs.rows) if neg[i] > i], d)
    if rs.dim == 2:
        half = [u[:4] + (0, 0) + u[4:] for u in half]
    reps = sorted({max(u, negated(u)) for u in half})
    known: set[Numerators] = set()
    for i, a in enumerate(reps):
        for b in reps[i:]:
            x = int_vector_product(a, b, d)
            if x not in known:
                reverse = x[:2] + negated(x[2:])  # b a: the bivector negated
                for y in dict.fromkeys((x, negated(x), reverse, negated(reverse))):
                    admit(y, known, GROUP_CLOSURE_CAP, "rotor group", "elements")
    return known


def _induce(rs: RootSystem, dim: int, read: Callable[[Numerators], Numerators],
            what: str) -> RootSystem:
    """The root system of rs's rotors, each even row read out by read, for a dim-D rs.

    The result's record is stored in rs's (rs.lattice.induced), so it is
    computed once per live row set; each call names it after its input.
    """
    if rs.dim != dim:
        raise DimensionMismatch(f"induce_{2 * dim - 2}d needs a {dim}D system, got dim {rs.dim}")
    source = rs.label or f"rank-{dim} input"
    lattice = rs.lattice
    if lattice.induced is None:
        # the steps of RootSystem and require_root_system, on rows already distinct
        out = RootSystem._from_rows([read(x) for x in pair_products(rs)], rs.disc)
        require_root_system(out, f"{what} {source}")
        lattice.induced = out.lattice
    return RootSystem._of(lattice.induced, f"induced({source})", Provenance(induced_from=source))


def induce_4d(rs: RootSystem) -> RootSystem:
    """4D root system read off the rotor group of a rank-3 root system, stored with it."""
    return _induce(rs, 3, vec4_numerators, "induced set from")


def induce_2d(rs: RootSystem) -> RootSystem:
    """2D spinor image of a 2D root system: each rotor a0 + a3 e1 e2 read as (a0, a3).

    Its rotors, pair_products' {a b}, are the paper's {alpha_1 alpha_i} for
    every choice of alpha_1.
    """
    return _induce(rs, 2, lambda x: x[:2] + x[6:], "2D spinor image of")


class SelfDualityReport(NamedTuple):
    """A 2D set against its spinor image: the root counts and the angle spectra.

    Each spectrum is the frozenset of (key, multiplicity) pairs of
    Lattice.angle_counts, as Signature.spectrum holds them, so two spectra are
    equal exactly when the sets have the same angles with the same multiplicities.
    """

    label: str
    input_count: int
    induced_count: int
    input_spectrum: frozenset[tuple[AngleKey, int]]
    induced_spectrum: frozenset[tuple[AngleKey, int]]

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
    set's RootSystem.lattice) must agree; the comparison is rotation-invariant.
    """
    induced = induce_2d(rs)
    return SelfDualityReport(
        label=rs.label or "rank-2 input",
        input_count=len(rs),
        induced_count=len(induced),
        input_spectrum=frozenset(rs.lattice.angle_counts()[0].items()),
        induced_spectrum=frozenset(induced.lattice.angle_counts()[0].items()),
    )
