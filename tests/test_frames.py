"""Frame independence: every answer is unchanged by an exact rotation of the input.

A rotation R of Q^n is drawn as the Cayley transform (I - A)(I + A)^-1 of a
small rational skew matrix A (I + A is invertible, since the eigenvalues of A
are imaginary), so R is orthogonal with determinant 1 and R Phi lies over the
field of Phi.  Conjugating by a rotor keeps a spinor's scalar part and rotates
the dual vector of its bivector part by R, and vec4_numerators reads a spinor
as (scalar, dual vector), so induce_4d(R Phi) = (1 + R) induce_4d(Phi), with
1 + R the block-diagonal rotation of Q^4.  The signature, the catalog name,
the Coxeter order, the self-duality verdict and the axiom verdicts read only
inner products and reflections, so a rotation leaves them as they are; the
canonical order, and so the witness positions, may move.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rootspin import (
    NormNotInField,
    QScalar,
    RootSystem,
    Vector,
    build_preset,
    check_self_dual,
    coxeter_order,
    identify,
    induce_4d,
    signature,
    verify_root_axioms,
)
from rootspin.lattice import int_norm
from _util import partial_cases

RANK3 = ("A1xA1xA1", "A3", "B3", "H3", *(f"A1xI2-{n}" for n in (2, 3, 4, 6, 8, 12)))
PRESETS = (*RANK3, "D4", "F4", "H4", *(f"I2-{n}" for n in (2, 3, 4, 6, 8, 12)))


def _identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _inverse(m: list[list[Fraction]]) -> list[list[Fraction]]:
    """Gauss-Jordan inverse of an invertible matrix of Fractions."""
    n = len(m)
    rows = [row + unit for row, unit in zip(m, _identity(n))]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def cayley(entries: list[Fraction], n: int) -> list[list[Fraction]]:
    """(I - A)(I + A)^-1 for the skew n x n matrix A with entries above its diagonal."""
    a = [[Fraction(0)] * n for _ in range(n)]
    above = iter(entries)
    for i in range(n):
        for j in range(i + 1, n):
            a[i][j] = next(above)
            a[j][i] = -a[i][j]
    eye = _identity(n)
    inverse = _inverse([[e + x for e, x in zip(er, ar)] for er, ar in zip(eye, a)])
    minus = [[e - x for e, x in zip(er, ar)] for er, ar in zip(eye, a)]
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*inverse)] for row in minus]


def rotations(n: int):
    """Rotations of Q^n other than the identity."""
    entry = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    size = n * (n - 1) // 2
    entries = st.lists(entry, min_size=size, max_size=size).filter(any)
    return entries.map(lambda xs: cayley(xs, n))


def rotate(r: list[list[Fraction]], v: Vector) -> Vector:
    return Vector([sum((c * x for c, x in zip(v.coords, row)), QScalar(0)) for row in r],
                  disc=v.disc)


def rotated(r: list[list[Fraction]], rs: RootSystem) -> RootSystem:
    return RootSystem([rotate(r, v) for v in rs.roots], rs.disc, label=rs.label)


def block(r: list[list[Fraction]]) -> list[list[Fraction]]:
    """1 + R: the rotation of Q^4 that fixes the first axis and acts as R on the rest."""
    return [[Fraction(1), *[Fraction(0)] * 3]] + [[Fraction(0), *row] for row in r]


# one rotation with large entries per dimension: every entry of A is t = n/m with
# m = 2^21 + 1 and n = 2^20, so R's entries have 43-bit numerators and denominators.
# A rotated root's row then passes the 64-bit check while the squared norm of its
# primitive integer vector passes 2^63 (test_the_large_rotation_is_large_only_where_derived)
_T = Fraction(2**20, 2**21 + 1)
LARGE = {n: cayley([_T] * (n * (n - 1) // 2), n) for n in (2, 3)}


@settings(max_examples=20)
@given(st.integers(2, 4).flatmap(rotations))
def test_a_cayley_transform_is_orthogonal(r):
    # det R = 1 as well: a reflection would negate the dual vectors, which
    # test_induce_4d_is_equivariant would see
    assert [[sum(x * y for x, y in zip(a, b)) for b in r] for a in r] == _identity(len(r))
    assert r != _identity(len(r))


@pytest.mark.parametrize("name", RANK3)
@settings(max_examples=8)
@given(r=rotations(3))
@example(r=LARGE[3])
def test_induce_4d_is_equivariant(name, r):
    rs = build_preset(name)
    moved = rotated(r, rs)
    try:
        induced = induce_4d(rs)
    except NormNotInField:  # A1xI2-8 and A1xI2-12: no unit roots in their field
        with pytest.raises(NormNotInField):
            induce_4d(moved)
        return
    expected = {rotate(block(r), v) for v in induced.roots}
    assert set(induce_4d(moved).roots) == expected


@pytest.mark.parametrize("name", PRESETS)
@settings(max_examples=5)
@given(data=st.data())
def test_classify_and_verify_are_frame_free(name, data):
    rs = build_preset(name)
    moved = rotated(data.draw(rotations(rs.dim)), rs)
    sig = signature(moved)
    assert sig == signature(rs)
    assert identify(sig) == identify(signature(rs))
    assert coxeter_order(moved) == coxeter_order(rs)
    assert verify_root_axioms(moved).ok


@pytest.mark.parametrize("n", [2, 3, 4, 6])
@settings(max_examples=8)
@given(r=rotations(2))
@example(r=LARGE[2])
def test_self_duality_is_frame_free(n, r):
    rs = build_preset(f"I2-{n}")
    assert check_self_dual(rotated(r, rs)).self_dual is check_self_dual(rs).self_dual is True


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "I2-4", "I2-6", "I2-8"])
def test_the_large_rotation_is_large_only_where_derived(name):
    rs = build_preset(name)
    moved = rotated(LARGE[rs.dim], rs)
    assert all(max(map(abs, x)) < 2**63 for x in moved.rows)
    assert all(int_norm(x, rs.disc)[0] > 2**63 * math.gcd(*x[:-1]) ** 2 for x in moved.rows)
    assert {r.norm_squared() for r in moved.roots} == {r.norm_squared() for r in rs.roots}


def test_i2_8_has_no_unit_roots_in_a_large_frame():
    # its squared norms have no square root in Q(sqrt(2)), in any frame
    with pytest.raises(NormNotInField):
        check_self_dual(rotated(LARGE[2], build_preset("I2-8")))


@pytest.mark.parametrize("name", sorted(partial_cases()))
@settings(max_examples=8)
@given(data=st.data())
def test_partial_axiom_verdicts_are_frame_free(name, data):
    rs = partial_cases()[name]
    report = verify_root_axioms(rs)
    moved = verify_root_axioms(rotated(data.draw(rotations(rs.dim)), rs))
    assert (moved.axiom1_ok, moved.axiom2_ok) == (report.axiom1_ok, report.axiom2_ok)
