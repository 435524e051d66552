"""Geometric algebra kernel: products, reflections, rotors, spinor readouts."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from rootspin import (
    DimensionMismatch,
    FieldMismatch,
    Multivector,
    NonUnitVector,
    OddGradePresent,
    QScalar,
    Rotor,
    Vector,
    build_preset,
    normalize_roots,
    reflect,
    reverse,
    rotate,
    rotor_from_vectors,
    spinor_to_vec4,
    vec,
)
from _util import even_from_numerators
from rootspin.lattice import (
    EVEN_BY_EVEN,
    EVEN_MASKS,
    VECTOR_BY_VECTOR,
    int_numerators,
    int_product,
    vec4_numerators,
)
from rootspin.qfield import from_numerators
from _util import random_multivector, random_vector_mv, random_unit_mv, unit_pool_3d

E1 = Multivector.basis_vector(1, 3)
E2 = Multivector.basis_vector(2, 3)
E3 = Multivector.basis_vector(3, 3)
ONE = Multivector.scalar(1, 3)
I3 = E1 * E2 * E3

HALF_SQRT2 = QScalar(0, Fraction(1, 2), 2)


def mv3(*coeffs) -> Multivector:
    return Multivector(3, coeffs)


class TestGeometricProduct:
    def test_basis_vector_squares_to_scalar(self):
        assert E1 * E1 == ONE

    def test_e2_e3_is_bivector_i_e1(self):
        # pseudoscalar times e1 lands on the e2e3 blade
        assert E2 * E3 == I3 * E1

    def test_bivectors_square_to_minus_one(self):
        for b in (E1 * E2, E2 * E3, E3 * E1):
            assert b * b == -ONE

    def test_pseudoscalar_squares_to_minus_one(self):
        assert I3 * I3 == -ONE

    def test_bivector_table_matches_pseudoscalar_duals(self):
        assert E1 * E2 == I3 * E3
        assert E2 * E3 == I3 * E1
        assert E3 * E1 == I3 * E2

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch, match=r"^Cl\(3\) needs 8 coefficients, got 4$"):
            Multivector(3, [1, 0, 0, 1])
        with pytest.raises(DimensionMismatch, match=r"^e4 does not exist in Cl\(3\)$"):
            Multivector.basis_vector(4, 3)
        for v in (vec(1), vec(1, 0, 0, 0)):
            with pytest.raises(DimensionMismatch, match=r"^a [14]D vector is not in Cl\(3\)$"):
                Multivector.from_vector(v)


def test_cl3_is_the_one_algebra():
    # Cl(2) is gone: its rotors a0 + a3 e1e2 are the even elements of Cl(3)'s e1 e2
    # plane, where a 2D vector lies with a zero e3
    for make in (lambda: Multivector(2, [1, 0, 0, 0]), lambda: Multivector.scalar(1, 2),
                 lambda: Multivector.basis_vector(1, 2), lambda: Multivector.scalar(1, 4)):
        with pytest.raises(DimensionMismatch, match=r"^Cl\([24]\) not supported, dim must be 3$"):
            make()
    x, y = Fraction(3, 5), QScalar(0, Fraction(1, 2), 2)
    assert Multivector.from_vector(vec(x, y)) == Multivector.from_vector(vec(x, y, 0))
    assert Multivector.from_vector(vec(x, y)) == E1 * x + E2 * y
    turn = Multivector.from_vector(vec(1, 0)) * Multivector.from_vector(vec(x, Fraction(4, 5)))
    assert turn == ONE * x + E1 * E2 * Fraction(4, 5)
    assert spinor_to_vec4(turn) == vec(x, 0, 0, Fraction(4, 5))


def _indices(mask: int) -> list[int]:
    return [i + 1 for i in range(3) if mask >> i & 1]


def _inversions(indices: list[int]) -> int:
    return sum(p > q for k, p in enumerate(indices) for q in indices[k + 1:])


def test_basis_blade_table():
    # blade m is e_i e_j ... over the set bits of m, in increasing order; moving
    # the factors of blade a times blade b into order takes one swap per inversion
    # of the concatenated index lists, and then each e_i^2 = 1
    def unit(mask: int, sign: int = 1) -> Multivector:
        return Multivector(3, [sign if m == mask else 0 for m in range(8)])

    blades = []
    for mask in range(8):
        blade = ONE
        for i in _indices(mask):
            blade = blade * Multivector.basis_vector(i, 3)
        assert blade == unit(mask)
        blades.append(blade)
    for a, x in enumerate(blades):
        for b, y in enumerate(blades):
            sign = (-1) ** _inversions(_indices(a) + _indices(b))
            assert x * y == unit(a ^ b, sign), (a, b)


def test_a_product_of_two_fields_is_refused():
    with pytest.raises(FieldMismatch, match=r"^cannot combine Q\(sqrt\(2\)\) with Q\(sqrt\(3\)\)$"):
        (E1 * QScalar(0, 1, 2)) * (E2 * QScalar(0, 1, 3))


def test_a_coefficient_beyond_64_bits_overflows():
    assert (E1 * 2**62) * (E1 * Fraction(1, 2)) == ONE * 2**61
    with pytest.raises(OverflowError, match="exceeds 64-bit range"):
        (E1 * 2**62) * (E1 * 4)


class TestReverse:
    def test_bivector_flips(self):
        assert reverse(E1 * E2) == -(E1 * E2)

    def test_low_grades_fixed(self):
        m = ONE + E1
        assert reverse(m) == m

    def test_pseudoscalar_flips(self):
        assert reverse(I3) == -I3

    def test_anti_homomorphism_randomized(self):
        rng = random.Random(5)
        for _ in range(300):
            disc = rng.choice((1, 2, 5))
            m = random_multivector(rng, disc)
            n = random_multivector(rng, disc)
            assert reverse(m * n) == reverse(n) * reverse(m)


class TestReflect:
    def test_parallel_vector_negates(self):
        assert reflect(E1, E1) == -E1

    def test_orthogonal_vector_fixed(self):
        assert reflect(E2, E1) == E2

    def test_componentwise(self):
        assert reflect(E1 + E2, E1) == -E1 + E2

    def test_non_unit_mirror_rejected(self):
        with pytest.raises(NonUnitVector):
            reflect(E1, E1 + E2)

    def test_involution_randomized(self):
        rng = random.Random(6)
        pool = unit_pool_3d()
        for _ in range(400):
            disc = rng.choice((1, 2, 5))
            a = random_vector_mv(rng, disc)
            n = random_unit_mv(rng, pool[disc])
            assert reflect(reflect(a, n), n) == a

    def test_preserves_squared_norm(self):
        rng = random.Random(61)
        pool = unit_pool_3d()
        for _ in range(200):
            disc = rng.choice((2, 5))
            a = random_vector_mv(rng, disc)
            n = random_unit_mv(rng, pool[disc])
            image = reflect(a, n)
            assert (image * image) == (a * a)


class TestRotors:
    def test_rotor_from_equal_roots_is_identity(self):
        r = rotor_from_vectors(E1, E1)
        assert r.mv == ONE
        assert spinor_to_vec4(r) == vec(1, 0, 0, 0)

    def test_rotor_e2_e3(self):
        r = rotor_from_vectors(E2, E3)
        assert r.mv == E2 * E3
        assert r.mv == I3 * E1
        assert spinor_to_vec4(r) == vec(0, 1, 0, 0)

    def test_rotor_from_diagonal_pair(self):
        n = (E1 + E2) * HALF_SQRT2
        r = rotor_from_vectors(E1, n)
        # independent expansion: scalar part is the dot product, bivector
        # part is the wedge m1 n2 - m2 n1 on the e1e2 blade
        dot = HALF_SQRT2
        wedge = HALF_SQRT2
        expected = Multivector(
            3, [dot, QScalar(0), QScalar(0), wedge, QScalar(0), QScalar(0), QScalar(0), QScalar(0)]
        )
        assert r.mv == expected

    def test_rotor_normalisation_enforced(self):
        with pytest.raises(NonUnitVector):
            Rotor(ONE + E1 * E2)

    def test_non_unit_factor_rejected(self):
        with pytest.raises(NonUnitVector):
            rotor_from_vectors(E1 + E2, E1)

    def test_rr_tilde_is_one_randomized(self):
        rng = random.Random(8)
        pool = unit_pool_3d()
        for _ in range(400):
            disc = rng.choice((1, 2, 3, 5))
            r = rotor_from_vectors(
                random_unit_mv(rng, pool[disc]), random_unit_mv(rng, pool[disc])
            )
            assert r.mv * r.mv.reverse() == ONE


class TestRotate:
    def test_axis_of_rotation_fixed(self):
        r = Rotor(E1 * E2)
        assert rotate(E3, r) == E3

    def test_pi_rotation_in_plane(self):
        r = Rotor(E1 * E2)
        assert rotate(E1, r) == -E1

    def test_quarter_turn_from_diagonal_mirror(self):
        # oracle: rotate(a, rotor(m, n)) must equal reflecting in n then in m
        n = (E1 + E2) * HALF_SQRT2
        r = rotor_from_vectors(E1, n)
        oracle = reflect(reflect(E1, n), E1)
        assert rotate(E1, r) == oracle
        assert rotate(E1, r) == -E2

    def test_matches_double_reflection_randomized(self):
        rng = random.Random(9)
        pool = unit_pool_3d()
        for _ in range(400):
            disc = rng.choice((1, 2, 5))
            a = random_vector_mv(rng, disc)
            m = random_unit_mv(rng, pool[disc])
            n = random_unit_mv(rng, pool[disc])
            r = rotor_from_vectors(m, n)
            assert rotate(a, r) == reflect(reflect(a, n), m)

    def test_norm_preserved(self):
        rng = random.Random(10)
        pool = unit_pool_3d()
        for _ in range(200):
            a = random_vector_mv(rng, 5)
            m = random_unit_mv(rng, pool[5])
            n = random_unit_mv(rng, pool[5])
            image = rotate(a, rotor_from_vectors(m, n))
            assert image * image == a * a


class TestSpinorReadout:
    def test_scalar_reads_as_first_axis(self):
        assert spinor_to_vec4(ONE) == vec(1, 0, 0, 0)

    def test_e2e3_reads_as_second_axis(self):
        assert spinor_to_vec4(E2 * E3) == vec(0, 1, 0, 0)

    def test_e3e1_reads_as_third_axis(self):
        assert spinor_to_vec4(E3 * E1) == vec(0, 0, 1, 0)

    def test_negated_e1e2_reads_negative_fourth(self):
        assert spinor_to_vec4(-(E1 * E2)) == vec(0, 0, 0, -1)

    def test_odd_grades_rejected(self):
        with pytest.raises(OddGradePresent):
            spinor_to_vec4(E1)

    def test_linear_bijection(self):
        rng = random.Random(12)
        for _ in range(200):
            p = random_multivector(rng, 5).grade(0) + random_multivector(rng, 5).grade(2)
            q = random_multivector(rng, 5).grade(0) + random_multivector(rng, 5).grade(2)
            assert spinor_to_vec4(p + q) == spinor_to_vec4(p) + spinor_to_vec4(q)
            if spinor_to_vec4(p) == spinor_to_vec4(q):
                assert p == q

    def test_norm_formula(self):
        rng = random.Random(13)
        for _ in range(300):
            disc = rng.choice((1, 2, 5))
            m = random_multivector(rng, disc)
            psi = m.grade(0) + m.grade(2)
            v = spinor_to_vec4(psi)
            expected = v.coords[0] * v.coords[0]
            for c in v.coords[1:]:
                expected = expected + c * c
            assert psi * psi.reverse() == Multivector.scalar(expected, 3)

    def test_vec2_readout(self):
        # a spinor a0 + a3 e1e2 of the e1 e2 plane reads as (a0, 0, 0, a3): the 2D
        # readout (a0, a3) of a product of two planar vectors
        e1, e2 = (Multivector.from_vector(v) for v in (vec(1, 0), vec(0, 1)))
        assert spinor_to_vec4(e1 * e1) == vec(1, 0, 0, 0)
        assert spinor_to_vec4(e1 * e2) == vec(0, 0, 0, 1)
        psi = (e1 * e1 + e1 * e2) * HALF_SQRT2
        assert spinor_to_vec4(psi) == Vector((HALF_SQRT2, 0, 0, HALF_SQRT2))

    def test_vec2_odd_rejected(self):
        # a 2D vector is odd in the e1 e2 plane too
        with pytest.raises(OddGradePresent, match=r"^odd grades present in 1\*e1$"):
            spinor_to_vec4(Multivector.from_vector(vec(1, 0)))


class TestProductLaws:
    def test_associativity_randomized(self):
        rng = random.Random(14)
        for _ in range(300):
            disc = rng.choice((1, 2, 5))
            m = random_multivector(rng, disc)
            n = random_multivector(rng, disc)
            p = random_multivector(rng, disc)
            assert (m * n) * p == m * (n * p)

    def test_distributivity_randomized(self):
        rng = random.Random(15)
        for _ in range(300):
            disc = rng.choice((1, 3, 5))
            m = random_multivector(rng, disc)
            n = random_multivector(rng, disc)
            p = random_multivector(rng, disc)
            assert m * (n + p) == m * n + m * p
            assert (n + p) * m == n * m + p * m


# -- the product against textbook formulas in QScalars ------------------------------

_DISCS = st.sampled_from([1, 2, 3, 5])


def _rationals():
    return st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@st.composite
def _scalar_lists(draw, n):
    """A field Q(sqrt(d)) and n small scalars in it, rational or in Z[sqrt(d)]."""
    d = draw(_DISCS)
    out = []
    for _ in range(n):
        if d > 1 and draw(st.booleans()):
            out.append(QScalar(draw(st.integers(-9, 9)), draw(st.integers(-9, 9)), d))
        else:
            out.append(QScalar(draw(_rationals()), 0, d))
    return d, out


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _spinor(a0, a) -> Multivector:
    """a0 + I a, with I e1 = e2 e3, I e2 = e3 e1 = -e1 e3 and I e3 = e1 e2."""
    zero = QScalar(0)
    return mv3(a0, zero, zero, a[2], zero, -a[1], a[0], zero)


class TestEvenKernel:
    @given(_scalar_lists(8))
    def test_even_product_matches_geometric_product(self, case):
        # (a0 + I a)(b0 + I b) = a0 b0 - a.b + I (a0 b + b0 a - a x b)
        d, scalars = case
        (a0, *a), (b0, *b) = scalars[:4], scalars[4:]
        cross = _cross(a, b)
        expected = (a0 * b0 - _dot(a, b), *(a0 * bk + b0 * ak - ck
                                             for ak, bk, ck in zip(a, b, cross)))
        # the kernel's rows read in (1, I e1, I e2, I e3) through vec4_numerators
        x, y = (vec4_numerators(int_numerators(s)) for s in (scalars[:4], scalars[4:]))
        got = int_product(x, y, EVEN_BY_EVEN, d)
        assert from_numerators(vec4_numerators(got), d) == expected
        assert got == vec4_numerators(int_numerators(expected))  # reduced, so canonical
        product = _spinor(a0, a) * _spinor(b0, b)
        assert product == _spinor(expected[0], expected[1:])
        assert spinor_to_vec4(product).coords == expected

    @given(_scalar_lists(6))
    def test_vector_product_matches_geometric_product(self, case):
        # u v = u.v + I (u x v)
        d, scalars = case
        u, v = scalars[:3], scalars[3:]
        expected = (_dot(u, v), *_cross(u, v))
        got = int_product(int_numerators(u), int_numerators(v), VECTOR_BY_VECTOR, d)
        assert from_numerators(vec4_numerators(got), d) == expected
        assert got == vec4_numerators(int_numerators(expected))
        product = Multivector.from_vector(Vector(u)) * Multivector.from_vector(Vector(v))
        assert product == _spinor(expected[0], expected[1:])

    def test_even_masks_follow_the_spinor_readout(self):
        # a_k sits on the blade that spinor_to_vec4 reads as coordinate k
        for k, m in enumerate(EVEN_MASKS):
            x = [0] * 8 + [1]
            x[2 * k] = 1
            mv = even_from_numerators(tuple(x), 1)
            assert mv.coeffs[m] == QScalar(1)
            coords = spinor_to_vec4(mv).coords
            assert [c.is_zero() for c in coords] == [i != k for i in range(4)]


# -- the product laws as properties over random fields ------------------------------


@st.composite
def _multivectors(draw, count):
    """count multivectors of Cl(3) over one field Q(sqrt(d))."""
    _, scalars = draw(_scalar_lists(8 * count))
    return [mv3(*scalars[8 * k:8 * k + 8]) for k in range(count)]


@given(_multivectors(3))
def test_product_is_associative(mvs):
    m, n, p = mvs
    assert (m * n) * p == m * (n * p)


@given(_multivectors(2))
def test_reverse_is_an_anti_homomorphism(mvs):
    m, n = mvs
    assert reverse(m * n) == reverse(n) * reverse(m)


# -- the unit tests on the row agree with the geometric product -----------------------
#
# Rotor and the mirror check of reflect and rotor_from_vectors read a row's squared
# norm; the geometric products R ~R and v v stay the reference they are checked by.

_UNIT_FIELDS = st.sampled_from([1, 2, 5])


def _field_scalar(draw, d: int) -> QScalar:
    rat = draw(_rationals())
    return QScalar(rat, draw(st.integers(-2, 2)), d) if d > 1 else QScalar(rat)


# unit roots per field: I2-4's are 2D, so from_vector puts them in the e1 e2 plane
_UNIT_PRESETS = {1: ["A1xA1xA1"], 2: ["B3", "I2-4"], 5: ["H3"]}


@st.composite
def _unit_vectors(draw, d: int) -> Multivector:
    """A unit vector of Cl(3) over Q(sqrt(d)): a unit root of a preset, or the
    stereographic image ((1 - |t|^2), 2 t) / (1 + |t|^2) of a t in the field."""
    if draw(st.booleans()):
        preset = build_preset(draw(st.sampled_from(_UNIT_PRESETS[d])))
        return Multivector.from_vector(draw(st.sampled_from(normalize_roots(preset))))
    t = [_field_scalar(draw, d) for _ in range(2)]
    s = sum((x * x for x in t), QScalar(0))
    scale = (s + 1).inverse()
    return Multivector.from_vector(Vector([(1 - s) * scale, *(2 * x * scale for x in t)], d))


def _scaled(draw, mv: Multivector, d: int) -> Multivector:
    """mv, or mv times a nonzero scalar of the field: +-1 keeps a unit a unit."""
    factor = draw(st.sampled_from([1, -1, 2, Fraction(1, 2), None]))
    if factor is None:
        factor = _field_scalar(draw, d)
    return mv.scale(factor) if factor else mv


@st.composite
def _even_elements(draw):
    """(d, element of Cl(3)): mostly even, many of them unit, as products of two or
    four unit vectors, scaled or not; some random, some odd (three vectors)."""
    d = draw(_UNIT_FIELDS)
    kind = draw(st.sampled_from(("units", "units", "random", "odd")))
    if kind == "random":
        coeffs = [_field_scalar(draw, d) if m.bit_count() % 2 == 0 else QScalar(0)
                  for m in range(8)]
        return d, mv3(*coeffs)
    factors = draw(st.sampled_from((3,) if kind == "odd" else (2, 4)))
    try:
        mv = ONE
        for _ in range(factors):
            mv = mv * draw(_unit_vectors(d))
        return d, _scaled(draw, mv, d)
    except OverflowError:  # a row past the 64-bit bound is no Multivector (see
        reject()  # test_a_coefficient_beyond_64_bits_overflows)


@st.composite
def _vectors(draw):
    """(d, vector of Cl(3)): unit, a scaled unit or random."""
    d = draw(_UNIT_FIELDS)
    if draw(st.booleans()):
        return d, _scaled(draw, draw(_unit_vectors(d)), d)
    return d, Multivector.from_vector(Vector([_field_scalar(draw, d) for _ in range(3)], d))


_THREE_FIFTHS_FOUR_FIFTHS = [Fraction(3, 5), 0, 0, Fraction(4, 5)]  # 3/5 + 4/5 e12
# the same rotor, as the product e1 (3/5 e1 + 4/5 e2) of two vectors in the e1 e2 plane
_PLANAR_TURN = (Multivector.from_vector(vec(1, 0))
                * Multivector.from_vector(vec(Fraction(3, 5), Fraction(4, 5))))


@example((1, _PLANAR_TURN))
@example((1, Multivector(3, _THREE_FIFTHS_FOUR_FIFTHS + [0] * 4)))
@example((5, Multivector(3, [QScalar(0, Fraction(1, 5), 5), 0, 0, QScalar(0, Fraction(2, 5), 5)]
                         + [0] * 4)))
@given(_even_elements())
def test_a_rotor_is_unit_exactly_when_r_r_tilde_is_one(case):
    _, mv = case
    if not mv.is_even():
        with pytest.raises(OddGradePresent, match="^rotor has odd-grade parts: "):
            Rotor(mv)
    elif mv * mv.reverse() == ONE:
        assert Rotor(mv).mv == mv
    else:
        with pytest.raises(NonUnitVector, match=r"^not normalised: R~R != 1 for "):
            Rotor(mv)


@given(_vectors())
def test_the_mirror_check_refuses_exactly_the_vectors_with_v_v_not_one(case):
    _, v = case
    a = E1
    if v * v == ONE:
        assert reflect(a, v) == -(v * a * v)
        assert rotor_from_vectors(v, v).mv == ONE
    else:
        for call in (lambda: reflect(a, v), lambda: rotor_from_vectors(a, v)):
            with pytest.raises(NonUnitVector, match="is not exactly unit length$"):
                call()


def test_the_unit_strategies_reach_both_verdicts():
    # the properties above are empty unless each side of each verdict is drawn
    seen = set()

    @settings(max_examples=100)
    @given(_even_elements(), _vectors())
    def draw(element, vector):
        mv, v = element[1], vector[1]
        seen.add(("even", mv.is_even() and mv * mv.reverse() == ONE))
        seen.add(("vector", v * v == ONE))
        seen.add(("fields", element[0], vector[0]))

    draw()
    assert {("even", True), ("even", False), ("vector", True), ("vector", False)} <= seen
    assert {key[1] for key in seen if key[0] == "fields"} == {1, 2, 5}
