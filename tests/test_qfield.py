"""Exact quadratic-field scalar arithmetic."""

from __future__ import annotations

import doctest
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import rootspin.qfield
from rootspin import DomainError, FieldMismatch, QScalar, phi
from rootspin.qfield import field_sign, field_sqrt, format_value, scalar_or_text
from _util import DISCS, random_qscalar

SQRT2 = QScalar.sqrt_disc(2)
SQRT5 = QScalar.sqrt_disc(5)


def test_module_doctests():
    failures, _ = doctest.testmod(rootspin.qfield)
    assert failures == 0


class TestRingOps:
    def test_phi_squares_to_phi_plus_one(self):
        p = phi()
        assert p * p == p + 1

    def test_sqrt2_squares_to_two(self):
        assert SQRT2 * SQRT2 == QScalar(2, 0, 2)

    def test_conjugate_sum_is_one(self):
        p = phi()
        assert p + p.conjugate() == QScalar(1, 0, 5)

    def test_disc_one_absorbs_surd(self):
        x = QScalar(Fraction(1, 2), Fraction(3, 2), 1)
        assert x.rat == 2 and x.surd == 0

    def test_mixed_fields_rejected(self):
        with pytest.raises(FieldMismatch):
            SQRT2 + SQRT5

    def test_rational_values_interoperate_across_fields(self):
        two_in_q2 = QScalar(2, 0, 2)
        assert two_in_q2 + phi() == phi() + 2
        assert two_in_q2 == QScalar(2)

    def test_overflow_is_loud(self):
        big = QScalar(2**62)
        with pytest.raises(OverflowError):
            big * big


class TestInverse:
    def test_inverse_of_phi(self):
        p = phi()
        assert p.inverse() == p - 1

    def test_inverse_of_two(self):
        assert QScalar(2).inverse() == QScalar(Fraction(1, 2))

    def test_inverse_of_sqrt2(self):
        assert SQRT2.inverse() == QScalar(0, Fraction(1, 2), 2)

    def test_inverse_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            QScalar(0).inverse()

    def test_division(self):
        assert (phi() * phi()) / phi() == phi()


class TestSign:
    def test_one_minus_sqrt2_is_negative(self):
        assert (QScalar(1, 0, 2) - SQRT2).sign() == -1

    def test_zero(self):
        assert QScalar(0).sign() == 0

    def test_phi_minus_one_is_positive(self):
        assert (phi() - 1).sign() == 1

    def test_total_order_matches_floats(self):
        rng = random.Random(20240817)
        samples = []
        for _ in range(10_000):
            d = rng.choice(DISCS)
            samples.append(random_qscalar(rng, d, 40))
        for x in samples:
            s = x.sign()
            f = float(x)
            if abs(f) > 1e-9:  # away from the float noise floor
                assert s == (1 if f > 0 else -1)

    def test_trichotomy(self):
        rng = random.Random(7)
        for _ in range(2000):
            d = rng.choice(DISCS)
            x, y = random_qscalar(rng, d), random_qscalar(rng, d)
            assert (x < y) + (x == y) + (x > y) == 1


class TestSqrtInField:
    def test_sqrt_two_in_q2(self):
        assert QScalar(2, 0, 2).sqrt() == SQRT2

    def test_sqrt_rational_square(self):
        assert QScalar(Fraction(9, 4)).sqrt() == QScalar(Fraction(3, 2))

    def test_sqrt_of_phi_plus_one_is_phi(self):
        # independent oracle: square the candidate with plain big-rational
        # arithmetic, no QScalar multiplication involved
        root = (phi() + 1).sqrt()
        assert root is not None
        a, b = root.rat, root.surd
        assert a * a + 5 * b * b == Fraction(3, 2)
        assert 2 * a * b == Fraction(1, 2)
        assert root == phi()

    def test_unrepresentable_sqrt_is_none(self):
        assert QScalar(3, 0, 2).sqrt() is None
        assert QScalar(2, 0, 5).sqrt() is None
        # (5 - sqrt(5))/8 is positive but not a square in Q(sqrt(5))
        assert QScalar(Fraction(5, 8), Fraction(-1, 8), 5).sqrt() is None

    def test_negative_input_rejected(self):
        with pytest.raises(DomainError):
            QScalar(-1).sqrt()

    def test_sqrt_squares_back_randomized(self):
        rng = random.Random(99)
        for _ in range(500):
            d = rng.choice(DISCS)
            x = random_qscalar(rng, d, 5)
            sq = x * x
            root = sq.sqrt()
            assert root is not None
            assert root * root == sq
            assert root.sign() >= 0


class TestToFloat:
    def test_phi(self):
        assert math.isclose(float(phi()), 1.618033988749895, rel_tol=0, abs_tol=5e-16)

    def test_half(self):
        assert float(QScalar(Fraction(1, 2))) == 0.5

    def test_sqrt2(self):
        assert math.isclose(float(SQRT2), 1.4142135623730951, rel_tol=0, abs_tol=5e-16)


class TestFieldAxioms:
    def test_field_axioms_randomized(self):
        rng = random.Random(4242)
        one = QScalar(1)
        for _ in range(1500):
            d = rng.choice(DISCS)
            x = random_qscalar(rng, d)
            y = random_qscalar(rng, d)
            z = random_qscalar(rng, d)
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x + y == y + x
            assert x * y == y * x
            assert x * (y + z) == x * y + x * z
            if not x.is_zero():
                assert x * x.inverse() == one

    def test_hash_agrees_with_eq_on_rational_values(self):
        # a rational value equals the int or Fraction it holds under any disc tag,
        # so sets and dict keys must treat them as one
        for value in (0, 1, -3, Fraction(1, 2), Fraction(-7, 4)):
            tagged = [QScalar(value), QScalar(value, 0, 2), QScalar(value, 0, 5)]
            for x in tagged:
                assert x == value and hash(x) == hash(value)
            assert len({value, *tagged}) == 1
            assert {x: "hit" for x in tagged}.get(value) == "hit"
        assert {QScalar(1), QScalar(-1, 0, 3), QScalar(Fraction(1, 4), 0, 5)} - {1, -1} == {
            Fraction(1, 4)
        }

    def test_canonical_form_unique(self):
        rng = random.Random(11)
        for _ in range(500):
            d = rng.choice(DISCS)
            x = random_qscalar(rng, d)
            y = random_qscalar(rng, d)
            total_a = x + y
            total_b = y + x
            assert total_a == total_b
            assert hash(total_a) == hash(total_b)
            assert (total_a.rat, total_a.surd, total_a.disc) == (
                total_b.rat,
                total_b.surd,
                total_b.disc,
            )


# -- property tests -------------------------------------------------------------

_PARTS = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))


@st.composite
def same_field(draw, n):
    """n QScalars of one field Q(sqrt(d)), d in {1, 2, 3, 5}."""
    d = draw(st.sampled_from(DISCS))
    return [QScalar(draw(_PARTS), draw(_PARTS) if d > 1 else 0, d) for _ in range(n)]


@given(same_field(3))
def test_field_axioms_hold(xyz):
    x, y, z = xyz
    zero, one = QScalar(0), QScalar(1)
    assert (x + y) + z == x + (y + z) and (x * y) * z == x * (y * z)
    assert x + y == y + x and x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + zero == x and x * one == x and x + (-x) == zero
    assert x - y == x + (-y)


@given(same_field(2))
def test_inverse_and_division(xy):
    x, y = xy
    assume(not x.is_zero())
    assert x * x.inverse() == QScalar(1)
    assert x.inverse().inverse() == x
    assert (y / x) * x == y


@given(same_field(1))
def test_sqrt_squares_back(xs):
    (x,) = xs
    square = x * x
    root = square.sqrt()
    assert root is not None and root * root == square and root.sign() >= 0
    if x.sign() >= 0:
        assert root == x
    if x.sign() > 0:
        found = x.sqrt()
        assert found is None or found * found == x


@given(same_field(2))
def test_exact_order_agrees_with_floats_away_from_ties(xy):
    x, y = xy
    fx, fy = float(x), float(y)
    assume(abs(fx - fy) > 1e-9 * (1 + abs(fx) + abs(fy)))
    assert (x < y) == (fx < fy)
    assert (x > y) == (fx > fy)
    assert (x - y).sign() == (1 if fx > fy else -1)
    assert [x < y, x == y, x > y].count(True) == 1


@st.composite
def tagged_pairs(draw):
    """Two QScalars that share a field or are rational, each rational one under any tag."""
    d = draw(st.sampled_from(DISCS))

    def one():
        if d > 1 and draw(st.booleans()):
            return QScalar(draw(_PARTS), draw(_PARTS), d)
        return QScalar(draw(_PARTS), 0, draw(st.sampled_from(DISCS)))

    return one(), one()


@given(tagged_pairs())
def test_a_result_takes_its_disc_from_neither_operand_order(xy):
    # the rule of lattice.field_disc: a surd's field, and otherwise the larger tag
    x, y = xy
    surd = [c.disc for c in xy if c.surd]
    expected = surd[0] if surd else max(x.disc, y.disc)
    for result in (x + y, y + x, x - y, y - x, x * y, y * x):
        assert result.disc == expected
    assert (x * 2).disc == (2 * x).disc == x.disc


def test_rational_tags_do_not_follow_the_operand_order():
    two, five = QScalar(1, 0, 2), QScalar(1, 0, 5)
    assert (two + five).disc == (five + two).disc == 5
    assert (two * 2).disc == (two * Fraction(1, 3)).disc == 2


def _as_qscalar(x: int, y: int, z: int, d: int) -> QScalar:
    return QScalar(Fraction(x, z), Fraction(y, z), d)


_SMALL = st.integers(-300, 300)


@given(st.sampled_from(DISCS), _SMALL, _SMALL, st.integers(1, 300), st.booleans(),
       st.integers(-2, 2))
def test_a_field_sqrt_root_squares_back(d, x, y, z, square, shift):
    # square: (x + y sqrt(d)) / z squared, moved by shift / z, so near-squares are drawn too
    y = y if d > 1 else 0
    if square:
        x, y, z = x * x + d * y * y + shift * z, 2 * x * y, z * z
    root = field_sqrt(x, y, z, d)
    if root is not None:
        a, b, c = root
        assert c > 0 and math.gcd(a, b, c) == 1 and field_sign(a, b, d) >= 0
        r = _as_qscalar(a, b, c, d)
        assert r * r == _as_qscalar(x, y, z, d)
    elif square and not shift:
        pytest.fail("the square of a field element has a root")


_WIDE = st.integers(-2**100, 2**100)


@given(st.sampled_from(DISCS), _WIDE, _WIDE, st.integers(1, 2**100))
def test_field_sqrt_of_a_square_is_its_absolute_value(d, a, b, c):
    # numerators past 2^63, where no QScalar reaches: the reference is in ints
    b = b if d > 1 else 0
    root = field_sqrt(a * a + d * b * b, 2 * a * b, c * c, d)
    sign = field_sign(a, b, d) or 1
    g = math.gcd(a, b, c)
    assert root == (sign * a // g, sign * b // g, c // g)


@pytest.mark.parametrize("rat, surd, disc, text", [
    (0, 0, 1, "0"), (Fraction(-3, 4), 0, 5, "-3/4"), (0, 1, 2, "sqrt(2)"), (0, -1, 2, "-sqrt(2)"),
    (0, Fraction(3, 2), 5, "3/2*sqrt(5)"), (1, -1, 2, "1-sqrt(2)"), (4, -2, 2, "4-2*sqrt(2)"),
    (Fraction(1, 2), Fraction(1, 2), 5, "1/2+1/2*sqrt(5)"),
])
def test_the_text_of_a_value(rat, surd, disc, text):
    assert str(QScalar(rat, surd, disc)) == text
    assert str(scalar_or_text(Fraction(rat), Fraction(surd), disc)) == text


def test_a_value_past_the_64_bit_bound_is_named_by_its_text():
    big, small = Fraction(2**70), Fraction(-3, 2**70)
    assert scalar_or_text(big, small, 5) == format_value(big, small, 5) == (
        f"{2**70}-3/{2**70}*sqrt(5)")
    assert scalar_or_text(Fraction(2**62), small * 2**8, 5) == QScalar(2**62, small * 2**8, 5)
