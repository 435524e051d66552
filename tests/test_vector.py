"""A Vector holds its integer row: the row operations agree with the field's formulas.

A Vector's state is its reduced row (lattice.py's (p_1, q_1, ..., D)) and its
field's disc; coords are decoded on first read, or kept as given.  Each
property compares the row route with coordinate-wise arithmetic in _util's
Fraction-pair reference, which shares no code with the package, over Q,
Q(sqrt(2)) and Q(sqrt(5)), rational coordinates tagged with other discs included.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from rootspin import (
    DomainError, FieldMismatch, NormNotInField, QScalar, RootspinError, RootSystem, Vector,
    ZeroRoot, build_preset, close_under_reflections, vec,
)
from rootspin.lattice import int_numerators
from rootspin.qfield import from_numerators
from rootspin.roots import reflect_euclid, row_vector
from _util import (
    dot, field, key, ref, ref_inverse, ref_neg, ref_product, ref_row, ref_sum, times,
)

FIELDS = (1, 2, 5)
OTHER_TAGS = (1, 3, 7)  # the discs a rational coordinate may carry in any field
SYSTEMS = {1: "A3", 2: "B3", 5: "H3"}

parts = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
factors = st.integers(-6, 6) | st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


@st.composite
def scalars(draw, disc: int) -> QScalar:
    if disc > 1 and draw(st.booleans()):
        return QScalar(draw(parts), draw(parts), disc)
    return QScalar(draw(parts), 0, draw(st.sampled_from((disc, *OTHER_TAGS))))


@st.composite
def built(draw, cs: list[QScalar]) -> Vector:
    """A Vector of cs: built from the QScalars, or from their row and field."""
    if draw(st.booleans()):
        return Vector(cs)
    return row_vector(int_numerators(cs), field(*map(ref, cs)))


@st.composite
def cases(draw, disc: int | None = None, dim: int | None = None):
    """(v, cs): a Vector and the QScalars it stands for."""
    disc = draw(st.sampled_from(FIELDS)) if disc is None else disc
    dim = draw(st.integers(1, 4)) if dim is None else dim
    cs = draw(st.lists(scalars(disc), min_size=dim, max_size=dim))
    return draw(built(cs)), cs


def retagged(cs: list[QScalar], tag: int) -> list[QScalar]:
    """cs with every rational coordinate carrying the disc tag."""
    return [c if c.surd else QScalar(c.rat, 0, tag) for c in cs]


def keys(values) -> list[tuple]:
    """The reference keys of QScalars: equal lists for equal values."""
    return [key(ref(c)) for c in values]


@given(cases(), factors)
def test_scale_agrees_with_the_qscalar_products(case, s):
    v, cs = case
    expected = [ref_product(ref(c), ref(s)) for c in cs]
    got = v.scale(s)
    assert keys(got.coords) == list(map(key, expected))
    assert got.row == ref_row(expected)
    assert got.disc == v.disc


@given(cases())
def test_negation_and_is_zero_agree_with_the_qscalars(case):
    v, cs = case
    negated = [ref_neg(ref(c)) for c in cs]
    assert keys((-v).coords) == list(map(key, negated))
    assert (-v).row == ref_row(negated)
    assert (-v).disc == v.disc == field(*map(ref, cs))
    assert v.is_zero() == all(not any(ref(c)[:2]) for c in cs)
    assert v.dim == len(cs)


@st.composite
def pairs(draw):
    """Two Vectors and their QScalars; the second is often equal to the first, or nearly."""
    v, cs = draw(cases())
    how = draw(st.sampled_from(("other", "retag", "scaled", "moved", "same")))
    if how == "other":
        ws = draw(st.lists(scalars(draw(st.sampled_from(FIELDS))), min_size=1, max_size=4))
    elif how == "retag":  # rational coordinates under another disc tag
        ws = retagged(cs, draw(st.sampled_from(OTHER_TAGS)))
    elif how == "scaled":
        ws = [c * 2 for c in cs]
    elif how == "moved":  # the same numerators with the surd part in Q(sqrt(3))
        ws = [QScalar(c.rat, c.surd, 3) for c in cs]
    else:
        ws = list(cs)
    return v, cs, draw(built(ws)), ws


@given(pairs())
def test_equality_and_hash_agree_with_the_qscalars(pair):
    v, cs, w, ws = pair
    assert (v == w) == (keys(cs) == keys(ws))
    if v == w:
        assert hash(v) == hash(w)


@st.composite
def membership_cases(draw):
    """A preset over a field and a Vector that may or may not be one of its roots."""
    disc = draw(st.sampled_from(FIELDS))
    rs = build_preset(SYSTEMS[disc])
    root = list(draw(st.sampled_from(rs.roots)).coords)
    how = draw(st.sampled_from(("root", "retag", "scaled", "flipped", "moved", "other")))
    if how == "retag":
        cs = retagged(root, draw(st.sampled_from(OTHER_TAGS)))
    elif how == "scaled":
        cs = [c * draw(st.sampled_from((2, -1, Fraction(1, 2)))) for c in root]
    elif how == "flipped":
        cs = [-root[0]] + root[1:]
    elif how == "moved":
        cs = [QScalar(c.rat, c.surd, 3) for c in root]
    elif how == "other":
        cs = draw(st.lists(scalars(disc), min_size=2, max_size=4))
    else:
        cs = root
    return rs, draw(built(cs)), cs


@given(membership_cases())
def test_membership_agrees_with_the_qscalars(case):
    rs, v, cs = case
    assert (v in rs) == any(keys(cs) == keys(r.coords) for r in rs.roots)


@given(st.sampled_from(FIELDS).flatmap(lambda d: st.lists(cases(d), min_size=1, max_size=6)
                                        .map(lambda vs: (d, vs))))
def test_root_system_rows_are_the_promoted_coordinates(case):
    disc, vs = case
    assume(len({len(cs) for _, cs in vs}) == 1)
    assume(not any(v.is_zero() for v, _ in vs))
    expected = {int_numerators(Vector(cs, disc=disc).coords) for _, cs in vs}
    rs = RootSystem([v for v, _ in vs], disc)
    assert set(rs.rows) == expected and len(rs.rows) == len(expected)
    assert all(c.disc == disc for r in rs.roots for c in r.coords)


def test_vectors_built_from_qscalars_keep_their_coordinates(count_qscalars):
    cs = (QScalar(1), QScalar(0, 1, 5), QScalar(Fraction(1, 2), 0, 3))
    v = Vector(cs)
    assert v.coords == cs and [c.disc for c in v.coords] == [1, 5, 3]
    assert v.row == (2, 0, 0, 2, 1, 0, 2) and v.disc == 5
    decoded = row_vector(v.row, v.disc).coords
    assert decoded == cs and [c.disc for c in decoded] == [5, 5, 5]
    # moved into a given field, the coordinates are kept there, not decoded again
    moved = Vector(cs, disc=5)
    with count_qscalars() as made:
        kept = moved.coords
    assert made == [] and kept == cs and [c.disc for c in kept] == [5, 5, 5]


def test_scaling_a_rational_vector_keeps_its_field():
    # the scaled rows keep disc 2, so the closure stays over Q(sqrt(2)), as B3's does
    b3 = build_preset("B3")
    rescaled = [r.scale(2).scale(Fraction(1, 2)) for r in b3.roots[:3]]
    assert [r.disc for r in rescaled] == [2, 2, 2]
    assert close_under_reflections(rescaled) == close_under_reflections(b3.roots[:3])


def test_a_zero_factor_keeps_the_surds_field():
    # a product is in its operands' field, as a sum is, whatever the product's value:
    # Q(sqrt(2)), not the larger tag 3 of the rational factor 0
    root2, zero = QScalar.sqrt_disc(2), QScalar(0, 0, 3)
    for product in (vec(0, root2).scale(zero), root2 * zero, zero * root2):
        assert product.is_zero() and product.disc == 2


def test_scale_keeps_qscalars_64_bit_bound():
    v = vec(2**62, 1)
    with pytest.raises(OverflowError,
                       match=r"^rational component 9223372036854775808/1 exceeds 64-bit range$"):
        v.scale(2)
    assert v.scale(Fraction(1, 2)) == vec(2**61, Fraction(1, 2))
    # an out-of-range factor is refused as the QScalar it becomes, even where the
    # product is within the bound
    for v in (vec(0, 1), vec(0, 0), vec(0, Fraction(1, 2**62))):
        with pytest.raises(OverflowError,
                           match=r"^rational component 18446744073709551616/1 exceeds"):
            v.scale(2**64)
    with pytest.raises(OverflowError, match=r"^rational component 1/18446744073709551616 "):
        vec(2**62).scale(Fraction(1, 2**64))
    # a common denominator past the bound, of components within it
    p, q = 2**62 - 1, 2**62 + 1
    w = vec(Fraction(1, p), Fraction(1, q))
    assert w.row[-1] == p * q and w.scale(3) == vec(Fraction(3, p), Fraction(3, q))


def test_a_factor_that_is_no_exact_scalar_is_refused():
    with pytest.raises(TypeError, match=r"^cannot interpret 0\.5 as a QScalar$"):
        vec(1, 2).scale(0.5)


def test_stored_rows_decode_lazily_and_new_rows_keep_the_64_bit_check():
    p, q = 2**62 - 1, 2**62 + 1
    w = vec(Fraction(1, p), Fraction(1, q))  # components within the bound, their D past it
    rs = RootSystem([w, -w], 1)
    # a stored row is wrapped as every row is, by Exact._from_row: its wide entries pass
    # the 64-bit check, as its components are within the bound, and it is decoded on
    # first read
    assert all(r._values is None for r in rs.roots) and rs.roots[1] == w
    # a new row is checked by lattice.check_row, component by component, and wrapped
    # undecoded: this one's entries pass the bound, its components do not
    new = row_vector(w.row, 1)
    assert new._values is None and new == w and new.coords == w.coords
    with pytest.raises(OverflowError, match="exceeds 64-bit range"):
        vec(2**62, 1).scale(2)
    with pytest.raises(OverflowError, match="exceeds 64-bit range"):
        reflect_euclid(vec(2**62, 0), vec(1, 2))


@pytest.mark.parametrize("first", range(6))
def test_a_new_row_past_the_bound_names_the_component_decoding_names(first):
    # lattice.check_row raises QScalar's OverflowError for the first wide component,
    # in the order p1, q1, p2, ..., without decoding the row
    x = tuple(2**64 + k if k >= first else k + 1 for k in range(6)) + (1,)
    with pytest.raises(OverflowError) as decoded:
        from_numerators(x, 2)
    with pytest.raises(OverflowError) as wrapped:
        row_vector(x, 2)
    assert str(wrapped.value) == str(decoded.value)
    assert str(wrapped.value) == f"rational component {2**64 + first}/1 exceeds 64-bit range"


def test_surds_from_two_fields_do_not_make_a_vector():
    # no RootSystem could hold it; it used to construct, with norm_squared() == 5
    with pytest.raises(FieldMismatch, match=r"Q\(sqrt\(2\)\) with Q\(sqrt\(3\)\)"):
        Vector((QScalar.sqrt_disc(2), QScalar.sqrt_disc(3)))


def test_root_system_checks_what_it_cannot_take_as_a_row():
    with pytest.raises(FieldMismatch,
                       match=r"^cannot move sqrt\(2\) from Q\(sqrt\(2\)\) to Q\(sqrt\(5\)\)$"):
        RootSystem([vec(QScalar.sqrt_disc(2), 0)], disc=5)
    with pytest.raises(DomainError, match="^discriminant 4 must be a positive square-free integer$"):
        RootSystem([vec(1, 0)], disc=4)
    assert RootSystem([vec(1, 0)], disc=5).rows == ((1, 0, 0, 0, 1),)


ARITHMETIC_FIELDS = (1, 2, 3, 5)  # two surd fields meet in a sum when the operands' differ
any_scalars = factors | st.sampled_from(ARITHMETIC_FIELDS).flatmap(scalars)


def reference_unit(xs: list[tuple], disc: int) -> list[tuple]:
    """The reference values xs over the square root of their squared norm: Vector.unit's
    former coordinate formula, with the root taken in the vector's field Q(sqrt(disc)).
    QScalar.sqrt finds the root, and the reference squares it back."""
    if not any(a or b for a, b, _ in xs):
        raise ZeroRoot("the zero vector has no unit length")
    norm = tuple(map(sum, zip(*(times(x, x, disc) for x in xs))))
    root = QScalar(*norm, disc).sqrt()
    if root is None:
        raise NormNotInField(xs, norm)
    assert times(ref(root), ref(root), disc) == norm
    return [ref_product(x, ref_inverse(ref(root))) for x in xs]


def value(values, disc: int) -> tuple:
    """The outcome of a Vector of the reference values over Q(sqrt(disc)), or FieldMismatch."""
    values = list(values)
    field(*values)  # surds of two fields
    return Vector, list(map(key, values)), ref_row(values), disc


def outcome(f) -> tuple | type:
    """f()'s outcome: (type, coordinate keys, row, disc) of the value it returns, or the
    type of the RootspinError it raises."""
    try:
        out = f()
    except RootspinError as exc:
        return type(exc)
    return out if isinstance(out, tuple) else (type(out), keys(out.coords), out.row, out.disc)


@given(st.integers(1, 4).flatmap(
    lambda dim: st.tuples(*(st.sampled_from(ARITHMETIC_FIELDS).flatmap(
        lambda d: cases(d, dim)) for _ in range(2)))), any_scalars)
def test_row_arithmetic_agrees_with_the_qscalar_reference(pair, s):
    # Exact's row arithmetic against coordinate-wise reference arithmetic, on two
    # vectors whose fields are drawn apart, rational coordinates under any tag
    (v, cs), (w, ws) = pair
    xs, ys, f = list(map(ref, cs)), list(map(ref, ws)), ref(s)

    def both() -> int:  # a sum's field: its operands'
        return field(*xs, *ys)

    def sums() -> list[tuple]:
        return [ref_sum(a, b) for a, b in zip(xs, ys)]

    def scaled() -> tuple:  # by a QScalar, in the field of both operands, as a sum is;
        # by an int or a Fraction, in the row's own
        products = [ref_product(x, f) for x in xs]
        return value(products, field(*xs, f) if type(s) is QScalar else v.disc)

    for got, want in [
        (lambda: v + w, lambda: value(sums(), both())),
        (lambda: v - w, lambda: value((ref_sum(a, ref_neg(b)) for a, b in zip(xs, ys)), both())),
        (lambda: -v, lambda: value(map(ref_neg, xs), v.disc)),
        (lambda: v.scale(s), scaled),
        (v.unit, lambda: value(reference_unit(xs, v.disc), v.disc)),
        (lambda: (v + w).unit(), lambda: value(reference_unit(sums(), both()), both())),
    ]:
        assert outcome(got) == outcome(want)


@given(st.integers(1, 4).flatmap(
    lambda dim: st.tuples(*(st.sampled_from(ARITHMETIC_FIELDS).flatmap(
        lambda d: cases(d, dim)) for _ in range(2)))))
def test_dot_is_the_sum_of_the_qscalar_products(pair):
    # Vector.dot reads the rows through lattice.int_mirror; the reference multiplies
    # the coordinates' Fraction pairs, in the field of both vectors.  A surd value keeps
    # its field; a rational one fits any field
    (v, cs), (w, ws) = pair
    try:
        d = field(*map(ref, cs), *map(ref, ws))
    except FieldMismatch:
        for x, y in ((v, w), (w, v)):
            with pytest.raises(FieldMismatch):
                x.dot(y)
        return
    expected = (*dot(cs, ws, d), d)
    for found in (v.dot(w), w.dot(v)):
        assert key(ref(found)) == key(expected) and (found.disc == d or not found.surd)


def test_a_vectors_unit_is_taken_in_its_own_field():
    # a sum is over its operands' field, whatever the Q(sqrt(5)) tag of a rational
    # operand, so unit() finds sqrt(2) and equal vectors have one unit
    b3 = vec(0, QScalar(0, Fraction(-1, 2), 2), QScalar(0, Fraction(-1, 2), 2))
    v = vec(-1, 0, 0, disc=5) + b3
    assert v == vec(-1, *b3.coords[1:]) and v.disc == 2
    half = QScalar(0, Fraction(1, 2), 2)
    assert v.unit() == vec(-half, QScalar(Fraction(-1, 2)), QScalar(Fraction(-1, 2)))
    assert v.unit() == vec(-1, *b3.coords[1:]).unit()
