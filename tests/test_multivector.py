"""A Multivector holds its integer row: the row operations agree with the QScalar formulas.

A Multivector's state is its reduced row of blade coefficients (lattice.py's
(p_0, q_0, ..., D), blade m in slot m) and its field's disc, as a Vector's
is; coeffs are decoded on first read, or kept as given.  Each property
compares the row route with coefficient-wise QScalar arithmetic over Q,
Q(sqrt(2)) and Q(sqrt(5)), rational coefficients tagged with other discs
included, on Multivectors built both from QScalars and from rows.
"""

from __future__ import annotations

import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rootspin import (
    DimensionMismatch, FieldMismatch, Multivector, QScalar, RootspinError, build_preset,
    generate_rotor_group, normalize_roots, reflect, spinor_to_vec4, vec,
)
from rootspin import lattice
from rootspin.lattice import field_disc, int_numerators

FIELDS = (1, 2, 5)
OTHER_TAGS = (1, 3, 7)  # the discs a rational coefficient may carry in any field

parts = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def scalars(draw, disc: int) -> QScalar:
    if disc > 1 and draw(st.booleans()):
        return QScalar(draw(parts), draw(parts), disc)
    return QScalar(draw(parts), 0, draw(st.sampled_from((disc, *OTHER_TAGS))))


@st.composite
def built(draw, dim: int, cs: list[QScalar]) -> Multivector:
    """A Multivector of cs: built from the QScalars, or from their row and field."""
    if draw(st.booleans()):
        return Multivector(dim, cs)
    return Multivector._from_row(int_numerators(cs), field_disc([cs]))


@st.composite
def cases(draw, count: int = 1):
    """count (m, cs) pairs of one dimension and field: a Multivector and its QScalars."""
    disc = draw(st.sampled_from(FIELDS))
    dim = draw(st.sampled_from((2, 3)))
    out = []
    for _ in range(count):
        blade = st.one_of(st.just(QScalar(0)), scalars(disc))  # zero blades are common
        cs = draw(st.lists(blade, min_size=1 << dim, max_size=1 << dim))
        out.append((draw(built(dim, cs)), cs))
    return out


def _blade_sign(a: int, b: int) -> int:
    # one swap per inversion of the concatenated index lists, then each e_i^2 = 1
    idx = [i for i in range(3) if a >> i & 1] + [i for i in range(3) if b >> i & 1]
    return (-1) ** sum(p > q for k, p in enumerate(idx) for q in idx[k + 1:])


def _qscalar_product(cs: list[QScalar], ds: list[QScalar]) -> tuple[QScalar, ...]:
    out = [QScalar(0)] * len(cs)
    for a, c in enumerate(cs):
        for b, e in enumerate(ds):
            out[a ^ b] = out[a ^ b] + c * e * _blade_sign(a, b)
    return tuple(out)


@given(cases(2))
def test_product_agrees_with_the_qscalar_blade_sum(pair):
    (m, cs), (n, ds) = pair
    expected = _qscalar_product(cs, ds)
    got = m * n
    assert got.coeffs == expected
    assert got.row == int_numerators(expected)
    assert got.disc == field_disc([cs, ds]) and got.dim == m.dim


@given(cases())
def test_negation_reverse_and_grades_agree_with_the_qscalars(case):
    ((m, cs),) = case
    assert (-m).coeffs == tuple(-c for c in cs)
    assert (-m).row == int_numerators([-c for c in cs])
    reversed_cs = [c if bin(k).count("1") in (0, 1) else -c for k, c in enumerate(cs)]
    assert m.reverse().coeffs == tuple(reversed_cs)
    assert m.reverse().row == int_numerators(reversed_cs)
    assert (-m).disc == m.reverse().disc == m.disc == field_disc([cs])
    assert m.grades() == {bin(k).count("1") for k, c in enumerate(cs) if not c.is_zero()}
    assert m.is_zero() == all(c.is_zero() for c in cs)
    for k in range(m.dim + 1):
        kept = [c if bin(j).count("1") == k else QScalar(0) for j, c in enumerate(cs)]
        assert m.grade(k).coeffs == tuple(kept) and m.grade(k).row == int_numerators(kept)


@st.composite
def pairs(draw):
    """Two Multivectors and their QScalars; the second is often equal to the first, or nearly."""
    ((m, cs),) = draw(cases())
    how = draw(st.sampled_from(("other", "retag", "scaled", "moved", "same")))
    if how == "other":
        ((_, ws),) = draw(cases())
    elif how == "retag":  # rational coefficients under another disc tag
        tag = draw(st.sampled_from(OTHER_TAGS))
        ws = [c if c.surd else QScalar(c.rat, 0, tag) for c in cs]
    elif how == "scaled":
        ws = [c * 2 for c in cs]
    elif how == "moved":  # the same numerators with the surd part in Q(sqrt(3))
        ws = [QScalar(c.rat, c.surd, 3) for c in cs]
    else:
        ws = list(cs)
    return m, cs, draw(built((len(ws) - 1).bit_length(), ws)), ws


@given(pairs())
def test_equality_and_hash_agree_with_the_qscalars(pair):
    m, cs, w, ws = pair
    assert (m == w) == (tuple(cs) == tuple(ws))
    if m == w:
        assert hash(m) == hash(w)


def test_multivectors_built_from_qscalars_keep_their_coefficients():
    cs = (QScalar(1), QScalar(0, 1, 5), QScalar(Fraction(1, 2), 0, 3), QScalar(0))
    m = Multivector(2, cs)
    assert m.coeffs == cs and [c.disc for c in m.coeffs] == [1, 5, 3, 1]
    assert m.row == (2, 0, 0, 2, 1, 0, 0, 0, 2) and m.disc == 5 and m.dim == 2
    decoded = Multivector._from_row(m.row, m.disc).coeffs
    assert decoded == cs and [c.disc for c in decoded] == [5, 5, 5, 5]


def test_a_multivector_and_a_vector_with_one_row_differ():
    # Cl(2)'s four coefficients and a 4D vector have rows of one length
    v, m = vec(1, 2, 3, 4), Multivector(2, (1, 2, 3, 4))
    assert v.row == m.row and v != m and m != v


ARITHMETIC_FIELDS = (1, 2, 3, 5)  # two surd fields meet in a sum when the operands' differ
factors = st.integers(-6, 6) | parts | st.sampled_from(ARITHMETIC_FIELDS).flatmap(scalars)


@st.composite
def apart(draw):
    """Two (m, cs) of one dimension whose fields are drawn apart, and a scalar."""
    dim = draw(st.sampled_from((2, 3)))
    out = []
    for _ in range(2):
        blade = st.one_of(st.just(QScalar(0)), scalars(draw(st.sampled_from(ARITHMETIC_FIELDS))))
        cs = draw(st.lists(blade, min_size=1 << dim, max_size=1 << dim))
        out.append((draw(built(dim, cs)), cs))
    return out, draw(factors)


def value(values, disc: int) -> tuple:
    """The outcome of a Multivector of the QScalars values over Q(sqrt(disc)), or FieldMismatch."""
    values = tuple(values)
    field_disc([values])  # surds of two fields
    return values, int_numerators(values), disc


def outcome(f) -> tuple | type:
    """f()'s outcome: (coeffs, row, disc) of the Multivector it returns, or the type of
    the RootspinError it raises."""
    try:
        out = f()
    except RootspinError as exc:
        return type(exc)
    if isinstance(out, tuple):
        return out
    assert type(out) is Multivector
    return out.coeffs, out.row, out.disc


@given(apart())
def test_row_arithmetic_agrees_with_the_qscalar_reference(case):
    # Exact's row arithmetic against coefficient-wise QScalar arithmetic; a sum is in
    # its operands' field, and a row scaled by an int or a Fraction keeps its field
    ((m, cs), (n, ds)), s = case

    def both() -> int:
        return field_disc([cs, ds])

    def scaled() -> tuple:
        products = [c * s for c in cs]
        return value(products, field_disc([products]) if type(s) is QScalar else m.disc)

    checks = [
        (lambda: m + n, lambda: value((a + b for a, b in zip(cs, ds)), both())),
        (lambda: m - n, lambda: value((a - b for a, b in zip(cs, ds)), both())),
        (lambda: -m, lambda: value((-c for c in cs), m.disc)),
        (lambda: m.scale(s), scaled),
        (lambda: m * s, scaled),
    ]
    if type(s) is not QScalar:  # QScalar's own product takes no Multivector
        checks.append((lambda: s * m, scaled))
    for got, want in checks:
        assert outcome(got) == outcome(want)


def test_a_vector_and_a_multivector_do_not_mix():
    # neither reads the other's values: a Vector's coords and a Multivector's blade
    # coefficients are unrelated, even in rows of one length
    for v, m in ((vec(1, 2), Multivector.basis_vector(1, 2)),
                 (vec(1, 2, 3, 4), Multivector(2, (1, 2, 3, 4)))):  # rows of one length
        for mixed in (lambda: v + m, lambda: m + v, lambda: v - m, lambda: m - v,
                      lambda: v < m, lambda: m < v, lambda: v.dot(m)):
            with pytest.raises(TypeError, match="^expected (Vector, got Multivector|"
                                                "Multivector, got Vector)$"):
                mixed()
    with pytest.raises(DimensionMismatch, match="^dim 2 vs 3$"):
        Multivector.scalar(1, 2) + Multivector.scalar(1, 3)


def test_surds_from_two_fields_do_not_make_a_multivector():
    with pytest.raises(FieldMismatch, match=r"Q\(sqrt\(2\)\) with Q\(sqrt\(3\)\)"):
        Multivector(2, (QScalar.sqrt_disc(2), QScalar.sqrt_disc(3), 0, 0))


def test_multivectors_are_immutable():
    m = Multivector.scalar(1, 3)
    with pytest.raises(AttributeError, match="^Multivector is immutable$"):
        m.row = (1,)


@pytest.fixture
def codec_calls(monkeypatch):
    """Counts of int_numerators (encode) and from_numerators (decode) calls.

    Every rootspin module that imported either function gets the counting one.
    """
    calls: Counter = Counter()
    for name in ("int_numerators", "from_numerators"):
        real = getattr(lattice, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("rootspin") and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    return calls


def test_products_and_readouts_of_row_built_rotors_decode_nothing(codec_calls):
    units = normalize_roots(build_preset.__wrapped__("H3"))  # a fresh instance
    codec_calls.clear()
    group = generate_rotor_group(units)
    vecs = [spinor_to_vec4(r) for r in group]
    assert len(vecs) == 120 and codec_calls == Counter()
    a, b = group.elements[7], group.elements[100]
    assert (a * b).mv == a.mv * b.mv and a.mv * b.mv in group
    assert a.mv.grade(0) + a.mv.grade(2) == a.mv.scale(Fraction(3, 7)) * 7 * Fraction(1, 3)
    mvs = [Multivector.from_vector(u) for u in units[:2]]
    reflect(mvs[0], mvs[1])
    assert codec_calls == Counter()
