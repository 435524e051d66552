"""A Multivector holds its integer row: the row operations agree with the field's formulas.

A Multivector's state is its reduced row of blade coefficients (lattice.py's
(p_0, q_0, ..., D), blade m in slot m) and its field's disc, as a Vector's
is; coeffs are decoded on first read, or kept as given.  Each property
compares the row route with coefficient-wise arithmetic in _util's
Fraction-pair reference, which shares no code with the package, over Q,
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
from rootspin import lattice, qfield
from rootspin.lattice import int_numerators
from _util import field, key, ref, ref_neg, ref_product, ref_row, ref_sum

FIELDS = (1, 2, 5)
OTHER_TAGS = (1, 3, 7)  # the discs a rational coefficient may carry in any field

parts = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def scalars(draw, disc: int) -> QScalar:
    if disc > 1 and draw(st.booleans()):
        return QScalar(draw(parts), draw(parts), disc)
    return QScalar(draw(parts), 0, draw(st.sampled_from((disc, *OTHER_TAGS))))


@st.composite
def built(draw, cs: list[QScalar]) -> Multivector:
    """A Multivector of cs: built from the QScalars, or from their row and field."""
    if draw(st.booleans()):
        return Multivector(3, cs)
    return Multivector._from_row(int_numerators(cs), field(*map(ref, cs)))


@st.composite
def cases(draw, count: int = 1):
    """count (m, cs) pairs of one field: a Multivector and its QScalars."""
    disc = draw(st.sampled_from(FIELDS))
    out = []
    for _ in range(count):
        blade = st.one_of(st.just(QScalar(0)), scalars(disc))  # zero blades are common
        cs = draw(st.lists(blade, min_size=8, max_size=8))
        out.append((draw(built(cs)), cs))
    return out


def _blade_sign(a: int, b: int) -> int:
    # one swap per inversion of the concatenated index lists, then each e_i^2 = 1
    idx = [i for i in range(3) if a >> i & 1] + [i for i in range(3) if b >> i & 1]
    return (-1) ** sum(p > q for k, p in enumerate(idx) for q in idx[k + 1:])


def keys(values) -> list[tuple]:
    """The reference keys of QScalars: equal lists for equal values."""
    return [key(ref(c)) for c in values]


def _reference_product(cs: list[QScalar], ds: list[QScalar]) -> list[tuple]:
    xs, ys = list(map(ref, cs)), list(map(ref, ds))
    out = [(Fraction(0), Fraction(0), 1)] * len(cs)
    for a, x in enumerate(xs):
        for b, y in enumerate(ys):
            term = ref_product(x, y)
            out[a ^ b] = ref_sum(out[a ^ b], term if _blade_sign(a, b) > 0 else ref_neg(term))
    return out


@given(cases(2))
def test_product_agrees_with_the_qscalar_blade_sum(pair):
    (m, cs), (n, ds) = pair
    expected = _reference_product(cs, ds)
    got = m * n
    assert keys(got.coeffs) == list(map(key, expected))
    assert got.row == ref_row(expected)
    assert got.disc == field(*map(ref, cs + ds)) and got.dim == m.dim


@given(cases())
def test_negation_reverse_and_grades_agree_with_the_qscalars(case):
    ((m, cs),) = case
    xs = list(map(ref, cs))
    assert keys((-m).coeffs) == [key(ref_neg(x)) for x in xs]
    assert (-m).row == ref_row(map(ref_neg, xs))
    reversed_xs = [x if bin(k).count("1") in (0, 1) else ref_neg(x) for k, x in enumerate(xs)]
    assert keys(m.reverse().coeffs) == list(map(key, reversed_xs))
    assert m.reverse().row == ref_row(reversed_xs)
    assert (-m).disc == m.reverse().disc == m.disc == field(*xs)
    assert m.grades() == {bin(k).count("1") for k, x in enumerate(xs) if x[0] or x[1]}
    assert m.is_zero() == all(not (x[0] or x[1]) for x in xs)
    for k in range(m.dim + 1):
        kept = [x if bin(j).count("1") == k else (Fraction(0), Fraction(0), 1)
                for j, x in enumerate(xs)]
        assert keys(m.grade(k).coeffs) == list(map(key, kept))
        assert m.grade(k).row == ref_row(kept)


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
    return m, cs, draw(built(ws)), ws


@given(pairs())
def test_equality_and_hash_agree_with_the_qscalars(pair):
    m, cs, w, ws = pair
    assert (m == w) == (keys(cs) == keys(ws))
    if m == w:
        assert hash(m) == hash(w)


def test_multivectors_built_from_qscalars_keep_their_coefficients():
    cs = (QScalar(1), QScalar(0, 1, 5), QScalar(Fraction(1, 2), 0, 3), *[QScalar(0)] * 4,
          QScalar(-2, 0, 2))
    m = Multivector(3, cs)
    assert m.coeffs == cs and [c.disc for c in m.coeffs] == [1, 5, 3, 1, 1, 1, 1, 2]
    assert m.row == (2, 0, 0, 2, 1, 0, *[0] * 8, -4, 0, 2) and m.disc == 5 and m.dim == 3
    decoded = Multivector._from_row(m.row, m.disc).coeffs
    assert decoded == cs and [c.disc for c in decoded] == [5] * 8


ARITHMETIC_FIELDS = (1, 2, 3, 5)  # two surd fields meet in a sum when the operands' differ
factors = st.integers(-6, 6) | parts | st.sampled_from(ARITHMETIC_FIELDS).flatmap(scalars)


@st.composite
def apart(draw):
    """Two (m, cs) whose fields are drawn apart, and a scalar."""
    out = []
    for _ in range(2):
        blade = st.one_of(st.just(QScalar(0)), scalars(draw(st.sampled_from(ARITHMETIC_FIELDS))))
        cs = draw(st.lists(blade, min_size=8, max_size=8))
        out.append((draw(built(cs)), cs))
    return out, draw(factors)


def value(values, disc: int) -> tuple:
    """The outcome of a Multivector of the reference values over Q(sqrt(disc)), or
    FieldMismatch."""
    values = list(values)
    field(*values)  # surds of two fields
    return list(map(key, values)), ref_row(values), disc


def outcome(f) -> tuple | type:
    """f()'s outcome: (coefficient keys, row, disc) of the Multivector it returns, or the
    type of the RootspinError it raises."""
    try:
        out = f()
    except RootspinError as exc:
        return type(exc)
    if isinstance(out, tuple):
        return out
    assert type(out) is Multivector
    return keys(out.coeffs), out.row, out.disc


@given(apart())
def test_row_arithmetic_agrees_with_the_qscalar_reference(case):
    # Exact's row arithmetic against coefficient-wise reference arithmetic; a sum, and a
    # row scaled by a QScalar, is in its operands' field, and a row scaled by an int or a
    # Fraction keeps its field
    ((m, cs), (n, ds)), s = case
    xs, ys, f = list(map(ref, cs)), list(map(ref, ds)), ref(s)

    def both() -> int:
        return field(*xs, *ys)

    def scaled() -> tuple:
        products = [ref_product(x, f) for x in xs]
        return value(products, field(*xs, f) if type(s) is QScalar else m.disc)

    checks = [
        (lambda: m + n, lambda: value((ref_sum(a, b) for a, b in zip(xs, ys)), both())),
        (lambda: m - n, lambda: value((ref_sum(a, ref_neg(b)) for a, b in zip(xs, ys)), both())),
        (lambda: -m, lambda: value(map(ref_neg, xs), m.disc)),
        (lambda: m.scale(s), scaled),
        (lambda: m * s, scaled),
    ]
    if type(s) is not QScalar:  # QScalar's own product takes no Multivector
        checks.append((lambda: s * m, scaled))
    for got, want in checks:
        assert outcome(got) == outcome(want)


def test_a_vector_and_a_multivector_do_not_mix():
    # neither reads the other's values: a Vector's coords and a Multivector's blade
    # coefficients are unrelated, even where the multivector is the vector itself
    for v in (vec(1, 2), vec(1, 2, 3)):
        m = Multivector.from_vector(v)
        for mixed in (lambda: v + m, lambda: m + v, lambda: v - m, lambda: m - v,
                      lambda: v < m, lambda: m < v, lambda: v.dot(m)):
            with pytest.raises(TypeError, match="^expected (Vector, got Multivector|"
                                                "Multivector, got Vector)$"):
                mixed()
    with pytest.raises(DimensionMismatch, match="^dim 2 vs 3$"):  # rows of two lengths
        vec(1, 2) + vec(1, 2, 3)


def test_surds_from_two_fields_do_not_make_a_multivector():
    with pytest.raises(FieldMismatch, match=r"Q\(sqrt\(2\)\) with Q\(sqrt\(3\)\)"):
        Multivector(3, (QScalar.sqrt_disc(2), QScalar.sqrt_disc(3), 0, 0, 0, 0, 0, 0))


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
        real = getattr(lattice if name == "int_numerators" else qfield, name)

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
