"""Reflection closure, root-system axioms, normalization, presets."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rootspin import (
    ClosureCapExceeded,
    DimensionMismatch,
    NormNotInField,
    NotRepresentable,
    QScalar,
    RootSystem,
    Vector,
    ZeroRoot,
    build_preset,
    close_under_reflections,
    extract_simple_roots,
    gram_spectrum,
    induce_4d,
    normalize_roots,
    reflect_euclid,
    signature,
    span_rank,
    vec,
    verify_root_axioms,
)
from rootspin import roots
from rootspin.clifford import Multivector
from rootspin.lattice import Lattice, field_sign, int_mirror, int_numerators, int_reflect
from rootspin.roots import canonical_sorted
from rootspin.presets import PHI, PHI_INV, direct_sum, get_preset

HALF = Fraction(1, 2)


def signed_permutations(*entries, dim=3):
    """All distinct coordinate placements of the given entries with signs."""
    out = set()
    for perm in itertools.permutations(range(dim)):
        for signs in itertools.product((1, -1), repeat=len(entries)):
            coords = [QScalar(0)] * dim
            for k, e in enumerate(entries):
                value = e if isinstance(e, QScalar) else QScalar(e)
                coords[perm[k]] = value * signs[k]
            out.add(Vector(coords))
    return out


class TestReflectEuclid:
    def test_parallel(self):
        assert reflect_euclid(vec(1, 0, 0), vec(1, 0, 0)) == vec(-1, 0, 0)

    def test_orthogonal(self):
        assert reflect_euclid(vec(0, 1, 0), vec(1, 0, 0)) == vec(0, 1, 0)

    def test_hand_checked_formula(self):
        # (lam|alpha) = -1 and (alpha|alpha) = 2, so the image is lam + alpha
        lam, alpha = vec(1, -1, 0), vec(0, 1, -1)
        assert reflect_euclid(lam, alpha) == vec(1, 0, -1)

    def test_involution_and_norm_randomized(self):
        rng = random.Random(21)
        for _ in range(300):
            lam = vec(*(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)))
            alpha = vec(*(rng.randint(-3, 3) for _ in range(3)))
            if alpha.is_zero():
                continue
            image = reflect_euclid(lam, alpha)
            assert reflect_euclid(image, alpha) == lam
            assert image.norm_squared() == lam.norm_squared()

    def test_zero_root_rejected(self):
        with pytest.raises(ZeroRoot):
            reflect_euclid(vec(1, 0, 0), vec(0, 0, 0))


class TestClosure:
    def test_octahedron_from_standard_basis(self):
        rs = close_under_reflections([vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1)])
        assert set(rs.roots) == signed_permutations(1)
        assert len(rs) == 6

    def test_a3_closure_is_cuboctahedron(self):
        rs = build_preset("A3")
        assert len(rs) == 12
        assert set(rs.roots) == signed_permutations(1, 1)

    def test_b3_closure(self):
        rs = build_preset("B3")
        assert len(rs) == 18
        assert set(rs.roots) == signed_permutations(1) | signed_permutations(1, 1)

    def test_h3_closure_is_icosidodecahedron(self):
        rs = build_preset("H3")
        assert len(rs) == 30
        expected = signed_permutations(1)
        one = QScalar(1, 0, 5)
        cyclic = [(one, PHI, PHI_INV), (PHI_INV, one, PHI), (PHI, PHI_INV, one)]
        for triple in cyclic:
            for signs in itertools.product((1, -1), repeat=3):
                expected.add(
                    Vector([t * s * HALF for t, s in zip(triple, signs)], disc=5)
                )
        assert set(rs.roots) == expected

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 12])
    def test_dihedral_closures(self, n):
        rs = build_preset(f"I2-{n}")
        assert len(rs) == 2 * n

    @pytest.mark.parametrize("n", [5, 7, 9, 10, 11])
    def test_unrealizable_dihedrals(self, n):
        with pytest.raises(NotRepresentable):
            get_preset(f"I2-{n}")

    def test_order_independence(self):
        rng = random.Random(22)
        base = list(get_preset("B3").simple_roots)
        reference = build_preset("B3")
        for _ in range(5):
            rng.shuffle(base)
            again = close_under_reflections(base, disc=2)
            assert set(again.roots) == set(reference.roots)

    def test_negation_closure_and_even_count(self):
        for name in ("A1xA1xA1", "A3", "B3", "H3", "I2-6", "A1xI2-4"):
            rs = build_preset(name)
            assert len(rs) % 2 == 0
            for r in rs:
                assert -r in rs

    def test_cap_exceeded(self):
        simple = get_preset("A3").simple_roots
        with pytest.raises(ClosureCapExceeded):
            close_under_reflections(simple, disc=2, cap=5)

    def test_cap_is_checked_on_every_insertion(self):
        simple = get_preset("A3").simple_roots
        assert len(close_under_reflections(simple, disc=2, cap=12)) == 12
        with pytest.raises(ClosureCapExceeded, match="cap of 11 roots"):
            close_under_reflections(simple, disc=2, cap=11)

    def test_cap_bounds_the_work(self, monkeypatch):
        calls = []
        int_reflect = roots.int_reflect

        def counting(*args):
            calls.append(args)
            return int_reflect(*args)

        monkeypatch.setattr(roots, "int_reflect", counting)
        with pytest.raises(ClosureCapExceeded):
            close_under_reflections(get_preset("H3").simple_roots, disc=5, cap=8)
        assert len(calls) < 72  # a whole first round is 6 x 6 x 2 reflections

    def test_infinite_group_hits_cap(self):
        # mirrors at an angle that is no pi/m: the dihedral closure never stops
        a = vec(1, 0)
        b = vec(-2, 1)
        with pytest.raises(ClosureCapExceeded):
            close_under_reflections([a, b], cap=100)

    def test_infinite_group_with_fractional_mirrors_fails_loudly(self):
        # here coordinate denominators outgrow 64 bits before the cap does;
        # either guard is a clean refusal, silence would be the bug
        a = vec(1, 0)
        b = vec(Fraction(-3, 5), Fraction(4, 5))
        with pytest.raises((ClosureCapExceeded, OverflowError)):
            close_under_reflections([a, b], cap=500)

    def test_overflow_names_the_infinite_group(self):
        with pytest.raises(OverflowError, match="reflection closure overflowed .* "
                           "likely generates an infinite group") as info:
            close_under_reflections([vec(1, 0), vec(1, 2)])
        assert isinstance(info.value.__cause__, OverflowError)

    def test_zero_simple_root_rejected(self):
        with pytest.raises(ZeroRoot):
            close_under_reflections([vec(0, 0, 0)])

    def test_large_finite_input_closes(self):
        # every root has components near 2**40, but the pairwise products in
        # the reflection formula pass 2**63; the closure must not call the
        # input infinite
        scale = Fraction(2**40 + 1, 3)
        simple = [r.scale(scale) for r in get_preset("B3").simple_roots]
        rs = close_under_reflections(simple, disc=2)
        assert rs == RootSystem([r.scale(scale) for r in build_preset("B3")], disc=2)
        assert len(rs) == 18

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatch, match="mixed root dimensions"):
            close_under_reflections([vec(1, 0), vec(0, 1, 0)])
        with pytest.raises(DimensionMismatch, match="mixed root dimensions"):
            RootSystem([vec(1, 0), vec(0, 1, 0)], disc=1)


class TestAxioms:
    def test_presets_pass(self):
        for name in ("A1xA1xA1", "A3", "B3", "H3", "I2-8", "A1xI2-3"):
            assert verify_root_axioms(build_preset(name)).ok

    def test_deleted_root_breaks_axiom2(self):
        rs = build_preset("A1xA1xA1")
        broken = RootSystem(rs.roots[1:], disc=1)
        report = verify_root_axioms(broken)
        assert report.axiom2_ok is False
        assert report.axiom2_witness is not None
        alpha, beta = report.axiom2_witness
        assert reflect_euclid(beta, alpha) not in broken

    def test_planted_scalar_multiple_breaks_axiom1(self):
        e1 = vec(1, 0, 0)
        rs = RootSystem([e1, e1.scale(QScalar(2)), -e1, e1.scale(QScalar(-2))], disc=1)
        report = verify_root_axioms(rs)
        assert report.axiom1_ok is False
        a, b = report.axiom1_witness
        assert {a, b} <= set(rs.roots)

    def test_missing_negative_breaks_axiom1(self):
        rs = RootSystem([vec(1, 0, 0), vec(0, 1, 0), vec(0, -1, 0)], disc=1)
        report = verify_root_axioms(rs)
        assert report.axiom1_ok is False

    def test_zero_vector_rejected_as_root(self):
        with pytest.raises(ZeroRoot):
            RootSystem([vec(1, 0, 0), vec(0, 0, 0)], disc=1)


class TestNormalize:
    def test_diagonal_vector(self):
        rs = RootSystem([vec(1, 1, 0), vec(-1, -1, 0)], disc=2)
        units = normalize_roots(rs)
        h = QScalar(0, HALF, 2)
        assert Vector((h, h, QScalar(0))) in units

    def test_already_unit(self):
        rs = build_preset("A1xA1xA1")
        assert vec(0, 0, 1) in normalize_roots(rs)

    def test_h3_roots_all_unit(self):
        units = normalize_roots(build_preset("H3"))
        assert len(units) == 30
        one = QScalar(1, 0, 5)
        assert all(u.norm_squared() == one for u in units)

    def test_norm_not_in_field(self):
        rs = build_preset("I2-8")
        with pytest.raises(NormNotInField) as err:
            normalize_roots(rs)
        assert err.value.norm_squared is not None


class TestHelpers:
    def test_span_rank(self):
        assert span_rank([vec(1, 0, 0), vec(0, 1, 0), vec(1, 1, 0)]) == 2
        assert span_rank(list(build_preset("H3").roots)) == 3

    def test_gram_spectrum_octahedron(self):
        units = normalize_roots(build_preset("A1xA1xA1"))
        spec = gram_spectrum(units)
        assert len(spec) == 30
        assert spec.count(QScalar(-1)) == 6
        assert spec.count(QScalar(0)) == 24

    def test_direct_sum_counts_and_field_guard(self):
        from rootspin.presets import a1_system
        from rootspin import FieldMismatch

        b2 = build_preset("I2-4")
        combo = direct_sum(b2, a1_system(), a1_system())
        assert combo.dim == 4 and len(combo) == 12
        assert verify_root_axioms(combo).ok
        with pytest.raises(FieldMismatch):
            direct_sum(build_preset("I2-3"), build_preset("I2-4"))


class TestPresetGeometry:
    def test_h3_simple_root_angles(self):
        a1, a2, a3 = get_preset("H3").simple_roots
        one = QScalar(1, 0, 5)
        assert a1.norm_squared() == a2.norm_squared() == a3.norm_squared() == one
        assert a1.dot(a2) == -(PHI * HALF)
        assert a2.dot(a3) == QScalar(-HALF, 0, 5)
        assert a1.dot(a3) == QScalar(0, 0, 5)

    def test_d4_f4_enumerations_match_their_closures(self):
        for name, count in (("D4", 24), ("F4", 48)):
            preset = get_preset(name)
            enumerated = build_preset(name)
            assert len(enumerated) == count
            closed = close_under_reflections(preset.simple_roots, disc=preset.disc)
            assert set(closed.roots) == set(enumerated.roots)

    def test_h4_enumeration_is_closed_and_unit(self):
        h4 = build_preset("H4")
        assert len(h4) == 120
        one = QScalar(1, 0, 5)
        assert all(r.norm_squared() == one for r in h4)
        assert verify_root_axioms(h4).ok


KERNEL_PRESETS = [
    "A1xA1xA1", "A3", "B3", "H3", "I2-2", "I2-3", "I2-4", "I2-6", "I2-8", "I2-12",
    "A1xI2-2", "A1xI2-3", "A1xI2-4", "A1xI2-6", "A1xI2-8", "D4", "F4", "H4",
]


def _partial_cases():
    """Sets off the root-system happy path: negatives missing, multiples, off-lattice."""
    h3, b3 = build_preset("H3"), build_preset("B3")
    return {
        "H3-positive-half": RootSystem([r for r in h3 if -r < r], disc=h3.disc),
        "B3-minus-one-root": RootSystem(b3.roots[1:], disc=b3.disc),
        "off-lattice": RootSystem([vec(1, 0), vec(-1, 0), vec(1, 2), vec(-1, -2)], disc=1),
        "root-and-double": RootSystem(
            [vec(1, 0, 0), vec(2, 0, 0), vec(-2, 0, 0), vec(0, 1, 0), vec(0, -1, 0)], disc=2
        ),
        "paired-multiples": RootSystem(
            [vec(1, 0), vec(-1, 0), vec(2, 0), vec(-2, 0), vec(1, 1), vec(-1, -1)], disc=2
        ),
    }


PARTIAL_CASES = sorted(_partial_cases())


def _kernel_case(name):
    if name.startswith("induced-"):
        return induce_4d(build_preset(name[len("induced-"):]))
    if name in PARTIAL_CASES:
        return _partial_cases()[name]
    return build_preset(name)


def _assert_kernel_matches_scalar_reference(roots, disc):
    lattice = Lattice(roots, disc)
    ga, gb = lattice.gram()
    scale = lattice.den**2
    position = {r: i for i, r in enumerate(roots)}  # a repeated vector: its last position
    table = lattice.reflection_table()
    assert lattice.neg == [position.get(-r, -1) for r in roots]
    for i, a in enumerate(roots):
        for j, b in enumerate(roots):
            dot = a.dot(b)
            assert (Fraction(ga[i][j], scale), Fraction(gb[i][j], scale)) == (
                (dot.rat, dot.surd)
            )
            assert table[i][j] == position.get(reflect_euclid(b, a), -1)


def _reference_witnesses(rs):
    """First failing pairs in root order, from Vector arithmetic alone."""
    roots = rs.roots
    unpaired = [a for a in roots if -a not in rs]
    if unpaired:
        axiom1 = (unpaired[0], -unpaired[0])
    else:
        parallel = [
            (a, b) for i, a in enumerate(roots) for b in roots[i + 1:]
            if b != -a and span_rank([a, b]) == 1
        ]
        axiom1 = parallel[0] if parallel else None
    unclosed = [(a, b) for a in roots for b in roots if reflect_euclid(b, a) not in rs]
    return axiom1, unclosed[0] if unclosed else None


class TestLatticeKernel:
    """The integer kernel against the scalar reference, case by case."""

    @pytest.mark.parametrize(
        "name",
        KERNEL_PRESETS
        + [f"induced-{n}" for n in ("A1xA1xA1", "A3", "B3", "H3")]
        + PARTIAL_CASES,
    )
    def test_gram_and_table_match_scalar_reference(self, name):
        rs = _kernel_case(name)
        _assert_kernel_matches_scalar_reference(rs.roots, rs.disc)

    def test_repeated_vectors_match_scalar_reference(self):
        v, w = vec(1, 0), vec(1, 1)
        vectors = [-v, v, v, w, -w, -w, vec(0, 1)]
        _assert_kernel_matches_scalar_reference(vectors, 1)
        dots = sorted(a.dot(b) for i, a in enumerate(vectors) for b in vectors[i + 1:])
        assert list(gram_spectrum(vectors)) == sorted(dots + dots)

    def test_large_scale_takes_the_python_int_path(self):
        b3 = build_preset("B3")
        big = RootSystem([r.scale(Fraction(2**40 + 1, 3)) for r in b3.roots], disc=2)
        lattice = Lattice(big.roots, big.disc)
        reference = Lattice(b3.roots, b3.disc)
        assert lattice.reflection_table() == reference.reflection_table()
        assert verify_root_axioms(big) == verify_root_axioms(b3)
        assert signature(big) == signature(b3)

    def test_image_off_the_lattice_is_an_axiom2_witness(self):
        # reflecting (1, 0) in (1, 2) gives (3/5, -4/5): denominators leave Z
        rs = RootSystem([vec(1, 0), vec(-1, 0), vec(1, 2), vec(-1, -2)], disc=1)
        report = verify_root_axioms(rs)
        assert report.axiom1_ok and not report.axiom2_ok
        mirror, moved = report.axiom2_witness
        assert (mirror, moved) == (vec(-1, -2), vec(-1, 0))
        assert reflect_euclid(moved, mirror) == vec(Fraction(-3, 5), Fraction(4, 5))

    def test_witnesses_are_first_failures_in_root_order(self):
        rs = _kernel_case("paired-multiples")
        report = verify_root_axioms(rs)
        roots = rs.roots
        parallel = [
            (a, b) for i, a in enumerate(roots) for b in roots[i + 1:]
            if b != -a and span_rank([a, b]) == 1
        ]
        assert report.axiom1_witness == parallel[0]
        unclosed = [(a, b) for a in roots for b in roots if reflect_euclid(b, a) not in rs]
        assert report.axiom2_witness == unclosed[0]

    @pytest.mark.parametrize("name", PARTIAL_CASES)
    def test_witnesses_match_reference_on_partial_sets(self, name):
        rs = _kernel_case(name)
        report = verify_root_axioms(rs)
        axiom1, axiom2 = _reference_witnesses(rs)
        assert (report.axiom1_ok, report.axiom1_witness) == (axiom1 is None, axiom1)
        assert (report.axiom2_ok, report.axiom2_witness) == (axiom2 is None, axiom2)


@st.composite
def partial_sets(draw):
    """Small vector sets over Q(sqrt(d)) with some reflection images and multiples
    added, then each vector kept, negated, or kept with its negative."""
    disc = draw(st.sampled_from((1, 2, 3, 5)))
    dim = draw(st.integers(2, 4))
    part = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2)))
    coord = st.builds(
        lambda a, b: QScalar(a, b if disc > 1 else 0, disc), part, part
    )
    vectors = draw(
        st.lists(st.lists(coord, min_size=dim, max_size=dim).map(Vector), min_size=1, max_size=4)
        .map(lambda vs: [v for v in vs if not v.is_zero()])
        .filter(bool)
    )
    pick = st.integers(0, 3).map(lambda i: vectors[i % len(vectors)])
    vectors += draw(st.lists(st.builds(reflect_euclid, pick, pick), max_size=4))
    factor = st.sampled_from((2, Fraction(-1, 2), QScalar(1, 1, disc)))
    vectors += draw(st.lists(st.builds(Vector.scale, pick, factor), max_size=2))
    roots = []
    for v in vectors:
        keep, keep_negative = draw(st.sampled_from(((True, True), (True, False), (False, True))))
        roots += [v] * keep + [-v] * keep_negative
    return RootSystem(roots, disc=disc)


@given(partial_sets())
def test_kernel_and_witnesses_match_scalar_reference_on_random_sets(rs):
    roots = list(rs.roots)
    _assert_kernel_matches_scalar_reference(roots, rs.disc)
    _assert_kernel_matches_scalar_reference(roots + roots[::2], rs.disc)
    _assert_kernel_matches_scalar_reference(roots[::2] + roots, rs.disc)
    report = verify_root_axioms(rs)
    assert (report.axiom1_witness, report.axiom2_witness) == _reference_witnesses(rs)


@st.composite
def shuffled_subsets(draw):
    """A reflection subsystem of H4, F4, B3 or A1xI2-6 (the closure of up to 3
    of its roots), perhaps with a scaled copy of it, plus other roots of the
    same preset, repeated vectors and scaled single vectors, shuffled.  The
    subsystem's rows are complete unless the additions break them."""
    preset = build_preset(draw(st.sampled_from(("H4", "F4", "B3", "A1xI2-6"))))
    pick = st.sampled_from(preset.roots)
    generators = draw(st.lists(pick, min_size=1, max_size=3))
    vectors = list(close_under_reflections(generators, disc=preset.disc).roots)
    factor = st.sampled_from((2, Fraction(-1, 3), QScalar(1, 1, preset.disc)))
    if draw(st.booleans()):
        scale = draw(factor)
        vectors += [v.scale(scale) for v in vectors]
    vectors += draw(st.lists(pick, max_size=2))
    vectors += draw(st.lists(st.sampled_from(vectors), max_size=3))
    vectors += draw(st.lists(st.builds(Vector.scale, st.sampled_from(vectors), factor), max_size=1))
    return draw(st.permutations(vectors)), preset.disc


@given(shuffled_subsets())
def test_table_and_witnesses_match_scalar_reference_on_shuffled_subsets(case):
    vectors, disc = case
    _assert_kernel_matches_scalar_reference(vectors, disc)
    rs = RootSystem(vectors, disc=disc)
    report = verify_root_axioms(rs)
    assert (report.axiom1_witness, report.axiom2_witness) == _reference_witnesses(rs)


def test_build_preset_checks_expected_count(monkeypatch):
    from rootspin import RootspinError, presets

    real = presets.get_preset
    monkeypatch.setattr(
        presets, "get_preset", lambda name: real(name)._replace(expected_count=13)
    )
    with pytest.raises(RootspinError, match="built 12 roots, expected 13"):
        presets.build_preset.__wrapped__("A3")


def test_build_preset_caches_on_canonical_name():
    assert build_preset("h3") is build_preset("H3") is build_preset(" H3 ")


def test_build_preset_cache_respects_env_cap(monkeypatch):
    build_preset("H3")
    monkeypatch.setenv("ROOTSPIN_CAP", "7")
    with pytest.raises(ClosureCapExceeded):
        build_preset("H3")


ALL_PRESETS = (
    "A1xA1xA1", "A3", "B3", "H3", "D4", "F4", "H4",
    *(f"{family}-{n}" for family in ("I2", "A1xI2") for n in (2, 3, 4, 6, 8, 12)),
)


def _count_direct_rows(monkeypatch, rs) -> int:
    computed = []
    direct = Lattice._direct_row

    def counted(self, i, *args):
        computed.append(i)
        return direct(self, i, *args)

    monkeypatch.setattr(Lattice, "_direct_row", counted)
    Lattice(rs.roots, rs.disc).reflection_table()
    monkeypatch.undo()
    return len(computed)


def test_h4_table_computes_at_most_four_rows_directly(monkeypatch):
    # the other 116 rows follow by s_{s_a(b)} = s_a s_b s_a
    assert _count_direct_rows(monkeypatch, build_preset("H4")) <= 4
    assert _count_direct_rows(monkeypatch, induce_4d(build_preset("H3"))) <= 4


@pytest.mark.parametrize("name", ALL_PRESETS)
def test_table_computes_at_most_two_rows_per_dimension_directly(monkeypatch, name):
    rs = build_preset(name)
    assert _count_direct_rows(monkeypatch, rs) <= 2 * rs.dim


@pytest.mark.parametrize("name", ALL_PRESETS)
def test_shuffled_roots_sort_back_to_the_canonical_order(name):
    # Vector.__lt__ skips equal coordinates; the order it gives must not move
    stored = build_preset(name).roots
    shuffled = list(stored)
    random.Random(len(stored)).shuffle(shuffled)
    assert tuple(sorted(shuffled)) == stored


def test_vector_order_is_the_sign_of_the_first_differing_coordinate():
    def reference_lt(a, b):
        for x, y in zip(a.coords, b.coords):
            s = (x - y).sign()
            if s:
                return s < 0
        return False

    for name in ("H3", "A1xI2-6", "F4"):
        stored = build_preset(name).roots
        for a in stored:
            for b in stored:
                assert (a < b) == reference_lt(a, b)


def test_gram_spectrum_takes_the_field_from_every_coordinate():
    # the first coordinate is a rational tagged disc 1, the others carry sqrt(3)
    vectors = [
        Vector((QScalar(1), QScalar(0))),
        Vector((QScalar(HALF, 0, 3), QScalar(0, HALF, 3))),
        Vector((QScalar(-HALF, 0, 3), QScalar(0, HALF, 3))),
    ]
    dots = sorted(a.dot(b) for i, a in enumerate(vectors) for b in vectors[i + 1:])
    assert list(gram_spectrum(vectors)) == sorted(dots + dots)
    assert [str(v) for v in gram_spectrum(vectors)] == ["-1/2", "-1/2"] + ["1/2"] * 4


# -- integer reflection, canonical order and simple roots against QScalar -----


@st.composite
def field_values(draw):
    """A disc d in {1, 2, 3, 5} and a small pool of values over Q(sqrt(d)).

    The pool also holds rationals tagged with other discs, so equal values
    can arrive under different tags.
    """
    disc = draw(st.sampled_from((1, 2, 3, 5)))
    part = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2, 3)))
    own = st.builds(lambda a, b: QScalar(a, b if disc > 1 else 0, disc), part, part)
    tagged = st.builds(QScalar, part, st.just(0), st.sampled_from((1, 2, 3, 5)))
    return disc, draw(st.lists(st.one_of(own, tagged), min_size=1, max_size=5))


@given(field_values(), st.integers(1, 4), st.data())
def test_canonical_sorted_is_the_vector_order(field, dim, data):
    _, pool = field
    coord = st.sampled_from(pool)
    vectors = data.draw(st.lists(st.lists(coord, min_size=dim, max_size=dim).map(Vector),
                                 min_size=1, max_size=12))
    vectors += vectors[::3]  # repeated vectors
    assert canonical_sorted(vectors) == sorted(vectors)


@given(field_values(), st.sampled_from((2, 3)), st.data())
def test_canonical_sorted_is_the_multivector_order(field, dim, data):
    _, pool = field
    coeff = st.sampled_from(pool)
    mvs = data.draw(st.lists(
        st.lists(coeff, min_size=1 << dim, max_size=1 << dim).map(lambda c: Multivector(dim, c)),
        min_size=1, max_size=12,
    ))
    mvs += mvs[::2]
    assert canonical_sorted(mvs, lambda m: m.coeffs) == sorted(mvs)


def _qscalar_reflection(b, a):
    """b - 2 (a|b) / (a|a) a, in QScalar arithmetic."""
    c = b.dot(a) * 2 / a.dot(a)
    return Vector(x - c * y for x, y in zip(b.coords, a.coords))


@given(field_values(), st.integers(1, 4), st.data())
def test_integer_reflection_is_the_reflection_formula(field, dim, data):
    disc, pool = field
    coord = st.sampled_from(pool)
    a = data.draw(st.lists(coord, min_size=dim, max_size=dim).map(Vector)
                  .filter(lambda v: not v.is_zero()))
    b = data.draw(st.lists(coord, min_size=dim, max_size=dim).map(Vector))
    expected = _qscalar_reflection(b, a)
    assert reflect_euclid(b, a) == expected
    mirror = int_mirror(int_numerators(a.coords), disc)
    assert int_reflect(int_numerators(b.coords), mirror, disc) == int_numerators(expected.coords)


@given(st.sampled_from((1, 2, 3, 5)), st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_field_sign_is_the_exact_sign(disc, x, y):
    y = y if disc > 1 else 0
    assert field_sign(x, y, disc) == QScalar(x, y, disc).sign()


def _reference_simple_roots(roots):
    """The positivity-functional algorithm on QScalars, for the first t that works."""
    for attempt in range(16):
        t = Fraction(2) + Fraction(attempt, 17)

        def f(v):
            return sum((c * t**i for i, c in enumerate(v.coords)), QScalar(0)).sign()

        if any(f(r) == 0 for r in roots):
            continue
        positive = [r for r in roots if f(r) > 0]
        return sorted(
            a for a in positive
            if all(f(_qscalar_reflection(b, a)) > 0 for b in positive if b != a)
        )


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "I2-12", "A1xI2-6", "F4", "induced-H3"])
def test_simple_roots_match_the_scalar_reference(name):
    roots = _kernel_case(name).roots
    assert extract_simple_roots(roots) == _reference_simple_roots(roots)


# -- normalize_roots on integer numerators against Vector.unit ----------------


def _unit_reference(rs):
    """Canonically sorted {r.unit()}, or the first root (in canonical order) that fails."""
    units = set()
    for r in rs:
        try:
            units.add(r.unit())
        except NormNotInField:
            return r
    return sorted(units)


def _assert_normalize_matches_unit(rs):
    expected = _unit_reference(rs)
    if isinstance(expected, Vector):
        with pytest.raises(NormNotInField) as err:
            normalize_roots(rs)
        assert err.value.root == expected
    else:
        assert normalize_roots(rs) == expected


@pytest.mark.parametrize("name", ALL_PRESETS)
def test_normalize_roots_is_vector_unit_on_every_preset(name):
    _assert_normalize_matches_unit(build_preset(name))


def test_normalize_roots_of_a_large_scale_is_the_unscaled_one():
    b3 = build_preset("B3")
    big = RootSystem([r.scale(Fraction(2**40 + 1, 3)) for r in b3.roots], disc=2)
    assert normalize_roots(big) == normalize_roots(b3)
    _assert_normalize_matches_unit(big)


# presets per field, whose roots scaled by field elements keep a norm with a square root
_SCALABLE = {1: ("A1xA1xA1", "I2-2"), 2: ("B3", "F4", "I2-4"), 3: ("A1xI2-6", "I2-3"),
             5: ("H3", "H4")}


@given(field_values(), st.data())
def test_normalize_roots_is_vector_unit_on_random_sets(field, data):
    disc, pool = field
    roots = build_preset(data.draw(st.sampled_from(_SCALABLE[disc]))).roots
    factors = [c for c in pool if not c.is_zero()] or [QScalar(1)]
    vectors = [
        r.scale(data.draw(st.sampled_from(factors)))
        for r in data.draw(st.lists(st.sampled_from(roots), min_size=1, max_size=8))
    ]
    # an arbitrary vector, whose norm usually has no square root in the field
    dim = roots[0].dim
    vectors += data.draw(st.lists(
        st.lists(st.sampled_from(pool), min_size=dim, max_size=dim).map(Vector)
        .filter(lambda v: not v.is_zero()),
        max_size=1,
    ))
    _assert_normalize_matches_unit(RootSystem(vectors, disc=disc))


# -- span_rank against full elimination ---------------------------------------


def _reference_span_rank(vectors):
    """Rank by Gauss-Jordan elimination over every vector, with no early stop."""
    rows = [list(v.coords) for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if not rows[r][col].is_zero()), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].inverse()
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and not rows[r][col].is_zero():
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("name", ALL_PRESETS)
def test_span_rank_is_full_elimination_on_every_preset(name):
    roots = list(build_preset(name).roots)
    assert span_rank(roots) == _reference_span_rank(roots) == len(roots[0].coords)
    # a subset in a hyperplane never reaches full rank, so every vector is reduced
    flat = [r for r in roots if r.coords[0].is_zero()]
    assert span_rank(flat) == _reference_span_rank(flat)


@given(field_values(), st.integers(1, 4), st.data())
def test_span_rank_is_full_elimination_on_random_sets(field, dim, data):
    _, pool = field
    coord = st.sampled_from(pool + [QScalar(0)])
    vectors = data.draw(st.lists(st.lists(coord, min_size=dim, max_size=dim).map(Vector),
                                 max_size=6))
    # combinations of earlier vectors keep the rank below the count
    for a, b in data.draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool)),
                                   max_size=2 if len(vectors) >= 2 else 0)):
        vectors.append(vectors[0].scale(a) + vectors[1].scale(b))
    assert span_rank(vectors) == _reference_span_rank(vectors)
