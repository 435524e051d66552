"""Reflection closure, root-system axioms, normalization, presets."""

from __future__ import annotations

import importlib
import functools
import inspect
import itertools
import math
import operator
import random
import re
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rootspin import (
    ClosureCapExceeded,
    coxeter_order,
    DimensionMismatch,
    FieldMismatch,
    NormNotInField,
    NotRepresentable,
    QScalar,
    RootSystem,
    RootspinError,
    Vector,
    ZeroRoot,
    build_preset,
    close_under_reflections,
    induce_2d,
    induce_4d,
    normalize_roots,
    reflect_euclid,
    signature,
    simple_roots_of,
    vec,
    verify_root_axioms,
)
from rootspin import lattice, qfield, roots
from rootspin.clifford import Multivector
from rootspin.lattice import (
    Lattice, field_sign, int_mirror, int_numerators, int_reflect, sorted_numerators, vectors_disc,
)
from rootspin.qfield import from_numerators
from rootspin.presets import PHI, PHI_INV, direct_sum, get_preset
from rootspin.roots import row_vector
from rootspin.serialize import root_system_from_json, root_system_to_json
from _util import dot, partial_cases as _partial_cases, reference_sign, times

HALF = Fraction(1, 2)


def canonical_sorted(items, coords=lambda v: v.coords):
    """items in the canonical order of their rows, as RootSystem stores them."""
    items = list(items)
    by_row = {int_numerators(coords(x)): x for x in items}
    rows = [int_numerators(coords(x)) for x in items]
    return [by_row[x] for x in sorted_numerators(rows, vectors_disc(c for x in items for c in coords(x)))]


def lattice_of(vectors, disc):
    """The Lattice of the distinct nonzero vectors' rows, in the order given."""
    return Lattice([int_numerators(v.coords) for v in vectors], disc)


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


@pytest.fixture
def reflect_calls(monkeypatch):
    """The argument tuples of every int_reflect call the closure makes."""
    calls = []
    int_reflect = roots.int_reflect

    def counting(*args):
        calls.append(args)
        return int_reflect(*args)

    monkeypatch.setattr(roots, "int_reflect", counting)
    return calls


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

    def test_the_cap_is_no_parameter(self):
        # the one cap is roots.ROOT_CLOSURE_CAP, which no caller passes
        assert "cap" not in inspect.signature(close_under_reflections).parameters

    def test_cap_exceeded(self, monkeypatch):
        simple = get_preset("A3").simple_roots
        monkeypatch.setattr(roots, "ROOT_CLOSURE_CAP", 5)
        with pytest.raises(ClosureCapExceeded):
            close_under_reflections(simple, disc=2)

    def test_cap_is_checked_on_every_insertion(self, monkeypatch):
        simple = get_preset("A3").simple_roots
        monkeypatch.setattr(roots, "ROOT_CLOSURE_CAP", 12)
        assert len(close_under_reflections(simple, disc=2)) == 12
        monkeypatch.setattr(roots, "ROOT_CLOSURE_CAP", 11)
        with pytest.raises(ClosureCapExceeded,
                           match="^reflection closure exceeded cap of 11 roots$"):
            close_under_reflections(simple, disc=2)

    def test_cap_bounds_the_work(self, reflect_calls, monkeypatch):
        monkeypatch.setattr(roots, "ROOT_CLOSURE_CAP", 8)
        with pytest.raises(ClosureCapExceeded):
            close_under_reflections(get_preset("H3").simple_roots, disc=5)
        # each root meets the 3 simple mirrors, so the abort at root 9 comes
        # within 9 x 3 reflections
        assert len(reflect_calls) < 72

    @pytest.mark.parametrize("name,count", [("H3", 90), ("F4", 192), ("H4", 480)])
    def test_closure_reflects_each_root_once_per_generator(self, reflect_calls, name, count):
        preset = get_preset(name)
        rs = close_under_reflections(preset.simple_roots, disc=preset.disc)
        assert len(reflect_calls) == len(rs) * len(preset.simple_roots) == count

    def test_infinite_group_hits_cap(self, monkeypatch):
        # mirrors at an angle that is no pi/m: the dihedral closure never stops
        a = vec(1, 0)
        b = vec(-2, 1)
        monkeypatch.setattr(roots, "ROOT_CLOSURE_CAP", 100)
        with pytest.raises(ClosureCapExceeded):
            close_under_reflections([a, b])

    def test_infinite_group_with_fractional_mirrors_fails_loudly(self, monkeypatch):
        # here coordinate denominators outgrow 64 bits before the cap does;
        # either guard is a clean refusal, silence would be the bug
        a = vec(1, 0)
        b = vec(Fraction(-3, 5), Fraction(4, 5))
        monkeypatch.setattr(roots, "ROOT_CLOSURE_CAP", 500)
        with pytest.raises((ClosureCapExceeded, OverflowError)):
            close_under_reflections([a, b])

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

    def test_seeds_from_two_fields_are_a_field_mismatch(self):
        # vectors_disc decides the field, as for signature and reflect_euclid
        with pytest.raises(FieldMismatch,
                           match=r"cannot combine Q\(sqrt\(2\)\) with Q\(sqrt\(3\)\)"):
            close_under_reflections([vec(QScalar(0, 1, 2), 0), vec(0, QScalar(0, 1, 3))])

    def test_rational_seeds_tagged_with_a_field_close_over_it(self):
        rs = close_under_reflections([vec(QScalar(1, 0, 5), 0), vec(0, 1)])
        assert rs.disc == 5
        assert rs == RootSystem([vec(1, 0), vec(-1, 0), vec(0, 1), vec(0, -1)], disc=5)


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

    def test_norm_not_in_field_past_64_bits_is_named_all_the_same(self):
        # (2^40 + 1)^2 + 2^80 = 2^81 + 2^41 + 1 is no square and leaves the 64-bit bound
        root = vec(2**40 + 1, 2**40)
        norm = 2**81 + 2**41 + 1
        for units in (root.unit, lambda: normalize_roots(RootSystem([root, -root], 1))):
            with pytest.raises(NormNotInField, match=f"^squared norm {norm} of ") as err:
                units()
            assert err.value.norm_squared == str(norm)

    def test_a_norm_within_64_bits_is_named_as_a_qscalar(self):
        with pytest.raises(NormNotInField) as err:
            vec(1, 1).unit()
        assert err.value.norm_squared == QScalar(2)
        assert str(err.value) == "squared norm 2 of (1, 1) has no square root in its field"

    def test_unit_of_the_zero_vector_is_a_zero_root(self):
        # a typed error, not the ZeroDivisionError of inverting a zero norm
        for zero in (vec(0, 0), vec(0, 0, 0, disc=5), Vector((QScalar(0, 0, 2),))):
            with pytest.raises(ZeroRoot, match="^the zero vector has no unit length$"):
                zero.unit()


class TestHelpers:
    def test_span_rank(self):
        # the reference rank that the witness references below read
        assert _reference_span_rank([vec(1, 0, 0), vec(0, 1, 0), vec(1, 1, 0)]) == 2
        assert _reference_span_rank(list(build_preset("H3").roots)) == 3

    def test_angle_counts_octahedron(self):
        angles, components = Lattice(build_preset("A1xA1xA1").rows, 1).angle_counts()
        assert angles == {(-1, 0, 1, 1): 6, (0, 0, 1, 1): 24}
        assert sorted(components) == [2, 2, 2]

    def test_direct_sum_counts_and_field_guard(self):
        from rootspin.presets import a1_system
        from rootspin import FieldMismatch

        b2 = build_preset("I2-4")
        combo = direct_sum(b2, a1_system(), a1_system())
        assert combo.dim == 4 and len(combo) == 12
        assert verify_root_axioms(combo).ok
        with pytest.raises(FieldMismatch):
            direct_sum(build_preset("I2-3"), build_preset("I2-4"))


def _d4_roots() -> list[Vector]:
    out = []
    for i, j in itertools.combinations(range(4), 2):
        for si, sj in itertools.product((1, -1), repeat=2):
            c = [0, 0, 0, 0]
            c[i], c[j] = si, sj
            out.append(vec(*c, disc=2))
    return out


def _f4_roots() -> list[Vector]:
    out = _d4_roots()
    for i in range(4):
        for s in (1, -1):
            c = [0, 0, 0, 0]
            c[i] = s
            out.append(vec(*c, disc=2))
    for signs in itertools.product((HALF, -HALF), repeat=4):
        out.append(vec(*signs, disc=2))
    return out


_EVEN_PERMS_4 = [
    p for p in itertools.permutations(range(4))
    if sum(1 for i in range(4) for j in range(i + 1, 4) if p[i] > p[j]) % 2 == 0
]


def _h4_roots() -> list[Vector]:
    """The 120 unit vertices of the 600-cell over Q(sqrt(5))."""
    out = []
    for i in range(4):
        for s in (1, -1):
            c = [QScalar(0)] * 4
            c[i] = QScalar(s)
            out.append(Vector(c, disc=5))
    for signs in itertools.product((HALF, -HALF), repeat=4):
        out.append(Vector([QScalar(s) for s in signs], disc=5))
    base = (PHI * HALF, QScalar(HALF), PHI_INV * HALF)
    for perm in _EVEN_PERMS_4:
        # place (phi, 1, 1/phi)/2 on three slots, zero on the slot of index 3
        for signs in itertools.product((1, -1), repeat=3):
            c = [QScalar(0)] * 4
            for pos in range(4):
                k = perm[pos]
                if k == 3:
                    continue
                c[pos] = base[k] * signs[k]
            out.append(Vector(c, disc=5))
    return canonical_sorted(set(out))


def _reference_closure(simple, disc):
    """The all-pairs worklist closure: reflect every new root in every root and back."""
    seed = [int_numerators(Vector(s.coords, disc=disc).coords) for s in simple]
    seed += [tuple(-v for v in x[:-1]) + x[-1:] for x in seed]
    mirrors = {x: int_mirror(x, disc) for x in seed}  # every root is a mirror
    frontier = list(mirrors)
    while frontier:
        current = list(mirrors.items())
        found = []
        for r in frontier:
            mr = mirrors[r]
            for m, mm in current:
                for cand in (int_reflect(r, mm, disc), int_reflect(m, mr, disc)):
                    if cand not in mirrors:
                        mirrors[cand] = int_mirror(cand, disc)
                        found.append(cand)
        frontier = found
    return RootSystem((Vector(from_numerators(x, disc)) for x in mirrors), disc=disc)


@st.composite
def generating_subsets(draw):
    """1 to 4 roots of H4, F4, B3, H3 or A1xI2-6, some of them perhaps scaled, shuffled."""
    preset = build_preset(draw(st.sampled_from(("H4", "F4", "B3", "H3", "A1xI2-6"))))
    generators = draw(st.lists(st.sampled_from(preset.roots), min_size=1, max_size=4))
    factor = st.sampled_from((2, Fraction(-1, 3), QScalar(1, 1, preset.disc)))
    scaled = draw(st.lists(st.builds(Vector.scale, st.sampled_from(generators), factor),
                           max_size=2))
    return draw(st.permutations(generators + scaled)), preset.disc


@given(generating_subsets())
def test_closure_matches_the_all_pairs_reference_on_shuffled_subsets(case):
    generators, disc = case
    assert close_under_reflections(generators, disc=disc) == _reference_closure(generators, disc)


class TestPresetGeometry:
    def test_h3_simple_root_angles(self):
        a1, a2, a3 = get_preset("H3").simple_roots
        one = QScalar(1, 0, 5)
        assert a1.norm_squared() == a2.norm_squared() == a3.norm_squared() == one
        assert a1.dot(a2) == -(PHI * HALF)
        assert a2.dot(a3) == QScalar(-HALF, 0, 5)
        assert a1.dot(a3) == QScalar(0, 0, 5)

    def test_d4_f4_enumerations_match_their_closures(self):
        for name, count, enumerate_roots in (("D4", 24, _d4_roots), ("F4", 48, _f4_roots)):
            closed = build_preset(name)
            assert len(closed) == count
            assert set(closed.roots) == set(enumerate_roots())

    def test_h4_enumeration_is_closed_and_unit(self):
        h4 = build_preset("H4")
        assert len(h4) == 120
        assert set(h4.roots) == set(_h4_roots())
        one = QScalar(1, 0, 5)
        assert all(r.norm_squared() == one for r in h4)
        assert verify_root_axioms(h4).ok


KERNEL_PRESETS = [
    "A1xA1xA1", "A3", "B3", "H3", "I2-2", "I2-3", "I2-4", "I2-6", "I2-8", "I2-12",
    "A1xI2-2", "A1xI2-3", "A1xI2-4", "A1xI2-6", "A1xI2-8", "D4", "F4", "H4",
]


PARTIAL_CASES = sorted(_partial_cases())


def _kernel_case(name):
    if name.startswith("induced-"):
        return induce_4d(build_preset(name[len("induced-"):]))
    if name in PARTIAL_CASES:
        return _partial_cases()[name]
    return build_preset(name)


def _assert_angle_counts_match_scalar_reference(vectors, disc):
    """Lattice.angle_counts against exact field arithmetic: the counts over ordered
    pairs i != j of sign(a.b) (a.b)^2 / (|a|^2 |b|^2), and the component sizes of a
    BFS over the non-orthogonal pairs.  Neither side has a 64-bit bound.  Each key
    (s, t, r, e) is reduced, with r > 0 and e the field of a value with a surd part."""
    dots = [[dot(a, b, disc) for b in vectors] for a in vectors]
    triples = Counter(
        (dot, dots[i][i], dots[j][j]) for i, row in enumerate(dots) for j, dot in enumerate(row)
        if i != j
    )
    cosines: Counter = Counter()
    for ((x, y), a, b), c in triples.items():  # each distinct triple divided once
        den = math.lcm(x.denominator, y.denominator)
        sign = field_sign(int(x * den), int(y * den), disc)
        p, q = times((x, y), (x, y), disc)
        r, t = times(a, b, disc)
        u, v = times((sign * p, sign * q), (r, -t), disc)  # over the norm r^2 - d t^2
        norm = r * r - disc * t * t
        cosines[u / norm, v / norm] += c
    angles, components = lattice_of(vectors, disc).angle_counts()
    for s, t, r, e in angles:
        assert math.gcd(s, t, r) == 1 and r > 0 and e == (disc if t else 1)
    assert {(Fraction(s, r), Fraction(t, r)): c for (s, t, r, _), c in angles.items()} == cosines
    unseen, sizes = set(range(len(vectors))), []
    while unseen:
        todo, size = [unseen.pop()], 0
        while todo:
            i = todo.pop()
            size += 1
            found = {j for j in unseen if any(dots[i][j])}
            unseen -= found
            todo += found
        sizes.append(size)
    assert sorted(components) == sorted(sizes)


def _assert_kernel_matches_scalar_reference(roots, disc):
    lattice = lattice_of(roots, disc)
    position = {r: i for i, r in enumerate(roots)}
    table = lattice.reflection_table()
    assert lattice.neg == [position.get(-r, -1) for r in roots]
    for i, a in enumerate(roots):
        for j, b in enumerate(roots):
            assert table[i][j] == position.get(reflect_euclid(b, a), -1)
    _assert_angle_counts_match_scalar_reference(roots, disc)


def _reference_witnesses(rs):
    """First failing pairs in root order, from Vector arithmetic alone."""
    roots = rs.roots
    unpaired = [a for a in roots if -a not in rs]
    if unpaired:
        axiom1 = (unpaired[0], -unpaired[0])
    else:
        parallel = [
            (a, b) for i, a in enumerate(roots) for b in roots[i + 1:]
            if b != -a and _reference_span_rank([a, b]) == 1
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
        # a RootSystem stores each vector once, so its Lattice never sees a repeat
        v, w = vec(1, 0), vec(1, 1)
        rs = RootSystem([-v, v, v, w, -w, -w, vec(0, 1)], disc=1)
        assert rs.roots == (-w, -v, vec(0, 1), v, w)
        _assert_kernel_matches_scalar_reference(rs.roots, rs.disc)

    def test_an_image_off_the_set_with_its_negative_on_it(self):
        # s_a(b) = (-1, 1) is missing but -s_a(b) = (1, -1) is present, so the
        # entry of -b is that position and the entry of (1, -1) is -b's
        a, b, c = vec(1, 0), vec(1, 1), vec(1, -1)
        vectors = [a, b, -b, c]
        _assert_kernel_matches_scalar_reference(vectors, 1)
        assert lattice_of(vectors, 1).reflection_table()[0] == [-1, -1, 3, 2]

    @pytest.mark.parametrize(
        "name",
        KERNEL_PRESETS
        + [f"induced-{n}" for n in ("A1xA1xA1", "A3", "B3", "H3")]
        + PARTIAL_CASES,
    )
    def test_every_complete_table_row_is_a_permutation(self, name):
        rs = _kernel_case(name)
        positions = list(range(len(rs)))
        complete = [row for row in rs.lattice.reflection_table() if -1 not in row]
        assert complete or name in PARTIAL_CASES
        assert all(sorted(row) == positions for row in complete)

    def test_large_scale_takes_the_python_int_path(self):
        b3 = build_preset("B3")
        big = RootSystem([r.scale(Fraction(2**40 + 1, 3)) for r in b3.roots], disc=2)
        lattice = Lattice(big.rows, big.disc)
        reference = Lattice(b3.rows, b3.disc)
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
            if b != -a and _reference_span_rank([a, b]) == 1
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


@pytest.fixture
def mirrors(monkeypatch):
    """The rows whose dual rows lattice.int_mirror computes, one entry per call."""
    calls = []
    real = lattice.int_mirror

    def counted(a, disc):
        calls.append(a)
        return real(a, disc)

    monkeypatch.setattr(lattice, "int_mirror", counted)
    return calls


def _orbit_count(table):
    """The orbits of the positions under every complete row of the table, by a plain search."""
    complete = [row for row in table if -1 not in row]
    unseen, count = set(range(len(table))), 0
    while unseen:
        todo = [unseen.pop()]
        count += 1
        while todo:
            i = todo.pop()
            found = {row[i] for row in complete} & unseen
            unseen -= found
            todo += found
    return count


def _angle_count_mirrors(vectors, disc, mirrors):
    """The int_mirror calls of angle_counts on a fresh Lattice whose table is built."""
    fresh = lattice_of(vectors, disc)
    table = fresh.reflection_table()
    mirrors.clear()
    _, components = fresh.angle_counts()
    return len(mirrors), _orbit_count(table), components


class TestOrbits:
    """angle_counts takes one Gram row per orbit of the complete table rows."""

    @pytest.mark.parametrize("name, orbits", [
        ("H4", 1), ("H3", 1), ("A3", 1), ("B3", 2), ("F4", 2), ("A1xA1xA1", 3), ("A1xI2-4", 3),
    ])
    def test_one_gram_row_per_orbit(self, name, orbits, mirrors):
        # the counts themselves: TestLatticeKernel's scalar reference, on every preset
        rs = build_preset(name)
        assert _angle_count_mirrors(rs.roots, rs.disc, mirrors)[:2] == (orbits, orbits)

    @pytest.mark.parametrize("name", PARTIAL_CASES)
    def test_partial_sets_take_one_gram_row_per_orbit(self, name, mirrors):
        rs = _kernel_case(name)
        calls, orbits, _ = _angle_count_mirrors(rs.roots, rs.disc, mirrors)
        assert calls == orbits

    def test_a_set_with_no_complete_row_takes_every_gram_row(self, mirrors):
        # no root's negative is in the set, so every row misses s_a(a) = -a
        vectors = [vec(1, 0, 0), vec(1, 1, 0), vec(0, 1, 1), vec(1, 2, 3)]
        assert _angle_count_mirrors(vectors, 1, mirrors)[:2] == (4, 4)
        _assert_angle_counts_match_scalar_reference(vectors, 1)

    def test_complete_and_incomplete_rows_mixed(self, mirrors):
        # the row of e3 is complete and swaps +-e3; s_(1,1,0)(1,2,0) = (-2,-1,0) is missing
        e3, a, b = vec(0, 0, 1), vec(1, 1, 0), vec(1, 2, 0)
        vectors = [e3, -e3, a, -a, b, -b]
        calls, orbits, components = _angle_count_mirrors(vectors, 1, mirrors)
        assert (calls, orbits, sorted(components, reverse=True)) == (5, 5, [4, 2])
        _assert_angle_counts_match_scalar_reference(vectors, 1)

    def test_a_stray_root_beside_a_closed_system(self, mirrors):
        # the six roots e_i - e_j of A2 are one orbit; (1, 1, 1) is orthogonal to them
        # and its negative is missing, so its row is incomplete and it is an orbit alone
        a2 = [vec(*(int(k == i) - int(k == j) for k in range(3)))
              for i in range(3) for j in range(3) if i != j]
        vectors = a2 + [vec(1, 1, 1)]
        calls, orbits, components = _angle_count_mirrors(vectors, 1, mirrors)
        assert (calls, orbits, sorted(components, reverse=True)) == (2, 2, [6, 1])
        _assert_angle_counts_match_scalar_reference(vectors, 1)


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
    _assert_kernel_matches_scalar_reference(roots[::-1], rs.disc)
    report = verify_root_axioms(rs)
    assert (report.axiom1_witness, report.axiom2_witness) == _reference_witnesses(rs)


@st.composite
def shuffled_subsets(draw):
    """A reflection subsystem of H4, F4, B3 or A1xI2-6 (the closure of up to 3
    of its roots), perhaps with a scaled copy of it, plus other roots of the
    same preset and scaled single vectors, each once, shuffled.  The
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
    vectors += draw(st.lists(st.builds(Vector.scale, st.sampled_from(vectors), factor), max_size=1))
    return draw(st.permutations(list(dict.fromkeys(vectors)))), preset.disc


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


ALL_PRESETS = (
    "A1xA1xA1", "A3", "B3", "H3", "D4", "F4", "H4",
    *(f"{family}-{n}" for family in ("I2", "A1xI2") for n in (2, 3, 4, 6, 8, 12)),
)


def test_benchmark_build_matches_build_preset(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    ops = importlib.import_module("ops")
    for name in ALL_PRESETS:
        assert ops._build(name, ops.NullTracer()) == build_preset(name)


def test_benchmark_inputs_and_micro_kernels_run(monkeypatch):
    # ops.py builds RootSystems from Vectors, scales roots and tests membership
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    ops = importlib.import_module("ops")
    b3, inputs = build_preset("B3"), {}
    scaled = {"key": 1, "preset": "B3", "scale": 7, "label": "B3"}
    relabelled = {"key": 2, "relabel_of": scaled, "label": "B3-r2"}
    rs = ops.make_input(relabelled, inputs)
    assert rs.label == "B3-r2" and inputs[1].label == "B3"
    assert rs == inputs[1] == RootSystem([r.scale(7) for r in b3.roots], disc=2)
    assert rs != b3 and signature(rs) == signature(b3) and coxeter_order(rs) == 48
    assert ops.make_input({"key": 3, "preset": "H3", "scale": 1, "label": "H3"}, inputs) is (
        build_preset("H3")
    )
    _, failures = ops.micro_kernels(0.001)
    assert failures == [[], [], []]


@pytest.fixture
def codec_calls(monkeypatch):
    """Counts of int_numerators (encode) and from_numerators (decode) calls, one per vector.

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


@pytest.mark.parametrize("name", ["H3", "H4"])
def test_pipeline_stages_encode_and_decode_no_root(codec_calls, fresh_lattices, name):
    rs = build_preset.__wrapped__(name)  # a fresh instance: nothing stored with its rows
    codec_calls.clear()
    if rs.dim == 3:
        assert verify_root_axioms(induce_4d(rs)).ok
    assert verify_root_axioms(rs).ok
    signature(rs)
    coxeter_order(rs)
    assert codec_calls == Counter()


def test_roots_decode_at_most_once_per_instance(codec_calls, fresh_lattices):
    rs = build_preset.__wrapped__("H4")  # a fresh instance, and the only one with its rows
    assert codec_calls["from_numerators"] == 0
    roots = rs.roots
    assert codec_calls["from_numerators"] == 0  # a Vector decodes when its coords are read
    first = [r.coords for r in roots]
    assert codec_calls["from_numerators"] == len(rs) == 120
    assert rs.roots is roots and tuple(rs) == roots
    assert [r.coords for r in rs.roots] == first
    assert codec_calls["from_numerators"] == 120


def test_writing_json_decodes_no_root(codec_calls):
    rs = build_preset.__wrapped__("H4")  # a fresh instance
    text = root_system_to_json(rs)
    assert codec_calls["from_numerators"] == 0
    assert root_system_from_json(text) == rs


@given(generating_subsets(), st.randoms(use_true_random=False))
def test_root_system_round_trips_through_its_vectors(case, rng):
    generators, disc = case
    rs = close_under_reflections(generators, disc=disc)
    vectors = list(rs.roots)
    rng.shuffle(vectors)
    again = RootSystem(vectors, rs.disc)
    assert again == rs and again.rows == rs.rows and again.roots == rs.roots
    other = 3 if rs.disc != 3 else 2
    for r in rs.roots:
        assert r in rs
        if all(not c.surd for c in r.coords):
            # a rational vector tagged disc 1 is a member of any field's system
            assert Vector([QScalar(c.rat) for c in r.coords], disc=1) in rs
        else:
            # the same numerators over another field are another vector
            assert Vector([QScalar(c.rat, c.surd, other) for c in r.coords]) not in rs


def _count_direct_rows(monkeypatch, rs) -> int:
    computed = []
    direct = Lattice._direct_row

    def counted(self, i, *args):
        computed.append(i)
        return direct(self, i, *args)

    monkeypatch.setattr(Lattice, "_direct_row", counted)
    Lattice(rs.rows, rs.disc).reflection_table()
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


def test_signature_takes_the_field_from_every_coordinate():
    # the first coordinate is a rational tagged disc 1, the others carry sqrt(3)
    vectors = [
        Vector((QScalar(1), QScalar(0))),
        Vector((QScalar(HALF, 0, 3), QScalar(0, HALF, 3))),
        Vector((QScalar(-HALF, 0, 3), QScalar(0, HALF, 3))),
    ]
    assert vectors_disc(vectors) == 3
    spectrum = dict(signature(RootSystem(vectors, vectors_disc(vectors))).spectrum)
    dots = [a.dot(b) for i, a in enumerate(vectors) for b in vectors[i + 1:]]  # unit vectors
    values = {QScalar(Fraction(s, r), Fraction(t, r), e): c for (s, t, r, e), c in spectrum.items()}
    assert values == Counter(dot * dot * dot.sign() for dot in dots + dots)
    assert spectrum == {(-1, 0, 4, 1): 2, (1, 0, 4, 1): 4}


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


def reference_cmp(a: QScalar, b: QScalar) -> int:
    """The sign of a - b by reference_sign on their Fraction parts, in the surd's field."""
    return reference_sign(a.rat - b.rat, a.surd - b.surd, b.disc if b.surd else a.disc)


def reference_order(a, b, coords=lambda v: v.coords) -> int:
    """-1, 0 or 1 as a comes before, with or after b in lexicographic order of their
    coordinates, by reference_cmp."""
    return next((c for c in map(reference_cmp, coords(a), coords(b)) if c), 0)


def reference_sorted(items, coords=lambda v: v.coords):
    """items in reference_order."""
    return sorted(items, key=functools.cmp_to_key(lambda a, b: reference_order(a, b, coords)))


@st.composite
def order_values(draw):
    """field_values' disc and pool, and values with parts out to 2^62: large integers,
    small Fractions over denominators past 2^40, and p + q sqrt(d) with p within 2 of
    -q sqrt(d), where the exact order is hardest to decide."""
    disc, pool = draw(field_values())
    own = disc > 1
    big = st.one_of(st.sampled_from((2**62, -2**62)), st.integers(-2**62, 2**62))
    tiny = st.builds(Fraction, st.integers(-3, 3),
                     st.one_of(st.sampled_from((2**40 + 1, 2**40 + 3)), st.integers(2**40, 2**62)))
    near = st.builds(lambda q, step: QScalar(-math.isqrt(disc * q * q) - step, q if own else 0,
                                             disc),
                     st.integers(-2**60, 2**60), st.integers(-2, 2))
    wide = st.one_of(
        st.builds(lambda a, b: QScalar(a, b if own else 0, disc), big, big),
        st.builds(lambda a, b: QScalar(a, b if own else 0, disc), tiny, tiny),
        near,
    )
    return disc, pool + draw(st.lists(wide, min_size=1, max_size=4))


@given(order_values(), st.data())
def test_qscalar_comparisons_are_the_reference_order(field, data):
    _, pool = field
    a = data.draw(st.sampled_from(pool))
    b = data.draw(st.sampled_from(pool + [-a]))  # -a: far apart where a is large
    sign = reference_cmp(a, b)
    assert (a < b, a <= b, a > b, a >= b) == (sign < 0, sign <= 0, sign > 0, sign >= 0)
    if not b.surd:  # an int or Fraction operand gives the same answers
        other = b.rat if b.rat.denominator > 1 else b.rat.numerator
        assert (a < other, a <= other, a > other, a >= other) == (
            sign < 0, sign <= 0, sign > 0, sign >= 0)


@given(order_values(), st.integers(1, 4), st.data())
def test_canonical_sorted_is_the_vector_order(field, dim, data):
    _, pool = field
    coord = st.sampled_from(pool)
    vectors = data.draw(st.lists(st.lists(coord, min_size=dim, max_size=dim).map(Vector),
                                 min_size=1, max_size=12))
    vectors += vectors[::3]  # repeated vectors
    expected = reference_sorted(vectors)
    assert canonical_sorted(vectors) == sorted(vectors) == expected
    for a, b in itertools.product(vectors[:6], repeat=2):
        assert (a < b) == (reference_order(a, b) < 0)


@given(order_values(), st.data())
def test_canonical_sorted_is_the_multivector_order(field, data):
    _, pool = field
    coeff = st.sampled_from(pool)
    mvs = data.draw(st.lists(
        st.lists(coeff, min_size=8, max_size=8).map(lambda c: Multivector(3, c)),
        min_size=1, max_size=12,
    ))
    mvs += mvs[::2]
    expected = reference_sorted(mvs, lambda m: m.coeffs)
    assert canonical_sorted(mvs, lambda m: m.coeffs) == sorted(mvs) == expected
    for a, b in itertools.product(mvs[:6], repeat=2):
        assert (a < b) == (reference_order(a, b, lambda m: m.coeffs) < 0)


def test_the_order_decides_values_past_64_bits():
    # each comparison subtracted two QScalars, and the difference left the 64-bit bound
    assert QScalar(2**62) > QScalar(-2**62)
    assert QScalar(2**62) < 2**64 and QScalar(2**62) != 2**64  # an int operand is not bounded
    assert vec(2**62) > vec(-2**62)
    assert not vec(Fraction(1, 2**40 + 1)) < vec(Fraction(1, 2**40 + 3))
    assert vec(Fraction(1, 2**40 + 3)) < vec(Fraction(1, 2**40 + 1))


def test_the_order_reads_each_surd_in_its_own_field():
    # 2 < sqrt(5), though 2^2 > 1^2: the left operand's rational tag is not the pair's field
    two, root5 = vec(2), Vector((QScalar(0, 1, 5),))
    assert two < root5 and not root5 < two
    assert reference_order(two, root5) < 0


def test_sorting_vectors_builds_no_qscalar(count_qscalars):
    vectors = [Vector((QScalar(a, b, 5), QScalar(b, -a, 5))) for a in range(-3, 4)
               for b in range(-2, 3)]
    fresh = [row_vector(v.row, v.disc) for v in reversed(vectors)]  # nothing decoded
    with count_qscalars() as made:
        ordered = sorted(fresh)
    assert made == []
    assert ordered == reference_sorted(vectors)


def test_the_qscalar_count_sees_both_ways_in(count_qscalars):
    # QScalar(...) is one way in; Vector.dot wraps its value's row, the other
    a, b = vec(1, 2), vec(3, Fraction(1, 2))
    with count_qscalars() as made:
        value = a.dot(b)
    assert value == 4 and made == [((4, 0, 1), 1)]
    with count_qscalars() as made:
        QScalar(Fraction(1, 2), 1, 5)
    assert made == [(Fraction(1, 2), 1, 5)]


def _qscalar_dot(a, b):
    """(a|b) as a sum of QScalar products, sharing nothing with lattice.int_mirror."""
    return sum((x * y for x, y in zip(a.coords, b.coords)), QScalar(0))


def _qscalar_reflection(b, a):
    """b - 2 (a|b) / (a|a) a, in QScalar arithmetic."""
    c = _qscalar_dot(b, a) * 2 / _qscalar_dot(a, a)
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


_LARGE = st.integers(10**29, 10**30)  # past a float's 53 bits, where rounding hides the sign


@given(st.sampled_from((1, 2, 3, 5)), st.integers(-10**30, 10**30),
       st.one_of(st.integers(-10**30, 10**30), _LARGE, _LARGE.map(operator.neg)),
       st.integers(-2, 2), st.booleans())
def test_field_sign_is_the_exact_sign(disc, x, y, step, near):
    # an integer reference: for y != 0, y sqrt(d) is irrational, so with
    # s = isqrt(d y^2), x + y sqrt(d) > 0 iff x >= -s (y > 0) or x > s (y < 0)
    y = y if disc > 1 else 0
    s = math.isqrt(disc * y * y)
    if near:  # x within 2 of -y sqrt(d), where x^2 and d y^2 are closest
        x = (-s if y > 0 else s) + step
    if y == 0:
        expected = (x > 0) - (x < 0)
    elif y > 0:
        expected = 1 if x >= -s else -1
    else:
        expected = 1 if x > s else -1
    assert field_sign(x, y, disc) == expected


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


# the presets whose unit roots lie in their field, so that induce_4d or induce_2d applies
INDUCIBLE = ("A1xA1xA1", "A3", "B3", "H3",
             *(f"{family}-{n}" for family in ("I2", "A1xI2") for n in (2, 3, 4, 6)))


def _simple_roots_case(name):
    """A preset; "induced-P" its induce_4d or induce_2d result; "scaled-P" its roots
    times 7/3; "permuted-P" its coordinates reversed, with every other one negated."""
    kind, _, preset = name.partition("-")
    if kind not in ("induced", "scaled", "permuted"):
        return build_preset(name)
    rs = build_preset(preset)
    if kind == "induced":
        return (induce_4d if rs.dim == 3 else induce_2d)(rs)
    if kind == "scaled":
        return RootSystem([r.scale(Fraction(7, 3)) for r in rs.roots], rs.disc)
    return RootSystem(
        [Vector(c if k % 2 else -c for k, c in enumerate(r.coords[::-1])) for r in rs.roots],
        rs.disc,
    )


@pytest.mark.parametrize("name", [
    *ALL_PRESETS, *(f"induced-{n}" for n in INDUCIBLE),
    *(f"{kind}-{n}" for kind in ("scaled", "permuted") for n in ALL_PRESETS),
])
def test_simple_roots_match_the_scalar_reference(name):
    rs = _simple_roots_case(name)
    expected = _reference_simple_roots(rs.roots)
    assert simple_roots_of(rs) == expected
    assert _simple_roots(rs.roots) == expected


def test_simple_roots_read_one_reflection_table_and_decode_only_the_simple_roots(
    codec_calls, monkeypatch, fresh_lattices
):
    # int_reflect runs in the table's direct rows only, and no other image is computed
    rs = build_preset.__wrapped__("H4")  # a fresh instance: nothing decoded yet
    codec_calls.clear()
    built, tables, reflections = [], [], Counter()
    init, table, reflect = Lattice.__init__, Lattice.reflection_table, lattice.int_reflect

    def counted_init(self, *args):
        built.append(self)
        init(self, *args)

    def counted_table(self):
        if self._table is None:  # a build, not a read of the stored table
            tables.append(self)
        reflections["table open"] += 1
        try:
            return table(self)
        finally:
            reflections["table open"] -= 1

    def counted_reflect(*args):
        reflections["inside" if reflections["table open"] else "outside"] += 1
        return reflect(*args)

    monkeypatch.setattr(Lattice, "__init__", counted_init)
    monkeypatch.setattr(Lattice, "reflection_table", counted_table)
    for module in list(sys.modules.values()):
        if module.__name__.startswith("rootspin") and getattr(module, "int_reflect", 0) is reflect:
            monkeypatch.setattr(module, "int_reflect", counted_reflect)
    simple = simple_roots_of(rs)
    assert len(simple) == 4
    assert built == [] and tables == [rs.lattice]  # rs came with its record; the table is new
    assert reflections["outside"] == 0 and 0 < reflections["inside"] <= 4 * 60
    assert codec_calls == Counter()  # a Vector decodes when its coords are read
    assert [len(r.coords) for r in simple] == [4] * 4
    assert codec_calls == Counter({"from_numerators": 4})


def _simple_roots(vectors):
    """simple_roots_of the RootSystem of the vectors, over their vectors_disc."""
    return simple_roots_of(RootSystem(vectors, vectors_disc(vectors)))


class TestSimpleRootsOfInvalidInput:
    """simple_roots_of(RootSystem(...)) validates as RootSystem does, then with the two axioms."""

    def test_no_roots(self):
        with pytest.raises(ZeroRoot, match="at least one root"):
            _simple_roots([])

    def test_mixed_dimensions(self):
        with pytest.raises(DimensionMismatch, match=r"mixed root dimensions \[2, 3\]"):
            _simple_roots([vec(1, 0), vec(-1, 0), vec(1, 0, 0)])

    def test_zero_vector(self):
        with pytest.raises(ZeroRoot, match="zero vector cannot be a root"):
            _simple_roots([vec(1, 0), vec(-1, 0), vec(0, 0)])

    def test_repeated_vector_is_listed_once(self):
        assert _simple_roots([vec(1, 0), vec(-1, 0), vec(1, 0)]) == [vec(1, 0)]

    def test_set_that_is_not_reflection_closed(self):
        with pytest.raises(RootspinError, match=re.escape(
            "axiom1 (scalar multiples): pass; axiom2 (reflection closure): "
            "FAIL witness (Vector((-1, -2)), Vector((-1, 0)))"
        )):
            _simple_roots([vec(1, 0), vec(-1, 0), vec(1, 2), vec(-1, -2)])

    def test_bc2_fails_axiom_1(self):
        bc2 = [vec(*(s * c for c in v)) for v in ((1, 0), (0, 1), (1, 1), (1, -1), (2, 0), (0, 2))
               for s in (1, -1)]
        with pytest.raises(RootspinError, match=re.escape(
            "axiom1 (scalar multiples): FAIL witness (Vector((-2, 0)), Vector((-1, 0)))"
        )):
            _simple_roots(bc2)

    def test_simple_roots_of_names_the_axiom_witness(self):
        rs = _partial_cases()["B3-minus-one-root"]
        with pytest.raises(RootspinError) as err:
            simple_roots_of(rs)
        assert str(err.value) == (
            f"{rs!r} is not a root system: {verify_root_axioms(rs).summary()}"
        )
        assert "FAIL witness" in str(err.value)


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


# -- span rank against full elimination ----------------------------------------


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
    # a simple system is a basis of the span, so its size is the rank of the span
    rs = build_preset(name)
    roots = list(rs.roots)
    assert len(simple_roots_of(rs)) == _reference_span_rank(roots) == rs.dim
    # the roots in a coordinate hyperplane are a root system of lower rank
    flat = [r for r in roots if r.coords[0].is_zero()]
    if flat:
        assert len(simple_roots_of(RootSystem(flat, rs.disc))) == _reference_span_rank(flat)


def _induce(rs):
    """The induction of a 2D or 3D set; None in other dimensions."""
    induce = {2: induce_2d, 3: induce_4d}.get(rs.dim)
    return induce(rs) if induce else None


# the answers a RootSystem's stored Lattice and reflection table serve, and the induction,
# whose axiom check builds the output's
CACHED_ANSWERS = (verify_root_axioms, signature, coxeter_order, simple_roots_of, _induce)


def _outcome(answer, rs):
    """answer(rs), or the type and message of the RootspinError or OverflowError it raises.

    OverflowError is the reflection closure's documented end on an infinite group,
    which the induction of a set that is not reflection-closed can meet.
    """
    try:
        return answer(rs)
    except (RootspinError, OverflowError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", [*ALL_PRESETS, *PARTIAL_CASES])
def test_caches_never_change_an_answer(name, fresh_lattices):
    def fresh():  # a new instance: nothing decoded, no Lattice, no table, no induced set
        return _partial_cases()[name] if name in PARTIAL_CASES else build_preset.__wrapped__(name)

    cold = [_outcome(answer, fresh()) for answer in CACHED_ANSWERS]
    warm = fresh()
    reverse = [_outcome(answer, warm) for answer in reversed(CACHED_ANSWERS)]
    assert reverse[::-1] == cold
    assert [_outcome(answer, warm) for answer in CACHED_ANSWERS] == cold
    rebuilt = RootSystem(warm.roots, warm.disc)
    assert [_outcome(answer, rebuilt) for answer in CACHED_ANSWERS] == cold
    if name in PARTIAL_CASES:  # the error paths: none of these sets is a root system
        report, _, order, simple, induced = cold
        assert not report.ok
        assert "is not reflection-closed at root" in order[1]
        assert "is not a root system: " in simple[1]
        # the induction closes its input first: {+-e1, +-2 e1, +-(1, 1)} closes to
        # B2 with doubled roots, whose units are I2(4); {+-e1, +-(1, 2)} over Q is infinite
        if name == "paired-multiples":
            assert induced.rows == induce_2d(build_preset("I2-4")).rows
        if name == "off-lattice":
            assert induced == (OverflowError, "reflection closure overflowed at 216 roots; "
                               "the input likely generates an infinite group")
