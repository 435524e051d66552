"""Reflection closure, root-system axioms, normalization, presets."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from rootspin import (
    ClosureCapExceeded,
    NormNotInField,
    NotRepresentable,
    QScalar,
    RootSystem,
    Vector,
    ZeroRoot,
    build_preset,
    close_under_reflections,
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
from rootspin.lattice import Lattice
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
        reflect_fast = roots._reflect_fast

        def counting(*args):
            calls.append(args)
            return reflect_fast(*args)

        monkeypatch.setattr(roots, "_reflect_fast", counting)
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


def _kernel_case(name):
    if name.startswith("induced-"):
        return induce_4d(build_preset(name[len("induced-"):]))
    return build_preset(name)


class TestLatticeKernel:
    """The integer kernel against the scalar reference, case by case."""

    @pytest.mark.parametrize(
        "name", KERNEL_PRESETS + [f"induced-{n}" for n in ("A1xA1xA1", "A3", "B3", "H3")]
    )
    def test_gram_and_table_match_scalar_reference(self, name):
        rs = _kernel_case(name)
        roots = rs.roots
        lattice = Lattice(roots, rs.disc)
        ga, gb = lattice.gram()
        scale = lattice.den**2
        position = {r: i for i, r in enumerate(roots)}
        table = lattice.reflection_table((ga, gb))
        for i, a in enumerate(roots):
            for j, b in enumerate(roots):
                dot = a.dot(b)
                assert (Fraction(int(ga[i, j]), scale), Fraction(int(gb[i, j]), scale)) == (
                    (dot.rat, dot.surd)
                )
                assert table[i, j] == position.get(reflect_euclid(b, a), -1)

    def test_large_scale_takes_the_python_int_path(self):
        b3 = build_preset("B3")
        big = RootSystem([r.scale(Fraction(2**40 + 1, 3)) for r in b3.roots], disc=2)
        lattice = Lattice(big.roots, big.disc)
        gram = lattice.gram()
        assert gram[0].dtype == object
        reference = Lattice(b3.roots, b3.disc)
        assert reference.gram()[0].dtype == np.int64
        assert np.array_equal(
            lattice.reflection_table(gram), reference.reflection_table(reference.gram())
        )
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
        rs = RootSystem(
            [vec(1, 0), vec(-1, 0), vec(2, 0), vec(-2, 0), vec(1, 1), vec(-1, -1)], disc=2
        )
        report = verify_root_axioms(rs)
        roots = rs.roots
        parallel = [
            (a, b) for i, a in enumerate(roots) for b in roots[i + 1:]
            if b != -a and span_rank([a, b]) == 1
        ]
        assert report.axiom1_witness == parallel[0]
        unclosed = [(a, b) for a in roots for b in roots if reflect_euclid(b, a) not in rs]
        assert report.axiom2_witness == unclosed[0]


def test_build_preset_checks_expected_count(monkeypatch):
    import dataclasses

    from rootspin import RootspinError, presets

    real = presets.get_preset
    monkeypatch.setattr(
        presets, "get_preset", lambda name: dataclasses.replace(real(name), expected_count=13)
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
