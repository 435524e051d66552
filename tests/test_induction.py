"""Rotor groups, the 3D->4D induction, and 2D self-duality."""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction

import pytest

from rootspin import (
    ClosureCapExceeded,
    DimensionMismatch,
    FieldMismatch,
    Multivector,
    NonUnitVector,
    QScalar,
    RootSystem,
    RootspinError,
    RotorGroup,
    Vector,
    build_preset,
    check_self_dual,
    generate_rotor_group,
    induce_2d,
    induce_4d,
    normalize_roots,
    signature,
    spinor_to_vec4,
    vec,
    verify_root_axioms,
)
from rootspin import induction
from _util import even_from_numerators
from rootspin.lattice import EVEN_BY_EVEN, VECTOR_BY_VECTOR, field_disc, int_numerators, int_product
from rootspin.presets import get_preset

ONE3 = Multivector.scalar(1, 3)


class TestRotorGroups:
    def test_octahedron_group_is_the_eight_unit_spinors(self):
        units = normalize_roots(build_preset("A1xA1xA1"))
        grp = generate_rotor_group(units)
        assert grp.order == 8
        e = [Multivector.basis_vector(i, 3) for i in (1, 2, 3)]
        expected = {ONE3, e[0] * e[1], e[1] * e[2], e[2] * e[0]}
        expected |= {-m for m in expected}
        assert {r.mv for r in grp} == expected

    @pytest.mark.parametrize(
        "name,order", [("A3", 24), ("B3", 48), ("H3", 120), ("A1xI2-3", 12)]
    )
    def test_group_orders(self, name, order):
        units = normalize_roots(build_preset(name))
        assert generate_rotor_group(units).order == order

    def test_shuffled_group_sorts_back_to_the_canonical_order(self):
        # Multivector.__lt__ skips equal coefficients; the order must not move
        elements = generate_rotor_group(normalize_roots(build_preset("H3"))).elements
        shuffled = list(elements)
        random.Random(120).shuffle(shuffled)
        assert tuple(sorted(shuffled)) == elements
        assert RotorGroup(shuffled).elements == elements

    def test_double_cover_structure(self):
        for name in ("A1xA1xA1", "A3", "B3", "H3"):
            grp = generate_rotor_group(normalize_roots(build_preset(name)))
            assert grp.order % 2 == 0
            assert ONE3 in grp
            for r in grp:
                assert -r.mv in grp
                assert r.mv.reverse() in grp
                assert r.mv * r.mv.reverse() == ONE3

    def test_simple_pair_seed_generates_the_same_group(self):
        for name in ("A1xA1xA1", "A3", "B3", "H3"):
            preset = get_preset(name)
            full = generate_rotor_group(normalize_roots(build_preset(name)))
            simple_units = [s.unit() for s in preset.simple_roots]
            small = generate_rotor_group(simple_units)
            assert {r.mv for r in small} == {r.mv for r in full}

    def test_non_unit_input_rejected(self):
        with pytest.raises(NonUnitVector):
            generate_rotor_group([vec(1, 1, 0, disc=2)])

    @pytest.mark.parametrize("units,dims", [
        ([vec(1, 0), vec(0, 1)], [2]),
        ([vec(1, 0, 0), vec(0, 1)], [2, 3]),
        ([vec(1, 0, 0, 0), vec(0, 1, 0, 0)], [4]),
    ], ids=["2D", "mixed", "4D"])
    def test_only_3d_vectors_are_accepted(self, units, dims):
        # the integer product is Cl(3)'s: other rows would be read in the wrong slots
        message = f"rotor closure needs 3D vectors, got dimensions {dims}"
        with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
            generate_rotor_group(units)

    def test_an_empty_rotor_group_is_refused(self):
        with pytest.raises(RootspinError, match="^a rotor group needs at least one element$"):
            RotorGroup([])

    def test_closure_under_product_spot_check(self):
        grp = generate_rotor_group(normalize_roots(build_preset("A3")))
        elems = list(grp)[:8]
        for a, b in itertools.product(elems, repeat=2):
            assert a.mv * b.mv in grp

    def test_overflow_names_the_infinite_group(self):
        mirrors = [vec(1, 0, 0), vec(Fraction(3, 5), Fraction(4, 5), 0), vec(0, 0, 1)]
        with pytest.raises(OverflowError, match="rotor closure overflowed .* "
                           "likely generates an infinite group") as info:
            generate_rotor_group(mirrors)
        assert isinstance(info.value.__cause__, OverflowError)

    def test_cap_is_checked_on_every_insertion(self, monkeypatch):
        units = normalize_roots(build_preset("H3"))
        monkeypatch.setattr(induction, "GROUP_CLOSURE_CAP", 120)
        assert generate_rotor_group(units).order == 120
        monkeypatch.setattr(induction, "GROUP_CLOSURE_CAP", 119)
        with pytest.raises(ClosureCapExceeded,
                           match="^rotor closure exceeded cap of 119 elements$"):
            generate_rotor_group(units)

    def test_cap_bounds_the_work(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return int_product(*args)

        monkeypatch.setattr(induction, "int_product", counting)
        monkeypatch.setattr(induction, "GROUP_CLOSURE_CAP", 10)
        with pytest.raises(ClosureCapExceeded):
            generate_rotor_group(normalize_roots(build_preset("H3")))
        # cap + 1 products, each a new element; the seed alone is 30 products
        assert len(calls) == 11

    def test_infinite_group_hits_the_cap_before_overflow(self, monkeypatch):
        mirrors = [vec(1, 0, 0), vec(Fraction(3, 5), Fraction(4, 5), 0), vec(0, 0, 1)]
        monkeypatch.setattr(induction, "GROUP_CLOSURE_CAP", 50)
        with pytest.raises(ClosureCapExceeded, match="cap of 50 elements"):
            generate_rotor_group(mirrors)

    def test_mixed_fields_rejected(self):
        # the first unit root of each with a surd coordinate: a rational one fits either field
        root2 = next(u for u in normalize_roots(build_preset("A3"))
                     if any(c.surd for c in u) and field_disc([u]) == 2)
        root5 = next(u for u in normalize_roots(build_preset("H3"))
                     if any(c.surd for c in u) and field_disc([u]) == 5)
        with pytest.raises(FieldMismatch, match=r"Q\(sqrt\(2\)\) with Q\(sqrt\(5\)\)"):
            generate_rotor_group([root2, root5])

    def test_h3_spinors_are_the_h4_roots(self):
        group = generate_rotor_group(normalize_roots(build_preset("H3")))
        assert {spinor_to_vec4(r) for r in group} == set(build_preset("H4").roots)


class TestInduce4D:
    def test_octahedron_induces_the_16_cell(self):
        induced = induce_4d(build_preset("A1xA1xA1"))
        expected = set()
        for i in range(4):
            for s in (1, -1):
                coords = [QScalar(0)] * 4
                coords[i] = QScalar(s)
                expected.add(Vector(coords))
        assert set(induced.roots) == expected

    @pytest.mark.parametrize(
        "name,count", [("A3", 24), ("B3", 48), ("H3", 120), ("A1xI2-4", 16)]
    )
    def test_induced_counts(self, name, count):
        assert len(induce_4d(build_preset(name))) == count

    def test_induced_systems_pass_axioms_and_are_unit(self):
        for name in ("A1xA1xA1", "A3", "B3", "H3", "A1xI2-6"):
            induced = induce_4d(build_preset(name))
            assert verify_root_axioms(induced).ok
            one = QScalar(1, 0, induced.disc)
            assert all(r.norm_squared() == one for r in induced)
            assert len(induced) % 2 == 0

    def test_provenance_recorded(self):
        induced = induce_4d(build_preset("A3"))
        assert induced.provenance.induced_from == "A3"
        assert induced.dim == 4

    def test_wrong_dimension_rejected(self):
        with pytest.raises(DimensionMismatch):
            induce_4d(build_preset("I2-4"))


class TestInduce2D:
    def test_a1a1_maps_to_axes(self):
        induced = induce_2d(build_preset("I2-2"))
        assert set(induced.roots) == {vec(1, 0), vec(-1, 0), vec(0, 1), vec(0, -1)}

    @pytest.mark.parametrize("n,count", [(3, 6), (4, 8), (6, 12)])
    def test_counts_match(self, n, count):
        induced = induce_2d(build_preset(f"I2-{n}"))
        assert len(induced) == count
        assert verify_root_axioms(induced).ok

    def test_induced_are_unit_spinors(self):
        induced = induce_2d(build_preset("I2-4"))
        one = QScalar(1, 0, 2)
        assert all(v.norm_squared() == one for v in induced)

    def test_wrong_dimension_rejected(self):
        with pytest.raises(DimensionMismatch):
            induce_2d(build_preset("B3"))


class TestSelfDuality:
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_dihedral_self_duality(self, n):
        report = check_self_dual(build_preset(f"I2-{n}"))
        assert report.self_dual
        assert report.input_count == report.induced_count == 2 * n
        assert report.input_spectrum == report.induced_spectrum

    def test_summary_format(self):
        report = check_self_dual(build_preset("I2-6"))
        assert report.summary() == "I2-6: self-dual (12 roots <-> 12 spinors)"


class TestCacheKeys:
    """The induce caches key on root content; names come from each caller."""

    def test_relabelled_input_gets_its_own_label(self):
        h3 = build_preset("H3")
        first = induce_4d(h3)
        hits = induce_4d.cache_info().hits
        mine = induce_4d(RootSystem(h3.roots, disc=5, label="mine"))
        assert induce_4d.cache_info().hits == hits + 1
        assert mine.label == "induced(mine)"
        assert mine.provenance.induced_from == "mine"
        assert mine == first and mine.roots is first.roots
        assert first.label == "induced(H3)"
        assert induce_4d(h3).provenance.induced_from == "H3"

    def test_unlabelled_input_after_a_labelled_one(self):
        a3 = build_preset("A3")
        induce_4d(a3)
        anon = induce_4d(RootSystem(a3.roots, disc=2))
        assert anon.label == "induced(rank-3 input)"
        assert anon.provenance.induced_from == "rank-3 input"

    def test_induce_2d_relabel(self):
        i2 = build_preset("I2-6")
        assert induce_2d(i2).label == "induced(I2-6)"
        other = induce_2d(RootSystem(i2.roots, disc=3, label="hex"))
        assert other.label == "induced(hex)"
        assert other.provenance.induced_from == "hex"

    def test_one_lattice_per_induced_set(self, monkeypatch, fresh_lattices):
        # the axiom check builds the output's Lattice; the cached result and each copy
        # named after a caller keep it, so their signatures read it again.  A rescaled
        # input is a new cache key, but its induced set has the rows of H3's, so its
        # axiom check reads the Lattice the cached result holds.
        from rootspin.lattice import Lattice

        h3 = build_preset("H3")
        other = RootSystem(h3.roots, disc=5, label="other")
        scaled = RootSystem([r.scale(Fraction(7, 3)) for r in h3.roots], disc=5, label="x7/3")
        induce_4d.cache_clear()
        built = []
        real = Lattice.__init__

        def counted(self, *args):
            built.append(len(args[0]))
            real(self, *args)

        monkeypatch.setattr(Lattice, "__init__", counted)
        first, second, third = induce_4d(h3), induce_4d(other), induce_4d(scaled)
        assert (first.label, second.label, third.label) == (
            "induced(H3)", "induced(other)", "induced(x7/3)"
        )
        assert induce_4d.cache_info()[:2] == (1, 2)
        assert signature(first) == signature(second) == signature(third)
        assert built == [120]

    def test_caches_are_bounded(self):
        for cached in (induce_4d, build_preset):
            assert cached.cache_info().maxsize is not None

    def test_evicted_result_is_recomputed_equal(self):
        roots = build_preset("A1xA1xA1").roots

        def scaled(k):  # a distinct key per k, all with the same induced set
            return RootSystem([r.scale(k) for r in roots], disc=1)

        induce_4d.cache_clear()
        rs = scaled(1)
        first = induce_4d(rs)
        maxsize = induce_4d.cache_info().maxsize
        for k in range(2, maxsize + 2):  # each k is a new key; the first is evicted
            induce_4d(scaled(k))
        assert induce_4d.cache_info().currsize == maxsize
        misses = induce_4d.cache_info().misses
        again = induce_4d(rs)
        assert induce_4d.cache_info().misses == misses + 1
        assert again == first and again.label == first.label
        assert again.roots == first.roots

    def test_cache_clear(self):
        induce_4d(build_preset("A1xA1xA1"))
        induce_4d.cache_clear()
        assert induce_4d.cache_info().currsize == 0


def test_rotor_group_order_is_the_multivector_order():
    # the group is sorted by integer ranks of its coefficients; sorted() uses
    # Multivector.__lt__ on the QScalars themselves
    for name in ("A1xA1xA1", "A3", "B3", "H3"):
        elements = generate_rotor_group(normalize_roots(build_preset(name))).elements
        shuffled = list(elements)
        random.Random(len(elements)).shuffle(shuffled)
        assert tuple(sorted(shuffled)) == elements


RANK3_PRESETS = ("A1xA1xA1", "A3", "B3", "H3", "A1xI2-3", "A1xI2-4", "A1xI2-6")


def _reference_rotor_group(units):
    """Every product alpha_i alpha_j, closed under right multiplication by all of them."""
    d = field_disc(units)
    vecs = [int_numerators(u.coords) for u in units]
    seed = {int_product(a, b, VECTOR_BY_VECTOR, d) for a in vecs for b in vecs}
    elements, known = list(seed), set(seed)
    for x in elements:  # a worklist: the loop also visits what it appends
        for g in seed:
            y = int_product(x, g, EVEN_BY_EVEN, d)
            if y not in known:
                known.add(y)
                elements.append(y)
    return {even_from_numerators(x, d) for x in known}


@pytest.mark.parametrize("name", RANK3_PRESETS)
def test_pruned_rotor_closure_is_the_all_pairs_closure(name):
    units = normalize_roots(build_preset(name))
    assert {r.mv for r in generate_rotor_group(units)} == _reference_rotor_group(units)


def test_pruned_rotor_closure_does_not_depend_on_the_first_root():
    units = normalize_roots(build_preset("H3"))
    expected = generate_rotor_group(units).elements
    for i in range(1, len(units)):
        assert generate_rotor_group(units[i:] + units[:i]).elements == expected


def test_pruned_rotor_closure_multiplies_each_element_by_few_generators(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args[2] is EVEN_BY_EVEN)
        return int_product(*args)

    monkeypatch.setattr(induction, "int_product", counting)
    generate_rotor_group(normalize_roots(build_preset("H3")))
    # 30 seed products alpha_1 alpha_j, then each of the 120 elements times
    # each generator kept: 2 of the 29 distinct alpha_1 alpha_j
    assert calls.count(False) == 30
    assert calls.count(True) == 2 * 120


@pytest.mark.parametrize("name", RANK3_PRESETS)
def test_integer_induction_is_the_composition_of_the_public_steps(name):
    rs = build_preset(name)
    scaled = RootSystem([r.scale(Fraction(7, 3)) for r in rs.roots], disc=rs.disc)
    for system in (rs, scaled):
        group = generate_rotor_group(normalize_roots(system))
        steps = RootSystem([spinor_to_vec4(r) for r in group], disc=system.disc)
        assert verify_root_axioms(steps).ok
        induced = induce_4d(system)
        assert induced.roots == steps.roots
        assert [[c.disc for c in r.coords] for r in induced] == [
            [c.disc for c in r.coords] for r in steps
        ]
