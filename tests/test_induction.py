"""Rotor groups, the 3D->4D induction, and 2D self-duality."""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootspin import (
    ClosureCapExceeded,
    DimensionMismatch,
    FieldMismatch,
    Multivector,
    NonUnitVector,
    QScalar,
    RootSystem,
    RootspinError,
    Rotor,
    RotorGroup,
    Vector,
    build_preset,
    check_self_dual,
    generate_rotor_group,
    induce_2d,
    induce_4d,
    normalize_roots,
    signature,
    spinor_to_vec2,
    spinor_to_vec4,
    vec,
    verify_root_axioms,
)
from rootspin import induction, roots
from _util import even_from_numerators
from test_frames import rotated, rotations
from rootspin.lattice import (
    EVEN_BY_EVEN,
    VECTOR_BY_VECTOR,
    field_disc,
    int_numerators,
    int_product,
    int_vector_product,
    negated,
)
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
        message = f"rotor group needs 3D vectors, got dimensions {dims}"
        with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
            generate_rotor_group(units)

    def test_an_empty_rotor_group_is_refused(self):
        with pytest.raises(RootspinError, match="^a rotor group needs at least one element$"):
            RotorGroup([])

    def test_a_set_not_closed_under_the_product_is_refused(self):
        # {+-1, +-e1e2, +-e2e3} holds 1 and every negative, but e1e2 e2e3 = e1e3
        e12, e23 = (Multivector.basis_vector(i, 3) * Multivector.basis_vector(i + 1, 3)
                    for i in (1, 2))
        elements = [Rotor(m) for x in (ONE3, e12, e23) for m in (x, -x)]
        message = "rotor group not closed under the product at Rotor(-1*e1e2) * Rotor(-1*e2e3)"
        with pytest.raises(RootspinError, match=f"^{re.escape(message)}$"):
            RotorGroup(elements)
        quaternions = RotorGroup(elements + [Rotor(m) for m in (e12 * e23, -(e12 * e23))])
        assert quaternions.order == 8

    def test_a_cl2_rotor_group_checks_the_product_too(self):
        # Cl(2) rotors a + b e1e2: {+-1, +-e1e2} is cyclic of order 4, and
        # (3/5 + 4/5 e1e2)^2 = -7/25 + 24/25 e1e2 leaves {+-1, +-(3/5 + 4/5 e1e2)}
        one, e12 = Multivector.scalar(1, 2), Multivector(2, [0, 0, 0, 1])
        assert RotorGroup([Rotor(m) for x in (one, e12) for m in (x, -x)]).order == 4
        turn = Multivector(2, [Fraction(3, 5), 0, 0, Fraction(4, 5)])
        message = ("rotor group not closed under the product at "
                   "Rotor(-3/5 + -4/5*e1e2) * Rotor(-3/5 + -4/5*e1e2)")
        with pytest.raises(RootspinError, match=f"^{re.escape(message)}$"):
            RotorGroup([Rotor(m) for x in (one, turn) for m in (x, -x)])

    def test_closure_under_product_spot_check(self):
        grp = generate_rotor_group(normalize_roots(build_preset("A3")))
        elems = list(grp)[:8]
        for a, b in itertools.product(elems, repeat=2):
            assert a.mv * b.mv in grp

    def test_overflow_names_the_infinite_group(self):
        mirrors = [vec(1, 0, 0), vec(Fraction(3, 5), Fraction(4, 5), 0), vec(0, 0, 1)]
        # the rotors are read off the roots' reflection closure, which overflows first
        with pytest.raises(OverflowError, match="reflection closure overflowed .* "
                           "likely generates an infinite group") as info:
            generate_rotor_group(mirrors)
        assert isinstance(info.value.__cause__, OverflowError)

    def test_cap_is_checked_on_every_insertion(self, monkeypatch):
        units = normalize_roots(build_preset("H3"))
        monkeypatch.setattr(induction, "GROUP_CLOSURE_CAP", 120)
        assert generate_rotor_group(units).order == 120
        monkeypatch.setattr(induction, "GROUP_CLOSURE_CAP", 119)
        with pytest.raises(ClosureCapExceeded,
                           match="^rotor group exceeded cap of 119 elements$"):
            generate_rotor_group(units)

    def test_cap_bounds_the_work(self, monkeypatch):
        calls, admitted = [], []
        real_admit = induction.admit

        def counting(*args):
            calls.append(args)
            return int_vector_product(*args)

        def counting_admit(x, *args):
            admitted.append(x)
            real_admit(x, *args)

        monkeypatch.setattr(induction, "int_vector_product", counting)
        monkeypatch.setattr(induction, "admit", counting_admit)
        monkeypatch.setattr(induction, "GROUP_CLOSURE_CAP", 10)
        with pytest.raises(ClosureCapExceeded):
            generate_rotor_group(normalize_roots(build_preset("H3")))
        # cap + 1 elements: a new product x brings -x, its reverse and the reverse's
        # negative, 2 + 2 + 4 + 0 (already met) + 3 of 4 elements over 5 products;
        # H3's full work is 15 x 16 / 2 products
        assert len(admitted) == 11
        assert len(calls) == 5

    def test_infinite_group_hits_the_cap_before_overflow(self, monkeypatch):
        # the mirrors are not reflection-closed, so their closure runs, under its cap
        mirrors = [vec(1, 0, 0), vec(Fraction(3, 5), Fraction(4, 5), 0), vec(0, 0, 1)]
        monkeypatch.setattr(roots, "ROOT_CLOSURE_CAP", 50)
        with pytest.raises(ClosureCapExceeded, match="cap of 50 roots"):
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

    def test_induction_builds_no_qscalar(self, fresh_lattices):
        b3 = build_preset("B3")
        copy = RootSystem([r.scale(3) for r in b3.roots], b3.disc)  # nothing stored
        made = []
        init = QScalar.__init__

        def counted_init(self, *args, **kwargs):  # every QScalar is built here
            made.append(args)
            init(self, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(QScalar, "__init__", counted_init)
            induced = induce_4d(copy)
        assert made == []
        assert induced.rows == induce_4d(b3).rows and len(induced) == 48


class TestNonClosedInput:
    """An input that is not reflection-closed induces the group its roots generate."""

    @pytest.mark.parametrize("negatives", [False, True], ids=["simple", "simple-and-negatives"])
    @pytest.mark.parametrize("name", ["A3", "B3", "H3", "A1xI2-6"])
    def test_simple_roots_induce_the_presets_set(self, name, negatives):
        preset = get_preset(name)
        seed = list(preset.simple_roots)
        if negatives:
            seed += [-s for s in seed]
        rs = RootSystem(seed, disc=preset.disc)
        assert any(-1 in row for row in rs.lattice.reflection_table())
        assert induce_4d(rs).rows == induce_4d(build_preset(name)).rows

    def test_a_rank_1_input_induces_the_lift_of_the_trivial_rotation_group(self):
        # {+-a} generates {1, s_a}, whose only rotation is 1, lifted to +-1
        induced = induce_4d(RootSystem([vec(1, 0, 0)], disc=1))
        assert induced.roots == (vec(-1, 0, 0, 0), vec(1, 0, 0, 0))
        assert {r.mv for r in generate_rotor_group([vec(1, 0, 0)])} == {ONE3, -ONE3}


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


def _paper_spinor_images(rs):
    """{alpha_1 alpha_i} for each choice of alpha_1, as sets of 2D vectors, by the
    paper's route: each root scaled by the inverse of its QScalar norm, the products
    taken as Cl(2) Multivectors and read out with spinor_to_vec2."""
    units = [Multivector.from_vector(r.scale(r.norm_squared().sqrt().inverse()))
             for r in rs.roots]
    return [{spinor_to_vec2(first * u) for u in units} for first in units]


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_induce_2d_is_alpha_1_alpha_i_for_every_alpha_1(n):
    rs = build_preset(f"I2-{n}")
    scaled = RootSystem([r.scale(Fraction(7, 3)) for r in rs.roots], rs.disc)
    for copy in (rs, scaled):
        images = _paper_spinor_images(copy)
        assert len(images) == 2 * n
        assert all(image == set(induce_2d(copy).roots) for image in images)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
@settings(max_examples=4)
@given(r=rotations(2))
def test_induce_2d_of_a_rotated_copy_is_alpha_1_alpha_i(n, r):
    # a rotation of the plane keeps the angle between two roots, so the spinor
    # image of a rotated copy is the image of the preset itself
    rs = build_preset(f"I2-{n}")
    moved = rotated(r, rs)
    expected = set(induce_2d(rs).roots)
    assert set(induce_2d(moved).roots) == expected
    assert all(image == expected for image in _paper_spinor_images(moved))


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


@pytest.fixture
def products(monkeypatch):
    """The length of each input whose pair products induction.py computes."""
    calls = []
    real = induction.pair_products

    def counted(rs):
        calls.append(len(rs))
        return real(rs)

    monkeypatch.setattr(induction, "pair_products", counted)
    return calls


class TestCacheKeys:
    """The induced set is stored with the input's rows; names come from each caller."""

    def test_relabelled_input_gets_its_own_label(self, products):
        h3 = build_preset("H3")
        first = induce_4d(h3)
        products.clear()
        mine = induce_4d(RootSystem(h3.roots, disc=5, label="mine"))
        assert products == []  # the stored set is read
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

    def test_induce_2d_relabel(self, products, fresh_lattices):
        # as induce_4d's, the 2D result is stored with its input's rows
        i2 = build_preset.__wrapped__("I2-6")
        first = induce_2d(i2)
        assert first.label == "induced(I2-6)"
        assert products == [12]
        products.clear()
        assert induce_2d(i2) == first
        other = induce_2d(RootSystem(i2.roots, disc=3, label="hex"))
        assert products == []  # the stored set is read, twice
        assert other.label == "induced(hex)"
        assert other.provenance.induced_from == "hex"
        assert other == first and other.roots is first.roots

    def test_one_lattice_per_induced_set(self, monkeypatch, fresh_lattices, products):
        # each input's own record (Lattice) is built with it, so the first axiom check
        # builds only the output's; the stored result and each copy named after a
        # caller keep it, so their signatures read it again.  A rescaled input has
        # rows of its own, so its products run again, but its induced set has the
        # rows of H3's, so it takes the record the stored result holds.
        # H3 is built afresh, so that nothing is stored with its rows yet.
        from rootspin.lattice import Lattice

        h3 = build_preset.__wrapped__("H3")
        other = RootSystem(h3.roots, disc=5, label="other")
        scaled = RootSystem([r.scale(Fraction(7, 3)) for r in h3.roots], disc=5, label="x7/3")
        built = []
        real = Lattice.__init__

        def counted(self, *args):
            built.append((tuple(args[0]), args[1]))
            real(self, *args)

        monkeypatch.setattr(Lattice, "__init__", counted)
        first, second, third = induce_4d(h3), induce_4d(other), induce_4d(scaled)
        assert (first.label, second.label, third.label) == (
            "induced(H3)", "induced(other)", "induced(x7/3)"
        )
        assert products == [30, 30]  # h3 and scaled; other reads h3's stored set
        assert signature(first) == signature(second) == signature(third)
        assert [len(rows) for rows, _ in built] == [120]

    def test_caches_are_bounded(self):
        assert build_preset.cache_info().maxsize is not None


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
        calls.append(args)
        return int_vector_product(*args)

    monkeypatch.setattr(induction, "int_vector_product", counting)
    generate_rotor_group(normalize_roots(build_preset("H3")))
    # no closure: one product per unordered pair of H3's 15 +-pair representatives,
    # since b a is the reverse of a b; tests/test_imports.py checks that induction.py
    # calls no other product
    assert len(calls) <= 15 * 16 // 2 == 120


PRODUCT_PRESETS = RANK3_PRESETS[:4] + ("A1xI2-2",) + RANK3_PRESETS[4:]  # the 8 that normalize


@pytest.mark.parametrize("name", PRODUCT_PRESETS)
def test_both_rotor_group_constructors_give_one_order(name):
    # RotorGroup(...) sorts its elements' rows as generate_rotor_group does
    group = generate_rotor_group(normalize_roots(build_preset(name)))
    shuffled = list(group.elements)
    random.Random(len(shuffled)).shuffle(shuffled)
    assert RotorGroup(shuffled).elements == group.elements
    assert RotorGroup(reversed(group.elements)).elements == group.elements


def _reverse(x):
    return x[:2] + negated(x[2:])  # the bivector negated


def _closed_form_is_the_generic_product(a, b, d):
    x = int_vector_product(a, b, d)
    assert x == int_product(a, b, VECTOR_BY_VECTOR, d)
    assert int_vector_product(b, a, d) == _reverse(x)


@pytest.mark.parametrize("name", PRODUCT_PRESETS)
def test_the_closed_form_product_of_unit_roots(name):
    rs = build_preset(name)
    units = [u.row for u in normalize_roots(rs)]
    for a, b in itertools.product(units, repeat=2):
        _closed_form_is_the_generic_product(a, b, rs.disc)


@st.composite
def bounded_rows(draw):
    """Two 3D rows over Q(sqrt(d)), d in {1, 2, 3, 5}, with entries of at most 10^6."""
    d = draw(st.sampled_from((1, 2, 3, 5)))
    entry = st.integers(-10**6, 10**6)

    def row():
        coords = [(draw(entry), draw(entry) if d > 1 else 0) for _ in range(3)]
        return tuple(z for c in coords for z in c) + (draw(st.integers(1, 10**6)),)

    return row(), row(), d


@given(bounded_rows())
def test_the_closed_form_product_of_bounded_rows(case):
    _closed_form_is_the_generic_product(*case)


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
