"""Signatures, catalog identification, group orders, Coxeter matrices, survey."""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootspin import (
    DimensionMismatch,
    QScalar,
    RootSystem,
    RootspinError,
    UnknownAngle,
    Vector,
    ZeroRoot,
    build_preset,
    close_under_reflections,
    coxeter_matrix,
    coxeter_order,
    identify,
    induce_4d,
    signature,
    simple_roots_of,
    vec,
)
from rootspin import classify, induction, roots
from rootspin.classify import catalog, survey
from rootspin.presets import PHI, a1_system, direct_sum, get_preset

HALF = Fraction(1, 2)


def _spectrum_counts(sig):
    return dict(sig.spectrum)


class TestSignature:
    def test_octahedron_spectrum(self):
        sig = signature(build_preset("A1xA1xA1"))
        assert sig.count == 6
        counts = _spectrum_counts(sig)
        assert counts[-1, 0, 1, 1] == 6  # the key (s, t, r, e) of -1
        assert counts[0, 0, 1, 1] == 24
        assert sig.components == (2, 2, 2)

    def test_sixteen_cell_spectrum(self):
        sig = signature(induce_4d(build_preset("A1xA1xA1")))
        assert sig.count == 8
        counts = _spectrum_counts(sig)
        assert counts[-1, 0, 1, 1] == 8
        assert counts[0, 0, 1, 1] == 48

    def test_invariant_under_signed_permutations(self):
        rng = random.Random(31)
        rs = build_preset("B3")
        base_sig = signature(rs)
        for _ in range(6):
            perm = list(range(3))
            rng.shuffle(perm)
            signs = [rng.choice((1, -1)) for _ in range(3)]
            transformed = RootSystem(
                [
                    Vector([r.coords[perm[k]] * signs[k] for k in range(3)], disc=2)
                    for r in rs
                ],
                disc=2,
            )
            assert signature(transformed) == base_sig

    def test_distinguishes_same_count_systems(self):
        # 24 roots each, but D4 is irreducible while G2+G2 splits
        d4 = signature(build_preset("D4"))
        g2g2 = signature(direct_sum(build_preset("I2-6"), build_preset("I2-6")))
        assert d4.count == g2g2.count == 24
        assert d4 != g2g2
        assert d4.components == (24,)
        assert g2g2.components == (12, 12)


PRESETS = (
    "A1xA1xA1", "A3", "B3", "H3", "D4", "F4", "H4",
    *(f"{family}-{n}" for family in ("I2", "A1xI2") for n in (2, 3, 4, 6, 8, 12)),
)


def b4_system():
    """B4 over Q: 32 roots; the long ones have squared norm 2, which has no square
    root in Q, so the set has no unit normalisation over Q."""
    simple = [vec(1, -1, 0, 0), vec(0, 1, -1, 0), vec(0, 0, 1, -1), vec(0, 0, 0, 1)]
    return close_under_reflections(simple, disc=1, label="B4")


class TestAngleKey:
    def test_classification_takes_no_square_root(self, monkeypatch):
        systems = [build_preset(name) for name in PRESETS]
        entries = {
            name: [a1_system() if p == "A1" else build_preset(p) for p in parts]
            for name, (_, parts) in classify._catalog_table().items()
        }

        def refuse(*args):
            raise AssertionError("classification took a square root")

        monkeypatch.setattr(QScalar, "sqrt", refuse)
        monkeypatch.setattr(roots, "unit_rows", refuse)
        catalog.cache_clear()
        for name, sig in catalog():
            assert identify(sig) == name
            parts = entries[name]
            coxeter_order(parts[0] if len(parts) == 1 else direct_sum(*parts))
        for rs in systems:
            identify(signature(rs))
            coxeter_order(rs)

    def test_b4_over_q(self):
        b4 = b4_system()
        assert len(b4) == 32 and coxeter_order(b4) == 384
        sig = signature(b4)
        assert (sig.dim, sig.count, len(sig.spectrum), sig.components) == (4, 32, 6, (32,))
        assert identify(sig) == "unrecognized"

    def test_a_squared_cosine_past_64_bits_is_a_key(self):
        # the rows lie well inside 64 bits, the squared cosine's numerator and
        # denominator do not; the set is not reflection-closed
        a, b = vec(100003, 99991, 0), vec(99989, 7, 0)
        sig = signature(RootSystem([a, -a, b, -b], disc=1))
        dot = 100003 * 99989 + 99991 * 7
        value = Fraction(dot * dot, (100003**2 + 99991**2) * (99989**2 + 7**2))
        assert value.numerator > 2**63
        assert dict(sig.spectrum) == {
            (-1, 0, 1, 1): 4,
            (value.numerator, 0, value.denominator, 1): 4,
            (-value.numerator, 0, value.denominator, 1): 4,
        }
        assert sig.components == (4,)
        assert identify(sig) == "unrecognized"

    def test_a_rational_set_read_over_another_field_keeps_its_signature(self):
        # a rational value has one key in every field
        rs = build_preset("A1xA1xA1")
        over5 = RootSystem(rs.roots, disc=5)
        assert over5.disc == 5 and over5.lattice is not rs.lattice
        assert signature(over5) == signature(rs)

    def test_the_angle_readers_build_no_qscalar(self, fresh_lattices):
        h3 = build_preset("H3")
        copy = RootSystem([r.scale(3) for r in h3.roots], h3.disc)  # a Lattice of its own
        simple = simple_roots_of(h3)
        made = []
        init = QScalar.__init__

        def counted_init(self, *args, **kwargs):  # every QScalar is built here
            made.append(args)
            init(self, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(QScalar, "__init__", counted_init)
            sig, cm = signature(copy), coxeter_matrix(simple)
        assert made == []
        assert identify(sig) == "H3"
        assert cm.entries == ((1, 2, 5), (2, 1, 3), (5, 3, 1))

    @pytest.mark.parametrize("name", [*PRESETS, "B4"])
    @settings(max_examples=4)
    @given(data=st.data())
    def test_unchanged_when_single_roots_are_scaled(self, name, data):
        rs = b4_system() if name == "B4" else build_preset(name)
        scales = data.draw(st.lists(
            st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9),
            min_size=len(rs), max_size=len(rs),
        ))
        scaled = RootSystem([r.scale(c) for r, c in zip(rs.roots, scales)], disc=rs.disc)
        assert signature(scaled) == signature(rs)


class TestIdentify:
    def test_catalog_round_trip(self):
        # every catalog member is recognized as itself and nothing else
        seen = {}
        for name, sig in catalog():
            assert identify(sig) == name
            assert sig not in seen, f"{name} collides with {seen.get(sig)}"
            seen[sig] = name

    @pytest.mark.parametrize(
        "source,expected",
        [
            ("A1xA1xA1", "A1xA1xA1xA1"),
            ("A3", "D4"),
            ("B3", "F4"),
            ("H3", "H4"),
            ("A1xI2-3", "I2-3xI2-3"),
            ("A1xI2-4", "I2-4xI2-4"),
            ("A1xI2-6", "I2-6xI2-6"),
        ],
    )
    def test_induced_identifications(self, source, expected):
        assert identify(signature(induce_4d(build_preset(source)))) == expected

    def test_unrecognized_is_a_value(self):
        lonely = RootSystem([vec(1, 0, 0), vec(-1, 0, 0)], disc=1)
        assert identify(signature(lonely)) == "unrecognized"


class TestCatalogIndex:
    def test_keys_match_the_built_signatures(self):
        table = classify._catalog_table()
        assert [name for name, _ in catalog()] == list(table)
        for name, sig in catalog():
            assert table[name][0] == (sig.dim, sig.count), name
        shared = Counter(key for key, _ in table.values())
        assert {key for key, n in shared.items() if n > 1} == {(4, 12), (4, 16), (4, 24)}
        assert max(shared.values()) == 2

    @pytest.mark.parametrize("name,computed", [("H4", 1), ("D4", 2)])
    def test_identify_computes_only_the_candidates(self, name, computed):
        sig = signature(build_preset(name))
        catalog.cache_clear()
        assert identify(sig) == name
        assert catalog.cache_info().misses == computed

    def test_unrecognized_with_two_candidates(self):
        padded = RootSystem(
            [Vector(r.coords + (QScalar(0),), disc=2) for r in build_preset("A3").roots],
            disc=2,
        )
        sig = signature(padded)
        assert (sig.dim, sig.count, sig.components) == (4, 12, (12,))
        catalog.cache_clear()
        assert identify(sig) == "unrecognized"
        assert catalog.cache_info().misses == 2

    def test_unrecognized_key_computes_nothing(self):
        lonely = RootSystem([vec(1, 0, 0), vec(-1, 0, 0)], disc=1)
        catalog.cache_clear()
        assert identify(signature(lonely)) == "unrecognized"
        assert catalog.cache_info().misses == 0

    def test_cache_clear_starts_cold(self):
        sig = signature(build_preset("F4"))
        identify(sig)
        identify(sig)
        assert catalog.cache_info().misses >= 1 and catalog.cache_info().hits >= 1
        catalog.cache_clear()
        assert catalog.cache_info().currsize == 0
        assert identify(sig) == "F4"
        assert catalog.cache_info().misses == 1

    def test_catalog_and_identify_share_one_memo(self):
        catalog.cache_clear()
        identify(signature(build_preset("H3")))
        assert len(catalog()) == 26
        assert catalog.cache_info().misses == 26
        assert catalog.cache_info().currsize == 26


class TestCoxeterOrder:
    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 12])
    def test_dihedral_orders(self, n):
        rs = build_preset(f"I2-{n}")
        assert coxeter_order(rs) == 2 * n == len(rs)

    @pytest.mark.parametrize(
        "name,order",
        [("A1xA1xA1", 8), ("A3", 24), ("B3", 48), ("H3", 120)],
    )
    def test_rank3_orders(self, name, order):
        assert coxeter_order(build_preset(name)) == order

    @pytest.mark.parametrize(
        "source,order",
        [("A1xA1xA1", 16), ("A3", 192), ("B3", 1152)],
    )
    def test_induced_orders(self, source, order):
        assert coxeter_order(induce_4d(build_preset(source))) == order

    @pytest.mark.parametrize(
        "parts,order",
        [
            (("H3", "A1"), 240),
            (("I2-3", "I2-6"), 72),
            (("I2-4", "A1", "A1"), 32),
            (("A1", "A1", "A1", "A1"), 16),
        ],
    )
    def test_direct_sum_orders(self, parts, order):
        systems = [a1_system() if p == "A1" else build_preset(p) for p in parts]
        assert coxeter_order(direct_sum(*systems)) == order

    @pytest.mark.parametrize(
        "roots,order",
        [
            ([vec(1), vec(-1), vec(2), vec(-2)], 2),  # non-reduced {+-a, +-2a}
            ([vec(1, 0, 0), vec(-1, 0, 0), vec(0, 1, 0), vec(0, -1, 0)], 4),  # rank 2 in 3D
        ],
    )
    def test_degenerate_sets(self, roots, order):
        assert coxeter_order(RootSystem(roots, disc=1)) == order

    def test_not_reflection_closed_rejected(self):
        rs = RootSystem([vec(1, 0), vec(-1, 0), vec(1, 1), vec(-1, -1)], disc=1)
        with pytest.raises(RootspinError, match="is not reflection-closed at root"):
            coxeter_order(rs)

    def test_h4_order_ignores_the_closure_cap(self, monkeypatch):
        # the order is never found by closing the group, so no cap applies:
        # a fresh H4 gets its order with every closure insertion refused
        h4 = RootSystem(build_preset("H4").roots, disc=5)

        def refused(*args):
            raise AssertionError("a closure ran")

        for module in (roots, induction):
            monkeypatch.setattr(module, "admit", refused)
        assert coxeter_order(h4) == 14400

    def test_double_cover_accounting(self):
        # the induced root count equals the source's full Coxeter order
        for name in ("A1xA1xA1", "A3", "B3", "H3"):
            assert len(induce_4d(build_preset(name))) == coxeter_order(
                build_preset(name)
            )


class TestSimpleRoots:
    def test_octahedron_gives_orthogonal_triple(self):
        simple = simple_roots_of(build_preset("A1xA1xA1"))
        assert len(simple) == 3
        for a, b in itertools.combinations(simple, 2):
            assert a.dot(b).is_zero()

    def test_a3_chain_angles(self):
        simple = simple_roots_of(build_preset("A3"))
        assert len(simple) == 3
        cm = coxeter_matrix(simple)
        labels = sorted(
            cm.entries[i][j] for i in range(3) for j in range(i + 1, 3)
        )
        assert labels == [2, 3, 3]

    def test_sixteen_cell_gives_orthogonal_quadruple(self):
        simple = simple_roots_of(induce_4d(build_preset("A1xA1xA1")))
        assert len(simple) == 4
        for a, b in itertools.combinations(simple, 2):
            assert a.dot(b).is_zero()

    def test_closure_of_simple_roots_recovers_the_system(self):
        from rootspin import close_under_reflections

        for name in ("A3", "B3", "H3", "H4"):
            rs = build_preset(name)
            simple = simple_roots_of(rs)
            closed = close_under_reflections(simple, disc=rs.disc)
            assert set(closed.roots) == set(rs.roots)


class TestCoxeterMatrix:
    def test_orthogonal_pair_is_label_two(self):
        cm = coxeter_matrix([vec(1, 0), vec(0, 1)])
        assert cm.entries == ((1, 2), (2, 1))

    def test_zero_vector_is_refused(self):
        # a zero vector has no angle; its inner product 0 would read as label 2
        with pytest.raises(ZeroRoot):
            coxeter_matrix([vec(0, 0), vec(1, 0)])

    def test_h3_five_label(self):
        simple = simple_roots_of(build_preset("H3"))
        cm = coxeter_matrix(simple)
        flat = sorted(
            cm.entries[i][j] for i in range(3) for j in range(i + 1, 3)
        )
        assert flat == [2, 3, 5]
        # numeric cross-check of the defining identity: -cos(pi/5) = -phi/2
        assert math.isclose(-math.cos(math.pi / 5), -float(PHI) / 2, abs_tol=1e-15)

    @pytest.mark.parametrize(
        "name,expected",
        [("A3", [2, 3, 3]), ("B3", [2, 3, 4]), ("H3", [2, 3, 5])],
    )
    def test_preset_diagrams(self, name, expected):
        simple = simple_roots_of(build_preset(name))
        cm = coxeter_matrix(simple)
        flat = sorted(cm.entries[i][j] for i in range(3) for j in range(i + 1, 3))
        assert flat == expected

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("D4", ((1, 3, 2, 2), (3, 1, 3, 3), (2, 3, 1, 2), (2, 3, 2, 1))),
            ("F4", ((1, 3, 2, 2), (3, 1, 4, 2), (2, 4, 1, 3), (2, 2, 3, 1))),
            ("H4", ((1, 3, 2, 2), (3, 1, 3, 2), (2, 3, 1, 5), (2, 2, 5, 1))),
        ],
    )
    def test_rank4_preset_simple_roots_give_their_diagrams(self, name, expected):
        assert coxeter_matrix(get_preset(name).simple_roots).entries == expected

    @pytest.mark.parametrize("n", [3, 4, 6, 8, 12])
    def test_dihedral_labels(self, n):
        simple = simple_roots_of(build_preset(f"I2-{n}"))
        cm = coxeter_matrix(simple)
        assert cm.entries[0][1] == n

    def test_unknown_angle(self):
        with pytest.raises(UnknownAngle):
            coxeter_matrix([vec(1, 0), vec(-4, 1)])

    def test_positive_inner_product_rejected(self):
        with pytest.raises(UnknownAngle):
            coxeter_matrix([vec(1, 0), vec(1, 1)])

    def test_a_pair_of_i2_8_at_five_eighths_of_pi_is_not_simple(self):
        # its reflections generate all of I2(8), whose simple pair is at 7pi/8
        roots = build_preset("I2-8").roots
        a = roots[0]
        b = next(b for b in roots if math.isclose(_float_angle(a, b), 5 * math.pi / 8))
        with pytest.raises(UnknownAngle):
            coxeter_matrix([a, b])

    def test_a_root_and_its_negative_are_not_simple(self):
        a = build_preset("H3").roots[0]
        with pytest.raises(UnknownAngle):
            coxeter_matrix([a, -a])

    def test_a_mixed_dimension_pair_is_refused(self):
        with pytest.raises(DimensionMismatch):
            coxeter_matrix([vec(1, 0), vec(0, 1, 0)])

    @pytest.mark.parametrize("case", ["H4", "I2-8 at 5pi/8"])
    def test_the_labels_build_no_lattice(self, monkeypatch, case):
        # a label is read on the pair's own rows: no RootSystem, so no record
        from rootspin.lattice import Lattice

        if case == "H4":
            simple, expected = get_preset("H4").simple_roots, 5
        else:
            i28 = build_preset("I2-8").roots
            simple = [i28[0], next(b for b in i28 if math.isclose(
                _float_angle(i28[0], b), 5 * math.pi / 8))]
            expected = UnknownAngle
        registered, built, init = set(roots._LATTICES), [], Lattice.__init__  # keys only

        def counted(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(Lattice, "__init__", counted)
        try:
            answer = max(max(row) for row in coxeter_matrix(simple).entries)
        except UnknownAngle as exc:
            answer = type(exc)
        assert answer == expected
        assert built == [] and set(roots._LATTICES) == registered

    @pytest.mark.parametrize("name", ["B3", "H3", "F4", "H4", "I2-8"])
    def test_a_large_scale_keeps_the_labels(self, name):
        # (a|b)^2 of the scaled roots passes 64 bits; the angle key is scale-free
        simple = simple_roots_of(build_preset(name))
        scaled = [r.scale(Fraction(2**40 + 1, 3)) for r in simple]
        assert coxeter_matrix(scaled) == coxeter_matrix(simple)

    def test_two_lengths_on_each_line_still_give_the_label(self):
        # (1, 0) and (-1, sqrt3) close to 12 roots, two on each of six lines: still A2
        cm = coxeter_matrix([vec(1, 0), Vector((QScalar(-1), QScalar.sqrt_disc(3)))])
        assert cm.entries == ((1, 3), (3, 1))

    @pytest.mark.parametrize("name", [n for n in PRESETS if len(build_preset(n)) <= 48])
    def test_every_pair_of_roots_matches_a_float_angle(self, name):
        # an independent route: a pair is simple with label m exactly when its angle is
        # pi - pi/m, read in floats
        roots = build_preset(name).roots
        wrong = []
        for a in roots:
            for b in roots:
                theta = _float_angle(a, b)
                m = math.pi / (math.pi - theta) if theta < math.pi - 1e-9 else 0
                expected = round(m) if round(m) >= 2 and math.isclose(m, round(m)) else None
                try:
                    label = coxeter_matrix([a, b]).entries[0][1]
                except UnknownAngle:
                    label = None
                if label != expected:
                    wrong.append((a, b, label, expected))
        assert wrong == []


def _float_angle(a, b):
    """The angle between a and b from float coordinates and math.acos."""
    x, y = [float(c) for c in a.coords], [float(c) for c in b.coords]
    dot, xx, yy = (sum(p * q for p, q in zip(u, v)) for u, v in ((x, y), (x, x), (y, y)))
    return math.acos(max(-1.0, min(1.0, dot / math.sqrt(xx * yy))))


class TestSurvey:
    def test_rows_and_counterexample(self):
        table = survey()
        by_name = {r.input: r for r in table.rows}
        assert list(by_name) == [
            "A1xA1xA1", "A1xI2-3", "A1xI2-4", "A1xI2-5", "A1xI2-6", "A3", "B3", "H3",
        ]
        assert by_name["A1xA1xA1"].spinor_order == 8
        assert by_name["A1xA1xA1"].induced_name == "A1xA1xA1xA1"
        assert by_name["H3"].root_count == 30
        assert by_name["H3"].spinor_order == 120
        assert by_name["H3"].induced_name == "H4"
        for row in table.rows:
            if row.input == "A1xI2-5":
                assert row.induced_name == "unrealizable"
                assert row.axioms_ok is None
                assert "quadratic field" in row.note
            else:
                assert row.axioms_ok is True
        assert table.counterexample_absent is True
        assert table.counterexample_name == "I2-4xA1xA1"

    def test_a_fresh_survey_builds_one_lattice_per_set_it_reads(self, monkeypatch, fresh_lattices):
        # a record (Lattice) is built with each row set no live set holds: each
        # realizable input (its reflection table says whether it is closed), its
        # induced set (its axiom check's, read again for its signature), each catalog
        # entry computed, the counterexample's included, and the 4 parts of direct
        # sums that are no entry computed (A1, I2-3, I2-4, I2-6), less the 3 induced
        # sets with the rows of the entries A1xA1xA1xA1, I2-6xI2-6 and H4, which take
        # the record of the live set with those rows.  Only A1's is built again, as
        # a1_system is not cached: for each direct sum that takes it when none lives
        from rootspin.lattice import Lattice

        a1 = a1_system().rows
        for cached in (survey, catalog, build_preset):
            cached.cache_clear()
        built = []
        real = Lattice.__init__

        def counted(self, *args):
            built.append((tuple(args[0]), args[1]))
            real(self, *args)

        monkeypatch.setattr(Lattice, "__init__", counted)
        table = survey()
        realizable = [r for r in table.rows if r.spinor_order is not None]
        assert len(realizable) + catalog.cache_info().misses == 16
        assert len(realizable) == 7
        assert len(set(built)) == 7 + 16 + 4 - 3
        assert {rows for rows, n in Counter(rows for rows, _ in built).items() if n > 1} == {a1}

    def test_counterexample_signature_is_computable(self):
        target = direct_sum(build_preset("I2-4"), a1_system(), a1_system())
        sig = signature(target)
        assert sig.count == 12
        assert sig.components == (8, 2, 2)
        assert identify(sig) == "I2-4xA1xA1"

    def test_text_and_csv_outputs(self):
        table = survey()
        text = table.to_text()
        assert "A1xA1xA1xA1" in text and "unrealizable" in text
        csv = table.to_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "input,dim,root_count,spinor_order,induced_name,axioms_ok"
        assert len(lines) == 9
