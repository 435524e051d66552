"""Signatures, catalog identification, group orders, Coxeter matrices, survey."""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from rootspin import (
    QScalar,
    RootSystem,
    RootspinError,
    UnknownAngle,
    Vector,
    build_preset,
    coxeter_matrix,
    coxeter_order,
    identify,
    induce_4d,
    signature,
    simple_roots_of,
    vec,
)
from rootspin import classify
from rootspin.classify import catalog, survey
from rootspin.presets import PHI, a1_system, direct_sum

HALF = Fraction(1, 2)


def _spectrum_counts(sig):
    return dict(sig.spectrum)


class TestSignature:
    def test_octahedron_spectrum(self):
        sig = signature(build_preset("A1xA1xA1"))
        assert sig.count == 6
        counts = _spectrum_counts(sig)
        assert counts[("r", Fraction(-1))] == 6
        assert counts[("r", Fraction(0))] == 24
        assert sig.components == (2, 2, 2)

    def test_sixteen_cell_spectrum(self):
        sig = signature(induce_4d(build_preset("A1xA1xA1")))
        assert sig.count == 8
        counts = _spectrum_counts(sig)
        assert counts[("r", Fraction(-1))] == 8
        assert counts[("r", Fraction(0))] == 48

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
        # the order is never found by closing the group, so no cap applies
        monkeypatch.setenv("ROOTSPIN_CAP", "10")
        assert coxeter_order(build_preset("H4")) == 14400

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
