"""A RootSystem shares one record, its Lattice, with every live set with the same
rows: the canonical order, the decoded roots, the stored facts and the induced set.

A new RootSystem looks (frozenset(rows), disc) up in roots._LATTICES, a
registry of weak references, so a relabelled or shuffled copy takes the
original's record without sorting, and reads its order, its stored
reflection table, angle counts, axiom witnesses and Coxeter order, and its
stored induce_4d result.  These tests check that a shared Lattice gives
exactly what a freshly built one gives, that a rescaled copy (other rows)
sorts and builds its own and gets the same answers, and that the registry
keeps nothing alive after the last RootSystem of its rows is gone.
"""

from __future__ import annotations

import gc
import json
import random
import re
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootspin import (
    NormNotInField,
    QScalar,
    RootSystem,
    build_preset,
    coxeter_order,
    identify,
    induce_4d,
    root_system_from_json,
    root_system_to_json,
    roots,
    signature,
    simple_roots_of,
    verify_root_axioms,
)
from rootspin.cli import main
from rootspin.lattice import Lattice

PRESETS = ("A3", "B3", "H3", "F4")


def scaled(rs, factor, label="scaled"):
    return RootSystem([r.scale(factor) for r in rs.roots], rs.disc, label=label)


def relabelled(rs, label="relabelled"):  # a new instance with the same rows
    return RootSystem(rs.roots, rs.disc, label=label)


def facts(rs) -> tuple:
    """Every Lattice-backed answer on rs, and the induced rows of a 3D set."""
    return (
        signature(rs),
        coxeter_order(rs),
        verify_root_axioms(rs),
        simple_roots_of(rs),
        induce_4d(rs).rows if rs.dim == 3 else None,
    )


def cold(rs, read=facts):
    """read of a new instance of rs with the registry empty: a Lattice and an
    induced set of its own, which go with it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(roots, "_LATTICES", weakref.WeakValueDictionary())
        copy = relabelled(rs, rs.label)
        assert copy.lattice is not rs.lattice
        return read(copy)


@settings(max_examples=80)
@given(
    name=st.sampled_from(PRESETS),
    factor=st.fractions(min_value=Fraction(1, 97), max_value=97, max_denominator=97).filter(
        lambda f: f > 0
    ),
)
def test_a_relabelled_copy_shares_the_lattice_and_a_rescaled_one_builds_its_own(name, factor):
    base = relabelled(build_preset(name), name)  # a new instance: its Lattice is the registry's
    warm = facts(base)
    copy, big = relabelled(base), scaled(base, factor)
    assert copy.lattice is base.lattice
    assert (big.lattice is base.lattice) == (factor == 1)
    assert facts(copy) == warm == cold(base)
    sig, order, report, simple, induced = warm
    assert facts(big) == (sig, order, report, [r.scale(factor) for r in simple], induced)


def test_the_same_integer_rows_over_another_field_share_nothing(fresh_lattices):
    # H3's integer rows read over Q(sqrt 2) are other vectors: not a root system.
    # Loaded first and kept alive, they must not lend their facts to H3, nor H3 its to them
    doc = json.loads(root_system_to_json(build_preset("H3")))
    doc["disc"] = 2
    other = root_system_from_json(json.dumps(doc))
    report = verify_root_axioms(other)
    assert report.axiom1_ok and not report.axiom2_ok
    assert identify(signature(other)) == "unrecognized"
    h3 = build_preset.__wrapped__("H3")  # a fresh instance, with the same rows
    assert other.rows == h3.rows and (other.disc, h3.disc) == (2, 5)
    assert verify_root_axioms(h3).ok
    assert identify(signature(h3)) == "H3" and coxeter_order(h3) == 120


def test_a_copy_reads_the_originals_table_and_counts():
    h3 = build_preset.__wrapped__("H3")  # a fresh instance
    copy = relabelled(h3)
    assert copy.lattice is h3.lattice
    assert copy.lattice.reflection_table() is h3.lattice.reflection_table()
    assert copy.lattice.angle_counts() is h3.lattice.angle_counts()


def test_a_lattice_goes_with_its_last_root_system(sorts):
    rs = scaled(build_preset("H3"), Fraction(11, 13))  # rows no other live set holds
    copy = relabelled(rs)
    key = frozenset(rs.rows), rs.disc
    ref = weakref.ref(roots._LATTICES[key])
    assert rs.lattice is copy.lattice is ref()  # one record, registered with the rows
    del rs
    gc.collect()
    assert ref() is roots._LATTICES[key] is copy.lattice  # the copy holds it
    rows, disc = copy.rows, copy.disc
    del copy
    gc.collect()
    assert ref() is None and key not in roots._LATTICES
    sorts.clear()
    again = RootSystem._from_rows(rows, disc)  # the same rows, now no live set's
    assert sorts == [30] and again.rows == rows


def test_a_stored_induced_set_goes_with_its_last_root_system(fresh_lattices):
    # rows no other live set holds, and an empty registry, so the induced set's
    # record is its own: only the input's record holds it
    rs = scaled(build_preset("H3"), Fraction(11, 13))
    induced = induce_4d(rs)
    copy = relabelled(rs)
    assert induce_4d(copy).rows is induced.rows  # the stored set, named after the copy
    ref = weakref.ref(induced.lattice)
    key = frozenset(induced.rows), induced.disc
    del induced, rs
    gc.collect()
    assert ref() is fresh_lattices[key]  # the copy's record holds it
    del copy
    gc.collect()
    assert ref() is None and key not in fresh_lattices


@pytest.fixture
def sorts(monkeypatch):
    """The length of each row list roots.py sorts."""
    calls = []
    real = roots.sorted_numerators

    def counted(xs, disc):
        calls.append(len(xs))
        return real(xs, disc)

    monkeypatch.setattr(roots, "sorted_numerators", counted)
    return calls


@pytest.mark.parametrize("name", PRESETS)
def test_a_relabelled_or_shuffled_copy_takes_the_live_order_and_lattice(name, sorts):
    rs = build_preset(name)
    shuffled = list(rs.roots)
    random.Random(len(rs)).shuffle(shuffled)
    sorts.clear()
    for copy in (RootSystem(rs.roots, rs.disc, label="copy"), RootSystem(shuffled, rs.disc)):
        assert sorts == []
        assert copy.rows is rs.rows and copy.lattice is rs.lattice and copy.roots is rs.roots
    big = scaled(rs, 3)
    assert sorts == [len(rs)]
    assert big.lattice is not rs.lattice


def test_the_axiom_witnesses_are_the_same_first_second_and_relabelled():
    a3 = build_preset("A3")
    r = a3.roots[0]
    doubled = RootSystem([r.scale(2), (-r).scale(2), *a3.roots[1:-1]], a3.disc)
    missing = RootSystem(a3.roots[1:], a3.disc)  # -a3.roots[0] is the last root
    for rs in (doubled, missing):
        first = verify_root_axioms(rs)
        assert not first.ok
        assert verify_root_axioms(rs) == first == verify_root_axioms(relabelled(rs))
    assert verify_root_axioms(missing).axiom1_witness == (-r, r)


def test_the_coxeter_order_of_a_relabelled_copy_reads_no_table(monkeypatch):
    h3 = build_preset("H3")
    order = coxeter_order(h3)

    def refuse(self):
        raise AssertionError("the reflection table was read")

    monkeypatch.setattr(Lattice, "reflection_table", refuse)
    assert coxeter_order(relabelled(h3)) == order == 120
    assert coxeter_order(h3) == order


def test_one_doubled_pair_has_its_own_lattice_and_still_fails_axiom_2():
    a3 = build_preset("A3")
    r = a3.roots[0]
    broken = RootSystem([r.scale(2), (-r).scale(2), *a3.roots[1:-1]], a3.disc)
    assert -r == a3.roots[-1] and len(broken) == len(a3)
    verify_root_axioms(a3)  # the original's Lattice is built
    assert broken.lattice is not a3.lattice
    report = verify_root_axioms(broken)
    assert report.axiom1_ok and not report.axiom2_ok
    assert cold(broken, verify_root_axioms) == report
    factor = Fraction(5, 3)  # the witnesses of a rescaled copy are the rescaled witnesses
    big = verify_root_axioms(scaled(broken, factor))
    assert not big.axiom2_ok
    assert big.axiom2_witness == tuple(v.scale(factor) for v in report.axiom2_witness)


def test_a_golden_multiple_is_a_miss_with_equal_answers():
    h3 = build_preset("H3")
    phi = QScalar(Fraction(1, 2), Fraction(1, 2), 5)
    big = scaled(h3, phi)
    sig, order, report, simple, induced = facts(h3)
    assert big.lattice is not h3.lattice and big.lattice.induced is None
    assert facts(big) == (sig, order, report, [r.scale(phi) for r in simple], induced)
    # computed for big's own rows; the induced set has H4's unit rows, so it takes the
    # record h3's stored result holds, and its check reads that record's verdict
    assert big.lattice.induced is h3.lattice.induced is induce_4d(h3).lattice


def test_an_induction_error_is_the_same_warm_and_cold(capsys):
    argv = ["induce", "--preset", "A1xI2-8"]
    cold = main(argv), capsys.readouterr()
    assert main(["classify", "--preset", "A1xI2-8"]) == 0  # the preset's Lattice is built
    capsys.readouterr()
    warm = main(argv), capsys.readouterr()
    assert warm == cold
    assert cold[0] == 2 and cold[1].out == ""
    assert cold[1].err == (
        "rootspin: NormNotInField: squared norm 4-2*sqrt(2) of (0, -1, 1-sqrt(2)) "
        "has no square root in its field\n"
    )


def test_an_induction_error_names_the_callers_own_roots():
    rs = build_preset("A1xI2-8")
    for factor, root in ((1, "(0, -1, 1-sqrt(2))"), (3, "(0, -3, 3-3*sqrt(2))")):
        with pytest.raises(NormNotInField, match=re.escape(f" of {root} has no square root")):
            induce_4d(scaled(rs, factor))
