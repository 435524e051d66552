"""Acceptance suite: one pass/fail line per criterion (run with -s or -rA).

Every comparison is exact; there are no tolerances anywhere.  Three
sub-cases are strict-xfail because the objects they ask for provably do not
exist over any single quadratic field Q(sqrt(d)):

* I2(5) and I2(7) admit no exact planar realization at all (the rotation by
  2*pi/n has matrix entries of degree > 2 over the rationals), which also
  removes the A1 x I2(5) induction input;
* I2(8) closes exactly over Q(sqrt(2)) but its odd orbit has squared norm
  4 - 2*sqrt(2), which is not a square in Q(sqrt(2)), so its roots cannot be
  unit-normalized and the self-duality congruence has no exact formulation.

If any of those ever passes, strict xfail turns the suite red.
"""

from __future__ import annotations

import itertools
import random
import time

import pytest

from rootspin import (
    Multivector,
    NormNotInField,
    NotRepresentable,
    QScalar,
    Vector,
    build_preset,
    check_self_dual,
    coxeter_order,
    generate_rotor_group,
    identify,
    induce_4d,
    normalize_roots,
    reflect,
    root_system_from_json,
    root_system_to_json,
    rotate,
    rotor_from_vectors,
    signature,
    spinor_to_vec4,
    to_off,
    verify_root_axioms,
)
from rootspin.classify import survey
from _util import random_multivector, random_unit_mv, random_vector_mv, unit_pool_3d

CASES = 1000  # per randomized criterion-7 property


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def report_unattainable(criterion: str, reason: str) -> None:
    print(f"[acceptance] {criterion}: UNATTAINABLE - {reason}")


# -- criterion 1: the worked octahedron pipeline -------------------------------


def test_criterion_1_octahedron_pipeline():
    rs = build_preset("A1xA1xA1")
    expected_roots = set()
    for i, s in itertools.product(range(3), (1, -1)):
        coords = [QScalar(0)] * 3
        coords[i] = QScalar(s)
        expected_roots.add(Vector(coords))
    assert set(rs.roots) == expected_roots and len(rs) == 6

    group = generate_rotor_group(normalize_roots(rs))
    assert group.order == 8

    induced = induce_4d(rs)
    expected_cell = set()
    for i, s in itertools.product(range(4), (1, -1)):
        coords = [QScalar(0)] * 4
        coords[i] = QScalar(s)
        expected_cell.add(Vector(coords))
    assert set(induced.roots) == expected_cell

    name = identify(signature(induced))
    axioms = verify_root_axioms(induced)
    report(
        "criterion 1 (A1xA1xA1 pipeline)",
        name == "A1xA1xA1xA1" and axioms.ok,
        f"6 roots -> 8 spinors -> 16-cell, identified {name}, axioms "
        f"{'pass' if axioms.ok else 'fail'}",
    )


# -- criterion 2: the induction table ------------------------------------------


def test_criterion_2_induction_table():
    table = {"A3": (12, 24, "D4"), "B3": (18, 48, "F4"), "H3": (30, 120, "H4")}
    results = []
    ok = True
    for source, (n_roots, n_induced, target) in table.items():
        rs = build_preset(source)
        induced = induce_4d(rs)
        name = identify(signature(induced))
        good = len(rs) == n_roots and len(induced) == n_induced and name == target
        ok = ok and good
        results.append(f"{source}({len(rs)})->{len(induced)} {name}")
    report("criterion 2 (induction table)", ok, "; ".join(results))


# -- criterion 3: every induced set is itself a root system ---------------------

RANK3_CATALOG = [
    "A1xA1xA1",
    "A1xI2-3",
    "A1xI2-4",
    pytest.param(
        "A1xI2-5",
        marks=pytest.mark.xfail(
            strict=True, raises=NotRepresentable,
            reason="I2(5) has no exact realization over a quadratic field",
        ),
    ),
    "A1xI2-6",
    "A3",
    "B3",
    "H3",
]


@pytest.mark.parametrize("name", RANK3_CATALOG)
def test_criterion_3_induced_sets_are_root_systems(name):
    if name == "A1xI2-5":
        report_unattainable(
            "criterion 3 (induced root system, A1xI2-5)",
            "no exact realization over a quadratic field",
        )
    rs = build_preset(name)
    induced = induce_4d(rs)
    axioms = verify_root_axioms(induced)
    even = len(induced) % 2 == 0
    report(
        f"criterion 3 (induced root system, {name})",
        axioms.ok and even,
        f"induced {len(induced)} roots, axioms {'pass' if axioms.ok else 'fail'}, "
        f"order {'even' if even else 'ODD'}",
    )


# -- criterion 4: double-cover accounting ---------------------------------------


def test_criterion_4_double_cover_accounting():
    expected = {
        "A1xA1xA1": 8, "A3": 24, "B3": 48, "H3": 120,
        "A1xI2-3": 12, "A1xI2-4": 16, "A1xI2-6": 24,
    }
    parts = []
    ok = True
    for name, w in expected.items():
        rs = build_preset(name)
        order = coxeter_order(rs)
        induced_count = len(induce_4d(rs))
        good = order == induced_count == w
        ok = ok and good
        parts.append(f"{name}: {induced_count}={order}")
    report("criterion 4 (|induced| = |W|)", ok, "; ".join(parts))


# -- criterion 5: 2D self-duality and |W| = |roots| ------------------------------

SELFDUAL_NS = [
    2,
    3,
    4,
    pytest.param(5, marks=pytest.mark.xfail(
        strict=True, raises=NotRepresentable,
        reason="I2(5) has no exact realization over a quadratic field",
    )),
    6,
    pytest.param(7, marks=pytest.mark.xfail(
        strict=True, raises=NotRepresentable,
        reason="I2(7) has no exact realization over a quadratic field",
    )),
    pytest.param(8, marks=pytest.mark.xfail(
        strict=True, raises=NormNotInField,
        reason="I2(8) closes over Q(sqrt(2)) but cannot be unit-normalized there",
    )),
]

ORDER_NS = [
    2,
    3,
    4,
    pytest.param(5, marks=pytest.mark.xfail(
        strict=True, raises=NotRepresentable,
        reason="I2(5) has no exact realization over a quadratic field",
    )),
    6,
    pytest.param(7, marks=pytest.mark.xfail(
        strict=True, raises=NotRepresentable,
        reason="I2(7) has no exact realization over a quadratic field",
    )),
    8,
]


@pytest.mark.parametrize("n", SELFDUAL_NS)
def test_criterion_5_self_duality(n):
    if n in (5, 7):
        report_unattainable(
            f"criterion 5 (self-duality, I2({n}))",
            "no exact realization over a quadratic field",
        )
    elif n == 8:
        report_unattainable(
            "criterion 5 (self-duality, I2(8))",
            "roots exist over Q(sqrt(2)) but are not unit-normalizable there",
        )
    rs = build_preset(f"I2-{n}")
    result = check_self_dual(rs)
    report(
        f"criterion 5 (self-duality, I2({n}))",
        result.self_dual,
        result.summary(),
    )


@pytest.mark.parametrize("n", ORDER_NS)
def test_criterion_5_dihedral_orders(n):
    if n in (5, 7):
        report_unattainable(
            f"criterion 5 (|W(I2({n}))| = 2n)",
            "no exact realization over a quadratic field",
        )
    rs = build_preset(f"I2-{n}")
    order = coxeter_order(rs)
    report(
        f"criterion 5 (|W(I2({n}))| = 2n = |roots|)",
        order == 2 * n == len(rs),
        f"{order} = {2 * n} = {len(rs)}",
    )


# -- criterion 6: non-existence of a reduction ----------------------------------


def test_criterion_6_nonexistence_survey():
    table = survey()
    inputs = [r.input for r in table.rows]
    assert inputs == ["A1xA1xA1", "A1xI2-3", "A1xI2-4", "A1xI2-5", "A1xI2-6", "A3", "B3", "H3"]
    realizable_ok = all(
        r.axioms_ok for r in table.rows if r.induced_name != "unrealizable"
    )
    unreal = next(r for r in table.rows if r.input == "A1xI2-5")
    report(
        "criterion 6 (non-existence counterexample)",
        table.counterexample_absent and realizable_ok
        and unreal.induced_name == "unrealizable",
        f"I2-4xA1xA1 signature absent from all induced signatures; "
        f"{sum(1 for r in table.rows if r.axioms_ok)} realizable rows verified, "
        f"A1xI2-5 reported unrealizable",
    )


# -- criterion 7: randomized Clifford kernel properties --------------------------


def test_criterion_7_product_associativity():
    rng = random.Random(70)
    for _ in range(CASES):
        dim = rng.choice((2, 3))
        disc = rng.choice((1, 2, 3, 5))
        m = random_multivector(rng, dim, disc)
        n = random_multivector(rng, dim, disc)
        p = random_multivector(rng, dim, disc)
        assert (m * n) * p == m * (n * p)
    report("criterion 7 (product associativity)", True, f"{CASES} exact cases")


def test_criterion_7_reflection_involution():
    rng = random.Random(71)
    pool = unit_pool_3d()
    for _ in range(CASES):
        disc = rng.choice((1, 2, 3, 5))
        a = random_vector_mv(rng, 3, disc)
        n = random_unit_mv(rng, pool[disc])
        assert reflect(reflect(a, n), n) == a
    report("criterion 7 (reflection involution)", True, f"{CASES} exact cases")


def test_criterion_7_rotation_is_two_reflections():
    rng = random.Random(72)
    pool = unit_pool_3d()
    for _ in range(CASES):
        disc = rng.choice((1, 2, 3, 5))
        a = random_vector_mv(rng, 3, disc)
        m = random_unit_mv(rng, pool[disc])
        n = random_unit_mv(rng, pool[disc])
        assert rotate(a, rotor_from_vectors(m, n)) == reflect(reflect(a, n), m)
    report("criterion 7 (rotation = double reflection)", True, f"{CASES} exact cases")


def test_criterion_7_rotor_normalisation():
    rng = random.Random(73)
    pool = unit_pool_3d()
    one = Multivector.scalar(1, 3)
    for _ in range(CASES):
        disc = rng.choice((1, 2, 3, 5))
        r = rotor_from_vectors(
            random_unit_mv(rng, pool[disc]), random_unit_mv(rng, pool[disc])
        )
        assert r.mv * r.mv.reverse() == one
    report("criterion 7 (R~R = 1 for generated rotors)", True, f"{CASES} exact cases")


def test_criterion_7_spinor_norm_formula():
    rng = random.Random(74)
    for _ in range(CASES):
        disc = rng.choice((1, 2, 3, 5))
        m = random_multivector(rng, 3, disc)
        psi = m.grade(0) + m.grade(2)
        coords = spinor_to_vec4(psi).coords
        total = coords[0] * coords[0]
        for c in coords[1:]:
            total = total + c * c
        assert psi * psi.reverse() == Multivector.scalar(total, 3)
    report("criterion 7 (spinor norm formula)", True, f"{CASES} exact cases")


# -- criterion 8: induced 4D Coxeter orders --------------------------------------


def test_criterion_8_induced_group_orders():
    expected = {"A1xA1xA1": 16, "A3": 192, "B3": 1152, "H3": 14400}
    parts = []
    ok = True
    h4_elapsed = None
    for source, order in expected.items():
        induced = induce_4d(build_preset(source))
        start = time.perf_counter()
        # coxeter_order keeps no cache, so this times the full computation
        got = coxeter_order(induced)
        elapsed = time.perf_counter() - start
        if source == "H3":
            h4_elapsed = elapsed
        ok = ok and got == order
        parts.append(f"{source}->{got}")
    ok = ok and h4_elapsed is not None and h4_elapsed < 30.0
    report(
        "criterion 8 (induced group orders)",
        ok,
        f"{'; '.join(parts)}; H4 order in {h4_elapsed:.2f}s (< 30s)",
    )


# -- criterion 9: persistence -----------------------------------------------------


def test_criterion_9_persistence():
    generated = [
        build_preset(name)
        for name in ("A1xA1xA1", "A3", "B3", "H3", "I2-3", "I2-4", "I2-6", "I2-8",
                      "A1xI2-6", "D4", "F4", "H4")
    ]
    generated += [induce_4d(build_preset(n)) for n in ("A1xA1xA1", "A3", "B3", "H3")]
    ok = True
    for rs in generated:
        dumped = root_system_to_json(rs)
        again = root_system_from_json(dumped)
        ok = ok and root_system_to_json(again) == dumped and again == rs
        off_lines = to_off(rs).splitlines()
        ok = ok and off_lines[1] == f"{len(rs)} 0 0"
        ok = ok and len(off_lines) == 2 + len(rs)
    report(
        "criterion 9 (persistence)",
        ok,
        f"{len(generated)} systems round-tripped bit-identically; OFF vertex "
        f"counts match",
    )
