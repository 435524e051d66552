"""Functoriality of the induction: a reflection subgroup's rotors are a subgroup of the rotors.

If W' is generated by reflections in roots of Phi, its rotations are rotations
of W, so the pair products of W'.Phi' lie among those of Phi: the rows of
the induced set of Phi' (induce_4d in 3D, induce_2d in 2D) are a subset of
the rows of Phi's, and their count divides, by Lagrange.  Every reflection
subsystem closed from 2 or 3 roots of A3, B3 and H3 is checked; these are
7, 27 and 36 distinct proper subsystems.  In the plane, 2 roots of I2(4) and
I2(6) close to 2 and 5 proper subsystems (A1 x A1, and A2 on each root length).
"""

from __future__ import annotations

import itertools

import pytest

from rootspin import build_preset, close_under_reflections, induce_2d, induce_4d

INDUCE = {2: induce_2d, 3: induce_4d}


def _subsystems(name: str) -> set:
    """The distinct reflection closures of 2 up to dim roots of the preset, one root per
    +-pair."""
    full = build_preset(name)
    reps = [x for i, x in enumerate(full.roots) if -x not in full.roots[:i]]
    return {
        close_under_reflections(seed, full.disc)
        for k in range(2, full.dim + 1)
        for seed in itertools.combinations(reps, k)
    }


@pytest.mark.parametrize("name, proper", [
    ("A3", 7), ("B3", 27), ("H3", 36), ("I2-4", 2), ("I2-6", 5),
])
def test_a_reflection_subsystem_induces_a_subset(name, proper):
    full = build_preset(name)
    induce = INDUCE[full.dim]
    subs = _subsystems(name)
    assert len(subs - {full}) == proper
    induced = induce(full)
    rows = set(induced.rows)
    for sub in subs:
        got = induce(sub)
        assert set(got.rows) <= rows, sub
        assert len(induced) % len(got) == 0, sub
