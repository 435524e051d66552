"""Functoriality of the induction: a reflection subgroup's rotors are a subgroup of the rotors.

If W' is generated by reflections in roots of Phi, its rotations are rotations
of W, so the pair products of W'.Phi' lie among those of Phi: the rows of
induce_4d(Phi') are a subset of the rows of induce_4d(Phi), and their count
divides, by Lagrange.  Every reflection subsystem closed from 2 or 3 roots of
A3, B3 and H3 is checked; these are 7, 27 and 36 distinct proper subsystems.
"""

from __future__ import annotations

import itertools

import pytest

from rootspin import build_preset, close_under_reflections, induce_4d


def _subsystems(name: str) -> set:
    """The distinct reflection closures of 2 or 3 roots of the preset, one root per +-pair."""
    full = build_preset(name)
    reps = [x for i, x in enumerate(full.roots) if -x not in full.roots[:i]]
    return {
        close_under_reflections(seed, full.disc)
        for k in (2, 3)
        for seed in itertools.combinations(reps, k)
    }


@pytest.mark.parametrize("name, proper", [("A3", 7), ("B3", 27), ("H3", 36)])
def test_a_reflection_subsystem_induces_a_subset(name, proper):
    full = build_preset(name)
    subs = _subsystems(name)
    assert len(subs - {full}) == proper
    induced = induce_4d(full)
    rows = set(induced.rows)
    for sub in subs:
        got = induce_4d(sub)
        assert set(got.rows) <= rows, sub
        assert len(induced) % len(got) == 0, sub
