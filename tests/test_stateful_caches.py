"""Caches never change an answer: a stateful property over a pool of live RootSystems.

Each member of the pool carries its recipe, the steps that made it from a
preset.  The rules build a preset (cached or through build_preset.__wrapped__),
relabel, shuffle, rescale, reread the same integer rows over another field
through JSON, reload from JSON, induce, drop a member and collect garbage, or
ask a member a question: induce_4d or induce_2d, signature with identify,
coxeter_order, verify_root_axioms or check_self_dual.  Each new member, and
each answer, error type and text included, must equal what the same recipe
gives from an empty registry and fresh caches, where nothing else is alive:
then no record a live set shares (roots._LATTICES), no stored induced set and
no cached preset or catalog entry changes a label, an order of rows, a field,
a verdict, a name or an error.
"""

from __future__ import annotations

import gc
import json
import random
import weakref
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    precondition,
    rule,
    run_state_machine_as_test,
)

from rootspin import (
    RootspinError,
    RootSystem,
    build_preset,
    check_self_dual,
    classify,
    coxeter_order,
    identify,
    induce_2d,
    induce_4d,
    presets,
    root_system_from_json,
    root_system_to_json,
    roots,
    signature,
    verify_root_axioms,
)

# rank 2, 3 and 4, over Q, Q(sqrt 2), Q(sqrt 3) and Q(sqrt 5); H4 has the rows of
# H3's induced set, and A1xI2-8 and I2-8 fail their induction with NormNotInField
PRESETS = ("A3", "B3", "H3", "A1xA1xA1", "A1xI2-8", "I2-3", "I2-4", "I2-6", "I2-8", "H4")
FACTORS = (Fraction(2), Fraction(1, 2), Fraction(-3), Fraction(2, 3), Fraction(7, 5))
FIELDS = (1, 2, 3, 5)
POOL = 8  # live members at most


def described(rs: RootSystem) -> tuple:
    """Everything a RootSystem shows: its name, its field and its roots, in order."""
    return rs.label, rs.provenance, rs.dim, rs.disc, rs.rows, tuple(map(str, rs.roots))


def _induced(rs: RootSystem) -> tuple:
    return described((induce_2d if rs.dim == 2 else induce_4d)(rs))


def _named(rs: RootSystem) -> tuple:
    sig = signature(rs)
    return sig, identify(sig)


def _axioms(rs: RootSystem) -> tuple:
    report = verify_root_axioms(rs)
    return report, report.summary()


QUERIES = {
    "described": described,
    "induced": _induced,
    "signature": _named,
    "coxeter order": coxeter_order,
    "axioms": _axioms,
    "self-duality": check_self_dual,
}


def error(exc: Exception) -> tuple[str, str]:
    return type(exc).__name__, str(exc)


def answer(query: str, rs: RootSystem):
    """The query's answer on rs, or the type and text of the error it raises."""
    try:
        return QUERIES[query](rs)
    except (RootspinError, OverflowError) as exc:
        return error(exc)


def prepared(rs: RootSystem | None, move: tuple) -> Callable[[], RootSystem]:
    """What makes the RootSystem that move makes from rs.  It holds rs itself only
    to induce; otherwise it holds rs's Vectors or JSON text, which hold no record."""
    kind, arg = move
    if kind == "preset":
        name, cached = arg
        return lambda: build_preset(name) if cached else build_preset.__wrapped__(name)
    if kind == "induce":
        return lambda: (induce_2d if rs.dim == 2 else induce_4d)(rs)
    vectors, disc, label, provenance = list(rs.roots), rs.disc, rs.label, rs.provenance
    if kind == "relabel":
        return lambda: RootSystem(vectors, disc, label=arg)
    if kind == "shuffle":
        random.Random(arg).shuffle(vectors)
        return lambda: RootSystem(vectors, disc, label=label, provenance=provenance)
    if kind == "scale":
        return lambda: RootSystem([r.scale(arg) for r in vectors], disc, label=label)
    doc = json.loads(root_system_to_json(rs))
    if kind == "reread":  # the same integer rows, read over the field arg
        doc["disc"] = arg
    return lambda: root_system_from_json(json.dumps(doc))


@contextmanager
def nothing_alive():
    """An empty registry and fresh preset and catalog caches; the real ones come back after."""
    saved = roots._LATTICES, presets._built_preset, classify._entry_signature
    roots._LATTICES = weakref.WeakValueDictionary()
    presets._built_preset = lru_cache(maxsize=128)(saved[1].__wrapped__)
    classify._entry_signature = lru_cache(maxsize=None)(saved[2].__wrapped__)
    try:
        yield
    finally:
        roots._LATTICES, presets._built_preset, classify._entry_signature = saved


_COLD: dict[tuple, object] = {}  # (recipe, query) -> the answer with nothing alive


def cold(recipe: tuple, query: str):
    """The query's answer on the RootSystem that recipe makes with nothing else alive,
    or the error a step raises: each step's input goes before its output is made,
    unless the step induces it."""
    if (recipe, query) not in _COLD:
        with nothing_alive():
            rs = None
            try:
                for move in recipe:
                    make = prepared(rs, move)
                    rs = None
                    rs = make()
            except (RootspinError, OverflowError) as exc:
                _COLD[recipe, query] = error(exc)
            else:
                _COLD[recipe, query] = answer(query, rs)
    return _COLD[recipe, query]


class Caches(RuleBasedStateMachine):
    """A pool of live members (RootSystem, recipe, inducible).  A member is not
    inducible once a reread moved a surd part into another field: its reflection
    closure is infinite, and its induction takes the whole closure cap to say so."""

    def __init__(self):
        super().__init__()
        self.pool: list[tuple[RootSystem, tuple, bool]] = []

    def pick(self, i: int) -> tuple[RootSystem, tuple, bool]:
        return self.pool[i % len(self.pool)]

    def add(self, member: tuple, move: tuple, inducible: bool = True) -> None:
        """Make a member from member's RootSystem; a step that raises adds nothing,
        and its error is an answer too."""
        rs, recipe, was_inducible = member
        recipe += (move,)
        try:
            made = prepared(rs, move)()
        except (RootspinError, OverflowError) as exc:
            assert error(exc) == cold(recipe, "described"), recipe
            return
        assert described(made) == cold(recipe, "described"), recipe
        if len(self.pool) < POOL:
            self.pool.append((made, recipe, was_inducible and inducible))

    @rule(name=st.sampled_from(PRESETS), cached=st.booleans())
    def build(self, name, cached):
        self.add((None, (), True), ("preset", (name, cached)))

    @precondition(lambda self: self.pool)
    @rule(i=st.integers(0, POOL - 1), move=st.one_of(
        st.tuples(st.just("relabel"), st.sampled_from(("copy", None))),
        st.tuples(st.just("shuffle"), st.integers(0, 3)),
        st.tuples(st.just("scale"), st.sampled_from(FACTORS)),
        st.tuples(st.just("json"), st.none()),
    ))
    def derive(self, i, move):
        self.add(self.pick(i), move)

    @precondition(lambda self: self.pool)
    @rule(i=st.integers(0, POOL - 1), disc=st.sampled_from(FIELDS))
    def reread(self, i, disc):
        rs = self.pick(i)[0]
        same_values = disc == rs.disc or not any(any(x[1:-1:2]) for x in rs.rows)
        self.add(self.pick(i), ("reread", disc), same_values)

    @precondition(lambda self: self.pool)
    @rule(i=st.integers(0, POOL - 1))
    def induce(self, i):
        rs, _, inducible = self.pick(i)
        if inducible and rs.dim in (2, 3):
            self.add(self.pick(i), ("induce", None))

    @precondition(lambda self: self.pool)
    @rule(i=st.integers(0, POOL - 1))
    def drop(self, i):
        del self.pool[i % len(self.pool)]
        gc.collect()

    @precondition(lambda self: self.pool)
    @rule(i=st.integers(0, POOL - 1), query=st.sampled_from(sorted(QUERIES)))
    def ask(self, i, query):
        rs, recipe, inducible = self.pick(i)
        if query != "induced" or inducible:
            assert answer(query, rs) == cold(recipe, query), (recipe, query)


def test_caches_never_change_an_answer():
    # the objects of earlier tests are frozen out of the drop rule's collections,
    # which would otherwise scan them all each time
    gc.freeze()
    try:
        run_state_machine_as_test(Caches, settings=settings(max_examples=40,
                                                            stateful_step_count=20))
    finally:
        gc.unfreeze()
