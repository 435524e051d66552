"""The `rootspin` namespace: every public name, resolved on first access."""

from __future__ import annotations

from importlib import import_module

import pytest

import rootspin

# the public names and the module that defines each; a name is removed only with an entry
# in CHANGES.md that says why
PUBLIC = {
    "caps": "GROUP_CLOSURE_CAP ROOT_CLOSURE_CAP",
    "classify": "CoxeterMatrix Signature SurveyRow SurveyTable catalog coxeter_matrix "
                "coxeter_order identify signature simple_roots_of survey",
    "clifford": "Multivector Rotor RotorGroup generate_rotor_group geometric_product reflect "
                "reverse rotate rotor_from_vectors spinor_to_vec2 spinor_to_vec4",
    "errors": "ClosureCapExceeded DegenerateFunctional DimensionMismatch DomainError "
              "FieldMismatch NonUnitVector NormNotInField NotRepresentable OddGradePresent "
              "RootspinError UnknownAngle ZeroRoot",
    "induction": "SelfDualityReport check_self_dual induce_2d induce_4d",
    "presets": "Preset build_preset direct_sum get_preset preset_names",
    "qfield": "QScalar phi",
    "roots": "AxiomReport Provenance RootSystem Vector close_under_reflections normalize_roots "
             "reflect_euclid vec verify_root_axioms",
    "serialize": "load_root_system root_system_from_json root_system_to_json save_root_system "
                 "to_csv to_off to_text",
}
HOME = {name: module for module, names in PUBLIC.items() for name in names.split()}


def test_all_lists_exactly_the_public_names():
    assert sorted(rootspin.__all__) == sorted(HOME)


def test_dir_lists_every_public_name():
    assert set(HOME) <= set(dir(rootspin))


@pytest.mark.parametrize("name", sorted(HOME))
def test_a_name_is_the_object_its_module_defines(name):
    home = import_module(f"rootspin.{HOME[name]}")
    assert getattr(rootspin, name) is getattr(home, name)
    assert vars(rootspin)[name] is getattr(home, name)  # stored: resolved once


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from rootspin import *", namespace)
    assert {name: namespace[name] for name in HOME} == {
        name: getattr(import_module(f"rootspin.{module}"), name) for name, module in HOME.items()
    }


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'rootspin' has no attribute 'no_such'$"):
        rootspin.no_such
    assert getattr(rootspin, "no_such", None) is None
    with pytest.raises(ImportError, match="cannot import name 'no_such'"):
        exec("from rootspin import no_such", {})


def test_submodules_and_cached_entry_points_are_reachable():
    from rootspin import cli

    assert cli.main is import_module("rootspin.cli").main
    for name in ("build_preset", "catalog", "survey"):
        entry = getattr(rootspin, name)
        assert entry.cache_info().misses >= 0
        assert callable(entry.cache_clear)
