"""rootspin: exact root systems, Clifford rotor groups, and the 3D->4D induction.

Everything runs over quadratic number fields Q(sqrt(d)) with exact rational
components, so closures, group orders, and classifications are decided
without floating-point tolerances.

`import rootspin` loads no submodule.  Each public name resolves on first
access (PEP 562) by importing the one module that defines it, so
`rootspin.X`, `from rootspin import X` and `from rootspin import *` cost only
the modules they reach; the CLI likewise imports in each verb what it runs.
"""

from importlib import import_module

_EXPORTS = {
    "caps": ("GROUP_CLOSURE_CAP", "ROOT_CLOSURE_CAP"),
    "classify": (
        "CoxeterMatrix", "Signature", "SurveyRow", "SurveyTable", "catalog", "coxeter_matrix",
        "coxeter_order", "identify", "signature", "simple_roots_of", "survey",
    ),
    "clifford": (
        "Multivector", "Rotor", "RotorGroup", "generate_rotor_group", "geometric_product",
        "reflect", "reverse", "rotate", "rotor_from_vectors", "spinor_to_vec4",
    ),
    "errors": (
        "ClosureCapExceeded", "DegenerateFunctional", "DimensionMismatch", "DomainError",
        "FieldMismatch", "NonUnitVector", "NormNotInField", "NotRepresentable",
        "OddGradePresent", "RootspinError", "UnknownAngle", "ZeroRoot",
    ),
    "induction": ("SelfDualityReport", "check_self_dual", "induce_2d", "induce_4d"),
    "presets": ("Preset", "build_preset", "direct_sum", "get_preset", "preset_names"),
    "qfield": ("QScalar", "phi"),
    "roots": (
        "AxiomReport", "Provenance", "RootSystem", "Vector", "close_under_reflections",
        "normalize_roots", "reflect_euclid", "vec", "verify_root_axioms",
    ),
    "serialize": (
        "load_root_system", "root_system_from_json", "root_system_to_json",
        "save_root_system", "to_csv", "to_off", "to_text",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
