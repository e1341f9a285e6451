"""Finite Ehresmann semigroups, their categories, and exact algebra isomorphisms.

Submodules load lazily: each is registered in `sys.modules` and on the package
through `importlib.util.LazyLoader`, and its code runs on first attribute
access.  The names below are resolved from their submodule on first use
(PEP 562), so a command loads only the modules it runs.
"""

import importlib.util
import sys

__version__ = "0.1.0"

_EXPORTS = {
    "algebras": "AlgebraElement basis_element element format_element mul_category "
                "mul_semigroup phi psi unit verify_isomorphism",
    "categories": "EhresmannCategory build_category category_to_json corestriction "
                  "rebuild_semigroup restriction verify_axioms",
    "ehresmann": "EhresmannStructure check_variety derive_structure is_left_restriction "
                 "is_right_restriction maximal_subsemilattices order_containment "
                 "tilde_relations",
    "errors": "",
    "linalg": "",
    "posets": "FinitePoset invert moebius order_poset sum_down",
    "reports": "VerificationReport",
    "reptheory": "EIReport RegESet ei_report invertible_morphisms is_ei radical_oracle "
                 "radical_span reg_e semisimple_image_check",
    "semigroups": "FiniteSemigroup GreenData from_interchange green idempotents identity_of "
                  "is_inverse opposite product subsemigroup subsemilattice_violation "
                  "to_interchange validate",
    "zoo": "",
}
# public name -> the submodule that defines it
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted([*_EXPORTS, *_SOURCE])


def _lazy(name):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in _EXPORTS:
    globals()[_name] = _lazy(_name)
del _name


def __getattr__(name):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_SOURCE[name]], name)


def __dir__():
    return sorted({*globals(), *__all__})
