"""Finite Ehresmann semigroups, their categories, and exact algebra isomorphisms."""

__version__ = "0.1.0"

from .algebras import (
    AlgebraElement,
    basis_element,
    element,
    format_element,
    mul_category,
    mul_semigroup,
    phi,
    psi,
    unit,
    verify_isomorphism,
)
from .categories import (
    EhresmannCategory,
    build_category,
    category_to_json,
    corestriction,
    rebuild_semigroup,
    restriction,
    verify_axioms,
)
from .ehresmann import (
    EhresmannStructure,
    check_variety,
    derive_structure,
    is_left_restriction,
    is_right_restriction,
    maximal_subsemilattices,
    order_containment,
    tilde_relations,
)
from .posets import FinitePoset, MoebiusCache, invert, moebius, order_poset, sum_down
from .reports import VerificationReport
from .reptheory import (
    EIReport,
    RegESet,
    ei_report,
    invertible_morphisms,
    is_ei,
    radical_oracle,
    radical_span,
    reg_e,
    semisimple_image_check,
)
from .semigroups import (
    FiniteSemigroup,
    GreenData,
    from_interchange,
    green,
    idempotents,
    identity_of,
    is_inverse,
    opposite,
    product,
    subsemigroup,
    subsemilattice_violation,
    to_interchange,
    validate,
)
from . import zoo

__all__ = [name for name in dir() if not name.startswith("_")]
