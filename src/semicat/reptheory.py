"""Invertible morphisms, the inverse subsemigroup below them, and radicals.

The radical oracle uses the characteristic-zero criterion: an element lies in
the Jacobson radical of a finite-dimensional rational algebra A exactly when
the trace of left multiplication vanishes on x*A and on x itself.  The extra
single-trace condition makes the criterion valid without a unit (it is
redundant whenever A is unital).  Everything is exact: the trace form has
integer entries and linalg certifies every modular answer or falls back to
rational elimination; there are no tolerances anywhere.
"""

from dataclasses import dataclass

from .algebras import basis_element, psi
from .errors import (
    InconsistentComputationError,
    NotClosedError,
    NotEIError,
    PreconditionNotMetError,
)
from .ehresmann import is_left_restriction, is_right_restriction, tilde_relations
from .linalg import nullspace, rank
from .reports import jsonable
from .semigroups import green, idempotents


def invertible_morphisms(ES, C) -> tuple:
    """Morphisms with a two-sided inverse: exactly {a : a+ R a and a L a*}.

    Both the Green-relation characterization and a brute-force inverse search
    are computed and compared; a mismatch is an implementation bug.  The
    result depends on ES alone and is kept in its instance dictionary, so
    later calls for the same structure read the same copy.
    """
    cache = vars(ES)
    if "_invertible_morphisms" not in cache:
        cache["_invertible_morphisms"] = _invertible_morphisms(ES)
    return cache["_invertible_morphisms"]


def _invertible_morphisms(ES):
    g = green(ES.S)
    n, t = ES.n, ES.S.table
    by_green = tuple(
        a for a in range(n)
        if g.r_class[a] == g.r_class[ES.plus[a]] and g.l_class[a] == g.l_class[ES.star[a]]
    )
    brute = tuple(
        a for a in range(n)
        if any(
            ES.plus[b] == ES.star[a] and ES.star[b] == ES.plus[a]
            and t[a][b] == ES.plus[a] and t[b][a] == ES.star[a]
            for b in range(n)
        )
    )
    if by_green != brute:
        raise InconsistentComputationError(
            "invertible morphisms", {"green": by_green, "brute": brute}
        )
    return by_green


@dataclass(frozen=True)
class RegESet:
    elements: tuple
    inverse_map: dict  # a -> the inverse b with ab = a+ and ba = a*


def reg_e(ES) -> RegESet:
    """The inverse subsemigroup {a : a+ R a L a*}, with every claim re-verified.

    Verifies closure under the product, that the idempotents of the subset are
    exactly E, that each element has a unique inverse inside the subset, and
    that the subset is a down ideal for both natural orders.  Violations raise
    loudly since they would contradict verified structure.
    """
    from .categories import build_category

    elems = invertible_morphisms(ES, build_category(ES))
    eset = set(elems)
    t = ES.S.table
    for a in elems:
        for b in elems:
            if t[a][b] not in eset:
                raise NotClosedError("reg_e product", (a, b))

    subset_idempotents = {a for a in elems if t[a][a] == a}
    if subset_idempotents != set(ES.E):
        raise InconsistentComputationError(
            "reg_e idempotents", {"found": sorted(subset_idempotents), "E": ES.E}
        )

    inverse_map = {}
    for a in elems:
        invs = [b for b in elems if t[t[a][b]][a] == a and t[t[b][a]][b] == b]
        if len(invs) != 1:
            raise InconsistentComputationError("reg_e unique inverse", {"a": a, "invs": invs})
        b = invs[0]
        if t[a][b] != ES.plus[a] or t[b][a] != ES.star[a]:
            raise InconsistentComputationError("reg_e inverse laws", {"a": a, "b": b})
        inverse_map[a] = b

    for a in elems:
        for b in range(ES.n):
            if (ES.leq_r[b][a] or ES.leq_l[b][a]) and b not in eset:
                raise InconsistentComputationError("reg_e down ideal", {"a": a, "b": b})

    return RegESet(elems, inverse_map)


@dataclass(frozen=True)
class EIReport:
    is_ei: bool
    witness: dict | None            # an endomorphism outside its object's H-class
    endomorphism_counts: dict       # object -> size of its endomorphism monoid
    e_is_maximal_semilattice: bool
    maximal_witness: int | None     # commuting idempotent outside E, if any
    object_iso_classes: tuple       # partition of E by isomorphism (= D-classes)
    is_groupoid: bool

    def to_json(self):
        return {
            "is_EI": self.is_ei,
            "witness": jsonable(self.witness),
            "endomorphism_counts": {str(k): v for k, v in self.endomorphism_counts.items()},
            "e_is_maximal_semilattice": self.e_is_maximal_semilattice,
            "maximal_witness": self.maximal_witness,
            "object_iso_classes": [list(c) for c in self.object_iso_classes],
            "is_groupoid": self.is_groupoid,
        }


def ei_report(ES, C) -> EIReport:
    """EI status plus the related classifications of the object semilattice.

    A category is EI iff every endomorphism monoid is a group; here that is
    equivalent to the tilde-H class of each object agreeing with its H-class.
    Both routes are computed and compared.
    """
    g = green(ES.S)
    tilde = tilde_relations(ES.S, ES.E)
    n, t = ES.n, ES.S.table

    witness = None
    for e in ES.E:
        tilde_h = {a for a in range(n) if tilde.h_index[a] == tilde.h_index[e]}
        green_h = {a for a in range(n) if g.h_class[a] == g.h_class[e]}
        endo = {a for a in range(n) if ES.plus[a] == e and ES.star[a] == e}
        if tilde_h != endo:
            raise InconsistentComputationError("tilde-H vs endomorphisms", {"e": e})
        group = all(
            any(t[a][b] == e and t[b][a] == e for b in endo) for a in endo
        )
        if (tilde_h == green_h) != group:
            raise InconsistentComputationError("EI criterion", {"e": e})
        if not group and witness is None:
            bad = sorted(tilde_h - green_h)[0]
            witness = {"object": e, "endomorphism": bad}

    e_all = idempotents(ES.S)
    eset = set(ES.E)
    maximal_witness = None
    for f in sorted(e_all - eset):
        if all(t[e][f] == t[f][e] for e in ES.E):
            maximal_witness = f
            break

    # objects e, f are isomorphic iff an invertible a has a+ = e and a* = f;
    # for idempotents that is e D f: e R a L f for some a, and then a is
    # invertible with a+ = e and a* = f
    groups = {}
    for e in ES.E:
        groups.setdefault(g.d_class[e], []).append(e)
    iso_classes = tuple(tuple(v) for v in groups.values())

    endo_counts = {
        e: sum(1 for a in range(n) if ES.plus[a] == e and ES.star[a] == e)
        for e in ES.E
    }
    return EIReport(
        is_ei=witness is None,
        witness=witness,
        endomorphism_counts=endo_counts,
        e_is_maximal_semilattice=maximal_witness is None,
        maximal_witness=maximal_witness,
        object_iso_classes=iso_classes,
        is_groupoid=len(invertible_morphisms(ES, C)) == n,
    )


def is_ei(ES, C):
    rep = ei_report(ES, C)
    return rep.is_ei, rep.witness


def semigroup_mul(S):
    """Structure constants of the semigroup algebra, as a basis-pair callable."""
    t = S.table

    def mul(i, j):
        return {t[i][j]: 1}

    return mul


def category_mul(C):
    """Structure constants of the category algebra (zero on non-composable pairs)."""
    t, cod, dom = C.table, C.cod, C.dom

    def mul(i, j):
        if cod[i] != dom[j]:
            return {}
        return {t[i][j]: 1}

    return mul


def radical_oracle(dim, mul):
    """Radical of a rational algebra given by structure constants.

    Builds the Gram matrix of the trace form of the regular representation,
    T[i][j] = trace(L(b_i b_j)), appends the plain trace column (needed when
    the algebra has no unit), and returns (dimension, basis) of the exact
    nullspace.
    """
    prods = [[mul(i, j) for j in range(dim)] for i in range(dim)]
    traces = [sum(prods[k][l].get(l, 0) for l in range(dim)) for k in range(dim)]

    def trace_of(combo):
        return sum(c * traces[k] for k, c in combo.items())

    equations = [[trace_of(prods[i][j]) for i in range(dim)] for j in range(dim)]
    equations.append([traces[i] for i in range(dim)])
    basis = nullspace(equations)
    return len(basis), basis


@dataclass(frozen=True)
class RadicalReport:
    noninvertible: tuple
    claimed_dim: int
    oracle_dim: int
    agrees: bool
    ideal_witness: tuple | None     # product of a morphism with the span leaving it
    nilpotency_index: int

    @property
    def passed(self):
        return self.agrees and self.ideal_witness is None

    def to_json(self):
        return {
            "noninvertible": list(self.noninvertible),
            "claimed_dim": self.claimed_dim,
            "oracle_dim": self.oracle_dim,
            "agrees": self.agrees,
            "ideal_witness": jsonable(self.ideal_witness),
            "nilpotency_index": self.nilpotency_index,
        }


def radical_span(ES, C) -> RadicalReport:
    """Non-invertible morphisms as a basis of the category-algebra radical.

    Requires an EI category.  The claimed dimension is checked against the
    trace-form oracle, and the span is verified to be a two-sided nilpotent
    ideal: products of basis morphisms are again basis morphisms or zero, so
    ideal powers stay spanned by morphism subsets and can be closed exactly.
    """
    ei, witness = is_ei(ES, C)
    if not ei:
        raise NotEIError(witness)
    invertible = set(invertible_morphisms(ES, C))
    noninv = tuple(a for a in range(C.n) if a not in invertible)

    ideal_witness = None
    for x in noninv:
        for m in range(C.n):
            if C.composable(m, x) and C.table[m][x] in invertible:
                ideal_witness = (m, x)
                break
            if C.composable(x, m) and C.table[x][m] in invertible:
                ideal_witness = (x, m)
                break
        if ideal_witness:
            break

    power = set(noninv)
    index = 1
    while power:
        power = {
            C.table[x][y]
            for x in power
            for y in noninv
            if C.composable(x, y)
        }
        index += 1
        if index > C.n + 1:
            raise InconsistentComputationError("radical nilpotency", {"stalled_at": index})

    oracle_dim, _ = radical_oracle(C.n, category_mul(C))
    return RadicalReport(
        noninvertible=noninv,
        claimed_dim=len(noninv),
        oracle_dim=oracle_dim,
        agrees=len(noninv) == oracle_dim,
        ideal_witness=ideal_witness,
        nilpotency_index=index,
    )


@dataclass(frozen=True)
class SemisimpleReport:
    left_restriction: bool
    right_restriction: bool
    is_ei: bool
    outside_theorem: bool
    reg_size: int
    radical_dim_s: int
    dims_match: bool                # dim Rad(QS) == |S| - |Reg_E(S)|
    projection_full_rank: bool      # QReg_E -> QS/Rad injective
    psi_image_in_span: bool         # psi(invertible) supported on Reg_E
    psi_image_full_rank: bool
    semisimple_check: bool | None   # asserted only inside the theorem's hypotheses

    @property
    def passed(self):
        return self.semisimple_check is not False

    def to_json(self):
        return {
            "left_restriction": self.left_restriction,
            "right_restriction": self.right_restriction,
            "is_EI": self.is_ei,
            "outside_theorem": self.outside_theorem,
            "reg_e_size": self.reg_size,
            "radical_dim": self.radical_dim_s,
            "dims_match": self.dims_match,
            "projection_full_rank": self.projection_full_rank,
            "psi_image_in_span": self.psi_image_in_span,
            "psi_image_full_rank": self.psi_image_full_rank,
            "semisimple_check": self.semisimple_check,
        }


def semisimple_image_check(ES, C, order="r", allow_outside_theorem=False) -> SemisimpleReport:
    """Verify that the span of Reg_E(S) realizes the maximal semisimple image.

    Checks, over the rationals: (i) dim Rad(QS) = |S| - |Reg_E(S)|; (ii) the
    composite QReg_E(S) -> QS -> QS/Rad is a bijection (full rank); (iii) psi
    carries the span of the invertible morphisms into, and onto, QReg_E(S).

    The conclusion is asserted only under the hypotheses "left or right
    restriction" and "EI".  With allow_outside_theorem the raw quantities are
    still computed and reported, flagged as outside the theorem.
    """
    left, _ = is_left_restriction(ES)
    right, _ = is_right_restriction(ES)
    ei, ei_witness = is_ei(ES, C)
    unmet = []
    if not (left or right):
        unmet.append("left or right restriction")
    if not ei:
        unmet.append("EI category")
    if unmet and not allow_outside_theorem:
        raise PreconditionNotMetError(", ".join(unmet))

    reg = reg_e(ES)
    n = ES.n
    rad_dim, rad_basis = radical_oracle(n, semigroup_mul(ES.S))
    dims_match = rad_dim == n - len(reg.elements)

    rows = [list(v) for v in rad_basis]
    for a in reg.elements:
        row = [0] * n
        row[a] = 1
        rows.append(row)
    projection_full_rank = rank(rows) == rad_dim + len(reg.elements)

    invertible = invertible_morphisms(ES, C)
    reg_set = set(reg.elements)
    pos = {a: i for i, a in enumerate(reg.elements)}
    psi_rows = []
    in_span = True
    for x in invertible:
        image = psi(ES, C, basis_element("category", x), order=order)
        if any(k not in reg_set for k in image.coeffs):
            in_span = False
            break
        row = [0] * len(reg.elements)
        for k, v in image.coeffs.items():
            row[pos[k]] = v
        psi_rows.append(row)
    psi_full_rank = in_span and rank(psi_rows) == len(reg.elements)

    all_ok = dims_match and projection_full_rank and in_span and psi_full_rank
    return SemisimpleReport(
        left_restriction=left,
        right_restriction=right,
        is_ei=ei,
        outside_theorem=bool(unmet),
        reg_size=len(reg.elements),
        radical_dim_s=rad_dim,
        dims_match=dims_match,
        projection_full_rank=projection_full_rank,
        psi_image_in_span=in_span,
        psi_image_full_rank=psi_full_rank,
        semisimple_check=None if unmet else all_ok,
    )
