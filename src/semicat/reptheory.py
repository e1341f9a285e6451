"""Invertible morphisms, the inverse subsemigroup below them, and radicals.

The radical oracle uses the characteristic-zero criterion: an element lies in
the Jacobson radical of a finite-dimensional rational algebra A exactly when
the trace of left multiplication vanishes on x*A and on x itself.  The extra
single-trace condition makes the criterion valid without a unit (it is
redundant whenever A is unital).  Everything is exact: the trace form has
integer entries and linalg certifies every modular answer or falls back to
fraction-free elimination; there are no tolerances anywhere.
"""

from collections import namedtuple

import numpy as np

from .errors import InconsistentComputationError, NotClosedError, NotEIError
from .ehresmann import left_restriction_failure, right_restriction_failure, tilde_relations
from .linalg import exact_matmul, rank
from .posets import order_poset
from .reports import first_witness, record_json
from .semigroups import class_ids, class_members, green, kept


def invertible_morphisms(ES) -> tuple:
    """Morphisms with a two-sided inverse: exactly {a : a+ R a and a L a*}.

    Both the Green-relation characterization and a brute-force inverse search
    are computed and compared; a mismatch is an implementation bug.  The
    result depends on ES alone and is kept in its instance dictionary, so
    later calls for the same structure read the same copy.
    """
    return kept(ES, "_invertible_morphisms", _invertible_morphisms)


def _invertible_morphisms(ES):
    g = green(ES.S)
    t, p, s = ES.S.table, ES.plus, ES.star
    by_green = (g.r_class == g.r_class[p]) & (g.l_class == g.l_class[s])
    by_green = tuple(np.flatnonzero(by_green).tolist())
    # inverse[a, b]: b runs from a* to a+, ab = a+ and ba = a*
    inverse = (p == s[:, None]) & (s == p[:, None]) & (t == p[:, None]) & (t.T == s[:, None])
    brute = tuple(np.flatnonzero(inverse.any(axis=1)).tolist())
    if by_green != brute:
        raise InconsistentComputationError(
            "invertible morphisms", {"green": by_green, "brute": brute}
        )
    return by_green


class RegESet(namedtuple("RegESet", [
    "elements",
    "inverse_map",      # a -> the inverse b with ab = a+ and ba = a*
])):
    __slots__ = ()


def reg_e(ES) -> RegESet:
    """The inverse subsemigroup {a : a+ R a L a*}, with every claim re-verified.

    Verifies closure under the product, that the idempotents of the subset are
    exactly E, that each element has a unique inverse inside the subset, and
    that the subset is a down ideal for both natural orders.  Violations raise
    loudly since they would contradict verified structure.
    """
    elems = invertible_morphisms(ES)
    t, a = ES.S.table, np.array(elems, dtype=np.int64)
    in_reg = np.zeros(ES.n, dtype=bool)
    in_reg[a] = True
    sub = t[np.ix_(a, a)]
    found = first_witness(~in_reg[sub], ("a", "b"), a=a, b=a)
    if found:
        raise NotClosedError("reg_e product", (found["a"], found["b"]))

    subset_idempotents = a[sub.diagonal() == a].tolist()
    if set(subset_idempotents) != set(ES.E):
        raise InconsistentComputationError(
            "reg_e idempotents", {"found": subset_idempotents, "E": ES.E}
        )

    aba = t[sub, a[:, None]] == a[:, None]   # aba[i, j]: (a_i a_j) a_i = a_i
    invs = aba & aba.T                        # a_j is an inverse of a_i
    count = invs.sum(axis=1)
    b = a[invs.argmax(axis=1)]
    laws = (t[a, b] == ES.plus[a]) & (t[b, a] == ES.star[a])
    found = first_witness((count != 1) | ~laws, ("i",))
    if found:
        i = found["i"]
        if count[i] != 1:
            raise InconsistentComputationError(
                "reg_e unique inverse", {"a": int(a[i]), "invs": a[invs[i]].tolist()})
        raise InconsistentComputationError("reg_e inverse laws", {"a": int(a[i]), "b": int(b[i])})

    outside = (ES.leq_r[:, a] | ES.leq_l[:, a]).T & ~in_reg  # [i, b]: b <= a_i, b not in Reg_E
    found = first_witness(outside, ("a", "b"), a=a)
    if found:
        raise InconsistentComputationError("reg_e down ideal", found)

    return RegESet(elems, dict(zip(elems, b.tolist())))


class EIReport(namedtuple("EIReport", [
    "is_ei",
    "witness",                      # an endomorphism outside its object's H-class
    "endomorphism_counts",          # object -> size of its endomorphism monoid
    "e_is_maximal_semilattice",
    "maximal_witness",              # commuting idempotent outside E, if any
    "object_iso_classes",           # partition of E by isomorphism (= D-classes)
    "is_groupoid",
])):
    __slots__ = ()

    def to_json(self):
        return record_json(self, is_ei="is_EI")


def ei_report(ES) -> EIReport:
    """EI status plus the related classifications of the object semilattice.

    A category is EI iff every endomorphism monoid is a group, that is iff
    every loop is among the cross-checked invertible morphisms.  The loops at
    each object are checked to be its tilde-H class.  The result depends on
    ES alone and is kept in its instance dictionary.
    """
    return kept(ES, "_ei_report", _ei_report)


def _ei_report(ES):
    g = green(ES.S)
    tilde = kept(ES, "_tilde", lambda ES: tilde_relations(ES.S, ES.E))
    n, t, p, s = ES.n, ES.S.table, ES.plus, ES.star
    E = np.array(ES.E, dtype=np.int64)
    e = E[:, None]
    # rows are objects e, columns elements a
    endo = (p == e) & (s == e)
    invertible = np.isin(np.arange(n), invertible_morphisms(ES))
    found = first_witness((tilde.h_index == tilde.h_index[e]) != endo, ("e", "a"), e=E)
    if found:
        raise InconsistentComputationError("tilde-H vs endomorphisms", {"e": found["e"]})
    # End(e) is a group iff every loop a: e -> e is invertible (its inverse is a loop at e too)
    witness = first_witness(endo & ~invertible, ("object", "endomorphism"), object=E)

    outside = t.diagonal() == np.arange(n)    # idempotents outside E commuting with E
    outside[E] = False
    found = first_witness(outside & (t[E, :] == t[:, E].T).all(axis=0), ("f",))
    maximal_witness = None if found is None else found["f"]

    # objects e, f are isomorphic iff an invertible a has a+ = e and a* = f;
    # for idempotents that is e D f: e R a L f for some a, and then a is
    # invertible with a+ = e and a* = f
    iso_classes = tuple(tuple(E[list(members)].tolist())
                        for members in class_members(class_ids(g.d_class[E])))

    return EIReport(
        is_ei=witness is None,
        witness=witness,
        endomorphism_counts=dict(zip(ES.E, endo.sum(axis=1).tolist())),
        e_is_maximal_semilattice=maximal_witness is None,
        maximal_witness=maximal_witness,
        object_iso_classes=iso_classes,
        is_groupoid=len(invertible_morphisms(ES)) == n,
    )


def radical_oracle(table, defined):
    """Radical of the algebra with basis b_k and b_k b_l = b_table[k, l] where defined[k, l].

    Undefined products are 0: `defined` is True for a semigroup algebra and
    cod[:, None] == dom for a category algebra.  Left multiplication by b_k
    fixes the b_l with defined[k, l] and table[k, l] = l, so its trace is
    fix[k], the number of those l, and the Gram matrix of the trace form of
    the regular representation, T[i, j] = trace(L(b_i b_j)), is fix[table]
    where defined and 0 elsewhere.  The equations are the columns of T and
    the plain trace row fix (needed when the algebra has no unit); returns
    the dimension of their solution space, len(table) minus their exact rank.
    The all-zero rows and columns of the equations are dropped first: they
    do not change the rank, and on a category algebra, where T[i, j] = 0
    unless b_i b_j is a loop, they are many.
    """
    return _radical_dim(_trace_form(table, defined))


def _trace_form(table, defined):
    """The radical's equations: the columns of the Gram matrix fix[table], then the row fix."""
    fix = (defined & (table == np.arange(len(table)))).sum(axis=1)
    return np.vstack([np.where(defined, fix[table], 0).T, fix])


def _radical_dim(form):
    """The dimension of the solution space of a trace form, from its nonzero block."""
    return form.shape[1] - rank(list(form[np.ix_(form.any(axis=1), form.any(axis=0))]))


class RadicalReport(namedtuple("RadicalReport", [
    "noninvertible",
    "claimed_dim",
    "oracle_dim",
    "agrees",
    "ideal_witness",                # product of a morphism with the span leaving it
    "nilpotency_index",
])):
    __slots__ = ()

    @property
    def passed(self):
        return self.agrees and self.ideal_witness is None

    def to_json(self):
        return record_json(self)


def radical_span(ES) -> RadicalReport:
    """Non-invertible morphisms as a basis of the category-algebra radical.

    Requires an EI category.  The claimed dimension is checked against the
    trace-form oracle, and the span is verified to be a two-sided nilpotent
    ideal: products of basis morphisms are again basis morphisms or zero, so
    ideal powers stay spanned by morphism subsets and can be closed exactly.
    """
    ei = ei_report(ES)
    if not ei.is_ei:
        raise NotEIError(ei.witness)
    n, t, dom, cod = ES.n, ES.S.table, ES.plus, ES.star
    invertible = np.isin(np.arange(n), invertible_morphisms(ES))
    x = np.flatnonzero(~invertible)
    noninv = tuple(x.tolist())

    # [i, m, 0]: m x_i composes into an invertible, [i, m, 1]: x_i m does
    into = np.stack([(cod == dom[x, None]) & invertible[t[:, x].T],
                     (cod[x, None] == dom) & invertible[t[x, :]]], axis=2)
    found = first_witness(into, ("x", "m", "side"), x=x)
    ideal_witness = None
    if found:
        ideal_witness = (found["m"], found["x"]) if found["side"] == 0 else (found["x"], found["m"])

    # the span of power is the k-th power of the ideal: products x y, x in power, y non-invertible
    composable_into = (cod[:, None] == dom) & ~invertible
    power = ~invertible
    index = 1
    while power.any():
        products = t[power[:, None] & composable_into]
        power = np.zeros(n, dtype=bool)
        power[products] = True
        index += 1
        if index > n + 1:
            raise InconsistentComputationError("radical nilpotency", {"stalled_at": index})

    oracle_dim = radical_oracle(t, cod[:, None] == dom)
    return RadicalReport(
        noninvertible=noninv,
        claimed_dim=len(noninv),
        oracle_dim=oracle_dim,
        agrees=len(noninv) == oracle_dim,
        ideal_witness=ideal_witness,
        nilpotency_index=index,
    )


class SemisimpleReport(namedtuple("SemisimpleReport", [
    "left_restriction",
    "right_restriction",
    "is_ei",
    "outside_theorem",
    "reg_size",
    "radical_dim_s",
    "dims_match",                   # dim Rad(QS) == |S| - |Reg_E(S)|
    "projection_full_rank",         # QReg_E -> QS/Rad injective
    "psi_image_in_span",            # psi(invertible) supported on Reg_E
    "psi_image_full_rank",
    "semisimple_check",             # asserted only inside the theorem's hypotheses
])):
    __slots__ = ()

    @property
    def passed(self):
        return self.semisimple_check is not False

    def to_json(self):
        return record_json(self, is_ei="is_EI", reg_size="reg_e_size",
                           radical_dim_s="radical_dim")


def semisimple_image_check(ES, order="r") -> SemisimpleReport:
    """Verify that the span of Reg_E(S) realizes the maximal semisimple image.

    Checks, over the rationals: (i) dim Rad(QS) = |S| - |Reg_E(S)|; (ii) the
    composite QReg_E(S) -> QS -> QS/Rad is a bijection (full rank); (iii) psi
    carries the span of the invertible morphisms into, and onto, QReg_E(S).

    (i) and (ii) are certified without eliminating QS's n x n trace form when
    psi maps the non-invertible morphisms, which span Rad(QC) in an EI
    category, into Rad(QS): their images are columns of the certified Moebius
    matrix (P.mu), independent as its principal blocks are
    unitriangular, and solve the radical's equations, so
    dim Rad(QS) >= n - |Reg_E|; a nonsingular Reg_E x Reg_E block of the form
    gives dim Rad(QS) <= n - |Reg_E| and (ii).  If either bound fails, as it
    may outside the theorem, both are computed by elimination.  Neither
    depends on the order, so psi is that of the order it is an isomorphism
    for ("r" on a left restriction structure, "l" on a right one).  (iii) holds
    for psi of either order once reg_e has verified that Reg_E is a down ideal
    of both: a Moebius matrix vanishes off its order, so psi of a member is
    supported on the members below it, and its Reg_E x Reg_E block is
    unitriangular, so the image is all of QReg_E(S).  No second Moebius matrix
    is computed; the chosen order, when it is not psi's, is only checked to be
    a partial order.

    The conclusion is asserted only under the hypotheses "left or right
    restriction" and "EI".  Outside them the raw quantities are still computed
    and reported, flagged as outside the theorem, and semisimple_check is None.
    """
    left = left_restriction_failure(ES) is None
    right = right_restriction_failure(ES) is None
    ei = ei_report(ES).is_ei
    outside = not ((left or right) and ei)

    reg = list(reg_e(ES).elements)  # the invertible morphisms
    n = ES.n
    rest = np.delete(np.arange(n), reg)
    # column x of the Moebius matrix holds the coefficients of psi(x)
    iso_order = "r" if left else "l" if right else order
    mu = order_poset(ES, iso_order).mu  # made before the form, so their peaks do not add
    form = _trace_form(ES.S.table, True)  # QS's radical equations: every product is defined
    if (not exact_matmul(form, mu[:, rest]).any()
            and rank(list(form[np.ix_(reg, reg)])) == len(reg)):
        rad_dim, projection_full_rank = n - len(reg), True
    else:
        rad_dim = _radical_dim(form)
        # the radical meets span{e_r : r in Reg_E} only in 0 iff those columns have full rank
        projection_full_rank = rank(list(form[:, reg])) == len(reg)
    dims_match = rad_dim == n - len(reg)
    if order != iso_order:
        order_poset(ES, order)  # psi of the chosen order needs it to be a partial order
    # psi(x) for x in Reg_E is supported on the y <= x, as Moebius values vanish off the
    # order, and reg_e's down-ideal check raised unless every such y is in Reg_E
    in_span = True

    all_ok = dims_match and projection_full_rank
    return SemisimpleReport(
        left_restriction=left,
        right_restriction=right,
        is_ei=ei,
        outside_theorem=outside,
        reg_size=len(reg),
        radical_dim_s=rad_dim,
        dims_match=dims_match,
        projection_full_rank=projection_full_rank,
        psi_image_in_span=in_span,
        psi_image_full_rank=in_span,
        semisimple_check=None if outside else all_ok,
    )

