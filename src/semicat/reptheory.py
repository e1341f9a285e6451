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

import numpy as np

from .errors import InconsistentComputationError, NotClosedError, NotEIError
from .ehresmann import is_left_restriction, is_right_restriction, tilde_relations
from .linalg import rank
from .posets import order_data
from .reports import first_witness, jsonable
from .semigroups import green, kept


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


def ei_report(ES) -> EIReport:
    """EI status plus the related classifications of the object semilattice.

    A category is EI iff every endomorphism monoid is a group; here that is
    equivalent to the tilde-H class of each object agreeing with its H-class.
    Both routes are computed and compared.  The result depends on ES alone
    and is kept in its instance dictionary.
    """
    return kept(ES, "_ei_report", _ei_report)


def _ei_report(ES):
    g = green(ES.S)
    tilde = tilde_relations(ES.S, ES.E)
    n, t, p, s = ES.n, ES.S.table, ES.plus, ES.star
    E = np.array(ES.E, dtype=np.int64)
    e = E[:, None]
    # rows are objects e, columns elements a
    tilde_h = tilde.h_index == tilde.h_index[e]
    green_h = g.h_class == g.h_class[e]
    endo = (p == e) & (s == e)
    # a loop a: e -> e is invertible in End(e) iff some b: e -> e has ab = ba = e
    loop = p == s
    has_inverse = (loop & (p == p[:, None]) & (t == p[:, None]) & (t.T == p[:, None])).any(axis=1)
    group = np.bincount(p[loop & ~has_inverse], minlength=n)[E] == 0
    bad = np.stack([(tilde_h != endo).any(axis=1), (tilde_h == green_h).all(axis=1) != group],
                   axis=1)
    found = first_witness(bad, ("e", "kind"), e=E)
    if found:
        kind = ("tilde-H vs endomorphisms", "EI criterion")[found["kind"]]
        raise InconsistentComputationError(kind, {"e": found["e"]})
    witness = first_witness(~group[:, None] & tilde_h & ~green_h, ("object", "endomorphism"),
                            object=E)

    outside = t.diagonal() == np.arange(n)    # idempotents outside E commuting with E
    outside[E] = False
    found = first_witness(outside & (t[E, :] == t[:, E].T).all(axis=0), ("f",))
    maximal_witness = None if found is None else found["f"]

    # objects e, f are isomorphic iff an invertible a has a+ = e and a* = f;
    # for idempotents that is e D f: e R a L f for some a, and then a is
    # invertible with a+ = e and a* = f
    d = g.d_class[E]
    iso_classes = tuple(tuple(E[d == c].tolist()) for c in dict.fromkeys(d.tolist()))

    loops_at = np.bincount(p[loop], minlength=n)
    return EIReport(
        is_ei=witness is None,
        witness=witness,
        endomorphism_counts={e: int(loops_at[e]) for e in ES.E},
        e_is_maximal_semilattice=maximal_witness is None,
        maximal_witness=maximal_witness,
        object_iso_classes=iso_classes,
        is_groupoid=len(invertible_morphisms(ES)) == n,
    )


def is_ei(ES):
    rep = ei_report(ES)
    return rep.is_ei, rep.witness


def radical_oracle(table, defined):
    """Radical of the algebra with basis b_k and b_k b_l = b_table[k, l] where defined[k, l].

    Undefined products are 0: `defined` is all true for a semigroup algebra
    and cod[:, None] == dom for a category algebra.  Left multiplication by b_k
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
    form = _trace_form(table, defined)
    return len(table) - rank(list(form[np.ix_(form.any(axis=1), form.any(axis=0))]))


def _trace_form(table, defined):
    """The radical's equations: the columns of the Gram matrix fix[table], then the row fix."""
    fix = (defined & (table == np.arange(len(table)))).sum(axis=1)
    return np.vstack([np.where(defined, fix[table], 0).T, fix])


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


def radical_span(ES) -> RadicalReport:
    """Non-invertible morphisms as a basis of the category-algebra radical.

    Requires an EI category.  The claimed dimension is checked against the
    trace-form oracle, and the span is verified to be a two-sided nilpotent
    ideal: products of basis morphisms are again basis morphisms or zero, so
    ideal powers stay spanned by morphism subsets and can be closed exactly.
    """
    ei, witness = is_ei(ES)
    if not ei:
        raise NotEIError(witness)
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


def semisimple_image_check(ES, order="r") -> SemisimpleReport:
    """Verify that the span of Reg_E(S) realizes the maximal semisimple image.

    Checks, over the rationals: (i) dim Rad(QS) = |S| - |Reg_E(S)|; (ii) the
    composite QReg_E(S) -> QS -> QS/Rad is a bijection (full rank); (iii) psi
    carries the span of the invertible morphisms into, and onto, QReg_E(S).

    The conclusion is asserted only under the hypotheses "left or right
    restriction" and "EI".  Outside them the raw quantities are still computed
    and reported, flagged as outside the theorem, and semisimple_check is None.
    """
    left, _ = is_left_restriction(ES)
    right, _ = is_right_restriction(ES)
    ei, _ = is_ei(ES)
    outside = not ((left or right) and ei)

    reg = list(reg_e(ES).elements)  # the invertible morphisms
    n = ES.n
    everywhere = np.ones((n, n), dtype=bool)
    rad_dim = radical_oracle(ES.S.table, everywhere)
    dims_match = rad_dim == n - len(reg)

    # the radical meets span{e_r : r in Reg_E} only in 0 iff those columns have full rank
    equations = _trace_form(ES.S.table, everywhere)[:, reg]
    projection_full_rank = rank(list(equations)) == len(reg)

    # column x of the Moebius matrix holds the coefficients of psi(x)
    images = order_data(ES, order)[:, reg]
    in_span = not np.delete(images, reg, axis=0).any()
    psi_full_rank = in_span and rank(list(images[reg])) == len(reg)

    all_ok = dims_match and projection_full_rank and in_span and psi_full_rank
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
        psi_image_full_rank=psi_full_rank,
        semisimple_check=None if outside else all_ok,
    )
