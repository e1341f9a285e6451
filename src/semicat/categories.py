"""The category associated to an Ehresmann structure, and the way back.

Objects are the elements of E and there is one morphism per semigroup
element, on the same index space: a runs from a+ to a*, and composition is
defined exactly when cod(x) = dom(y), with value the semigroup product.
Both natural orders are inherited unchanged.  The reverse construction
recovers the semigroup via the pseudo-product

    x . y = (x | cod(x) ^ dom(y)) * (cod(x) ^ dom(y) | y)

where ^ is the object meet and (e | x), (x | e) are restriction and
co-restriction.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    NotBelowDomainError,
    NotBelowRangeError,
    NotComposableError,
)
from .linalg import exact_matmul
from .posets import poset_violation
from .reports import VerificationReport
from .semigroups import validate


@dataclass(frozen=True)
class EhresmannCategory:
    n: int              # number of morphisms
    objects: tuple      # sorted subset of morphism indices (the identities)
    dom: tuple
    cod: tuple
    table: tuple        # composition values; consulted only on composable pairs
    leq_r: tuple
    leq_l: tuple
    meet: dict          # (e, f) -> object meet, for e, f in objects

    def is_object(self, e):
        return (e, e) in self.meet

    def composable(self, x, y):
        return self.cod[x] == self.dom[y]

    def compose(self, x, y):
        if not self.composable(x, y):
            raise NotComposableError(x, y)
        return self.table[x][y]

    def object_leq(self, e, f):
        return self.leq_r[e][f]

    def __repr__(self):
        return f"EhresmannCategory(morphisms={self.n}, objects={len(self.objects)})"


def build_category(ES) -> EhresmannCategory:
    meet = {(e, f): ES.S.table[e][f] for e in ES.E for f in ES.E}
    return EhresmannCategory(
        n=ES.n,
        objects=tuple(ES.E),
        dom=ES.plus,
        cod=ES.star,
        table=ES.S.table,
        leq_r=ES.leq_r,
        leq_l=ES.leq_l,
        meet=meet,
    )


def restriction(C, e, x):
    """(e | x): the unique y <=_r x with dom(y) = e, realized as the product e*x."""
    if not C.is_object(e) or not C.object_leq(e, C.dom[x]):
        raise NotBelowDomainError(e, x)
    return C.table[e][x]


def corestriction(C, x, e):
    """(x | e): the unique y <=_l x with cod(y) = e, realized as the product x*e."""
    if not C.is_object(e) or not C.object_leq(e, C.cod[x]):
        raise NotBelowRangeError(x, e)
    return C.table[x][e]


def _down_lists(leq, n):
    return [[y for y in range(n) if leq[y][x]] for x in range(n)]


def verify_axioms(C) -> VerificationReport:
    """Exhaustive sweep of the category-with-order and Ehresmann axioms.

    Every check is reported by name with the first witness on failure:
    poset validity of both orders, the plain category laws, CO1-CO3 for
    both orders, and EC2-EC8 (EC1 is the pair of CO blocks).
    """
    n = C.n
    rep = VerificationReport()
    t = C.table

    for label, leq in (("r", C.leq_r), ("l", C.leq_l)):
        bad = poset_violation(leq)
        rep.add(f"poset[leq_{label}]", bad is None,
                None if bad is None else {"kind": bad[0], "at": bad[1]})

    witness = None
    for x in range(n):
        for y in range(n):
            if C.composable(x, y):
                xy = t[x][y]
                if C.dom[xy] != C.dom[x] or C.cod[xy] != C.cod[y]:
                    witness = {"x": x, "y": y}
                    break
        if witness:
            break
    rep.add("category[dom-cod-of-composition]", witness is None, witness)

    witness = None
    for e in C.objects:
        if C.dom[e] != e or C.cod[e] != e:
            witness = {"e": e}
            break
        for x in range(n):
            if C.composable(e, x) and t[e][x] != x:
                witness = {"e": e, "x": x}
                break
            if C.composable(x, e) and t[x][e] != x:
                witness = {"x": x, "e": e}
                break
        if witness:
            break
    rep.add("category[identities]", witness is None, witness)

    witness = None
    for x in range(n):
        for y in range(n):
            if not C.composable(x, y):
                continue
            xy = t[x][y]
            for z in range(n):
                if C.composable(y, z) and t[xy][z] != t[x][t[y][z]]:
                    witness = {"x": x, "y": y, "z": z}
                    break
            if witness:
                break
        if witness:
            break
    rep.add("category[associativity]", witness is None, witness)

    for label, leq in (("r", C.leq_r), ("l", C.leq_l)):
        pairs = [(x, y) for x in range(n) for y in range(n) if leq[x][y]]

        witness = None
        for x, y in pairs:
            if not leq[C.dom[x]][C.dom[y]] or not leq[C.cod[x]][C.cod[y]]:
                witness = {"x": x, "y": y}
                break
        rep.add(f"CO1[{label}]", witness is None, witness)

        by_doms = {}
        for u, v in pairs:
            by_doms.setdefault((C.dom[u], C.dom[v]), []).append((u, v))
        witness = None
        for x, y in pairs:
            for u, v in by_doms.get((C.cod[x], C.cod[y]), ()):
                if not leq[t[x][u]][t[y][v]]:
                    witness = {"x": x, "y": y, "u": u, "v": v}
                    break
            if witness:
                break
        rep.add(f"CO2[{label}]", witness is None, witness)

        witness = None
        for x, y in pairs:
            if x != y and C.dom[x] == C.dom[y] and C.cod[x] == C.cod[y]:
                witness = {"x": x, "y": y}
                break
        rep.add(f"CO3[{label}]", witness is None, witness)

    down_r = _down_lists(C.leq_r, n)
    down_l = _down_lists(C.leq_l, n)

    witness = None
    for x in range(n):
        for e in C.objects:
            if not C.object_leq(e, C.dom[x]):
                continue
            found = [y for y in down_r[x] if C.dom[y] == e]
            if len(found) != 1 or found[0] != t[e][x]:
                witness = {"e": e, "x": x, "candidates": found}
                break
        if witness:
            break
    rep.add("EC2[restriction-exists-unique]", witness is None, witness)

    witness = None
    for x in range(n):
        for e in C.objects:
            if not C.object_leq(e, C.cod[x]):
                continue
            found = [y for y in down_l[x] if C.cod[y] == e]
            if len(found) != 1 or found[0] != t[x][e]:
                witness = {"x": x, "e": e, "candidates": found}
                break
        if witness:
            break
    rep.add("EC3[corestriction-exists-unique]", witness is None, witness)

    witness = None
    for e in C.objects:
        for f in C.objects:
            if C.leq_r[e][f] != C.leq_l[e][f]:
                witness = {"e": e, "f": f}
                break
        if witness:
            break
    rep.add("EC4[object-orders-agree]", witness is None, witness)

    witness = None
    for e in C.objects:
        for f in C.objects:
            lower = [g for g in C.objects if C.object_leq(g, e) and C.object_leq(g, f)]
            tops = [g for g in lower if all(C.object_leq(h, g) for h in lower)]
            if len(tops) != 1 or tops[0] != C.meet[(e, f)]:
                witness = {"e": e, "f": f, "lower": lower}
                break
        if witness:
            break
    rep.add("EC5[object-meets]", witness is None, witness)

    r = np.asarray(C.leq_r, dtype=bool)
    l = np.asarray(C.leq_l, dtype=bool)
    rl = exact_matmul(r, l) > 0
    lr = exact_matmul(l, r) > 0
    witness = None
    if not np.array_equal(rl, lr):
        x, y = np.argwhere(rl != lr)[0]
        witness = {"x": int(x), "y": int(y)}
    rep.add("EC6[order-commutation]", witness is None, witness)

    witness = None
    for x in range(n):
        for y in range(n):
            if not C.leq_r[x][y]:
                continue
            for f in C.objects:
                xc = t[x][C.meet[(C.cod[x], f)]]
                yc = t[y][C.meet[(C.cod[y], f)]]
                if not C.leq_r[xc][yc]:
                    witness = {"x": x, "y": y, "f": f}
                    break
            if witness:
                break
        if witness:
            break
    rep.add("EC7[corestriction-monotone]", witness is None, witness)

    witness = None
    for x in range(n):
        for y in range(n):
            if not C.leq_l[x][y]:
                continue
            for f in C.objects:
                xr = t[C.meet[(C.dom[x], f)]][x]
                yr = t[C.meet[(C.dom[y], f)]][y]
                if not C.leq_l[xr][yr]:
                    witness = {"x": x, "y": y, "f": f}
                    break
            if witness:
                break
        if witness:
            break
    rep.add("EC8[restriction-monotone]", witness is None, witness)

    return rep


def rebuild_semigroup(C):
    """Recover the Ehresmann structure on the morphism set via the pseudo-product.

    The resulting table is validated and the +/* maps re-derived from scratch,
    so a defective category is rejected rather than silently accepted.
    """
    from .ehresmann import derive_structure

    n = C.n
    table = []
    for x in range(n):
        row = []
        for y in range(n):
            m = C.meet[(C.cod[x], C.dom[y])]
            row.append(C.table[C.table[x][m]][C.table[m][y]])
        table.append(row)
    S = validate(table)
    return derive_structure(S, C.objects)


def category_to_json(C) -> dict:
    """Dump format used by the CLI: objects, dom, cod and both order relations."""
    return {
        "objects": list(C.objects),
        "dom": list(C.dom),
        "cod": list(C.cod),
        "leq_r": [[x, y] for x in range(C.n) for y in range(C.n) if C.leq_r[x][y]],
        "leq_l": [[x, y] for x in range(C.n) for y in range(C.n) if C.leq_l[x][y]],
    }
