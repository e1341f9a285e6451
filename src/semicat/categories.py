"""The category of an Ehresmann structure, read off its arrays, and the way back.

The category of ES has the objects E and one morphism per semigroup element,
on the same index space: a runs from dom(a) = a+ to cod(a) = a*, and
composition is defined exactly when cod(x) = dom(y), with value the semigroup
product.  Both natural orders are inherited unchanged.  So the functions here
take ES itself and read ES.S.table, ES.plus, ES.star, ES.E and both orders.
The reverse construction recovers the semigroup via the pseudo-product

    x . y = (x | cod(x) ^ dom(y)) * (cod(x) ^ dom(y) | y)

where ^ is the object meet and (e | x), (x | e) are restriction and
co-restriction.  All three are table entries: e ^ f is the product e*f,
(e | x) is e*x and (x | e) is x*e.
"""

import numpy as np

from .linalg import exact_matmul
from .posets import down_sets, poset_violation
from .reports import VerificationReport, first_witness
from .semigroups import associativity_failure, associativity_witness, group_keys, pair_ids, validate


def verify_axioms(ES) -> VerificationReport:
    """Exhaustive sweep of the category-with-order and Ehresmann axioms of ES's category.

    Every check is reported by name with the first witness on failure:
    poset validity of both orders, the plain category laws, CO1-CO3 for
    both orders, and EC2-EC8 (EC1 is the pair of CO blocks).  Each check is
    a boolean mask of failing instances, and its witness is the instance a
    nested loop over the same variables, in the same order, would meet first.
    The category composes by S's table on a subset of all triples, so S's
    kept Light's test proves its associativity, and only a table that fails
    it is swept over the composable triples.
    """
    rep = VerificationReport()
    t, dom, cod, r, l = ES.S.table, ES.plus, ES.star, ES.leq_r, ES.leq_l
    objects = np.array(ES.E, dtype=np.int64)

    for label, leq in (("r", r), ("l", l)):
        bad = poset_violation(leq)
        rep.add(f"poset[leq_{label}]", bad is None,
                None if bad is None else {"kind": bad[0], "at": bad[1]})

    composable = cod[:, None] == dom
    witness = first_witness(composable & ((dom[t] != dom[:, None]) | (cod[t] != cod)), ("x", "y"))
    rep.add("category[dom-cod-of-composition]", witness is None, witness)
    witness = _identity_witness(t, dom, cod, objects)
    rep.add("category[identities]", witness is None, witness)
    proved = associativity_failure(ES.S) is None
    witness = None if proved else associativity_witness(t, composable)
    rep.add("category[associativity]", witness is None, witness)

    # CO3 reads this mask of distinct arrows with the same ends in both orders
    same_ends = (dom[:, None] == dom) & (cod[:, None] == cod)
    np.fill_diagonal(same_ends, False)
    for label, leq in (("r", r), ("l", l)):
        witness = first_witness(leq & ~(leq[dom[:, None], dom] & leq[cod[:, None], cod]), ("x", "y"))
        rep.add(f"CO1[{label}]", witness is None, witness)
        witness = _co2_witness(t, dom, cod, leq)
        rep.add(f"CO2[{label}]", witness is None, witness)
        witness = first_witness(leq & same_ends, ("x", "y"))
        rep.add(f"CO3[{label}]", witness is None, witness)

    # both existence checks compare objects by leq_r
    found = _restriction_witness(t, dom, r, r, objects)
    rep.add("EC2[restriction-exists-unique]", found is None,
            found and {"e": found[1], "x": found[0], "candidates": found[2]})
    found = _restriction_witness(t.T, cod, l, r, objects)
    rep.add("EC3[corestriction-exists-unique]", found is None,
            found and {"x": found[0], "e": found[1], "candidates": found[2]})

    witness = first_witness((r != l)[np.ix_(objects, objects)], ("e", "f"), e=objects, f=objects)
    rep.add("EC4[object-orders-agree]", witness is None, witness)
    witness = _meet_witness(r, objects, _meets(ES, objects, objects))
    rep.add("EC5[object-meets]", witness is None, witness)

    rl = exact_matmul(r, l) > 0
    lr = exact_matmul(l, r) > 0
    witness = first_witness(rl != lr, ("x", "y"))
    rep.add("EC6[order-commutation]", witness is None, witness)

    # EC8 is EC7 for the opposite category: transposed table, dom for cod, leq_l
    witness = _monotone_witness(t, _meets(ES, cod, objects), r, objects)
    rep.add("EC7[corestriction-monotone]", witness is None, witness)
    witness = _monotone_witness(t.T, _meets(ES, dom, objects), l, objects)
    rep.add("EC8[restriction-monotone]", witness is None, witness)

    return rep


def _meets(ES, left, right):
    """The object meets left[i] ^ right[j] = left[i] * right[j]; KeyError for a non-object."""
    is_object = np.isin(np.arange(ES.n), ES.E)
    outside = ~(is_object[left][:, None] & is_object[right])
    missing = first_witness(outside, ("e", "f"), e=left, f=right)
    if missing:
        raise KeyError((missing["e"], missing["f"]))
    return ES.S.table[left[:, None], right]


def _identity_witness(t, dom, cod, objects):
    """First object e off its own ends, or the first x with ex != x or xe != x (in that order)."""
    arange = np.arange(len(t))
    for e in objects.tolist():
        if dom[e] != e or cod[e] != e:
            return {"e": e}
        # side 0 is ex = x over the x with dom x = e, side 1 is xe = x over cod x = e
        bad = np.stack([(dom == e) & (t[e] != arange), (cod == e) & (t[:, e] != arange)], axis=1)
        found = first_witness(bad, ("x", "side"))
        if found:
            return {"e": e, "x": found["x"]} if found["side"] == 0 else {"x": found["x"], "e": e}
    return None


def _co2_witness(t, dom, cod, leq):
    """CO2: x <= y, u <= v, cod x = dom u, cod y = dom v imply xu <= yv.

    The pairs (u, v) are grouped by (dom u, dom v) and the pairs (x, y) by
    (cod x, cod y) under one pair_ids numbering.  A pair (x, y) meets one key
    only, so sweeping each key's (x, y) against its (u, v), in any key order,
    and keeping the least (x, y), then the least (u, v), gives the loop's witness.
    """
    xs, ys = np.nonzero(leq)
    keys = pair_ids(np.r_[dom[xs], cod[xs]], np.r_[dom[ys], cod[ys]])
    (uv_order, uv_ptr), (xy_order, xy_ptr) = (group_keys(h, len(keys)) for h in np.split(keys, 2))
    best = None
    for k in np.flatnonzero((np.diff(uv_ptr) > 0) & (np.diff(xy_ptr) > 0)).tolist():
        uv, xy = uv_order[uv_ptr[k]:uv_ptr[k + 1]], xy_order[xy_ptr[k]:xy_ptr[k + 1]]
        if best is not None:
            xy = xy[xy < best[0]]
        found = first_witness(~leq[t[xs[xy, None], xs[uv]], t[ys[xy, None], ys[uv]]],
                              ("xy", "uv"), xy=xy, uv=uv)
        if found:
            best = (found["xy"], found["uv"])
    if best is None:
        return None
    p, q = best
    return {"x": int(xs[p]), "y": int(ys[p]), "u": int(xs[q]), "v": int(ys[q])}


def _restriction_witness(t, end, below, object_leq, objects):
    """EC2 as (x, e, candidates), or None.

    The first x and object e <= end(x) for which the y <= x with end(y) = e
    are not exactly [t[e, x]].  EC3 is the same check on the transposed
    table, with cod for end and leq_l for below.
    """
    arange = np.arange(len(t))
    at = end[:, None] == objects                      # at[y, i]: end(y) = e_i
    count = exact_matmul(below.T, at)                 # y <= x with end(y) = e_i
    te = t[objects, arange[:, None]]                  # te[x, i] = t[e_i, x]
    unique = (count == 1) & below[te, arange[:, None]] & (end[te] == objects)
    found = first_witness(object_leq[objects, end[:, None]] & ~unique, ("x", "e"), e=objects)
    if found is None:
        return None
    x, e = found["x"], found["e"]
    ptr, down = down_sets(below)
    return x, e, [y for y in down[ptr[x]:ptr[x + 1]].tolist() if end[y] == e]


def _meet_witness(r, objects, meets):
    """EC5: first objects e, f whose lower set has not exactly the top meets[e, f]."""
    below = r[np.ix_(objects, objects)]               # below[g, e]: g <= e
    for i, e in enumerate(objects.tolist()):
        lower = below[:, i] & below.T                 # lower[j, g]: g <= e and g <= e_j
        tops = lower & (exact_matmul(lower, below) == lower.sum(axis=1)[:, None])
        bad = (tops.sum(axis=1) != 1) | (objects[tops.argmax(axis=1)] != meets[i])
        found = first_witness(bad, ("j",))
        if found:
            j = found["j"]
            return {"e": e, "f": int(objects[j]), "lower": objects[lower[j]].tolist()}
    return None


def _monotone_witness(t, end_meets, leq, objects):
    """EC7: first x <= y and object f with not t[x, end(x)^f] <= t[y, end(y)^f]."""
    image = t[np.arange(len(t))[:, None], end_meets]  # image[x, i] = t[x, end(x) ^ e_i]
    for x in range(len(t)):
        ys = np.flatnonzero(leq[x])
        found = first_witness(~leq[image[x], image[ys]], ("y", "f"), y=ys, f=objects)
        if found:
            return {"x": x, **found}
    return None


def rebuild_semigroup(ES):
    """Recover the Ehresmann structure on the morphism set via the pseudo-product.

    The resulting table is validated and the +/* maps re-derived from scratch,
    so a defective category is rejected rather than silently accepted.
    """
    from .ehresmann import derive_structure

    t = ES.S.table
    m = _meets(ES, ES.star, ES.plus)  # cod(x) ^ dom(y)
    arange = np.arange(ES.n)
    S = validate(t[t[arange[:, None], m], t[m, arange]])
    return derive_structure(S, ES.E)


def category_to_json(ES) -> dict:
    """Dump format used by the CLI: objects, dom, cod and both order relations."""
    return {
        "objects": list(ES.E),
        "dom": ES.plus.tolist(),
        "cod": ES.star.tolist(),
        "leq_r": np.argwhere(ES.leq_r).tolist(),
        "leq_l": np.argwhere(ES.leq_l).tolist(),
    }
