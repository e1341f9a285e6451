"""Distinguished-semilattice structure on a finite semigroup.

Given a subsemilattice E of a semigroup S, two equivalences are defined by
identity sets: a is tilde-R related to b when a and b have the same set of
left identities from E, and dually tilde-L via right identities.  When every
tilde-R (tilde-L) class meets E exactly once, the unique representatives give
unary maps a -> a+ and a -> a*; if additionally (ab)+ = (ab+)+ and
(ab)* = (a*b)* hold for all a, b, the semigroup is Ehresmann with respect
to E and carries two natural partial orders:

    a <=_r b  iff  a = a+ b      (equivalently a = eb for some e in E)
    a <=_l b  iff  a = b a*      (equivalently a = be for some e in E)
"""

from collections import namedtuple

import numpy as np

from .errors import ClassWithoutIdempotentError, CongruenceError, NotSubsemilatticeError
from .reports import VerificationReport, first_witness
from .semigroups import (
    associativity_failure,
    class_ids,
    class_members,
    freeze_fields,
    idempotents,
    kept,
    pair_ids,
    read_only,
    subsemilattice_violation,
)


class EhresmannStructure:
    __setattr__ = __delattr__ = read_only

    def __init__(self, S, E, plus, star, leq_r, leq_l):
        # E: sorted indices of the distinguished semilattice; plus: a -> a+; star: a -> a*;
        # leq_r[a, b] iff a <=_r b
        vars(self).update(S=S, E=E, plus=plus, star=star, leq_r=leq_r, leq_l=leq_l)
        freeze_fields(self, plus=np.int64, star=np.int64, leq_r=bool, leq_l=bool)

    @property
    def n(self):
        return self.S.n

    def __repr__(self):
        return f"EhresmannStructure(n={self.S.n}, |E|={len(self.E)})"


class TildeClasses:
    __setattr__ = __delattr__ = read_only

    def __init__(self, r_index, l_index, h_index):
        # element -> class id, classes numbered by least member
        vars(self).update(r_index=r_index, l_index=l_index, h_index=h_index)

    def classes(self, which):
        return class_members(getattr(self, which + "_index"))


def tilde_relations(S, E) -> TildeClasses:
    """Partitions by equality of left / right identity sets from E."""
    E = sorted(set(E))
    a = np.arange(S.n)[:, None]
    r = class_ids(np.packbits(S.table[E, :].T == a, axis=1))  # rows: the e in E with ea = a
    l = class_ids(np.packbits(S.table[:, E] == a, axis=1))    # rows: the e in E with ae = a
    return TildeClasses(r, l, pair_ids(r, l))


def derive_structure(S, E) -> EhresmannStructure:
    """Derive the +/* maps and both natural orders, or reject with a certificate.

    Requires each tilde-R and tilde-L class to meet E exactly once and the
    one-sided congruence identities (ab)+ = (ab+)+ and (ab)* = (a*b)* to hold.
    """
    E = tuple(sorted(set(E)))
    bad = subsemilattice_violation(S, E)
    if bad is not None:
        raise NotSubsemilatticeError(*bad)
    tilde = tilde_relations(S, E)
    e = np.array(E, dtype=np.int64)
    p = _representatives("tilde-R", tilde.r_index, e)
    s = _representatives("tilde-L", tilde.l_index, e)

    # (ab+)+ is column b+ of the gather (ab)+, and (a*b)* is row a* of (ab)*
    t = S.table
    xy = p[t]
    bad_plus = xy != xy[:, p]    # (ab)+ != (ab+)+
    xy = s[t]
    bad_star = xy != xy[s, :]    # (ab)* != (a*b)*
    del xy
    bad = first_witness(bad_plus | bad_star, ("a", "b"))
    if bad:
        a, b = bad["a"], bad["b"]
        raise CongruenceError("plus" if bad_plus[a, b] else "star", a, b)

    column = np.arange(S.n)[:, None]
    # a <=_r b iff a = a+ b, and a <=_l b iff a = b a*
    ES = EhresmannStructure(S, E, p, s, t[p, :] == column, t[:, s].T == column)
    kept(ES, "_tilde", lambda ES: tilde)  # read by the EI report
    return ES


def _representatives(side, index, E):
    """The map sending each element to the one member of E in its class.

    Raises for the first class, in class order, that holds no member of E.
    No class holds two: E is a commuting subsemilattice, and members e, f of
    one tilde-R (tilde-L) class are left (right) identities of each other, so
    e = fe = ef = f.
    """
    count = np.bincount(index[E], minlength=index.max() + 1)
    bad = first_witness(count == 0, ("c",))
    if bad:
        raise ClassWithoutIdempotentError(side, class_members(index)[bad["c"]])
    rep = np.empty(len(count), dtype=np.int64)
    rep[index[E]] = E
    return rep[index]


# The thirteen identities characterizing the structures accepted by
# derive_structure, in report order; the first five are on +, the next five
# their duals on *.
_IDENTITY_NAMES = (
    "x+ x = x", "(x+ y+)+ = x+ y+", "x+ y+ = y+ x+", "x+ (xy)+ = (xy)+", "(xy)+ = (x y+)+",
    "x x* = x", "(x* y*)* = x* y*", "x* y* = y* x*", "(xy)* y* = (xy)*", "(xy)* = (x* y)*",
    "x(yz) = (xy)z", "(x+)* = x+", "(x*)+ = x*",
)


def _plus_failures(t, p):
    """Failing instances of the five identities on +, indexed by x or by (x, y).

    On the opposite table with * for + these are the five identities on *
    with x and y exchanged, so the caller transposes them.  The masks come
    one at a time, and each gather is dropped once its masks are made.
    """
    arange = np.arange(len(t))
    yield t[p, arange] != arange
    pp = t[p[:, None], p]       # x+ y+
    yield p[pp] != pp
    yield pp != pp.T
    del pp
    xy = p[t]                   # (xy)+
    yield t[p[:, None], xy] != xy
    yield xy != xy[:, p]        # (xy+)+ is column y+ of (xy)+


def check_variety(S, plus, star) -> VerificationReport:
    """Exhaustively sweep the thirteen defining identities for given +/* maps.

    The maps may be arbitrary assignments; each identity is reported with its
    lexicographically first failing instance.  One identity's mask is held at
    a time: each is dropped once its witness is read.
    """
    t = S.table
    p, s = np.asarray(plus, dtype=np.int64), np.asarray(star, dtype=np.int64)
    witnesses = [first_witness(m, ("x", "y")) for m in _plus_failures(t, p)]
    witnesses += [first_witness(m.T, ("x", "y")) for m in _plus_failures(t.T, s)]
    witnesses += [associativity_failure(S), first_witness(s[p] != p, ("x",)),
                  first_witness(p[s] != s, ("x",))]
    report = VerificationReport()
    for name, witness in zip(_IDENTITY_NAMES, witnesses):
        report.add(name, witness is None, witness)
    return report


def _restriction(t, E, unary):
    """The first (a, e) with ae != (ae)' a over a in S, e in E, where ' is unary, or None."""
    ae = t[:, E]
    bad = first_witness(ae != t[unary[ae], np.arange(len(t))[:, None]], ("a", "e"), e=E)
    return None if bad is None else (bad["a"], bad["e"])


def left_restriction_failure(ES):
    """The first (a, e) with ae != (ae)+ a, or None when ES is left restriction."""
    return _restriction(ES.S.table, ES.E, ES.plus)


def right_restriction_failure(ES):
    """The first (a, e) with ea != a (ea)*, or None when ES is right restriction.

    This is the left check in the opposite semigroup, with * for +.
    """
    return _restriction(ES.S.table.T, ES.E, ES.star)


class OrderContainment(namedtuple("OrderContainment",
                                  ["l_in_r", "l_in_r_witness", "r_in_l", "r_in_l_witness"])):
    __slots__ = ()


def _containment(inner, outer):
    bad = first_witness(inner & ~outer, ("a", "b"))
    return None if bad is None else (bad["a"], bad["b"])


def order_containment(ES) -> OrderContainment:
    """Containment status of the two natural orders, with witnesses."""
    w1 = _containment(ES.leq_l, ES.leq_r)
    w2 = _containment(ES.leq_r, ES.leq_l)
    return OrderContainment(w1 is None, w1, w2 is None, w2)


MAX_IDEMPOTENTS = 24  # maximal_subsemilattices enumerates cliques on at most this many


def maximal_subsemilattices(S):
    """All maximal subsemilattices, as sorted tuples of idempotent indices.

    A maximal set of pairwise-commuting idempotents is automatically closed
    under the product, so these are the maximal cliques of the commuting
    graph on E(S).  Intended for small inputs only.
    """
    elems = sorted(idempotents(S))
    if len(elems) > MAX_IDEMPOTENTS:
        raise ValueError(f"too many idempotents ({len(elems)}) for enumeration")
    t = S.table
    adj = {e: {f for f in elems if f != e and t[e][f] == t[f][e]} for e in elems}
    cliques = []

    def extend(r, p, x):
        if not p and not x:
            cliques.append(tuple(sorted(r)))
            return
        pivot = max(p | x, key=lambda u: len(adj[u] & p), default=None)
        for v in sorted(p - adj[pivot]):
            extend(r | {v}, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    extend(set(), set(elems), set())
    return sorted(cliques)
