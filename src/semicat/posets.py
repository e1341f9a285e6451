"""Finite posets, their down-set indices and their integer Moebius matrices."""

import numpy as np

from .errors import InconsistentComputationError, NotAPosetError
from .linalg import exact_matmul
from .reports import first_witness
from .semigroups import freeze_fields, kept, read_only


def poset_violation(leq):
    """First partial-order axiom violated by a boolean relation matrix, or None.

    Returns ("reflexive", (x,)), ("antisymmetric", (x, y)) or
    ("transitive", (x, y)) where y witnesses a missing x <= y.
    """
    m = len(leq)
    a = np.asarray(leq, dtype=bool).reshape(m, m)
    found = first_witness(~a.diagonal(), ("x",))
    if found:
        return ("reflexive", (found["x"],))
    found = first_witness(a & a.T & ~np.eye(m, dtype=bool), ("x", "y"))
    if found:
        return ("antisymmetric", (found["x"], found["y"]))
    found = first_witness((exact_matmul(a, a) > 0) & ~a, ("x", "y"))
    if found:
        return ("transitive", (found["x"], found["y"]))
    return None


def down_sets(leq):
    """(ptr, below), read-only: below[ptr[y]:ptr[y + 1]] lists the x with leq[x, y], ascending."""
    tops, below = np.nonzero(leq.T)
    ptr = np.searchsorted(tops, np.arange(len(leq) + 1))
    ptr.flags.writeable = below.flags.writeable = False
    return ptr, below


class FinitePoset:
    __setattr__ = __delattr__ = read_only

    def __init__(self, zeta):
        # zeta[x, y] is True iff x <= y; a read-only (m, m) bool array is kept as it is, not copied
        zeta = np.asarray(zeta, dtype=bool)
        if zeta.shape == (0,):  # no rows: the empty order
            zeta = zeta.reshape(0, 0)
        if zeta.ndim != 2 or zeta.shape[0] != zeta.shape[1]:
            raise ValueError(f"a zeta matrix is square, not of shape {zeta.shape}")
        vars(self).update(m=len(zeta), zeta=zeta)
        freeze_fields(self, zeta=bool)
        bad = poset_violation(self.zeta)
        if bad is not None:
            raise NotAPosetError(*bad)

    @property
    def leq(self):
        """The order as a tuple of rows of bools, leq[x][y] iff x <= y; hashable."""
        return tuple(map(tuple, self.zeta.tolist()))

    @property
    def down(self):
        """The down-set index of the order (down_sets), built once per poset."""
        return kept(self, "_down", lambda P: down_sets(P.zeta))

    @property
    def mu(self):
        """The Moebius matrix of the order (moebius), computed once per poset."""
        # the lambda looks moebius up when it runs, so a rebinding of posets.moebius sees it
        return kept(self, "_mu", lambda P: moebius(P))


def _inverse_zeta(P, dtype):
    """Integer inverse of the zeta matrix of P, one column per element.

    mu(x, y) = [x = y] - sum of mu(x, z) over z < y, for x, z in down(y) (mu is 0 off the
    order), with y in a linear extension (by down-set size), so every column it reads is final.
    """
    ptr, below = P.down
    mu = np.zeros((P.m, P.m), dtype=dtype)
    for y in np.argsort(np.diff(ptr), kind="stable").tolist():
        down = below[ptr[y]:ptr[y + 1]]
        mu[down, y] = (down == y) - mu[np.ix_(down, down[down != y])].sum(axis=1)
    return mu


def moebius(P) -> np.ndarray:
    """Moebius matrix of a finite poset, mu[x, y] = mu(x, y): the inverse of its zeta matrix.

    Entries with x not <= y are 0.  The inverse is computed in int64, then,
    if it fails Z M = I exactly (as one that wrapped around does), in Python
    ints (object dtype); it is returned, read-only, only once Z M = I holds,
    and InconsistentComputationError is raised otherwise.  Readers rely on
    that certificate: M Z = I follows for square matrices, and M, the inverse
    of a zeta matrix, has every principal block unitriangular in down-set
    order.
    """
    for dtype in (np.int64, object):
        mu = _inverse_zeta(P, dtype)
        if (exact_matmul(P.zeta, mu) == np.eye(P.m, dtype=np.int64)).all():
            mu.flags.writeable = False
            return mu
    raise InconsistentComputationError("Moebius matrix", {"check": "Z M = I"})


def order_poset(structure, order="r") -> FinitePoset:
    """The natural order of a structure as a poset (P.down, P.mu), kept per order."""
    if order not in ("r", "l"):
        raise ValueError("order must be 'r' or 'l'")
    leq = structure.leq_r if order == "r" else structure.leq_l
    return kept(structure, f"_poset_{order}", lambda s: FinitePoset(leq))

