"""Finite posets, their integer Moebius matrices and exact Moebius inversion."""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NotAPosetError
from .linalg import exact_matmul
from .reports import first_witness
from .semigroups import kept


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


@dataclass(frozen=True)
class FinitePoset:
    m: int
    leq: tuple  # leq[x][y] is True iff x <= y

    def __post_init__(self):
        # zeta: leq as a read-only bool matrix, the one every method reads; not
        # a field, so == and hash still read (m, leq)
        zeta = np.array(self.leq, dtype=bool).reshape(self.m, self.m)
        zeta.flags.writeable = False
        bad = poset_violation(zeta)
        if bad is not None:
            raise NotAPosetError(*bad)
        object.__setattr__(self, "zeta", zeta)

    def below(self, x):
        return np.flatnonzero(self.zeta[:, x]).tolist()

    def interval(self, x, y):
        return np.flatnonzero(self.zeta[x] & self.zeta[:, y]).tolist()


def poset_from_matrix(leq) -> FinitePoset:
    return FinitePoset(len(leq), tuple(tuple(row.tolist()) for row in np.asarray(leq, dtype=bool)))


def _inverse_zeta(leq, dtype):
    """Integer inverse of the zeta matrix leq, one column per element.

    mu(x, y) = [x = y] - sum of mu(x, z) over z < y, with y running through a
    linear extension (by down-set size), so every column it reads is final.
    """
    m = len(leq)
    mu = np.zeros((m, m), dtype=dtype)
    for y in np.argsort(leq.sum(axis=0), kind="stable"):
        below = np.flatnonzero(leq[:, y])
        column = -mu[:, below[below != y]].sum(axis=1)
        column[y] += 1
        mu[:, y] = column
    return mu


def moebius(P) -> np.ndarray:
    """Moebius matrix of a finite poset, mu[x, y] = mu(x, y): the inverse of its zeta matrix.

    Entries with x not <= y are 0.  The inverse is computed in int64 and
    accepted once Z M = I is verified exactly: Z is invertible, so an inverse
    that wrapped around in int64 fails the check.  It is then recomputed in
    Python ints (object dtype), where no check is needed.  The result is
    read-only.
    """
    mu = _inverse_zeta(P.zeta, np.int64)
    if not (exact_matmul(P.zeta, mu) == np.eye(P.m, dtype=np.int64)).all():
        mu = _inverse_zeta(P.zeta, object)
    mu.flags.writeable = False
    return mu


def sum_down(P, f):
    """g(x) = sum of f(y) over y <= x, as the exact product f Z."""
    return (np.array([Fraction(v) for v in f], dtype=object) @ P.zeta).tolist()


def invert(P, g, mu=None):
    """Moebius inversion: f(x) = sum of mu(y, x) g(y) over y <= x, as the exact product g M.

    `mu` is the matrix moebius(P) returns, computed when not given.
    """
    mu = moebius(P) if mu is None else mu
    return (np.array([Fraction(v) for v in g], dtype=object) @ mu).tolist()


def natural_order(structure, order="r"):
    """The boolean matrix leq[x, y] (x <= y) of one natural order of a structure."""
    if order not in ("r", "l"):
        raise ValueError("order must be 'r' or 'l'")
    return structure.leq_r if order == "r" else structure.leq_l


def order_poset(structure, order="r") -> FinitePoset:
    """The natural order of an Ehresmann structure or category as a poset."""
    return poset_from_matrix(natural_order(structure, order))


def order_data(structure, order="r") -> np.ndarray:
    """Integer Moebius matrix of one natural order, once per structure: mu[y, x] = mu(y, x).

    Its column x holds the coefficients of psi(x), as the column x of the
    order matrix holds those of phi(x).  The result is kept in the structure's
    instance dictionary (a frozen dataclass still has one), so later calls for
    the same structure and order read the same read-only matrix.
    """
    return kept(structure, f"_moebius_{order}", lambda s: moebius(order_poset(s, order)))
