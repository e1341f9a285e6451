"""Finite posets and Moebius inversion over exact rationals."""

from dataclasses import dataclass, field
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
        bad = poset_violation(self.leq)
        if bad is not None:
            raise NotAPosetError(*bad)

    def below(self, x):
        return [y for y in range(self.m) if self.leq[y][x]]

    def interval(self, x, y):
        return [z for z in range(self.m) if self.leq[x][z] and self.leq[z][y]]


def poset_from_matrix(leq) -> FinitePoset:
    return FinitePoset(len(leq), tuple(tuple(row.tolist()) for row in np.asarray(leq, dtype=bool)))


@dataclass(frozen=True)
class MoebiusCache:
    values: dict  # (x, y) with x <= y -> Fraction
    matrix: np.ndarray = field(repr=False, compare=False)  # mu(x, y) as integers

    def __call__(self, x, y):
        return self.values[(x, y)]


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


def moebius(P) -> MoebiusCache:
    """Moebius function of a finite poset: the inverse of its zeta matrix.

    The inverse is computed in int64 and accepted once Z M = I is verified
    exactly: Z is invertible, so an inverse that wrapped around in int64
    fails the check.  It is then recomputed in Python ints, where no check is
    needed.  Values are integers, exposed as exact rationals.
    """
    leq = np.array(P.leq, dtype=bool).reshape(P.m, P.m)
    mu = _inverse_zeta(leq, np.int64)
    if not (exact_matmul(leq, mu) == np.eye(P.m, dtype=np.int64)).all():
        mu = _inverse_zeta(leq, object)
    values = {(int(x), int(y)): Fraction(int(mu[x, y])) for x, y in np.argwhere(leq)}
    return MoebiusCache(values, mu)


def sum_down(P, f):
    """g(x) = sum of f(y) over y <= x."""
    f = [Fraction(v) for v in f]
    return [sum((f[y] for y in P.below(x)), Fraction(0)) for x in range(P.m)]


def invert(P, g, cache=None):
    """Moebius inversion: recover f with f(x) = sum of mu(y, x) g(y) over y <= x."""
    if cache is None:
        cache = moebius(P)
    g = [Fraction(v) for v in g]
    return [
        sum((cache(y, x) * g[y] for y in P.below(x)), Fraction(0))
        for x in range(P.m)
    ]


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
    the same structure and order read the same read-only copy.
    """
    return kept(structure, f"_moebius_{order}", _order_moebius, order)


def _order_moebius(structure, order):
    mu = moebius(order_poset(structure, order)).matrix
    mu.flags.writeable = False
    return mu
