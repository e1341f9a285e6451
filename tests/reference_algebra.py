"""The algebra-element library that no subcommand runs, kept beside the tests as a reference.

semicat's verdicts read integer arrays: phi and psi take and return plain
coefficient dicts, and the hom sweep counts products in integers.  What is
here computes the same objects one term at a time, over exact rationals:
elements of the semigroup algebra QS and the category algebra QC with their
sums, products and unit; the poset sums f Z and g M (sum_down, invert);
down-sets and intervals read from a poset's down-set index; a structure's
category under its own names, with restriction and corestriction in it; and
the inverse-semigroup test.  The tests check semicat against these and these
against the paper's identities.
"""

from fractions import Fraction

import numpy as np

from semicat.algebras import format_element
from semicat.errors import SemicatError
from semicat.semigroups import check_indices, read_only

SEMIGROUP = "semigroup"
CATEGORY = "category"


class BasisMismatchError(SemicatError):
    def __init__(self, expected, got):
        super().__init__(f"expected {expected}-basis element, got {got}")
        self.expected = expected
        self.got = got


class NotBelowDomainError(SemicatError):
    def __init__(self, e, x):
        super().__init__(f"object {e} is not below dom({x})")
        self.object = e
        self.morphism = x


class NotBelowRangeError(SemicatError):
    def __init__(self, x, e):
        super().__init__(f"object {e} is not below cod({x})")
        self.object = e
        self.morphism = x


class AlgebraElement:
    __setattr__ = __delattr__ = read_only

    def __init__(self, basis, coeffs):
        # coeffs: basis index -> nonzero Fraction
        vars(self).update(basis=basis, coeffs=coeffs)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.basis == other.basis and self.coeffs == other.coeffs

    __hash__ = None  # unhashable: coeffs is a dict

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return element(self.basis, out)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return element(self.basis, {k: -v for k, v in self.coeffs.items()})

    def scale(self, k):
        return element(self.basis, {i: Fraction(k) * v for i, v in self.coeffs.items()})

    def is_zero(self):
        return not self.coeffs

    def _check(self, other):
        if self.basis != other.basis:
            raise BasisMismatchError(self.basis, other.basis)

    def __repr__(self):
        return format_element(self.coeffs, "S" if self.basis == SEMIGROUP else "C")


def element(basis, coeffs) -> AlgebraElement:
    """Canonical form: rational coefficients with zeros dropped."""
    clean = {}
    for k, v in coeffs.items():
        v = Fraction(v)
        if v != 0:
            clean[int(k)] = v
    return AlgebraElement(basis, clean)


def basis_element(basis, i) -> AlgebraElement:
    return element(basis, {i: 1})


def mul_partial(table, cod, dom, u, v):
    """sum of c d (xy) over the terms c x of u and d y of v with cod x = dom y, as a dict."""
    check_indices(len(table), [*u, *v])
    acc = {}
    for i, ci in u.items():
        for j, cj in v.items():
            if cod[i] == dom[j]:
                k = int(table[i][j])
                acc[k] = acc.get(k, 0) + ci * cj
    return {k: c for k, c in acc.items() if c != 0}


def mul_semigroup(ES, u, v) -> AlgebraElement:
    """Bilinear extension of the semigroup product: S as a category with one object."""
    if u.basis != SEMIGROUP:
        raise BasisMismatchError(SEMIGROUP, u.basis)
    u._check(v)
    one_object = (0,) * ES.n
    return element(SEMIGROUP, mul_partial(ES.S.table, one_object, one_object, u.coeffs, v.coeffs))


def mul_category(ES, u, v) -> AlgebraElement:
    """Bilinear extension of composition in ES's category; non-composable pairs map to 0."""
    if u.basis != CATEGORY:
        raise BasisMismatchError(CATEGORY, u.basis)
    u._check(v)
    return element(CATEGORY, mul_partial(ES.S.table, ES.star, ES.plus, u.coeffs, v.coeffs))


def unit(ES) -> AlgebraElement:
    """Sum of the object identities: the two-sided unit of the category algebra."""
    return element(CATEGORY, dict.fromkeys(ES.E, 1))


def below(P, y):
    """The x <= y of a poset, ascending, read from its down-set index."""
    check_indices(P.m, (y,))
    ptr, down = P.down
    return down[ptr[y]:ptr[y + 1]].tolist()


def interval(P, x, y):
    """The z with x <= z <= y, ascending."""
    check_indices(P.m, (x,))
    return [z for z in below(P, y) if P.zeta[x, z]]


def sum_down(P, f):
    """g(x) = sum of f(y) over y <= x, as the exact product f Z."""
    return (np.array([Fraction(v) for v in f], dtype=object) @ P.zeta).tolist()


def invert(P, g, mu=None):
    """Moebius inversion: f(x) = sum of mu(y, x) g(y) over y <= x, as the exact product g M.

    `mu` is the matrix moebius(P) returns, P.mu when not given.
    """
    mu = P.mu if mu is None else mu
    return (np.array([Fraction(v) for v in g], dtype=object) @ mu).tolist()


class Category:
    """The category of ES under its own names: ES's arrays, read another way.

    The objects are E, x runs from dom(x) = x+ to cod(x) = x*, and x, y
    compose to the table entry xy when cod(x) = dom(y).
    """

    def __init__(self, ES):
        self.n, self.objects, self.table = ES.n, ES.E, ES.S.table
        self.dom, self.cod, self.leq_r, self.leq_l = ES.plus, ES.star, ES.leq_r, ES.leq_l

    def composable(self, x, y):
        return bool(self.cod[x] == self.dom[y])

    def object_leq(self, e, f):
        """e <= f in the semilattice of objects, read from <=_r."""
        return bool(self.leq_r[e, f])


def restriction(ES, e, x):
    """(e | x): the unique y <=_r x with dom(y) = e, realized as the product e*x."""
    check_indices(ES.n, (x,), "morphism")
    if e not in ES.E or not ES.leq_r[e, ES.plus[x]]:
        raise NotBelowDomainError(e, x)
    return int(ES.S.table[e, x])


def corestriction(ES, x, e):
    """(x | e): the unique y <=_l x with cod(y) = e, realized as the product x*e."""
    check_indices(ES.n, (x,), "morphism")
    if e not in ES.E or not ES.leq_r[e, ES.star[x]]:
        raise NotBelowRangeError(x, e)
    return int(ES.S.table[x, e])


def is_inverse(S) -> bool:
    """True iff every element has exactly one inverse b with aba=a and bab=b."""
    t, a = S.table, np.arange(S.n)[:, None]
    aba = t[t, a] == a  # aba[a, b]: (ab)a = a, so aba.T[a, b]: (ba)b = b
    return bool(((aba & aba.T).sum(axis=1) == 1).all())
