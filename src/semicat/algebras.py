"""Semigroup and category algebras over the rationals, and the maps between them.

The only supported coefficient ring is the exact rationals: every verification
here is a zero-tolerance identity check, and exact characteristic-zero
arithmetic is also what makes the radical computations downstream valid.

The two linear maps realized here, on basis elements and extended linearly:

    phi(a) = sum of C(b) over b <= a
    psi(x) = sum of mu(y, x) S(y) over y <= x

with <= one of the two natural orders (the right order by default) and mu its
Moebius function.  As matrices, phi is the order's zeta matrix Z (Z[b, a] is
b <= a) and psi its integer Moebius matrix M; both are kept on the order's poset
(P.zeta and P.mu), and both maps, and the hom sweep, read its down-sets (P.down).  phi
and psi are mutually inverse bijections for every Ehresmann structure; phi is
multiplicative whenever the left-restriction identity holds (dually for the
left order), and verify_isomorphism separates the composable-pair half of the
sweep from the rest so a failure certificate pins down exactly which half broke.
"""

from collections import namedtuple

import numpy as np

from .errors import BasisMismatchError
from .posets import order_poset
from .reports import record_json
from .semigroups import (associativity_failure, check_indices, concat_ranges, generators,
                         group_keys, read_only)

SEMIGROUP = "semigroup"
CATEGORY = "category"


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
        from fractions import Fraction

        return element(self.basis, {i: Fraction(k) * v for i, v in self.coeffs.items()})

    def is_zero(self):
        return not self.coeffs

    def _check(self, other):
        if self.basis != other.basis:
            raise BasisMismatchError(self.basis, other.basis)

    def __repr__(self):
        return format_element(self)


def element(basis, coeffs) -> AlgebraElement:
    """Canonical form: rational coefficients with zeros dropped."""
    # fractions is imported only where a Fraction is built: a passing verdict builds none
    from fractions import Fraction

    clean = {}
    for k, v in coeffs.items():
        v = Fraction(v)
        if v != 0:
            clean[int(k)] = v
    return AlgebraElement(basis, clean)


def basis_element(basis, i) -> AlgebraElement:
    return element(basis, {i: 1})


def _mul_partial(table, cod, dom, u, v):
    check_indices(len(table), [*u, *v])
    acc = {}
    for i, ci in u.items():
        row = table[i]
        ci_cod = cod[i]
        for j, cj in v.items():
            if ci_cod != dom[j]:
                continue
            k = int(row[j])
            acc[k] = acc.get(k, 0) + ci * cj
    return {k: c for k, c in acc.items() if c != 0}


def mul_semigroup(ES, u, v) -> AlgebraElement:
    """Bilinear extension of the semigroup product: S as a category with one object."""
    if u.basis != SEMIGROUP:
        raise BasisMismatchError(SEMIGROUP, u.basis)
    u._check(v)
    one_object = (0,) * ES.n
    return element(SEMIGROUP, _mul_partial(ES.S.table, one_object, one_object, u.coeffs, v.coeffs))


def mul_category(C, u, v) -> AlgebraElement:
    """Bilinear extension of composition, with non-composable pairs mapped to 0."""
    if u.basis != CATEGORY:
        raise BasisMismatchError(CATEGORY, u.basis)
    u._check(v)
    return element(CATEGORY, _mul_partial(C.table, C.cod, C.dom, u.coeffs, v.coeffs))


def _down_sum(u, source, target, P, matrix):
    """The sum of c matrix[b, a] target(b) over the terms c source(a) of u and the b <= a in P."""
    if u.basis != source:
        raise BasisMismatchError(source, u.basis)
    acc = {}
    for a, ca in u.coeffs.items():
        for b in P.below(a):
            acc[b] = acc.get(b, 0) + ca * int(matrix[b, a])
    return element(target, acc)


def phi(ES, u, order="r") -> AlgebraElement:
    """Down-set sum into the category algebra, extended linearly."""
    P = order_poset(ES, order)
    return _down_sum(u, SEMIGROUP, CATEGORY, P, P.zeta)


def psi(ES, u, order="r") -> AlgebraElement:
    """Moebius-weighted down-set sum into the semigroup algebra."""
    P = order_poset(ES, order)
    return _down_sum(u, CATEGORY, SEMIGROUP, P, P.mu)


def unit(ES) -> AlgebraElement:
    """Sum of the object identities: the two-sided unit of the category algebra."""
    return element(CATEGORY, dict.fromkeys(ES.E, 1))


class IsoReport(namedtuple("IsoReport", [
    "order",
    "n",
    "bijection",
    "bijection_witness",
    "case1_failures",       # composable pairs (a* = b+) where phi broke
    "case2_failures",
    "pairs_checked",
    "case1_count",
    "witness_expansion",
])):
    __slots__ = ()

    @property
    def homomorphism(self):
        return not self.case1_failures and not self.case2_failures

    @property
    def passed(self):
        return self.bijection and self.homomorphism

    def to_json(self):
        return record_json(self, case1_failures="hom_case1_failures",
                           case2_failures="hom_case2_failures") | {"passed": self.passed}


def _hom_sweep(t, cod, dom, down):
    """The pairs (a, b) with phi(a)phi(b) != phi(ab), as (composable, other) lists.

    Both lists come out in lexicographic order.
    """
    rows = list(_hom_failures(t, cod, dom, down, range(len(t))))
    a = np.repeat(np.array([a for a, _ in rows], dtype=np.int64), [bs.size for _, bs in rows])
    b = np.concatenate([np.empty(0, dtype=np.int64), *(bs for _, bs in rows)])
    composable = cod[a] == dom[b]
    return tuple(list(zip(a[m].tolist(), b[m].tolist())) for m in (composable, ~composable))


def _hom_failures(t, cod, dom, down, rows):
    """(a, bs) for each failing a in rows, lazily: bs is the array of b with phi(a)phi(b) != phi(ab).

    phi has 0/1 coefficients, so phi(a)phi(b) = phi(ab) holds exactly when the
    multiset {xy : x <= a, y <= b, cod x = dom y} equals the set {c <= ab}.
    For each a both sides are encoded as keys b*n + c: the left side, sorted,
    over every x <= a, every y with dom y = cod x and every b >= y; the right
    side, sorted by construction, from the down-sets of the row ab.  Rows b
    whose key counts or keys differ are the failing pairs, in ascending
    order; memory is the keys of one a.  `down` is the order's down_sets.
    """
    n = len(t)
    ptr, below = down
    down_len = np.diff(ptr)
    block = np.arange(n) * n
    by_dom, pair_ptr = group_keys(dom[below], n)  # the pairs y <= b, grouped by dom y
    pair_y, pair_b = below[by_dom], np.repeat(block, down_len)[by_dom]
    pair_len = np.diff(pair_ptr)
    for a in rows:
        xs = below[ptr[a]:ptr[a + 1]]
        lengths = pair_len[cod[xs]]
        idx = concat_ranges(pair_ptr[cod[xs]], lengths)
        got = np.sort(pair_b[idx] + t[np.repeat(xs, lengths), pair_y[idx]])
        wanted = down_len[t[a]]
        want = np.repeat(block, wanted) + below[concat_ranges(ptr[t[a]], wanted)]
        if got.size == want.size and np.array_equal(got, want):
            continue
        bad = np.bincount(got // n, minlength=n) != wanted
        got, want = got[~bad[got // n]], want[~bad[want // n]]
        bad[got[got != want] // n] = True
        yield a, np.flatnonzero(bad)


def _multiplicative_on_generators(ES, down):
    """Whether phi(a)phi(g) = phi(ag) for all a in S, g in G = generators(S) proves phi a hom.

    By induction on the length of a left-normed word b'g over G:
    phi(a)phi(b'g) = (phi(a)phi(b'))phi(g) = phi(ab')phi(g) = phi(a(b'g)).
    That takes S associative (its kept Light's test), G generating S (which
    generators checks on the table) and QC associative, which it is when
    every composable pair keeps its ends: dom(xy) = dom x and
    cod(xy) = cod y.  False when a guard or a generator fails, so the caller
    sweeps every pair.  The pairs (a, g) are the pairs (g, a) of the opposite
    category (dom and cod exchanged, the table transposed), checked one
    generator per row.
    """
    S, dom, cod = ES.S, ES.plus, ES.star
    t = S.table
    if associativity_failure(S) is not None:
        return False
    x, y = np.nonzero(cod[:, None] == dom)  # the composable pairs
    xy = t[x, y]
    if (dom[xy] != dom[x]).any() or (cod[xy] != cod[y]).any():
        return False
    return next(_hom_failures(t.T, dom, cod, down, generators(S).tolist()), None) is None


def verify_isomorphism(ES, order="r") -> IsoReport:
    """Check that phi and psi are mutually inverse and that phi is multiplicative.

    Bijectivity is the identity Z M = I that P.mu certifies (raising
    otherwise), so a returned report has bijection True and no
    bijection_witness.  Multiplicativity on every basis pair suffices by
    bilinearity.  It is proved from the pairs (a, g) with g in a generating
    set when their guards hold (see _multiplicative_on_generators), and
    otherwise checked on all n^2 pairs.
    Failing pairs are split by whether the corresponding morphisms compose
    (a* = b+); the first in lexicographic order is expanded into a printable
    certificate.
    """
    n, table, cod, dom = ES.n, ES.S.table, ES.star, ES.plus
    P = order_poset(ES, order)
    P.mu  # the certified inverse of phi; moebius raises unless Z M = I
    if _multiplicative_on_generators(ES, P.down):
        case1, case2 = [], []
    else:
        case1, case2 = _hom_sweep(table, cod, dom, P.down)

    expansion = None
    heads = case1[:1] + case2[:1]  # each list is in lexicographic order
    if heads:
        a, b = min(heads)
        ab = int(table[a, b])
        phi_a, phi_b, phi_ab = (phi(ES, basis_element(SEMIGROUP, x), order) for x in (a, b, ab))
        expansion = {
            "a": a,
            "b": b,
            "ab": ab,
            "phi_a": phi_a.coeffs,
            "phi_b": phi_b.coeffs,
            "phi_ab": phi_ab.coeffs,
            "phi_a_phi_b": _mul_partial(table, cod, dom, phi_a.coeffs, phi_b.coeffs),
        }

    case1_count = int(np.bincount(cod, minlength=n) @ np.bincount(dom, minlength=n))
    return IsoReport(
        order=order,
        n=n,
        bijection=True,
        bijection_witness=None,
        case1_failures=case1,
        case2_failures=case2,
        pairs_checked=n * n,
        case1_count=case1_count,
        witness_expansion=expansion,
    )


def format_element(el, names=None) -> str:
    """Render a combination like 'C({(1,1)}) + C({})' using element names."""
    if el.is_zero():
        return "0"
    sym = "S" if el.basis == SEMIGROUP else "C"
    parts = []
    for i in sorted(el.coeffs):
        c = el.coeffs[i]
        label = f"{sym}({names[i] if names else i})"
        if c == 1:
            parts.append(("+", label))
        elif c == -1:
            parts.append(("-", label))
        else:
            parts.append(("+" if c > 0 else "-", f"{abs(c)}*{label}"))
    sign, first = parts[0]
    text = first if sign == "+" else f"-{first}"
    for sign, part in parts[1:]:
        text += f" {sign} {part}"
    return text
