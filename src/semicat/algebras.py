"""The maps between the semigroup algebra QS and the category algebra QC.

An element of either algebra is a plain coefficient dict {basis index:
number}, zeros dropped.  The two linear maps realized here, on basis elements
and extended linearly:

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
Every coefficient of a verdict is an integer, the witness expansion's included.
"""

from collections import namedtuple

import numpy as np

from .posets import order_poset
from .reports import record_json
from .semigroups import (associativity_failure, check_indices, concat_ranges, generators,
                         group_keys)


def _mul_partial(table, cod, dom, u, v):
    """The product of two category-algebra elements, as coefficient dicts; 0 off composable pairs."""
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


def _down_sum(coeffs, P, matrix):
    """The sum of c matrix[b, a] b over the terms c a of coeffs and the b <= a in P, zeros dropped."""
    check_indices(P.m, coeffs)
    ptr, below = P.down
    acc = {}
    for a, c in coeffs.items():
        for b in below[ptr[a]:ptr[a + 1]].tolist():
            acc[b] = acc.get(b, 0) + c * int(matrix[b, a])
    return {b: c for b, c in acc.items() if c != 0}


def phi(ES, coeffs, order="r") -> dict:
    """phi on {index: coefficient} of the semigroup algebra: the down-set sums, by P.zeta."""
    P = order_poset(ES, order)
    return _down_sum(coeffs, P, P.zeta)


def psi(ES, coeffs, order="r") -> dict:
    """psi on {index: coefficient} of the category algebra: the Moebius-weighted sums, by P.mu."""
    P = order_poset(ES, order)
    return _down_sum(coeffs, P, P.mu)


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
        w = self.witness_expansion
        if w is not None:  # coefficients as decimal strings, the format the report digests fix
            w = {k: {i: str(c) for i, c in v.items()} if isinstance(v, dict) else v
                 for k, v in w.items()}
        return record_json(self._replace(witness_expansion=w), case1_failures="hom_case1_failures",
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
        phi_a, phi_b, phi_ab = (phi(ES, {x: 1}, order) for x in (a, b, ab))  # down-sets
        expansion = {
            "a": a,
            "b": b,
            "ab": ab,
            "phi_a": phi_a,
            "phi_b": phi_b,
            "phi_ab": phi_ab,
            "phi_a_phi_b": _mul_partial(table, cod, dom, phi_a, phi_b),
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


def format_element(coeffs, symbol, names=None) -> str:
    """Render {index: coefficient} like 'C({(1,1)}) + C({})', symbol 'S' or 'C', by element names."""
    if not coeffs:
        return "0"
    parts = []
    for i in sorted(coeffs):
        c = coeffs[i]
        label = f"{symbol}({names[i] if names else i})"
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
