"""Semigroup and category algebras over the rationals, and the maps between them.

The only supported coefficient ring is the exact rationals: every verification
here is a zero-tolerance identity check, and exact characteristic-zero
arithmetic is also what makes the radical computations downstream valid.

The two linear maps realized here, on basis elements and extended linearly:

    phi(a) = sum of C(b) over b <= a
    psi(x) = sum of mu(y, x) S(y) over y <= x

with <= one of the two natural orders (the right order by default) and mu its
Moebius function.  phi and psi are mutually inverse bijections for every
Ehresmann structure; phi is multiplicative whenever the left-restriction
identity holds (dually for the left order), and verify_isomorphism separates
the composable-pair half of the sweep from the rest so a failure certificate
pins down exactly which half broke.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .categories import build_category
from .errors import BasisMismatchError
from .posets import order_data
from .reports import jsonable

SEMIGROUP = "semigroup"
CATEGORY = "category"


@dataclass(frozen=True)
class AlgebraElement:
    basis: str
    coeffs: dict  # basis index -> nonzero Fraction

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + v
        return element(self.basis, out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) - v
        return element(self.basis, out)

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
        sym = "S" if self.basis == SEMIGROUP else "C"
        if not self.coeffs:
            return "0"
        parts = []
        for i in sorted(self.coeffs):
            c = self.coeffs[i]
            parts.append(f"{sym}({i})" if c == 1 else f"{c}*{sym}({i})")
        return " + ".join(parts)


def element(basis, coeffs) -> AlgebraElement:
    """Canonical form: rational coefficients with zeros dropped."""
    clean = {}
    for k, v in coeffs.items():
        v = Fraction(v)
        if v != 0:
            clean[int(k)] = v
    return AlgebraElement(basis, clean)


def basis_element(basis, i) -> AlgebraElement:
    return AlgebraElement(basis, {int(i): Fraction(1)})


def zero(basis) -> AlgebraElement:
    return AlgebraElement(basis, {})


def _mul_table(table, u, v):
    acc = {}
    for i, ci in u.items():
        row = table[i]
        for j, cj in v.items():
            k = int(row[j])
            acc[k] = acc.get(k, 0) + ci * cj
    return {k: c for k, c in acc.items() if c != 0}


def _mul_partial(table, cod, dom, u, v):
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
    """Bilinear extension of the semigroup product."""
    if u.basis != SEMIGROUP:
        raise BasisMismatchError(SEMIGROUP, u.basis)
    u._check(v)
    return element(SEMIGROUP, _mul_table(ES.S.table, u.coeffs, v.coeffs))


def mul_category(C, u, v) -> AlgebraElement:
    """Bilinear extension of composition, with non-composable pairs mapped to 0."""
    if u.basis != CATEGORY:
        raise BasisMismatchError(CATEGORY, u.basis)
    u._check(v)
    return element(CATEGORY, _mul_partial(C.table, C.cod, C.dom, u.coeffs, v.coeffs))


def phi(ES, C, u, order="r") -> AlgebraElement:
    """Down-set sum into the category algebra, extended linearly."""
    if u.basis != SEMIGROUP:
        raise BasisMismatchError(SEMIGROUP, u.basis)
    down = order_data(ES, order).down
    acc = {}
    for a, ca in u.coeffs.items():
        for b in down[a]:
            acc[b] = acc.get(b, 0) + ca
    return element(CATEGORY, acc)


def psi(ES, C, u, order="r") -> AlgebraElement:
    """Moebius-weighted down-set sum into the semigroup algebra."""
    if u.basis != CATEGORY:
        raise BasisMismatchError(CATEGORY, u.basis)
    terms = order_data(ES, order).psi_terms
    acc = {}
    for x, cx in u.coeffs.items():
        for y, m in terms[x].items():
            acc[y] = acc.get(y, 0) + cx * m
    return element(SEMIGROUP, acc)


def unit(ES) -> AlgebraElement:
    """Sum of the object identities: the two-sided unit of the category algebra."""
    return element(CATEGORY, {e: Fraction(1) for e in ES.E})


@dataclass
class IsoReport:
    order: str
    n: int
    bijection: bool
    bijection_witness: dict | None
    case1_failures: list      # composable pairs (a* = b+) where phi broke
    case2_failures: list
    pairs_checked: int
    case1_count: int
    witness_expansion: dict | None

    @property
    def homomorphism(self):
        return not self.case1_failures and not self.case2_failures

    @property
    def passed(self):
        return self.bijection and self.homomorphism

    def to_json(self):
        return {
            "order": self.order,
            "n": self.n,
            "bijection": self.bijection,
            "bijection_witness": jsonable(self.bijection_witness),
            "hom_case1_failures": [list(p) for p in self.case1_failures],
            "hom_case2_failures": [list(p) for p in self.case2_failures],
            "pairs_checked": self.pairs_checked,
            "case1_count": self.case1_count,
            "passed": self.passed,
            "witness_expansion": jsonable(self.witness_expansion),
        }


def _rational(coeffs):
    """Integer coefficients as the Fractions that reports render."""
    return {k: Fraction(v) for k, v in coeffs.items()}


def _ranges(starts, lengths):
    """The concatenation of arange(s, s + l) over paired starts and lengths."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(ends[-1] if ends.size else 0)


def _pointers(rows, n):
    """Start offsets of rows 0..n (CSR row pointers) of pairs sorted by row."""
    return np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))


def _hom_sweep(t, cod, dom, leq):
    """The pairs (a, b) with phi(a)phi(b) != phi(ab), as (composable, other) lists.

    phi has 0/1 coefficients, so phi(a)phi(b) = phi(ab) holds exactly when the
    multiset {xy : x <= a, y <= b, cod x = dom y} equals the set {c <= ab}.
    For each a both sides are encoded as keys b*n + c: the left side, sorted,
    over every x <= a, every y with dom y = cod x and every b >= y; the right
    side, sorted by construction, from the down-sets of the row ab.  Rows b
    whose key counts or keys differ are the failing pairs.  Both lists come
    out in lexicographic order; memory is the keys of one a.
    """
    n = len(t)
    flat = t.ravel()
    tops, down = np.nonzero(leq.T)  # down[down_ptr[c]:down_ptr[c + 1]]: the y <= c
    down_ptr = _pointers(tops, n)
    down_len = np.diff(down_ptr)
    below, above = np.nonzero(leq)  # the pairs y <= b, grouped by dom y below
    by_dom = np.argsort(dom[below], kind="stable")
    pair_y, pair_b = below[by_dom], above[by_dom] * n
    pair_ptr = _pointers(dom[pair_y], n)
    pair_len = np.diff(pair_ptr)
    block = np.arange(n) * n
    case1, case2 = [], []
    for a in range(n):
        xs = down[down_ptr[a]:down_ptr[a + 1]]
        lengths = pair_len[cod[xs]]
        idx = _ranges(pair_ptr[cod[xs]], lengths)
        got = np.sort(pair_b[idx] + flat[np.repeat(xs * n, lengths) + pair_y[idx]])
        wanted = down_len[t[a]]
        want = np.repeat(block, wanted) + down[_ranges(down_ptr[t[a]], wanted)]
        if got.size == want.size and np.array_equal(got, want):
            continue
        bad = np.bincount(got // n, minlength=n) != wanted
        got, want = got[~bad[got // n]], want[~bad[want // n]]
        bad[got[got != want] // n] = True
        for b in np.flatnonzero(bad).tolist():
            (case1 if cod[a] == dom[b] else case2).append((a, b))
    return case1, case2


def verify_isomorphism(ES, order="r") -> IsoReport:
    """Check that phi and psi are mutually inverse and that phi is multiplicative.

    Bijectivity is checked on every basis element; multiplicativity on every
    basis pair, which suffices by bilinearity.  Pairs are split by whether the
    corresponding morphisms compose (a* = b+); the first failing pair in
    lexicographic order is expanded into a printable certificate.
    """
    if order not in ("r", "l"):
        raise ValueError("order must be 'r' or 'l'")
    n = ES.n
    C = build_category(ES)
    table, cod, dom = ES.S.table, C.cod, C.dom
    data = order_data(ES, order)
    phis = [dict.fromkeys(data.down[a], 1) for a in range(n)]
    psis = data.psi_terms

    bijection_witness = None
    for a in range(n):
        acc = {}
        for x in phis[a]:
            for y, cy in psis[x].items():
                acc[y] = acc.get(y, 0) + cy
        acc = {k: v for k, v in acc.items() if v != 0}
        if acc != {a: 1}:
            bijection_witness = {"direction": "psi(phi(a))", "a": a, "got": _rational(acc)}
            break
    if bijection_witness is None:
        for x in range(n):
            acc = {}
            for y, cy in psis[x].items():
                for b in phis[y]:
                    acc[b] = acc.get(b, 0) + cy
            acc = {k: v for k, v in acc.items() if v != 0}
            if acc != {x: 1}:
                bijection_witness = {"direction": "phi(psi(x))", "x": x, "got": _rational(acc)}
                break

    case1, case2 = _hom_sweep(table, cod, dom, ES.leq_r if order == "r" else ES.leq_l)

    expansion = None
    failures = sorted(case1 + case2)
    if failures:
        a, b = failures[0]
        ab = int(table[a, b])
        expansion = {
            "a": a,
            "b": b,
            "ab": ab,
            "phi_a": _rational(phis[a]),
            "phi_b": _rational(phis[b]),
            "phi_ab": _rational(phis[ab]),
            "phi_a_phi_b": _rational(_mul_partial(table, cod, dom, phis[a], phis[b])),
        }

    case1_count = int(np.bincount(cod, minlength=n) @ np.bincount(dom, minlength=n))
    return IsoReport(
        order=order,
        n=n,
        bijection=bijection_witness is None,
        bijection_witness=bijection_witness,
        case1_failures=case1,
        case2_failures=case2,
        pairs_checked=n * n,
        case1_count=case1_count,
        witness_expansion=expansion,
    )


def format_element(el, names=None, symbol=None) -> str:
    """Render a combination like 'C({(1,1)}) + C({})' using element names."""
    if el.is_zero():
        return "0"
    sym = symbol or ("S" if el.basis == SEMIGROUP else "C")
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
