"""Exact linear algebra over the rationals: echelon form, rank, nullspace.

`rank` and `nullspace` first work modulo the prime PRIME in numpy int64
arithmetic, and accept that answer only with an exact certificate:

* rank over Q >= rank mod p, so a matrix of full rank mod p has that rank;
* each kernel vector of the reduced row echelon form mod p is lifted to Q by
  rational reconstruction and checked exactly, A v = 0 in integers.  When the
  checked vectors number ncols - rank_p they span the kernel, and as each has
  a 1 at its free column and is supported on earlier pivot columns only, they
  are exactly the canonical basis that rational elimination returns.

Anything else (reconstruction fails, a check fails, rank deficiency mod p in
`rank`) falls back to Fraction elimination (`rational_rank`,
`rational_nullspace`), which is also the reference the tests compare against.  Pivoting is deterministic (first nonzero
by index) so downstream reports are byte-stable.
"""

import math
from fractions import Fraction

import numpy as np

PRIME = 2147483629  # largest prime below 2**31: products of residues stay below 2**62
INT64_SAFE = 2**62  # integer sums and products below this bound cannot overflow int64
FLOAT64_EXACT = 2**53  # every integer of smaller magnitude is a float64


def exact_matmul(a, b):
    """The integer product a @ b as int64, computed exactly.

    When max|a| * max|b| * k < FLOAT64_EXACT (k the inner dimension), every
    product and partial sum is an integer float64 represents exactly, in any
    summation order, so float64 BLAS gives the exact result.  Otherwise the
    product is taken in int64; the caller keeps that route below INT64_SAFE.
    A factor of Python ints (object dtype) makes the product one of Python ints.
    """
    a, b = np.asarray(a), np.asarray(b)
    if object in (a.dtype, b.dtype):
        return a.astype(object) @ b.astype(object)
    bound = abs_max(a) * abs_max(b) * a.shape[-1]
    if bound < FLOAT64_EXACT:
        return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
    return a.astype(np.int64) @ b.astype(np.int64)


def abs_max(a):
    """Largest absolute entry as a Python int (0 for an empty array)."""
    return max(int(a.max(initial=0)), -int(a.min(initial=0)))


def row_echelon(rows):
    """Reduce in place to row echelon form; returns the pivot column list."""
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def _integer_matrix(matrix):
    """The rows scaled by their common denominators (same row space), as an array.

    The array is int64 when every entry is below INT64_SAFE, else Python ints.
    """
    rows = []
    for row in matrix:
        den = math.lcm(*{x.denominator for x in row})
        rows.append([int(x) for x in row] if den == 1 else [int(x * den) for x in row])
    big = max((abs(x) for row in rows for x in row), default=0)
    return np.array(rows, dtype=np.int64 if big < INT64_SAFE else object)


def _rref_mod_p(a, p):
    """Reduced row echelon form of an integer array modulo p: (form, pivots)."""
    a = (a % p).astype(np.int64)
    m, ncols = a.shape
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == m:
            break
        nonzero = np.flatnonzero(a[r:, c])
        if nonzero.size == 0:
            continue
        i = r + nonzero[0]
        a[[r, i]] = a[[i, r]]
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), -1, p) % p
        rows = np.flatnonzero(a[:, c])
        rows = rows[rows != r]
        a[rows, c:] = (a[rows, c:] - np.outer(a[rows, c], a[r, c:])) % p
        pivots.append(c)
    return a, pivots


def _reconstruct(x, p):
    """The fraction a/b = x mod p with |a|, b <= sqrt(p/2), or None (Wang 1981)."""
    bound = math.isqrt(p // 2)
    r0, r1, s0, s1 = p, x, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > bound or math.gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def _modular_nullspace(a):
    """The canonical kernel basis of integer array `a`, certified, or None."""
    p = PRIME
    ncols = a.shape[1]
    form, pivots = _rref_mod_p(a, p)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    residues = (-form[: len(pivots)][:, free]) % p
    bound = math.isqrt(p // 2)
    vectors, scaled = [], []
    for j, fc in enumerate(free):
        entries = {fc: 1}
        for r in np.flatnonzero(residues[:, j]):
            x = int(residues[r, j])
            value = x if x <= bound else x - p if p - x <= bound else _reconstruct(x, p)
            if value is None:
                return None
            entries[pivots[r]] = value
        den = math.lcm(*(v.denominator for v in entries.values()))
        w = [0] * ncols
        for c, v in entries.items():
            w[c] = int(v * den)
        vectors.append(entries)
        scaled.append(w)
    if scaled:
        amax = int(np.abs(a).max())
        wmax = max(abs(x) for w in scaled for x in w)
        exact = np.int64 if amax * wmax * ncols < INT64_SAFE else object
        if (a.astype(exact) @ np.array(scaled, dtype=exact).T).any():
            return None
    zero = Fraction(0)
    basis = []
    for entries in vectors:
        vec = [zero] * ncols
        for c, v in entries.items():
            vec[c] = Fraction(v)
        basis.append(tuple(vec))
    return basis


def rational_rank(matrix) -> int:
    """Rank by Fraction elimination: the fallback and reference route."""
    return len(row_echelon([[Fraction(x) for x in row] for row in matrix]))


def rational_nullspace(matrix):
    """Kernel basis by Fraction elimination: the fallback and reference route."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = row_echelon(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        basis.append(tuple(vec))
    return basis


def rank(matrix) -> int:
    if matrix and len(matrix[0]):
        a = _integer_matrix(matrix)
        _, pivots = _rref_mod_p(a, PRIME)
        if len(pivots) == min(a.shape):
            return len(pivots)
    return rational_rank(matrix)


def nullspace(matrix):
    """Basis of {x : A x = 0} for A given as rows; vectors are Fraction tuples."""
    if not matrix:
        return []
    basis = _modular_nullspace(_integer_matrix(matrix))
    return rational_nullspace(matrix) if basis is None else basis
