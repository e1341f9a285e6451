"""Exact linear algebra over the rationals on integer matrices: echelon form, rank, nullspace.

`rank` and `nullspace` take integer rows, lists or 1-D integer arrays (any
other entry raises TypeError), stacked into one array.  A caller holding a
2-D array passes `list(a)`: its rows, without a copy, in a list whose `len`
and `m[0]` the benchmark's span counter (`perfbench/op.py`) reads.  Both
read one kernel, computed modulo the prime PRIME in int64 arithmetic and
accepted only with an exact certificate:

* each kernel vector of the reduced row echelon form mod p is lifted to Q by
  rational reconstruction and checked exactly, A v = 0 in integers;
* rank over Q >= rank_p, and the ncols - rank_p checked vectors give rank
  over Q <= rank_p: they span the kernel (rank = ncols - their number) and,
  each with a 1 at its free column and supported on earlier pivot columns
  only, are the canonical basis that rational elimination returns.

The vectors stay one integer array: `rank` counts its rows, and only
`nullspace` divides them out into Fraction tuples.  Only if reconstruction
or the check fails does the kernel come from Fraction elimination
(`rational_nullspace`, also the tests' reference).  Pivoting is
deterministic (first nonzero by index) so downstream reports are byte-stable.
"""

import math
import operator
from fractions import Fraction

import numpy as np

PRIME = 2147483629  # largest prime below 2**31: products of residues stay below 2**62
INT64_SAFE = 2**62  # integer sums and products below this bound cannot overflow int64
FLOAT64_EXACT = 2**53  # every integer of smaller magnitude is a float64


def exact_matmul(a, b):
    """The integer product a @ b of 2-D arrays, computed exactly.

    With bound = max|a| * max|b| * k (k the inner dimension) bounding every
    product and partial sum: below FLOAT64_EXACT each is an integer float64
    represents exactly, in any summation order, so float64 BLAS gives the
    result; below INT64_SAFE int64 cannot overflow; otherwise the product is
    taken in Python ints (object dtype).  The float64 route casts b once and
    a in row blocks of ceil(m / 8) rows, each written into one int64 result,
    so beside b and the result it holds float64 copies of one row block of a
    and of its product.
    """
    a, b = np.asarray(a), np.asarray(b)
    bound = abs_max(a) * abs_max(b) * a.shape[-1]
    if bound < FLOAT64_EXACT:
        b = b.astype(np.float64)
        out = np.empty((len(a), b.shape[1]), dtype=np.int64)
        step = max(1, -(-len(a) // 8))
        for i in range(0, len(a), step):
            out[i:i + step] = a[i:i + step].astype(np.float64) @ b
        return out
    if bound < INT64_SAFE:
        return a.astype(np.int64, copy=False) @ b.astype(np.int64, copy=False)
    return a.astype(object) @ b.astype(object)


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


def _integer_array(matrix):
    """Integer rows as int64, or as Python ints (object dtype) beyond int64; else TypeError."""
    a = np.array(matrix, ndmin=2)
    if a.size == 0 or a.dtype.kind in "bi":  # numpy reads rows without entries as float
        return a.astype(np.int64, copy=False)
    # a cast would truncate Fraction(1, 2) to 0, and [2**63, -1] reads as float64
    a = np.array([[operator.index(x) for x in row] for row in matrix], dtype=object)
    return a.astype(np.int64) if abs_max(a) < 2**63 else a


def _rref_mod_p(a, p):
    """Reduced row echelon form of an integer array modulo p: (form, pivots).

    Each pivot updates only the rows with a nonzero in its column, through
    one outer-product buffer allocated once.
    """
    a = np.remainder(a, p).astype(np.int64, copy=False)
    m, ncols = a.shape
    outer = np.empty_like(a)
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
        update = outer[: len(rows), c:]
        np.multiply.outer(a[rows, c], a[r, c:], out=update)
        np.subtract(a[rows, c:], update, out=update)
        np.remainder(update, p, out=update)
        a[rows, c:] = update
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


def _kernel(a):
    """Certified kernel of `a` as (dens, w), w[j] / dens[j] canonical; None to fall back.

    A residue x with x or p - x at most sqrt(p/2) lifts to x or x - p
    directly, all at once; only the columns that hold another residue
    are reconstructed entry by entry.
    """
    p = PRIME
    ncols = a.shape[1]
    form, pivots = _rref_mod_p(a, p)
    free = np.delete(np.arange(ncols), pivots)
    residues = (-form[: len(pivots)][:, free]) % p
    del form
    bound = math.isqrt(p // 2)
    w = np.zeros((len(free), ncols), dtype=np.int64)
    w[np.arange(len(free)), free] = 1
    small = residues <= bound
    w[:, pivots] = np.where(small, residues, residues - p).T
    dens = [1] * len(free)
    for j in np.flatnonzero((~small & (residues < p - bound)).any(axis=0)).tolist():
        entries = {free[j]: 1}
        for r in np.flatnonzero(residues[:, j]).tolist():
            x = int(residues[r, j])
            value = x if x <= bound else x - p if p - x <= bound else _reconstruct(x, p)
            if value is None:
                return None
            entries[pivots[r]] = value
        dens[j] = math.lcm(*(v.denominator for v in entries.values()))
        row = [0] * ncols
        for c, v in entries.items():
            row[c] = int(v * dens[j])
        if max(map(abs, row)) >= 2**63:
            w = w.astype(object)
        w[j] = row
    if exact_matmul(a, w.T).any():
        return None
    return dens, w


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
    """Rank of an integer matrix given as rows: ncols minus the kernel's dimension.

    The rows may be lists or 1-D integer arrays, stacked in one copy.  A
    caller holding a 2-D array passes `list(a)`: the benchmark's span
    counter tests `if m` and reads `len(m[0])`, which a 2-D array does not
    answer.
    """
    a = _integer_array(matrix)
    kernel = _kernel(a)
    return a.shape[1] - len(rational_nullspace(a.tolist()) if kernel is None else kernel[0])


def nullspace(matrix):
    """Basis of {x : A x = 0} for an integer matrix A given as rows; vectors are Fraction tuples."""
    a = _integer_array(matrix)
    kernel = _kernel(a)
    if kernel is None:
        return rational_nullspace(a.tolist())
    dens, w = kernel
    return [tuple(Fraction(x, den) for x in row) for den, row in zip(dens, w.tolist())]
