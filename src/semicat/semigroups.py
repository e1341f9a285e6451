"""Finite semigroups as dense multiplication tables over indices 0..n-1.

All structures are immutable after construction and all operations are pure,
so values can be shared freely between threads.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotAssociativeError, NotClosedError, OutOfRangeError
from .reports import first_witness


@dataclass(frozen=True)
class FiniteSemigroup:
    n: int
    table: tuple  # table[i][j] = index of i*j
    names: tuple | None = None

    def mul(self, a, b):
        return self.table[a][b]

    def name(self, a):
        return self.names[a] if self.names is not None else str(a)

    def __repr__(self):
        return f"FiniteSemigroup(n={self.n})"


def validate(table, names=None) -> FiniteSemigroup:
    """Check a square index table for range and associativity.

    Raises ValueError (empty table, a row of the wrong length, a non-integer
    entry) or OutOfRangeError for the first bad row or entry in row-major
    order, then NotAssociativeError with the lexicographically first failing
    triple; otherwise returns the validated semigroup.
    """
    n = len(table)
    if n == 0:
        raise ValueError("empty table")
    rows = []
    for row in table:
        if len(row) != n or not all(map(_is_index_type, set(map(type, row)))):
            break
        rows.append(row)
    m = len(rows)
    try:
        t = np.array(rows, dtype=np.int64).reshape(m, n)
    except OverflowError:  # a Python int beyond int64, so out of range below
        t = np.array(rows, dtype=object).reshape(m, n)
    out = first_witness((t < 0) | (t >= n), ("i", "j"))
    if out:
        i, j = out["i"], out["j"]
        raise OutOfRangeError(i, j, rows[i][j], n)
    if m < n:
        _raise_row_error(row, m, n)
    bad = associativity_witness(t)
    if bad:
        raise NotAssociativeError(bad["x"], bad["y"], bad["z"])
    if names is not None:
        names = tuple(str(x) for x in names)
        if len(names) != n:
            raise ValueError("names length does not match table size")
    # int() returns a Python int entry itself, so the table shares the caller's ints
    return FiniteSemigroup(n, tuple(tuple(map(int, row)) for row in rows), names)


def associativity_witness(t):
    """The first (x, y, z) in row-major order with (xy)z != x(yz), or None.

    t is a square int array; one (y, z) block of n^2 entries per x.
    """
    for x in range(len(t)):
        # Named, so each block is freed only when the next one exists: two
        # blocks freed together were handed back to the system and faulted in
        # again page by page, three times slower on pt:4.
        left = t[t[x]]       # left[y][z] = (x*y)*z
        right = t[x][t]      # right[y][z] = x*(y*z)
        found = first_witness(left != right, ("y", "z"))
        if found:
            return {"x": x, **found}
    return None


def _is_index_type(kind):
    return issubclass(kind, (int, np.integer)) and not issubclass(kind, bool)


def _raise_row_error(row, i, n):
    """The error of the first bad entry of a row that has one, or of its length."""
    if len(row) != n:
        raise ValueError(f"row {i} has length {len(row)}, expected {n}")
    for j, entry in enumerate(row):
        if not _is_index_type(type(entry)):
            raise ValueError(f"table[{i}][{j}] is not an integer")
        if not 0 <= entry < n:
            raise OutOfRangeError(i, j, entry, n)


def idempotents(S) -> frozenset:
    """Indices e with e*e = e."""
    return frozenset(e for e in range(S.n) if S.table[e][e] == e)


@dataclass(frozen=True)
class GreenData:
    r_class: tuple  # element -> class id, ids assigned by first occurrence
    l_class: tuple
    h_class: tuple
    d_class: tuple

    def classes(self, which):
        labels = getattr(self, which + "_class")
        out = {}
        for x, c in enumerate(labels):
            out.setdefault(c, []).append(x)
        return [tuple(out[c]) for c in sorted(out)]


def _partition_ids(keys):
    ids = {}
    return tuple(ids.setdefault(k, len(ids)) for k in keys)


def green(S) -> GreenData:
    """Green's relations via principal one-sided ideals.

    a R b iff aS^1 = bS^1, a L b iff S^1 a = S^1 b, H = R meet L, and D is
    the join of R and L (equal to R o L on a finite semigroup).  The result
    is kept in the semigroup's instance dictionary, so later calls for the
    same semigroup read the same copy.
    """
    cache = vars(S)
    if "_green" not in cache:
        cache["_green"] = _green(S)
    return cache["_green"]


def _green(S) -> GreenData:
    n, t = S.n, S.table
    rn = range(n)
    right_ideals = [frozenset([a]).union(t[a][x] for x in rn) for a in rn]
    left_ideals = [frozenset([a]).union(t[x][a] for x in rn) for a in rn]
    r = _partition_ids(right_ideals)
    l = _partition_ids(left_ideals)
    h = _partition_ids(list(zip(r, l)))

    parent = list(rn)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    seen_r, seen_l = {}, {}
    for x in rn:
        if r[x] in seen_r:
            union(seen_r[r[x]], x)
        seen_r[r[x]] = x
        if l[x] in seen_l:
            union(seen_l[l[x]], x)
        seen_l[l[x]] = x
    d = _partition_ids([find(x) for x in rn])
    return GreenData(r, l, h, d)


def subsemilattice_violation(S, E):
    """First reason E is not a commuting set of idempotents closed under the product.

    Returns None, ("out of range", (e,)), or the first failure of a loop over
    e in sorted E that checks ("not idempotent", (e,)) and then, for each f
    in E, ("products do not commute", (e, f)) and ("not closed", (e, f)).
    """
    E = sorted(set(E))
    for e in E:
        if not 0 <= e < S.n:
            return ("out of range", (e,))
    t = S.table
    products = np.array([[t[e][f] for f in E] for e in E], dtype=np.int64).reshape(len(E), len(E))
    closed = np.isin(products, E)
    for i, e in enumerate(E):
        if products[i, i] != e:
            return ("not idempotent", (e,))
        bad = np.stack([products[i] != products[:, i], ~closed[i]], axis=1)
        found = first_witness(bad, ("f", "kind"), f=E)
        if found:
            return (("products do not commute", "not closed")[found["kind"]], (e, found["f"]))
    return None


def opposite(S) -> FiniteSemigroup:
    """Same elements, reversed multiplication."""
    n = S.n
    table = tuple(tuple(S.table[j][i] for j in range(n)) for i in range(n))
    return FiniteSemigroup(n, table, S.names)


def product(S, T) -> FiniteSemigroup:
    """Direct product; element (i, j) gets index i*|T| + j."""
    nt = T.n
    table = []
    for i in range(S.n):
        for j in range(nt):
            table.append(tuple(S.table[i][k] * nt + T.table[j][m]
                               for k in range(S.n) for m in range(nt)))
    names = None
    if S.names is not None and T.names is not None:
        names = tuple(f"({a},{b})" for a in S.names for b in T.names)
    return FiniteSemigroup(S.n * T.n, tuple(table), names)


def subsemigroup(S, elements) -> FiniteSemigroup:
    """Restrict the table to a product-closed subset, reindexing densely.

    Element order follows the order given in `elements`.
    """
    elements = list(elements)
    index = {x: i for i, x in enumerate(elements)}
    if len(index) != len(elements):
        raise ValueError("duplicate elements")
    for a in elements:
        for b in elements:
            if S.table[a][b] not in index:
                raise NotClosedError("product", (a, b))
    table = tuple(tuple(index[S.table[a][b]] for b in elements) for a in elements)
    names = tuple(S.name(a) for a in elements) if S.names is not None else None
    return FiniteSemigroup(len(elements), table, names)


def identity_of(S):
    """Index of the two-sided identity, or None. Identities are discovered, never declared."""
    rn = range(S.n)
    for e in rn:
        if all(S.table[e][x] == x == S.table[x][e] for x in rn):
            return e
    return None


def is_inverse(S) -> bool:
    """True iff every element has exactly one inverse b with aba=a and bab=b."""
    t = S.table
    rn = range(S.n)
    for a in rn:
        count = 0
        for b in rn:
            if t[t[a][b]][a] == a and t[t[b][a]][b] == b:
                count += 1
                if count > 1:
                    return False
        if count != 1:
            return False
    return True


def to_interchange(S, E=None) -> dict:
    """Shared JSON interchange object: {"n", "table", "E"?, "names"?}."""
    obj = {"n": S.n, "table": [list(row) for row in S.table]}
    if E is not None:
        obj["E"] = sorted(int(e) for e in E)
    if S.names is not None:
        obj["names"] = list(S.names)
    return obj


def from_interchange(obj):
    """Parse and validate the interchange object; returns (semigroup, E or None)."""
    if not isinstance(obj, dict) or "table" not in obj:
        raise ValueError("interchange object must be a dict with a 'table' field")
    table = obj["table"]
    if "n" in obj and obj["n"] != len(table):
        raise ValueError("declared n does not match table size")
    names, E = obj.get("names"), obj.get("E")
    if names is not None and not isinstance(names, list):
        raise ValueError("names must be a list")
    if E is not None and not (isinstance(E, list) and all(_is_index_type(type(e)) for e in E)):
        raise ValueError("E must be a list of integer indices")
    S = validate(table, names)
    if E is not None:
        E = tuple(sorted({int(e) for e in E}))
        if any(not 0 <= e < S.n for e in E):
            raise ValueError("E contains out-of-range indices")
    return S, E
