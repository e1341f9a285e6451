"""Finite semigroups as dense multiplication tables over indices 0..n-1.

All structures are immutable after construction and all operations are pure,
so values can be shared freely between threads.  Tables, maps and orders are
stored as read-only numpy arrays (int64 indices, bool relations).
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotAssociativeError, NotClosedError, OutOfRangeError
from .reports import first_witness

ELEMENTS_MAX = 7776  # |PT_5|, the largest zoo member; larger inputs never reach validate


def freeze_fields(obj, **dtypes):
    """Store each named field of a frozen dataclass as a read-only array of its dtype.

    A read-only array of that dtype is kept; anything else (tuples, lists, a
    writeable array) is copied, so no caller can change the stored values.
    """
    for name, dtype in dtypes.items():
        value = getattr(obj, name)
        if not (isinstance(value, np.ndarray) and value.dtype == dtype and not value.flags.writeable):
            value = np.array(value, dtype=dtype)
            value.flags.writeable = False
        object.__setattr__(obj, name, value)


def kept(obj, key, compute, *args):
    """compute(obj, *args), computed once per object and kept in its instance dictionary."""
    cache = vars(obj)
    if key not in cache:
        cache[key] = compute(obj, *args)
    return cache[key]


@dataclass(frozen=True, eq=False)
class FiniteSemigroup:
    n: int
    table: np.ndarray  # table[i, j] = index of i*j
    names: tuple | None = None

    def __post_init__(self):
        freeze_fields(self, table=np.int64)

    def mul(self, a, b):
        return int(self.table[a, b])

    def name(self, a):
        return self.names[a] if self.names is not None else str(a)

    def __repr__(self):
        return f"FiniteSemigroup(n={self.n})"


def validate(table, names=None) -> FiniteSemigroup:
    """Check a square index table for range and associativity.

    `table` is a list of rows or a square integer array.  Raises ValueError
    (empty table, a row of the wrong length, a non-integer entry) or
    OutOfRangeError for the first bad row or entry in row-major order, then
    ValueError for names of the wrong length (before the O(n^3) sweep), then
    NotAssociativeError with the lexicographically first failing triple;
    otherwise returns the validated semigroup, which keeps the result of its
    associativity sweep (see associativity_failure).
    """
    n = len(table)
    if n == 0:
        raise ValueError("empty table")
    if isinstance(table, np.ndarray) and table.dtype.kind in "iu" and table.shape == (n, n):
        rows, m = table, n
        t = table.astype(np.int64)
    else:
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
    if names is not None:
        names = tuple(str(x) for x in names)
        if len(names) != n:
            raise ValueError("names length does not match table size")
    bad = associativity_witness(t)
    if bad:
        raise NotAssociativeError(bad["x"], bad["y"], bad["z"])
    t.flags.writeable = False  # t is a fresh copy, so the semigroup can keep it as it is
    S = FiniteSemigroup(n, t, names)
    vars(S)["_associativity_failure"] = None
    return S


def associativity_failure(S):
    """associativity_witness of S's table, swept once per semigroup.

    validate keeps its own sweep's result, so a validated table is never swept twice.
    """
    return kept(S, "_associativity_failure", lambda S: associativity_witness(S.table))


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
    return frozenset(np.flatnonzero(S.table.diagonal() == np.arange(S.n)).tolist())


@dataclass(frozen=True, eq=False)
class GreenData:
    r_class: np.ndarray  # element -> class id, ids assigned by first occurrence
    l_class: np.ndarray
    h_class: np.ndarray
    d_class: np.ndarray

    def __post_init__(self):
        freeze_fields(self, r_class=np.int64, l_class=np.int64, h_class=np.int64,
                      d_class=np.int64)

    def classes(self, which):
        return class_members(getattr(self, which + "_class"))


def class_ids(keys):
    """One id per row of a 2-D array: equal rows share an id, numbered by first occurrence."""
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inverse.reshape(-1)]


def class_members(ids):
    """The members of each class, ascending, as a list of tuples in class id order."""
    order = np.argsort(ids, kind="stable")
    return [tuple(c.tolist()) for c in np.split(order, np.cumsum(np.bincount(ids))[:-1])]


def green(S) -> GreenData:
    """Green's relations via principal one-sided ideals.

    a R b iff aS^1 = bS^1, a L b iff S^1 a = S^1 b, H = R meet L, and D is
    the join of R and L (equal to R o L on a finite semigroup).  The result
    is kept in the semigroup's instance dictionary, so later calls for the
    same semigroup read the same copy.
    """
    return kept(S, "_green", _green)


def _green(S) -> GreenData:
    n, t = S.n, S.table
    rows = np.arange(n)[:, None]
    ideals = []
    for products in (t, t.T):           # member[a, b]: b in aS^1, then b in S^1 a
        member = np.eye(n, dtype=bool)
        member[rows, products] = True
        ideals.append(class_ids(np.packbits(member, axis=1)))
    r, l = ideals
    h = class_ids(np.stack([r, l], axis=1))
    # an R-class meets exactly the L-classes of its D-class (D = R o L), so the
    # R-classes of one D-class are the equal rows of the R x L incidence matrix
    incidence = np.zeros((r.max() + 1, l.max() + 1), dtype=bool)
    incidence[r, l] = True
    d = class_ids(np.packbits(incidence, axis=1))[r]
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
    products = S.table[np.ix_(E, E)]
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
    return FiniteSemigroup(S.n, S.table.T, S.names)


def product(S, T) -> FiniteSemigroup:
    """Direct product; element (i, j) gets index i*|T| + j."""
    n = S.n * T.n
    table = S.table[:, None, :, None] * T.n + T.table[None, :, None, :]  # [i, j, k, m]
    names = None
    if S.names is not None and T.names is not None:
        names = tuple(f"({a},{b})" for a in S.names for b in T.names)
    return FiniteSemigroup(n, table.reshape(n, n), names)


def subsemigroup(S, elements) -> FiniteSemigroup:
    """Restrict the table to a product-closed subset, reindexing densely.

    Element order follows the order given in `elements`.
    """
    elements = list(elements)
    if len(set(elements)) != len(elements):
        raise ValueError("duplicate elements")
    if not all(0 <= a < S.n for a in elements):
        raise ValueError("elements out of range")
    index = np.full(S.n, -1, dtype=np.int64)
    index[elements] = np.arange(len(elements))
    table = index[S.table[np.ix_(elements, elements)]]
    outside = first_witness(table < 0, ("a", "b"), a=elements, b=elements)
    if outside:
        raise NotClosedError("product", (outside["a"], outside["b"]))
    names = tuple(S.name(a) for a in elements) if S.names is not None else None
    return FiniteSemigroup(len(elements), table, names)


def identity_of(S):
    """Index of the two-sided identity, or None. Identities are discovered, never declared."""
    arange = np.arange(S.n)
    found = first_witness((S.table == arange).all(axis=1) & (S.table.T == arange).all(axis=1),
                          ("e",))
    return None if found is None else found["e"]


def is_inverse(S) -> bool:
    """True iff every element has exactly one inverse b with aba=a and bab=b."""
    t, a = S.table, np.arange(S.n)[:, None]
    aba = t[t, a] == a  # aba[a, b]: (ab)a = a, so aba.T[a, b]: (ba)b = b
    return bool(((aba & aba.T).sum(axis=1) == 1).all())


def to_interchange(S, E=None) -> dict:
    """Shared JSON interchange object: {"n", "table", "E"?, "names"?}."""
    obj = {"n": S.n, "table": S.table.tolist()}
    if E is not None:
        obj["E"] = sorted(int(e) for e in E)
    if S.names is not None:
        obj["names"] = list(S.names)
    return obj


def from_interchange(obj):
    """Parse and validate the interchange object; returns (semigroup, E or None).

    Every field, E's range included, is checked before validate's O(n^3) sweep.
    """
    if not isinstance(obj, dict) or "table" not in obj:
        raise ValueError("interchange object must be a dict with a 'table' field")
    table = obj["table"]
    if not (isinstance(table, list) and all(isinstance(row, list) for row in table)):
        raise ValueError("table must be a list of lists")
    if len(table) > ELEMENTS_MAX:
        raise ValueError(f"{len(table)} elements, above the limit {ELEMENTS_MAX}")
    n = obj.get("n", len(table))
    if not _is_index_type(type(n)):
        raise ValueError("n must be an integer")
    if n != len(table):
        raise ValueError("declared n does not match table size")
    names, E = obj.get("names"), obj.get("E")
    if names is not None and not isinstance(names, list):
        raise ValueError("names must be a list")
    if E is not None:
        if not (isinstance(E, list) and all(_is_index_type(type(e)) for e in E)):
            raise ValueError("E must be a list of integer indices")
        E = tuple(sorted({int(e) for e in E}))
        if any(not 0 <= e < n for e in E):
            raise ValueError("E contains out-of-range indices")
    return validate(table, names), E
