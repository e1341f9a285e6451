"""Finite semigroups as dense multiplication tables over indices 0..n-1.

All structures are immutable after construction and all operations are pure,
so values can be shared freely between threads.  Tables, maps and orders are
stored as read-only numpy arrays (int64 indices, bool relations).
"""

import numpy as np

from .errors import NotAssociativeError, NotClosedError, OutOfRangeError
from .reports import first_witness

ELEMENTS_MAX = 7776  # |PT_5|, the largest zoo member; larger inputs never reach validate


def freeze_fields(obj, **dtypes):
    """Store each named field of a read-only structure as a read-only array of its dtype.

    A read-only array of that dtype is kept; anything else (tuples, lists, a
    writeable array) is copied, so no caller can change the stored values.
    """
    for name, dtype in dtypes.items():
        value = getattr(obj, name)
        if not (isinstance(value, np.ndarray) and value.dtype == dtype and not value.flags.writeable):
            value = np.array(value, dtype=dtype)
            value.flags.writeable = False
        vars(obj)[name] = value


def read_only(obj, name, *value):
    """__setattr__ and __delattr__ of the structures: __init__ sets their fields, once."""
    raise AttributeError(f"{type(obj).__name__} is read-only: cannot set or delete {name!r}")


def kept(obj, key, compute):
    """compute(obj), computed once per object and kept in its instance dictionary."""
    cache = vars(obj)
    if key not in cache:
        cache[key] = compute(obj)
    return cache[key]


class FiniteSemigroup:
    __setattr__ = __delattr__ = read_only

    def __init__(self, n, table, names=None):
        # table[i, j] = index of i*j
        vars(self).update(n=n, table=table, names=names)
        freeze_fields(self, table=np.int64)
        if self.table.shape != (self.n, self.n):
            raise ValueError(f"table shape {self.table.shape} does not match n = {self.n}")

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
    ValueError for names of the wrong length (before the associativity test), then
    NotAssociativeError with the lexicographically first failing triple;
    otherwise returns the validated semigroup, which keeps its generating
    set and the result of its associativity test (see associativity_failure).
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
    t.flags.writeable = False  # t is a fresh copy, so the semigroup can keep it as it is
    S = FiniteSemigroup(n, t, names)
    bad = associativity_failure(S)
    if bad:
        raise NotAssociativeError(bad["x"], bad["y"], bad["z"])
    return S


def associativity_failure(S):
    """The first (x, y, z) in row-major order with (xy)z != x(yz), or None, kept per semigroup.

    Light's test (Clifford & Preston, Vol. 1, 1.2): if G generates S and
    (xg)z = x(gz) for all x, z in S and g in G, then S is associative, as
    the g with that property are closed under the product.  So each g in
    generators(S) is checked on all (x, z), and only a table that fails for
    some g is swept exhaustively, for the lexicographically first triple.
    """
    return kept(S, "_associativity_failure", _associativity_failure)


def _associativity_failure(S):
    t, G = S.table, generators(S)
    tG = t[G]
    for x, xG in enumerate(t[:, G]):
        left = t[xG]      # (x*g_i)*z, named as in associativity_witness: 3x faster on pt:5
        right = t[x][tG]  # x*(g_i*z)
        if (left != right).any():
            return associativity_witness(t)
    return None


def associativity_witness(t, composable=None):
    """The first (x, y, z) in row-major order with (xy)z != x(yz), or None.

    t is a square int array; one (y, z) block of n^2 entries per x.  With
    composable, an (n, n) bool mask, only the triples with composable[x, y]
    and composable[y, z] count (a category's associativity), and the block
    of x holds only the rows y with composable[x, y].
    """
    arange = np.arange(len(t))
    for x in range(len(t)):
        ys = slice(None) if composable is None else np.flatnonzero(composable[x])
        # Named, so each block is freed only when the next one exists: two
        # blocks freed together were handed back to the system and faulted in
        # again page by page, three times slower on pt:4.
        left = t[t[x, ys]]   # left[i][z] = (x*y_i)*z
        right = t[x][t[ys]]  # right[i][z] = x*(y_i*z)
        bad = left != right
        if composable is not None:
            bad &= composable[ys]
        found = first_witness(bad, ("y", "z"), y=arange[ys])
        if found:
            return {"x": x, **found}
    return None


def generators(S):
    """A set G of elements that generates S, as an int64 array, kept per semigroup.

    Every element of S is a left-normed product ((g1 g2) g3)... of elements
    of G, checked on the table without assuming associativity: the closure
    of G under right multiplication by G reaches all n elements.  Elements
    are taken greedily in descending order of |aS^1| + |S^1 a| (ties by
    index), each only if the closure of those before it has not reached it.
    """
    return kept(S, "_generators", lambda S: _generating_set(S.table))


def _generating_set(t):
    n = len(t)
    size = sum(member.sum(axis=1) for member in _principal_ideals(t))
    reached = np.zeros(n, dtype=bool)
    G = []
    for a in np.argsort(-size, kind="stable").tolist():
        if reached[a]:
            continue
        G.append(a)
        # the new left-normed words are a, the words already reached times a,
        # and these times the generators, until nothing new is reached
        new = np.zeros(n, dtype=bool)
        new[t[reached, a]] = True
        new[a] = True
        new &= ~reached
        while new.any():
            reached |= new
            products = np.zeros(n, dtype=bool)
            products[t[np.ix_(new, G)]] = True
            new = products & ~reached
        if reached.all():
            break
    G = np.array(G, dtype=np.int64)
    G.flags.writeable = False
    return G


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


class GreenData:
    __setattr__ = __delattr__ = read_only

    def __init__(self, r_class, l_class, h_class, d_class):
        # element -> class id, ids assigned by first occurrence
        vars(self).update(r_class=r_class, l_class=l_class, h_class=h_class, d_class=d_class)
        freeze_fields(self, r_class=np.int64, l_class=np.int64, h_class=np.int64,
                      d_class=np.int64)

    def classes(self, which):
        return class_members(getattr(self, which + "_class"))


def class_ids(keys):
    """One id per key or 2-D row: equal keys share an id, numbered by first occurrence."""
    _, first, inverse = np.unique(keys, axis=0 if keys.ndim > 1 else None, return_index=True,
                                  return_inverse=True)
    return np.argsort(first).argsort()[inverse.reshape(-1)]  # the rank of each first occurrence


def pair_ids(a, b):
    """class_ids of the pairs (a[i], b[i]) of non-negative integers, each packed into one key."""
    return class_ids(a * (b.max(initial=0) + 1) + b)


def group_keys(keys, size=0):
    """(order, ptr): order[ptr[k]:ptr[k + 1]] lists the positions of the integer key k, ascending."""
    order = np.argsort(keys, kind="stable")
    return order, np.concatenate(([0], np.cumsum(np.bincount(keys, minlength=size))))


def concat_ranges(starts, lengths):
    """The concatenation of arange(s, s + l) over paired starts and lengths: CSR rows gathered."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(ends[-1] if ends.size else 0)


def class_members(ids):
    """The members of each class, ascending, as a list of tuples in class id order."""
    order, ptr = group_keys(ids)
    return [tuple(order[lo:hi].tolist()) for lo, hi in zip(ptr[:-1].tolist(), ptr[1:].tolist())]


def check_indices(n, indices, what="element"):
    """Raise ValueError naming the first index outside 0..n-1, which numpy would wrap or reject."""
    for i in indices:
        if not 0 <= i < n:
            raise ValueError(f"{what} {i} is outside 0..{n - 1}")


def green(S) -> GreenData:
    """Green's relations via principal one-sided ideals.

    a R b iff aS^1 = bS^1, a L b iff S^1 a = S^1 b, H = R meet L, and D is
    the join of R and L (equal to R o L on a finite semigroup).  The result
    is kept in the semigroup's instance dictionary, so later calls for the
    same semigroup read the same copy.
    """
    return kept(S, "_green", _green)


def _principal_ideals(t):
    """member[a, b]: b in aS^1, then b in S^1 a, refilled in place in one (n, n) bool array."""
    rows, member = np.arange(len(t))[:, None], np.empty(t.shape, dtype=bool)
    for products in (t, t.T):
        member[:] = False
        np.fill_diagonal(member, True)
        member[rows, products] = True
        yield member


def _green(S) -> GreenData:
    r, l = (class_ids(np.packbits(member, axis=1)) for member in _principal_ideals(S.table))
    h = pair_ids(r, l)
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

    Every field, E's range included, is checked before validate's associativity test.
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
    if names is not None:
        if not (isinstance(names, list) and all(isinstance(x, str) for x in names)):
            raise ValueError("names must be a list of strings")
    if E is not None:
        if not (isinstance(E, list) and all(_is_index_type(type(e)) for e in E)):
            raise ValueError("E must be a list of integer indices")
        E = tuple(sorted({int(e) for e in E}))
        if any(not 0 <= e < n for e in E):
            raise ValueError("E contains out-of-range indices")
    return validate(table, names), E
