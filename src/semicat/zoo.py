"""Generators for the worked examples, each emitting a ready Ehresmann structure.

Conventions, fixed so that element indices in golden files stay stable:

* Functions and morphisms compose left to right: (f*g)(x) = g(f(x)), and
  relations compose as R*Q = {(i,k) : (i,j) in R, (j,k) in Q}.
* Partial maps on n points are image vectors over {0..n-1, undefined}; the
  vector is encoded as a base-(n+1) integer with digit n meaning "undefined",
  which orders elements lexicographically by image vector with undefined last.
* Binary relations on n points are bitmasks over pairs, bit (i*n + j) for
  (i, j); the mask itself is the element index.
* Strong-semilattice elements are (component, member) pairs flattened in
  component-major order.
"""

import numpy as np

from .ehresmann import EhresmannStructure, derive_structure
from .errors import IncompatibleMapsError, NotClosedError
from .reports import first_witness
from .semigroups import (
    ELEMENTS_MAX,
    FiniteSemigroup,
    identity_of,
    opposite,
    product,
    subsemigroup,
    validate,
)

PT_MAX = 5
B_MAX = 3  # a dense table for all binary relations on 4 points would need 2^32 entries
T_MAX = 5
CHAIN_MAX = 64  # strong_semilattice checks chain compatibility in O(K^3) Python steps


def _pt_name(vec, n):
    return "(" + ",".join("-" if v == n else str(v + 1) for v in vec) + ")"


def _all_vectors(n, k):
    """Every vector in range(k)^n, one per row, in lexicographic order."""
    return np.arange(k ** n)[:, None] // k ** np.arange(n - 1, -1, -1) % k


def _compose_vectors(vectors, n):
    """Dense index table of partial maps given by image vectors (undefined = n).

    Row i of `vectors` is element i.  The product (f*g)(x) = g(f(x)) is
    encoded in base n+1, one point x at a time, into an (m, m) buffer and
    mapped back to element indices, so no (m, m, n) intermediate is built.
    Raises NotClosedError on the first product outside the given maps.
    """
    m, base = len(vectors), n + 1
    index = np.full(base ** n, -1, dtype=np.int32)
    index[vectors @ base ** np.arange(n - 1, -1, -1)] = np.arange(m)
    # images[y, g] = g(y), with an extra row keeping "undefined" undefined
    images = np.vstack([vectors.T, np.full(m, n)]).astype(np.int32)
    code = np.zeros((m, m), dtype=np.int32)
    for x in range(n):
        code *= base
        code += images[vectors[:, x]]
    table = index[code]
    outside = first_witness(table < 0, ("a", "b"))
    if outside:
        raise NotClosedError("product", (outside["a"], outside["b"]))
    return table


def _partial_identities(vectors, n):
    """Indices of the rows that fix every point of their domain."""
    fixed = (vectors == np.arange(n)) | (vectors == n)
    return np.flatnonzero(fixed.all(axis=1)).tolist()


def _maps_semigroup(vectors, n):
    table = _compose_vectors(vectors, n)
    return validate(table, [_pt_name(v, n) for v in vectors.tolist()])


def pt_n(n) -> EhresmannStructure:
    """All partial functions on n points; E is the partial identities."""
    if not 1 <= n <= PT_MAX:
        raise ValueError(f"pt_n supports 1 <= n <= {PT_MAX}")
    vectors = _all_vectors(n, n + 1)
    return derive_structure(_maps_semigroup(vectors, n), _partial_identities(vectors, n))


def t_n(n) -> FiniteSemigroup:
    """All total functions on n points; a building block, no distinguished E."""
    if not 1 <= n <= T_MAX:
        raise ValueError(f"t_n supports 1 <= n <= {T_MAX}")
    return _maps_semigroup(_all_vectors(n, n), n)


def _subsets(points):
    points = list(points)
    out = [frozenset()]
    for p in points:
        out += [s | {p} for s in out]
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def _relation_name(mask, n):
    pairs = [(i + 1, j + 1) for i in range(n) for j in range(n) if mask >> (i * n + j) & 1]
    if not pairs:
        return "{}"
    return "{" + ",".join(f"({i},{j})" for i, j in sorted(pairs)) + "}"


def b_n(n) -> EhresmannStructure:
    """All binary relations on n points; E is the partial identities."""
    if not 1 <= n <= B_MAX:
        raise ValueError(f"b_n supports 1 <= n <= {B_MAX}")
    size = 1 << (n * n)
    bit = np.arange(n * n).reshape(n, n)                 # bit[i, j] stands for the pair (i, j)
    rel = (np.arange(size)[:, None, None] >> bit) & 1    # rel[mask, i, j]: (i, j) in the relation
    second = rel.transpose(1, 0, 2).reshape(n, size * n)  # second[j, (q, k)] = rel[q, j, k]
    table = np.zeros((size, size), dtype=np.int64)
    for i in range(n):
        # (R*Q)(i, k) iff (i, j) in R and (j, k) in Q for some j
        reached = (rel[:, i, :] @ second).reshape(size, size, n) > 0
        table += reached @ (1 << bit[i])
    names = tuple(_relation_name(m, n) for m in range(size))
    S = validate(table, names)
    identities = [sum(1 << (i * n + i) for i in A) for A in _subsets(range(n))]
    return derive_structure(S, identities)


def relation_mask(pairs, n) -> int:
    """Index of a relation given as 1-based pairs, e.g. [(1,1),(1,2)]."""
    mask = 0
    for i, j in pairs:
        mask |= 1 << ((i - 1) * n + (j - 1))
    return mask


def strong_semilattice(Y, monoids, maps) -> EhresmannStructure:
    """Strong semilattice of monoids over the semilattice Y.

    Y is a finite semigroup that must be a commutative band; monoids[k] is the
    monoid sitting at element k of Y; maps[(a, b)] lists the image of each
    member of monoids[a] in monoids[b], for every strictly comparable a > b.
    The maps must be monoid homomorphisms compatible along chains; the product
    pushes both factors down to the meet component.
    """
    ny = Y.n
    if (Y.table != Y.table.T).any() or (Y.table.diagonal() != np.arange(ny)).any():
        raise ValueError("Y is not a semilattice")
    if len(monoids) != ny:
        raise ValueError("need one monoid per element of Y")
    units = []
    for k, M in enumerate(monoids):
        e = identity_of(M)
        if e is None:
            raise ValueError(f"component {k} has no identity")
        units.append(e)

    def connecting(a, b):
        if a == b:
            return list(range(monoids[a].n))
        m = maps.get((a, b))
        if m is None:
            raise IncompatibleMapsError("missing map", (a, b))
        return m

    for (a, b), m in maps.items():
        if Y.table[a][b] != b or a == b:
            raise IncompatibleMapsError("map given for incomparable pair", (a, b))
        if len(m) != monoids[a].n or any(not 0 <= v < monoids[b].n for v in m):
            raise IncompatibleMapsError("map has wrong shape", (a, b))
        if m[units[a]] != units[b]:
            raise IncompatibleMapsError("map does not preserve the identity", (a, b))
        image = monoids[b].table[np.ix_(m, m)]  # image[x, y] = m(x) m(y)
        bad = first_witness(np.take(m, monoids[a].table) != image, ("x", "y"))
        if bad:
            raise IncompatibleMapsError("map is not a homomorphism", (a, b, bad["x"], bad["y"]))
    for a in range(ny):
        for b in range(ny):
            for c in range(ny):
                if Y.table[a][b] == b and Y.table[b][c] == c and a != b and b != c:
                    mab, mbc, mac = connecting(a, b), connecting(b, c), connecting(a, c)
                    for x in range(monoids[a].n):
                        if mbc[mab[x]] != mac[x]:
                            raise IncompatibleMapsError("maps do not compose", (a, b, c))

    offsets = np.cumsum([0] + [M.n for M in monoids]).tolist()
    table = np.zeros((offsets[-1], offsets[-1]), dtype=np.int64)
    for a in range(ny):
        for b in range(ny):
            c = Y.mul(a, b)
            block = monoids[c].table[np.ix_(connecting(a, c), connecting(b, c))]
            table[offsets[a]:offsets[a + 1], offsets[b]:offsets[b + 1]] = offsets[c] + block
    names = [f"({a},{M.name(x)})" for a, M in enumerate(monoids) for x in range(M.n)]
    S = validate(table, names)
    return derive_structure(S, [offsets[a] + units[a] for a in range(ny)])


def cyclic_group(k) -> FiniteSemigroup:
    if not 1 <= k <= ELEMENTS_MAX:
        raise ValueError(f"cyclic_group supports 1 <= k <= {ELEMENTS_MAX}")
    names = tuple(f"g{i}" for i in range(k))
    return validate((np.arange(k)[:, None] + np.arange(k)) % k, names)


def six_element_example() -> EhresmannStructure:
    """The six-element subsemigroup of T2 x T2-op built from constants and identities.

    Elements, in order: (1,1), (2,1), (1,2), (2,2), (1,id), (id,1) where a
    digit stands for the constant map to that point.  E is the first, fifth
    and sixth; the first four form a rectangular band.
    """
    t2 = t_n(2)
    both = product(t2, opposite(t2))
    const1, ident, const2 = 0, 1, 3  # image vectors (0,0), (0,1), (1,1)
    pairs = [
        (const1, const1), (const2, const1), (const1, const2),
        (const2, const2), (const1, ident), (ident, const1),
    ]
    elems = [i * 4 + j for i, j in pairs]
    S = subsemigroup(both, elems)
    labels = ("(1,1)", "(2,1)", "(1,2)", "(2,2)", "(1,id)", "(id,1)")
    S = FiniteSemigroup(S.n, S.table, labels)
    return derive_structure(S, [0, 4, 5])


def order_preserving_pt(n, leq=None) -> EhresmannStructure:
    """Order-preserving partial maps on n points, by default along the chain.

    `leq` is an n x n boolean matrix; a map is kept when every pair x <= y
    inside its domain goes to a pair f(x) <= f(y).  Only the kept maps are
    composed: a product outside them raises NotClosedError (via the index
    map), `validate` checks associativity of the kept table, and
    `derive_structure` checks that + and * are defined and satisfy the
    Ehresmann identities.  PT_n itself is never built.
    """
    if not 1 <= n <= PT_MAX:
        raise ValueError(f"order_preserving_pt supports 1 <= n <= {PT_MAX}")
    if leq is None:
        leq = [[x <= y for y in range(n)] for x in range(n)]
    elif len(leq) != n or any(len(row) != n for row in leq):
        raise ValueError(f"leq must be an {n}x{n} matrix")
    # row and column n stand for "undefined", which constrains nothing
    images_leq = np.ones((n + 1, n + 1), dtype=bool)
    images_leq[:n, :n] = np.asarray(leq, dtype=bool)
    vectors = _all_vectors(n, n + 1)
    keep = np.ones(len(vectors), dtype=bool)
    for x, y in np.argwhere(images_leq[:n, :n]):
        keep &= images_leq[vectors[:, x], vectors[:, y]]
    vectors = vectors[keep]
    return derive_structure(_maps_semigroup(vectors, n), _partial_identities(vectors, n))


def monoid_as_trivial_e(M) -> EhresmannStructure:
    """Any monoid with E = {1}: one object, every element an endomorphism."""
    e = identity_of(M)
    if e is None:
        raise ValueError("not a monoid: no identity element")
    return derive_structure(M, [e])


def parse_zoo_spec(spec):
    """Build a zoo member from a compact string.

    Accepted forms: pt:N, b:N, t:N (total functions with E = {id}), op:N,
    z:N, six, and ssl:chainK:z2,z3,... (a K-chain of cyclic groups listed
    top to bottom, with the trivial connecting homomorphisms).
    """
    parts = spec.split(":")
    kind = parts[0]
    try:
        if kind == "six" and len(parts) == 1:
            return six_element_example()
        if kind == "pt" and len(parts) == 2:
            return pt_n(int(parts[1]))
        if kind == "b" and len(parts) == 2:
            return b_n(int(parts[1]))
        if kind == "t" and len(parts) == 2:
            return monoid_as_trivial_e(t_n(int(parts[1])))
        if kind == "op" and len(parts) == 2:
            return order_preserving_pt(int(parts[1]))
        if kind == "z" and len(parts) == 2:
            return monoid_as_trivial_e(cyclic_group(int(parts[1])))
        if kind == "ssl" and len(parts) == 3:
            chain = parts[1]
            if not chain.startswith("chain"):
                raise ValueError(f"unknown semilattice {chain!r}")
            k = int(chain[len("chain"):])
            if k > CHAIN_MAX:
                raise ValueError(f"chain{k} has more than {CHAIN_MAX} components")
            groups = parts[2].split(",")
            if len(groups) != k:
                raise ValueError(f"chain{k} needs {k} monoids, got {len(groups)}")
            for g in groups:
                if not g.startswith("z"):
                    raise ValueError(f"unknown monoid {g!r}")
            orders = [int(g[1:]) for g in groups]
            if sum(orders) > ELEMENTS_MAX:
                raise ValueError(f"{sum(orders)} elements, above the limit {ELEMENTS_MAX}")
            monoids = [cyclic_group(order) for order in orders]
            # chain element i covers i+1; product = max index (lower in the order)
            table = [[max(a, b) for b in range(k)] for a in range(k)]
            Y = validate(table)
            maps = {
                (a, b): [identity_of(monoids[b])] * monoids[a].n
                for a in range(k) for b in range(k) if a < b
            }
            return strong_semilattice(Y, monoids, maps)
    except ValueError as err:
        raise ValueError(f"bad zoo spec {spec!r}: {err}") from err
    raise ValueError(f"unknown zoo spec {spec!r}")
