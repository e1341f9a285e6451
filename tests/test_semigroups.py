import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semicat import (
    from_interchange,
    green,
    idempotents,
    identity_of,
    is_inverse,
    opposite,
    product,
    subsemigroup,
    subsemilattice_violation,
    to_interchange,
    validate,
)
from semicat import semigroups, zoo
from semicat.errors import NotAssociativeError, NotClosedError, OutOfRangeError
from semicat.semigroups import FiniteSemigroup

Z2 = [[0, 1], [1, 0]]
LEFT_ZERO = [[0, 0], [1, 1]]


def test_validate_trivial():
    S = validate([[0]])
    assert S.n == 1 and S.mul(0, 0) == 0


def test_validate_left_zero():
    S = validate(LEFT_ZERO)
    assert all(S.mul(a, b) == a for a in range(2) for b in range(2))


def test_validate_z2_group():
    S = validate(Z2)
    assert identity_of(S) == 0
    assert is_inverse(S)


def test_validate_rejects_out_of_range():
    with pytest.raises(OutOfRangeError) as exc:
        validate([[0, 2], [1, 0]])
    assert exc.value.entry == 2


def test_validate_rejects_non_square():
    with pytest.raises(ValueError):
        validate([[0, 1], [0]])


def test_validate_rejects_non_associative_with_genuine_triple():
    rng = random.Random(20240917)
    failures = 0
    for _ in range(200):
        n = rng.randrange(2, 6)
        table = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        try:
            validate(table)
        except NotAssociativeError as err:
            failures += 1
            i, j, k = err.triple
            assert table[table[i][j]][k] != table[i][table[j][k]]
    assert failures > 100  # random tables are almost never associative


def test_idempotents_z2():
    assert idempotents(validate(Z2)) == {0}


def test_idempotents_left_zero_all():
    for k in (2, 3, 4):
        table = [[a] * k for a in range(k)]
        assert idempotents(validate(table)) == set(range(k))


def test_idempotents_b2_by_direct_scan(b2):
    # oracle: scan the table for e*e = e, independent of idempotents()
    scan = {e for e in range(b2.n) if b2.S.table[e][e] == e}
    assert idempotents(b2.S) == scan
    assert len(scan) == 11


def test_green_group_single_class():
    g = green(validate(Z2))
    for which in ("r", "l", "h", "d"):
        assert len(g.classes(which)) == 1


def test_green_pt2_against_principal_ideal_oracle(pt2):
    S = pt2.S
    n, t = S.n, S.table
    right = [frozenset([a]) | {t[a][x] for x in range(n)} for a in range(n)]
    left = [frozenset([a]) | {t[x][a] for x in range(n)} for a in range(n)]
    g = green(S)
    for a in range(n):
        for b in range(n):
            assert (g.r_class[a] == g.r_class[b]) == (right[a] == right[b])
            assert (g.l_class[a] == g.l_class[b]) == (left[a] == left[b])
            assert (g.h_class[a] == g.h_class[b]) == (
                right[a] == right[b] and left[a] == left[b]
            )


def test_green_d_is_r_compose_l(zoo_members):
    for es in zoo_members.values():
        g = green(es.S)
        n = es.n
        for a in range(n):
            for b in range(n):
                composed = any(
                    g.r_class[a] == g.r_class[c] and g.l_class[c] == g.l_class[b]
                    for c in range(n)
                )
                assert (g.d_class[a] == g.d_class[b]) == composed


def test_green_left_zero():
    # xy = x: right ideals aS^1 = {a} are singletons, left ideals S^1 a = S
    g = green(validate([[0, 0, 0], [1, 1, 1], [2, 2, 2]]))
    assert len(g.classes("r")) == 3
    assert len(g.classes("l")) == 1


def test_green_invariant_under_relabeling(pt2):
    rng = random.Random(5)
    n = pt2.n
    perm = list(range(n))
    rng.shuffle(perm)
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    relabeled = validate(
        [[perm[pt2.S.table[inv[i]][inv[j]]] for j in range(n)] for i in range(n)]
    )
    g0, g1 = green(pt2.S), green(relabeled)

    def as_sets(g, which):
        return {frozenset(c) for c in g.classes(which)}

    for which in ("r", "l", "h", "d"):
        mapped = {frozenset(perm[x] for x in c) for c in as_sets(g0, which)}
        assert mapped == as_sets(g1, which)


def test_green_on_commutative_band_is_equality():
    # meet-semilattice of subsets of {0,1}: indices are bitmasks, product = AND
    table = [[a & b for b in range(4)] for a in range(4)]
    g = green(validate(table))
    for which in ("r", "l", "h", "d"):
        assert len(g.classes(which)) == 4


def test_is_subsemilattice():
    S = validate(Z2)
    assert subsemilattice_violation(S, [0]) is None
    assert subsemilattice_violation(S, [0, 1]) == ("not idempotent", (1,))
    assert subsemilattice_violation(S, [0, 2]) == ("out of range", (2,))
    assert subsemilattice_violation(S, [-1, 0]) == ("out of range", (-1,))


def test_is_subsemilattice_b2_partial_identities(b2):
    assert subsemilattice_violation(b2.S, b2.E) is None
    assert len(b2.E) == 4


def test_opposite_is_involution(pt2):
    twice = opposite(opposite(pt2.S))
    assert np.array_equal(twice.table, pt2.S.table) and twice.names == pt2.S.names


def test_product_size():
    S, T = validate(Z2), validate(LEFT_ZERO)
    assert product(S, T).n == 4


def test_t2_times_t2op_six_pairs_closed():
    both = product(zoo.t_n(2), opposite(zoo.t_n(2)))
    assert both.n == 16
    elems = [0, 12, 3, 15, 1, 4]  # (1,1),(2,1),(1,2),(2,2),(1,id),(id,1)
    closed = {both.table[a][b] for a in elems for b in elems}
    assert closed <= set(elems)
    sub = subsemigroup(both, elems)
    assert sub.n == 6


@pytest.mark.parametrize("elements", [[-1], [0, 9], [3, -9]])
def test_subsemigroup_rejects_elements_out_of_range(pt2, elements):
    # a negative index would otherwise wrap around to the last rows of the table
    with pytest.raises(ValueError, match="out of range"):
        subsemigroup(pt2.S, elements)


def test_subsemigroup_rejects_open_subset(pt2):
    # {swap} is not closed: swap*swap = id
    with pytest.raises(NotClosedError):
        subsemigroup(pt2.S, [3])


def test_interchange_roundtrip(b2):
    obj = to_interchange(b2.S, b2.E)
    S, E = from_interchange(obj)
    assert np.array_equal(S.table, b2.S.table) and S.names == b2.S.names and E == b2.E


def test_interchange_rejects_bad_e(pt2):
    obj = to_interchange(pt2.S, [99])
    with pytest.raises(ValueError):
        from_interchange(obj)


@pytest.mark.parametrize("field,value", [
    ("E", "01"),              # a string, which int() would read as (0, 1)
    ("E", ["0", 1.9]),        # int() would read (0, 1)
    ("E", [True, 1]),         # int() would read (1,)
    ("E", 3),
    ("names", "abcdefghi"),   # a string, which would be split into characters
    ("names", {"a": 1}),
])
def test_interchange_rejects_malformed_e_and_names(pt2, field, value):
    obj = to_interchange(pt2.S, pt2.E)
    obj[field] = value
    with pytest.raises(ValueError, match=field):
        from_interchange(obj)


def test_malformed_names_and_e_are_rejected_before_the_associativity_sweep(pt2, monkeypatch):
    monkeypatch.setattr(semigroups, "associativity_witness",
                        lambda t: pytest.fail("swept the table"))
    with pytest.raises(ValueError, match="names length"):
        validate(pt2.S.table, list("ab"))
    for field, value in (("names", list("ab")), ("E", [0, pt2.n]), ("E", [-1])):
        obj = to_interchange(pt2.S, pt2.E)
        obj[field] = value
        with pytest.raises(ValueError, match="names length" if field == "names" else "E"):
            from_interchange(obj)


# --- validate against the per-entry loop ---------------------------------------


def reference_validate(table, names=None):
    """The per-entry checks and the associativity sweep, one entry at a time."""
    n = len(table)
    if n == 0:
        raise ValueError("empty table")
    for i, row in enumerate(table):
        if len(row) != n:
            raise ValueError(f"row {i} has length {len(row)}, expected {n}")
        for j, entry in enumerate(row):
            if not isinstance(entry, (int, np.integer)) or isinstance(entry, bool):
                raise ValueError(f"table[{i}][{j}] is not an integer")
            if not 0 <= entry < n:
                raise OutOfRangeError(i, j, entry, n)
    if names is not None:
        names = tuple(str(x) for x in names)
        if len(names) != n:
            raise ValueError("names length does not match table size")
    t = np.asarray(table, dtype=np.int64)
    for i in range(n):
        left, right = t[t[i]], t[i][t]
        if not np.array_equal(left, right):
            j, k = np.argwhere(left != right)[0]
            raise NotAssociativeError(i, int(j), int(k))
    return tuple(tuple(int(x) for x in row) for row in table), names


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, OutOfRangeError, NotAssociativeError) as err:
        return type(err), str(err)


BAD_ENTRIES = [-1, 6, 2**70, -2**70, True, False, 1.0, "1", None, np.int8(2), np.uint64(2**64 - 1)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_validate_mutants_fail_as_the_loop_does(data):
    six = zoo.six_element_example().S
    table = [list(row) for row in six.table]
    for _ in range(data.draw(st.integers(0, 3))):
        i, j = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
        if data.draw(st.booleans()):
            table[i][j] = data.draw(st.sampled_from(BAD_ENTRIES))
        else:
            table[i][j] = data.draw(st.integers(0, 5))  # in range; may break associativity
    i, j = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
    kind = data.draw(st.sampled_from(["keep", "short", "long"]))
    if kind == "short":
        table[i] = table[i][:j]
    elif kind == "long":
        table[i] = table[i] + [0]
    names = data.draw(st.sampled_from([None, list("abcdef"), list("abc")]))
    expect = outcome(reference_validate, table, names)
    got = outcome(validate, table, names)
    if isinstance(got, FiniteSemigroup):
        got = (tuple(map(tuple, got.table.tolist())), got.names)
        assert all(type(x) is int for row in got[0] for x in row)
    assert got == expect


def test_validate_rows_as_strings_fail_as_the_loop_does():
    for table in ("ab", "a", [[0, 0], "ab"], {"ab": 1, "cd": 2}):
        assert outcome(validate, table) == outcome(reference_validate, table)


@pytest.mark.parametrize("obj", [
    {"table": [1, 2]},
    {"table": 5},
    {"table": [None]},
    {"table": "ab"},
    {"table": [[0, 1], (1, 0)]},
    {"n": True, "table": [[0]]},
    {"n": 1.0, "table": [[0]]},
    {"n": "1", "table": [[0]]},
])
def test_interchange_rejects_a_malformed_table_or_n(obj):
    with pytest.raises(ValueError, match="table must be a list of lists|n must be an integer"):
        from_interchange(obj)


def test_interchange_rejects_an_oversized_table_before_validating(monkeypatch):
    # well formed, but 7777 rows would run validate's O(n^3) sweep for hours
    monkeypatch.setattr(semigroups, "validate", lambda *args: pytest.fail("validated"))
    with pytest.raises(ValueError, match="7777 elements, above the limit 7776"):
        from_interchange({"table": [[]] * 7777})
    assert semigroups.ELEMENTS_MAX == zoo.ELEMENTS_MAX == 7776


# --- the read-only array core ----------------------------------------------------


def test_direct_construction_copies_into_a_read_only_array():
    rows = np.array(Z2)
    S = FiniteSemigroup(2, rows)
    rows[0, 0] = 1
    assert S.table.tolist() == Z2 and S.table.dtype == np.int64
    for table in (tuple(map(tuple, Z2)), Z2, S.table):
        T = FiniteSemigroup(2, table)
        assert T.table.tolist() == Z2 and not T.table.flags.writeable
    assert FiniteSemigroup(2, S.table).table is S.table  # a read-only int64 array is shared


def semigroup_outcome(fn, *args):
    got = outcome(fn, *args)
    if isinstance(got, FiniteSemigroup):
        return got.table.tolist(), got.names
    return got


@pytest.mark.parametrize("table", [
    np.array(Z2), np.array(Z2, dtype=np.uint8), np.array([[0, 2], [1, 0]]),
    np.array([[0, 1], [0, 0]]), np.array([[0, -1], [1, 0]]), np.zeros((2, 3), dtype=np.int64),
    np.array([[0, 2**64 - 1], [1, 0]], dtype=np.uint64),
])
def test_validate_reads_an_integer_array_as_its_rows(table):
    assert semigroup_outcome(validate, table) == semigroup_outcome(validate, list(table))


def reference_partition_ids(keys):
    ids = {}
    return tuple(ids.setdefault(k, len(ids)) for k in keys)


def reference_green(S):
    """Green's labels from principal ideals, with D as the union-find join of R and L."""
    n, t = S.n, S.table.tolist()
    rn = range(n)
    right_ideals = [frozenset([a]).union(t[a][x] for x in rn) for a in rn]
    left_ideals = [frozenset([a]).union(t[x][a] for x in rn) for a in rn]
    r = reference_partition_ids(right_ideals)
    l = reference_partition_ids(left_ideals)
    h = reference_partition_ids(list(zip(r, l)))

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
    d = reference_partition_ids([find(x) for x in rn])
    return r, l, h, d


def green_labels(S):
    g = green(S)
    return tuple(tuple(labels.tolist()) for labels in (g.r_class, g.l_class, g.h_class, g.d_class))


def reference_identity_of(S):
    t, rn = S.table.tolist(), range(S.n)
    for e in rn:
        if all(t[e][x] == x == t[x][e] for x in rn):
            return e
    return None


def reference_is_inverse(S):
    t, rn = S.table.tolist(), range(S.n)
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


def reference_opposite(S):
    t = S.table.tolist()
    return tuple(tuple(t[j][i] for j in range(S.n)) for i in range(S.n)), S.names


def reference_product(S, T):
    s, t, nt = S.table.tolist(), T.table.tolist(), T.n
    table = []
    for i in range(S.n):
        for j in range(nt):
            table.append(tuple(s[i][k] * nt + t[j][m] for k in range(S.n) for m in range(nt)))
    names = None
    if S.names is not None and T.names is not None:
        names = tuple(f"({a},{b})" for a in S.names for b in T.names)
    return tuple(table), names


def reference_subsemigroup(S, elements):
    t = S.table.tolist()
    elements = list(elements)
    index = {x: i for i, x in enumerate(elements)}
    if len(index) != len(elements):
        raise ValueError("duplicate elements")
    for a in elements:
        for b in elements:
            if t[a][b] not in index:
                raise NotClosedError("product", (a, b))
    table = tuple(tuple(index[t[a][b]] for b in elements) for a in elements)
    names = tuple(S.name(a) for a in elements) if S.names is not None else None
    return table, names


def as_tuples(S):
    return tuple(map(tuple, S.table.tolist())), S.names


def relabeled(S, rng):
    perm = list(range(S.n))
    rng.shuffle(perm)
    inverse = sorted(range(S.n), key=perm.__getitem__)
    t = S.table.tolist()
    return validate([[perm[t[inverse[i]][inverse[j]]] for j in range(S.n)] for i in range(S.n)])


def closure(S, generators):
    """The elements of the subsemigroup generated by `generators`, ascending."""
    t, elements = S.table.tolist(), set(generators)
    frontier = elements
    while frontier:
        frontier = {t[a][b] for a in elements for b in elements} - elements
        elements |= frontier
    return sorted(elements)


def semigroup_mutants(zoo_members, seed, count):
    """Relabelings and generated subsemigroups (still semigroups), and tables
    with one to three entries changed (usually not associative)."""
    rng = random.Random(seed)
    members = [es.S for es in zoo_members.values()]
    associative, arbitrary = [], []
    for trial in range(count):
        S = members[trial % len(members)]
        associative.append(relabeled(S, rng))
        generators = rng.sample(range(S.n), rng.randint(1, min(3, S.n)))
        associative.append(subsemigroup(S, closure(S, generators)))
        table = S.table.tolist()
        for _ in range(rng.randint(1, 3)):
            table[rng.randrange(S.n)][rng.randrange(S.n)] = rng.randrange(S.n)
        arbitrary.append(FiniteSemigroup(S.n, table, S.names))
    return associative, arbitrary


def test_green_matches_the_union_find(zoo_members):
    associative, _ = semigroup_mutants(zoo_members, 31, 60)
    semigroups = [es.S for es in zoo_members.values()] + associative
    semigroups += [zoo.t_n(3), zoo.pt_n(3).S, zoo.parse_zoo_spec("op:4").S]
    merged = 0
    for S in semigroups:
        labels = green_labels(S)
        assert labels == reference_green(S)
        assert green(S).classes("d") == [tuple(c) for c in _members(labels[3])]
        merged += labels[3] != labels[0]
    assert merged > 10  # D is coarser than R on many of them


def _members(labels):
    out = {}
    for x, c in enumerate(labels):
        out.setdefault(c, []).append(x)
    return [out[c] for c in sorted(out)]


def test_element_scans_match_the_loops(zoo_members):
    associative, arbitrary = semigroup_mutants(zoo_members, 32, 60)
    semigroups = [es.S for es in zoo_members.values()] + associative + arbitrary
    found = set()
    for S in semigroups:
        assert identity_of(S) == reference_identity_of(S)
        assert is_inverse(S) == reference_is_inverse(S)
        assert as_tuples(opposite(S)) == reference_opposite(S)
        found.add((identity_of(S) is not None, is_inverse(S)))
    assert found == {(False, False), (True, False), (True, True), (False, True)}


def subsemigroup_outcome(fn, S, elements):
    try:
        got = fn(S, elements)
    except (ValueError, NotClosedError) as err:
        return type(err), str(err)
    return as_tuples(got) if isinstance(got, FiniteSemigroup) else got


def test_products_and_subsemigroups_match_the_loops(zoo_members):
    rng = random.Random(33)
    associative, arbitrary = semigroup_mutants(zoo_members, 33, 30)
    small = [S for S in [es.S for es in zoo_members.values()] + associative + arbitrary if S.n <= 9]
    kinds = set()
    for trial in range(120):
        S, T = rng.choice(small), rng.choice(small)
        assert as_tuples(product(S, T)) == reference_product(S, T)
        elements = [rng.randrange(S.n) for _ in range(rng.randint(1, S.n))]
        if trial % 3 == 0 and S in associative:
            elements = closure(S, elements[:2])
            rng.shuffle(elements)
        got = subsemigroup_outcome(subsemigroup, S, elements)
        assert got == subsemigroup_outcome(reference_subsemigroup, S, elements)
        kinds.add(got[0] if isinstance(got[0], type) else "closed")
    assert kinds == {"closed", ValueError, NotClosedError}
