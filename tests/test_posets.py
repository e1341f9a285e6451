import random
from fractions import Fraction

import numpy as np
import pytest

from reference_algebra import below, interval, invert, sum_down
from semicat import posets, zoo
from semicat.algebras import psi, verify_isomorphism
from semicat.errors import InconsistentComputationError, NotAPosetError
from semicat.posets import FinitePoset, moebius, order_poset
from semicat.reptheory import semisimple_image_check


def poset_from_matrix(leq):
    return FinitePoset(leq)


def chain(m):
    return poset_from_matrix([[x <= y for y in range(m)] for x in range(m)])


def antichain(m):
    return poset_from_matrix([[x == y for y in range(m)] for x in range(m)])


def boolean_lattice(k):
    # elements are bitmasks ordered by inclusion
    m = 1 << k
    return poset_from_matrix([[(a & b) == a for b in range(m)] for a in range(m)])


def random_poset(rng, m):
    # random relation on a shuffled base, then reflexive-transitive closure
    order = list(range(m))
    rng.shuffle(order)
    leq = [[x == y for y in range(m)] for x in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            if rng.random() < 0.4:
                leq[order[i]][order[j]] = True
    changed = True
    while changed:
        changed = False
        for x in range(m):
            for y in range(m):
                if leq[x][y]:
                    for z in range(m):
                        if leq[y][z] and not leq[x][z]:
                            leq[x][z] = True
                            changed = True
    return poset_from_matrix(leq)


def reference_moebius(P):
    """mu(x, x) = 1 and mu(x, y) = -sum of mu(x, z) over x <= z < y, by interval size.

    Returned as rows of Python ints, 0 where x is not <= y.
    """
    values = [[0] * P.m for _ in range(P.m)]
    for x in range(P.m):
        above = [y for y in range(P.m) if P.leq[x][y]]
        above.sort(key=lambda y: (len(interval(P, x, y)), y))
        for y in above:
            values[x][y] = 1 if y == x else -sum(
                values[x][z] for z in interval(P, x, y) if z != y
            )
    return values


def reference_inverse_zeta(leq, dtype):
    """The dense-column recursion the down-set inverse replaced: column y over every row.

    mu(x, y) = [x = y] - sum of mu(x, z) over z < y, with y running through a
    linear extension by down-set size.
    """
    m = len(leq)
    mu = np.zeros((m, m), dtype=dtype)
    for y in np.argsort(leq.sum(axis=0), kind="stable"):
        lower = np.flatnonzero(leq[:, y])
        column = -mu[:, lower[lower != y]].sum(axis=1)
        column[y] += 1
        mu[:, y] = column
    return mu


def reference_sum_down(P, f):
    """g(x) = sum of f(y) over y <= x, one element at a time."""
    f = [Fraction(v) for v in f]
    return [sum((f[y] for y in below(P, x)), Fraction(0)) for x in range(P.m)]


def reference_invert(P, g, mu):
    """f(x) = sum of mu(y, x) g(y) over y <= x, one element at a time."""
    g = [Fraction(v) for v in g]
    return [sum((mu[y][x] * g[y] for y in below(P, x)), Fraction(0)) for x in range(P.m)]


def test_poset_rejects_non_reflexive():
    with pytest.raises(NotAPosetError):
        FinitePoset(((False,),))


def test_poset_rejects_cycle():
    leq = ((True, True), (True, True))
    with pytest.raises(NotAPosetError):
        FinitePoset(leq)


def test_poset_rejects_non_transitive():
    leq = (
        (True, True, False),
        (False, True, True),
        (False, False, True),
    )
    with pytest.raises(NotAPosetError):
        FinitePoset(leq)


def test_poset_size_is_read_from_its_zeta_matrix():
    assert FinitePoset(np.eye(3, dtype=bool)).m == 3
    assert FinitePoset([]).m == FinitePoset(np.zeros((0, 0))).m == 0


@pytest.mark.parametrize("zeta", [
    [[True, False], [True]],                    # ragged
    [[True, False, True], [False, True, True]],  # 2 x 3
    np.ones((3, 2), dtype=bool),
    [True],
    np.ones((1, 1, 1), dtype=bool),
    np.zeros((0, 2), dtype=bool),
], ids=["ragged", "2x3", "3x2", "1-d", "3-d", "0x2"])
def test_poset_rejects_a_zeta_that_is_not_a_square_matrix(zeta):
    with pytest.raises(ValueError):
        FinitePoset(zeta)


def test_moebius_diagonal_is_one():
    P = random_poset(random.Random(1), 7)
    mu = moebius(P)
    for x in range(P.m):
        assert mu[x, x] == 1


def test_moebius_two_chain():
    mu = moebius(chain(2))
    assert mu[0, 1] == -1


def test_moebius_boolean_lattice_closed_form():
    # oracle: mu(A, B) = (-1)^(|B \ A|) on the subset lattice
    P = boolean_lattice(3)
    mu = moebius(P)
    for a in range(P.m):
        for b in range(P.m):
            if (a & b) == a:
                assert mu[a, b] == (-1) ** (b & ~a).bit_count()


def test_moebius_recursion_and_integrality_on_random_posets():
    rng = random.Random(42)
    for _ in range(200):
        P = random_poset(rng, rng.randrange(1, 9))
        mu = moebius(P)
        assert mu.dtype == np.int64
        for x, y in np.argwhere(P.zeta).tolist():
            total = sum(mu[x, z] for z in interval(P, x, y))
            assert total == (1 if x == y else 0)


def test_zeta_inverse_matches_interval_recursion_on_random_posets():
    rng = random.Random(5)
    for _ in range(200):
        P = random_poset(rng, rng.randrange(0, 12))
        mu = moebius(P)
        assert mu.tolist() == reference_moebius(P)
        assert mu.dtype == np.int64


def test_down_set_inverse_matches_the_dense_column_recursion(zoo_members):
    rng = random.Random(8)
    more = ["t:3", "t:4", "op:4", "b:3", "pt:4"]
    members = [*zoo_members.values(), *map(zoo.parse_zoo_spec, more)]
    cases = [order_poset(es, order) for es in members for order in "rl"]
    cases += [chain(m) for m in (0, 1, 2, 9)] + [antichain(m) for m in (0, 1, 6)]
    cases += [random_poset(rng, rng.randrange(0, 12)) for _ in range(150)]
    for P in cases:
        for dtype in (np.int64, object):
            got = posets._inverse_zeta(P, dtype)
            assert got.dtype == dtype
            assert np.array_equal(got, reference_inverse_zeta(P.zeta, dtype))
        assert np.array_equal(moebius(P), reference_inverse_zeta(P.zeta, np.int64))


def test_down_set_index_lists_each_down_set_in_ascending_order():
    rng = random.Random(9)
    for P in [chain(0), chain(1), antichain(4), *(random_poset(rng, rng.randrange(0, 10))
                                                   for _ in range(100))]:
        ptr, down = P.down
        assert ptr.tolist() == [0, *np.cumsum(P.zeta.sum(axis=0)).tolist()]
        for y in range(P.m):
            assert down[ptr[y]:ptr[y + 1]].tolist() == below(P, y) == [
                x for x in range(P.m) if P.leq[x][y]]
        assert not ptr.flags.writeable and not down.flags.writeable
        assert P.down is P.down


def test_one_down_set_index_per_structure_and_order(pt2):
    # phi, psi, the Moebius matrix and the hom sweep of one order read one index
    for order in "rl":
        P = order_poset(pt2, order)
        assert order_poset(pt2, order) is P
        verify_isomorphism(pt2, order)
        psi(pt2, {0: 1}, order)
        assert order_poset(pt2, order).down is P.down
    assert order_poset(pt2, "r").down is not order_poset(pt2, "l").down


@pytest.mark.parametrize("call", ["below", "interval-x", "interval-y"])
@pytest.mark.parametrize("bad", [-1, 9])
def test_out_of_range_elements_raise_instead_of_wrapping(pt2, call, bad):
    # below(-1) and interval(-1, 8) read the last column and answered [8]
    P = order_poset(pt2)
    args = {"below": (bad,), "interval-x": (bad, 8), "interval-y": (0, bad)}[call]
    with pytest.raises(ValueError, match=f"^element {bad} is outside 0..8$"):
        {"below": below, "interval": interval}[call.split("-")[0]](P, *args)
    assert interval(P, 0, 8) == [x for x in below(P, 8) if P.leq[0][x]]


def test_python_int_route_when_the_int64_inverse_is_wrong(monkeypatch):
    # one entry of the int64 inverse off by 2**63, as after a wrap-around: Z M = I
    # fails exactly and the inverse is recomputed in Python ints
    rng = random.Random(6)
    original = posets._inverse_zeta

    def corrupted(P, dtype):
        mu = original(P, dtype)
        if dtype is np.int64:
            x, y = rng.randrange(P.m), rng.randrange(P.m)
            mu[x, y] ^= np.int64(-2**63)
        return mu

    monkeypatch.setattr(posets, "_inverse_zeta", corrupted)
    for _ in range(50):
        P = random_poset(rng, rng.randrange(1, 10))
        mu = moebius(P)
        assert mu.dtype == object
        assert mu.tolist() == reference_moebius(P)


def test_moebius_raises_when_both_routes_fail_z_m_equals_i(monkeypatch):
    # an inverse that is wrong in int64 and in Python ints is never returned
    rng = random.Random(7)
    original = posets._inverse_zeta
    routes = []

    def wrong(P, dtype):
        routes.append(dtype)
        mu = original(P, dtype)
        mu[rng.randrange(P.m), rng.randrange(P.m)] += rng.choice([-1, 1, 3])
        return mu

    monkeypatch.setattr(posets, "_inverse_zeta", wrong)
    for _ in range(30):
        P = random_poset(rng, rng.randrange(1, 10))
        routes.clear()
        with pytest.raises(InconsistentComputationError, match="Moebius matrix"):
            moebius(P)
        assert routes == [np.int64, object]


def test_sum_down_and_invert_match_the_loops_on_random_posets():
    rng = random.Random(31)
    for _ in range(200):
        P = random_poset(rng, rng.randrange(0, 10))
        f = [Fraction(rng.randrange(-20, 20), rng.randrange(1, 9)) for _ in range(P.m)]
        assert sum_down(P, f) == reference_sum_down(P, f)
        mu = moebius(P)
        assert invert(P, f) == invert(P, f, mu) == reference_invert(P, f, mu.tolist())
        assert all(type(v) is Fraction for v in sum_down(P, f) + invert(P, f))


def test_invert_reads_the_python_int_moebius_matrix(monkeypatch):
    # the object-dtype route: entries beyond int64 stay exact in the product
    rng = random.Random(32)
    original = posets._inverse_zeta
    monkeypatch.setattr(posets, "_inverse_zeta",
                        lambda P, dtype: original(P, object if dtype is np.int64 else dtype))
    for _ in range(50):
        P = random_poset(rng, rng.randrange(1, 10))
        mu = moebius(P)
        assert mu.dtype == object
        big = mu * (2**70 + 1)  # entries beyond int64
        g = [Fraction(rng.randrange(-20, 20), rng.randrange(1, 9)) for _ in range(P.m)]
        assert invert(P, g, mu) == reference_invert(P, g, mu.tolist())
        assert invert(P, g, big) == reference_invert(P, g, big.tolist())
        assert invert(P, sum_down(P, g), mu) == g


def test_zeta_and_moebius_matrices_are_read_only(pt2):
    P = random_poset(random.Random(33), 6)
    for matrix in (P.zeta, moebius(P), P.mu, order_poset(pt2, "r").mu, order_poset(pt2, "l").mu):
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 0
    assert P.zeta.dtype == bool
    assert P.zeta.tolist() == [list(row) for row in P.leq]


def test_poset_equality_and_hash_read_m_and_leq():
    # the benchmark's traced moebius spans record hash(P.leq)
    P, Q = chain(4), poset_from_matrix(np.array(chain(4).leq))
    assert P.leq == Q.leq and hash(P.leq) == hash(Q.leq)
    assert P.leq != antichain(4).leq and hash(P.leq) != hash(antichain(4).leq)
    assert P.leq == tuple(tuple(x <= y for y in range(4)) for x in range(4))


def test_order_poset_shares_the_structures_read_only_order(zoo_members):
    for es in zoo_members.values():
        for order, leq in (("r", es.leq_r), ("l", es.leq_l)):
            zeta = order_poset(es, order).zeta
            assert not zeta.flags.writeable
            assert np.shares_memory(zeta, leq)


def test_moebius_is_computed_once_per_structure_and_order(monkeypatch):
    # P.mu is kept on the order's poset, which the structure keeps per order
    es = zoo.pt_n(2)
    calls = []
    original = posets.moebius
    monkeypatch.setattr(posets, "moebius", lambda P: calls.append(P) or original(P))
    for x in range(es.n):
        psi(es, {x: 1})
    verify_isomorphism(es)
    semisimple_image_check(es)
    assert calls == [order_poset(es, "r")]
    verify_isomorphism(es, order="l")
    assert calls == [order_poset(es, "r"), order_poset(es, "l")]
    P = order_poset(es, "l")
    assert P.mu is P.mu and invert(P, [1] * es.n) == invert(P, [1] * es.n, P.mu)
    assert len(calls) == 2  # invert read P.mu


def test_inversion_roundtrip_on_random_rational_functions():
    rng = random.Random(2718)
    for _ in range(200):
        P = random_poset(rng, rng.randrange(1, 9))
        f = [
            Fraction(rng.randrange(-20, 20), rng.randrange(1, 9))
            for _ in range(P.m)
        ]
        assert invert(P, sum_down(P, f)) == f


def test_invert_on_antichain_is_identity():
    P = antichain(5)
    g = [Fraction(3, 7), 1, -2, Fraction(0), 5]
    assert invert(P, g) == [Fraction(v) for v in g]


def test_chain_indicator_hand_sum():
    # f = indicator of the bottom; g(x) = 1 for every x, inverted back exactly
    P = chain(4)
    f = [1, 0, 0, 0]
    g = sum_down(P, f)
    assert g == [1, 1, 1, 1]
    assert invert(P, g) == [1, 0, 0, 0]


def test_order_poset_b2_downset_of_counterexample_element(b2):
    P = order_poset(b2, "r")
    a = 3  # {(1,1),(1,2)}
    assert below(P, a) == [0, a]


def test_order_poset_object_downsets(zoo_members):
    for es in zoo_members.values():
        P = order_poset(es, "r")
        for e in es.E:
            expected = sorted(f for f in es.E if es.S.table[f][e] == f)
            assert [x for x in below(P, e) if x in set(es.E)] == expected


def test_natural_orders_are_posets_for_all_zoo_members(zoo_members):
    for es in zoo_members.values():
        order_poset(es, "r")
        order_poset(es, "l")  # constructors validate
