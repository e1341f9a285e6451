import random
from fractions import Fraction

import numpy as np
import pytest

from semicat import (
    FinitePoset,
    basis_element,
    build_category,
    invert,
    moebius,
    order_poset,
    psi,
    semisimple_image_check,
    sum_down,
    verify_isomorphism,
    zoo,
)
from semicat import posets
from semicat.errors import NotAPosetError
from semicat.posets import poset_from_matrix


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
        above.sort(key=lambda y: (len(P.interval(x, y)), y))
        for y in above:
            values[x][y] = 1 if y == x else -sum(
                values[x][z] for z in P.interval(x, y) if z != y
            )
    return values


def reference_sum_down(P, f):
    """g(x) = sum of f(y) over y <= x, one element at a time."""
    f = [Fraction(v) for v in f]
    return [sum((f[y] for y in P.below(x)), Fraction(0)) for x in range(P.m)]


def reference_invert(P, g, mu):
    """f(x) = sum of mu(y, x) g(y) over y <= x, one element at a time."""
    g = [Fraction(v) for v in g]
    return [sum((mu[y][x] * g[y] for y in P.below(x)), Fraction(0)) for x in range(P.m)]


def test_poset_rejects_non_reflexive():
    with pytest.raises(NotAPosetError):
        FinitePoset(1, ((False,),))


def test_poset_rejects_cycle():
    leq = ((True, True), (True, True))
    with pytest.raises(NotAPosetError):
        FinitePoset(2, leq)


def test_poset_rejects_non_transitive():
    leq = (
        (True, True, False),
        (False, True, True),
        (False, False, True),
    )
    with pytest.raises(NotAPosetError):
        FinitePoset(3, leq)


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
            total = sum(mu[x, z] for z in P.interval(x, y))
            assert total == (1 if x == y else 0)


def test_zeta_inverse_matches_interval_recursion_on_random_posets():
    rng = random.Random(5)
    for _ in range(200):
        P = random_poset(rng, rng.randrange(0, 12))
        mu = moebius(P)
        assert mu.tolist() == reference_moebius(P)
        assert mu.dtype == np.int64


def test_python_int_route_when_the_int64_inverse_is_wrong(monkeypatch):
    # one entry of the int64 inverse off by 2**63, as after a wrap-around: Z M = I
    # fails exactly and the inverse is recomputed in Python ints
    rng = random.Random(6)
    original = posets._inverse_zeta

    def corrupted(leq, dtype):
        mu = original(leq, dtype)
        if dtype is np.int64:
            x, y = rng.randrange(len(leq)), rng.randrange(len(leq))
            mu[x, y] ^= np.int64(-2**63)
        return mu

    monkeypatch.setattr(posets, "_inverse_zeta", corrupted)
    for _ in range(50):
        P = random_poset(rng, rng.randrange(1, 10))
        mu = moebius(P)
        assert mu.dtype == object
        assert mu.tolist() == reference_moebius(P)


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
                        lambda leq, dtype: original(leq, object if dtype is np.int64 else dtype))
    for _ in range(50):
        P = random_poset(rng, rng.randrange(1, 10))
        mu = moebius(P)
        assert mu.dtype == object
        big = mu * (2**70 + 1)  # entries beyond int64
        g = [Fraction(rng.randrange(-20, 20), rng.randrange(1, 9)) for _ in range(P.m)]
        assert invert(P, g, mu) == reference_invert(P, g, mu.tolist())
        assert invert(P, g, big) == reference_invert(P, g, big.tolist())
        assert invert(P, sum_down(P, g), mu) == g


def test_zeta_moebius_and_order_data_are_read_only(pt2):
    P = random_poset(random.Random(33), 6)
    for matrix in (P.zeta, moebius(P), posets.order_data(pt2, "r"), posets.order_data(pt2, "l")):
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 0
    assert P.zeta.dtype == bool
    assert P.zeta.tolist() == [list(row) for row in P.leq]


def test_poset_equality_and_hash_read_m_and_leq():
    P, Q = chain(4), poset_from_matrix(np.array(chain(4).leq))
    assert P == Q and hash(P) == hash(Q)
    assert P != antichain(4)


def test_order_data_is_computed_once_per_structure_and_order(monkeypatch):
    es = zoo.pt_n(2)
    C = build_category(es)
    calls = []
    original = posets.moebius
    monkeypatch.setattr(posets, "moebius", lambda P: calls.append(P) or original(P))
    for x in range(es.n):
        psi(es, C, basis_element("category", x))
    verify_isomorphism(es)
    semisimple_image_check(es, C)
    assert len(calls) == 1
    verify_isomorphism(es, order="l")
    assert len(calls) == 2


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
    assert P.below(a) == [0, a]


def test_order_poset_object_downsets(zoo_members):
    for es in zoo_members.values():
        P = order_poset(es, "r")
        for e in es.E:
            expected = sorted(f for f in es.E if es.S.table[f][e] == f)
            assert [x for x in P.below(e) if x in set(es.E)] == expected


def test_natural_orders_are_posets_for_all_zoo_members(zoo_members):
    for es in zoo_members.values():
        order_poset(es, "r")
        order_poset(es, "l")  # constructors validate
