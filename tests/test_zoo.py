import functools
import json
import random
import re
from itertools import product as iproduct
from pathlib import Path

import numpy as np
import pytest

from reference_algebra import is_inverse
from semicat import (
    derive_structure,
    ei_report,
    left_restriction_failure,
    right_restriction_failure,
    subsemigroup,
    subsemilattice_violation,
    to_interchange,
    validate,
)
from semicat import zoo
from semicat.errors import NotClosedError

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "classification_golden.json").read_text()
)


def test_pt_counts_against_enumeration():
    for n in (1, 2, 3):
        # oracle: count partial maps directly as tuples
        count = len(list(iproduct(range(n + 1), repeat=n)))
        assert count == (n + 1) ** n
        assert zoo.pt_n(n).n == count


def test_pt2_has_nine_elements(pt2):
    assert pt2.n == 9 and len(pt2.E) == 4


def test_pt_composition_is_left_to_right(pt2):
    # index 5 is 1 -> 2 only, index 6 is 2 -> 1 only (1-based points)
    t = pt2.S.table
    assert pt2.S.name(5) == "(2,-)" and pt2.S.name(6) == "(-,1)"
    assert t[5][6] == 2  # apply 5 then 6: the identity on {1}
    assert t[6][5] == 7  # apply 6 then 5: the identity on {2}


def test_pt_element_order_undefined_last(pt2):
    assert pt2.S.name(0) == "(1,1)"
    assert pt2.S.name(8) == "(-,-)"  # the empty map sorts last


def test_b2_has_sixteen_elements(b2):
    assert b2.n == 16 and len(b2.E) == 4


def test_b2_composition_is_relational():
    b2 = zoo.b_n(2)
    r = zoo.relation_mask([(1, 2)], 2)
    q = zoo.relation_mask([(2, 1)], 2)
    assert b2.S.table[r][q] == zoo.relation_mask([(1, 1)], 2)


def test_relation_mask_rejects_pairs_outside_the_points():
    for pair in [(1, 3), (3, 1), (0, 1)]:
        with pytest.raises(ValueError, match=re.escape(f"pair {pair} is outside 1..2")):
            zoo.relation_mask([pair], 2)
    for n in (1, 2, 3):
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        for k, pair in enumerate(pairs):
            assert zoo.relation_mask([pair], n) == 1 << k
        assert zoo.relation_mask(pairs, n) == (1 << n * n) - 1


def test_b_n_rejects_out_of_bounds():
    with pytest.raises(ValueError):
        zoo.b_n(4)  # dense table would need 2^32 entries
    with pytest.raises(ValueError):
        zoo.pt_n(0)


def test_t2_is_four_total_maps():
    t2 = zoo.t_n(2)
    assert t2.n == 4
    assert subsemilattice_violation(t2, [0]) is None  # const map is idempotent


def test_six_element_table_matches_the_multiplication_rules(six):
    # the first four elements form a rectangular band: (f,g)(f',g') = (f',g)
    band = range(4)
    pos = {0: (0, 0), 1: (1, 0), 2: (0, 1), 3: (1, 1)}
    inv_pos = {v: k for k, v in pos.items()}
    for a in band:
        for b in band:
            fa, ga = pos[a]
            fb, gb = pos[b]
            assert six.S.table[a][b] == inv_pos[(fb, ga)]
    # (1,id) is a left identity and (id,1) a right identity for the band
    for b in band:
        assert six.S.table[4][b] == b
        assert six.S.table[b][5] == b


def test_six_element_classes_meet_e_once(six):
    from semicat import tilde_relations

    tilde = tilde_relations(six.S, six.E)
    eset = set(six.E)
    for cls in tilde.classes("r") + tilde.classes("l"):
        assert len([e for e in cls if e in eset]) == 1


def test_six_element_category_matches_drawing(six):
    assert len(six.E) == 3
    rep = ei_report(six)
    assert rep.is_ei
    non_identity = [a for a in range(6) if a not in six.E]
    assert len(non_identity) == 3
    # arrows: (1,2): (1,id) -> (1,1); (2,1): (1,1) -> (id,1); (2,2): (1,id) -> (id,1)
    assert (six.plus[2], six.star[2]) == (4, 0)
    assert (six.plus[1], six.star[1]) == (0, 5)
    assert (six.plus[3], six.star[3]) == (4, 5)
    assert rep.endomorphism_counts == {0: 1, 4: 1, 5: 1}


def test_strong_semilattice_product_rule(ssl):
    # components: Z_2 at the top (indices 0..1), Z_3 below (indices 2..4)
    t = ssl.S.table
    assert t[0][0] == 0 and t[1][1] == 0      # within Z_2
    assert t[3][4] == 2                        # within Z_3: g1 * g2 = g0
    assert t[1][3] == 3                        # pushed down via the trivial map
    assert ssl.E == (0, 2)


def test_strong_semilattice_category_only_endomorphisms(ssl):
    assert all(ssl.plus[a] == ssl.star[a] for a in range(ssl.n))


def test_strong_semilattice_is_inverse_and_restriction(ssl):
    assert is_inverse(ssl.S)
    assert left_restriction_failure(ssl) is None and right_restriction_failure(ssl) is None


def reference_strong_semilattice_table(Y, monoids, maps):
    """The product pushed down to the meet component, one entry at a time."""
    y, tables = Y.table.tolist(), [M.table.tolist() for M in monoids]

    def connecting(a, b):
        return list(range(monoids[a].n)) if a == b else maps[(a, b)]

    offsets, total = [], 0
    for M in monoids:
        offsets.append(total)
        total += M.n
    table = [[0] * total for _ in range(total)]
    names = []
    for a in range(Y.n):
        for x in range(monoids[a].n):
            names.append(f"({a},{monoids[a].name(x)})")
            for b in range(Y.n):
                c = y[a][b]
                mab, mbc = connecting(a, c), connecting(b, c)
                for v in range(monoids[b].n):
                    val = tables[c][mab[x]][mbc[v]]
                    table[offsets[a] + x][offsets[b] + v] = offsets[c] + val
    return table, tuple(names)


def trivial_chain_reference(orders):
    """The loop reference on the K-chain Y with every connecting map sending to g0."""
    k = len(orders)
    Y = validate([[max(a, b) for b in range(k)] for a in range(k)])
    maps = {(a, b): [0] * orders[a] for a in range(k) for b in range(a + 1, k)}
    return reference_strong_semilattice_table(Y, [zoo.cyclic_group(m) for m in orders], maps)


def chains():
    """30 chains of 1-8 cyclic groups of order 1-6, then six chosen ones."""
    rng = random.Random(1941)
    drawn = [[rng.randint(1, 6) for _ in range(rng.randint(1, 8))] for _ in range(30)]
    return drawn + [[2, 3], [1], [5], [3, 1, 2], [1] * 64, [40] * 3]


@pytest.mark.parametrize("orders", chains())
def test_ssl_matches_the_loop_reference_with_trivial_maps(orders):
    es = zoo.parse_zoo_spec(f"ssl:chain{len(orders)}:" + ",".join(f"z{m}" for m in orders))
    table, names = trivial_chain_reference(orders)
    assert (es.S.table.tolist(), es.S.names) == (table, names)
    assert es.E == tuple(sum(orders[:a]) for a in range(len(orders)))  # g0 of each component


def reference_b_table(n):
    """Relation composition on bitmasks, one row bit at a time."""
    size = 1 << (n * n)
    rows = [[(mask >> (i * n)) & ((1 << n) - 1) for i in range(n)] for mask in range(size)]
    table = []
    for r in rows:
        row = []
        for qrows in rows:
            out = 0
            for i in range(n):
                acc, bits, j = 0, r[i], 0
                while bits:
                    if bits & 1:
                        acc |= qrows[j]
                    bits >>= 1
                    j += 1
                out |= acc << (i * n)
            row.append(out)
        table.append(row)
    return table


@pytest.mark.parametrize("n", [1, 2, 3])
def test_b_n_matches_loop_reference(n):
    assert zoo.b_n(n).S.table.tolist() == reference_b_table(n)


def test_order_preserving_pt3_is_closed_and_left_restriction(op3):
    assert op3.n == 38
    assert left_restriction_failure(op3) is None
    assert right_restriction_failure(op3) is not None
    assert ei_report(op3).is_ei


def test_order_preserving_rejects_nothing_on_one_point():
    assert zoo.order_preserving_pt(1).n == 2


def test_order_preserving_with_custom_poset(pt2):
    # the antichain puts no constraint at all
    antichain = [[x == y for y in range(2)] for x in range(2)]
    es = zoo.order_preserving_pt(2, antichain)
    assert es.n == pt2.n and np.array_equal(es.S.table, pt2.S.table)


def test_monoid_as_trivial_e_requires_identity():
    left_zero = validate([[0, 0], [1, 1]])
    with pytest.raises(ValueError):
        zoo.monoid_as_trivial_e(left_zero)


def test_zoo_spec_parser_roundtrip():
    assert zoo.parse_zoo_spec("pt:2").n == 9
    assert zoo.parse_zoo_spec("six").n == 6
    assert zoo.parse_zoo_spec("z:4").n == 4
    assert zoo.parse_zoo_spec("t:2").n == 4
    assert zoo.parse_zoo_spec("ssl:chain2:z2,z3").n == 5
    for bad in ("pt", "pt:0", "nope:3", "ssl:chain2:z2", "ssl:ring2:z2,z3", "b:9"):
        with pytest.raises(ValueError):
            zoo.parse_zoo_spec(bad)


@pytest.mark.parametrize("spec", ["z:7777", "z:100000", "ssl:chain2:z7776,z1",
                                  "ssl:chain3:z3000,z3000,z2000", "ssl:chain2:z9000,z-5000",
                                  "pt:0", "pt:-3", "pt:6", "t:0", "t:6", "op:0", "op:6", "b:0",
                                  "b:-2", "b:4", "pt:1000000000000", "b:1000000000000"])
def test_zoo_specs_above_pt5_size_are_rejected_before_building(monkeypatch, spec):
    # the bound is |PT_5| = 7776 elements; nothing is validated or allocated.  pt and op
    # count (n+1)^n candidate maps, t n^n, and b 2^(n*n) relations
    monkeypatch.setattr(zoo, "validate", lambda *args: pytest.fail("built a table"))
    monkeypatch.setattr(np, "arange", lambda *args, **kwargs: pytest.fail("allocated"))
    with pytest.raises(ValueError, match="7776"):
        zoo.parse_zoo_spec(spec)
    assert zoo.ELEMENTS_MAX == 7776


@pytest.mark.parametrize("spec", ["pt:5", "t:5", "op:5", "b:3"])
def test_the_largest_member_of_each_family_is_within_the_element_budget(monkeypatch, spec):
    class Built(Exception):
        pass

    def stop(*args):
        raise Built

    # stop before the (7776, 7776) product table of pt:5 is made
    monkeypatch.setattr(zoo, "_compose_vectors", stop)
    monkeypatch.setattr(zoo, "validate", stop)
    with pytest.raises(Built):
        zoo.parse_zoo_spec(spec)


def test_cyclic_group_table_is_addition_mod_k():
    for k in (1, 2, 5, 12):
        Z = zoo.cyclic_group(k)
        assert Z.table.tolist() == [[(i + j) % k for j in range(k)] for i in range(k)]
        assert Z.names == tuple(f"g{i}" for i in range(k))


def test_long_ssl_chains_are_rejected_before_building(monkeypatch):
    # each component's identity is an object, and verify_axioms' EC5 is quartic in |E|
    monkeypatch.setattr(zoo, "cyclic_group", lambda k: pytest.fail("built a group"))
    monkeypatch.setattr(zoo, "validate", lambda *args: pytest.fail("built a table"))
    for k in (65, 7776):
        with pytest.raises(ValueError, match=f"chain{k} has more than 64 components"):
            zoo.parse_zoo_spec(f"ssl:chain{k}:" + ",".join(["z1"] * k))
    assert zoo.CHAIN_MAX == 64


def test_every_member_dumps_to_interchange(zoo_members):
    from semicat import from_interchange

    for es in zoo_members.values():
        S, E = from_interchange(to_interchange(es.S, es.E))
        assert np.array_equal(S.table, es.S.table) and E == es.E


def test_classification_golden_table(zoo_members):
    for key, expected in GOLDEN.items():
        es = zoo_members[key]
        got = {
            "size": es.n,
            "e_size": len(es.E),
            "ehresmann": True,  # construction would have raised otherwise
            "left_restriction": left_restriction_failure(es) is None,
            "right_restriction": right_restriction_failure(es) is None,
            "ei": ei_report(es).is_ei,
            "inverse": is_inverse(es.S),
        }
        assert got == expected, key


def test_inverse_members_are_restriction(zoo_members):
    # every inverse-semigroup member with E = E(S) is a restriction semigroup
    for key, es in zoo_members.items():
        if is_inverse(es.S):
            assert left_restriction_failure(es) is None, key
            assert right_restriction_failure(es) is None, key


# Loop-based constructors, kept as the reference the vectorised ones must match.

def reference_pt_table(n, vectors):
    index = {v: i for i, v in enumerate(vectors)}
    table = []
    for f in vectors:
        row = []
        for g in vectors:
            fg = tuple(g[f[x]] if f[x] != n else n for x in range(n))
            row.append(index[fg])
        table.append(row)
    return table, index


@functools.cache
def reference_pt(n):
    vectors = list(iproduct(range(n + 1), repeat=n))
    table, index = reference_pt_table(n, vectors)
    S = validate(table, tuple(zoo._pt_name(v, n) for v in vectors))
    identities = [
        index[tuple(x if x in A else n for x in range(n))]
        for A in zoo._subsets(range(n))
    ]
    return derive_structure(S, identities)


def reference_t(n):
    vectors = list(iproduct(range(n), repeat=n))
    index = {v: i for i, v in enumerate(vectors)}
    table = [
        [index[tuple(g[f[x]] for x in range(n))] for g in vectors]
        for f in vectors
    ]
    return validate(table, tuple(zoo._pt_name(v, n) for v in vectors))


def reference_op(n, leq=None):
    """Filter PT_n down to the order-preserving maps and restrict its table."""
    if leq is None:
        leq = [[x <= y for y in range(n)] for x in range(n)]
    full = reference_pt(n)
    vectors = list(iproduct(range(n + 1), repeat=n))

    def preserves(vec):
        dom = [x for x in range(n) if vec[x] != n]
        return all(
            leq[vec[x]][vec[y]]
            for x in dom for y in dom
            if leq[x][y]
        )

    keep = [i for i, v in enumerate(vectors) if preserves(v)]
    kept = set(keep)
    for op, mapping in (("plus", full.plus), ("star", full.star)):
        for a in keep:
            if mapping[a] not in kept:
                raise NotClosedError(op, a)
    S = subsemigroup(full.S, keep)
    E = [keep.index(e) for e in full.E if e in kept]
    return derive_structure(S, E)


def structure_fields(es):
    return (es.S.table.tolist(), es.S.names, es.E, es.plus.tolist(), es.star.tolist(),
            es.leq_r.tolist(), es.leq_l.tolist())


def antichain(n):
    return [[x == y for y in range(n)] for x in range(n)]


# one bottom (point 0) below two incomparable tops (points 1 and 2)
V_POSET = [[True, True, True], [False, True, False], [False, False, True]]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pt_n_matches_loop_reference(n):
    assert structure_fields(zoo.pt_n(n)) == structure_fields(reference_pt(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_t_n_matches_loop_reference(n):
    got, want = zoo.t_n(n), reference_t(n)
    assert (got.table.tolist(), got.names) == (want.table.tolist(), want.names)


@pytest.mark.parametrize("n,leq", [
    (1, None), (2, None), (3, None), (4, None),
    (2, antichain(2)), (3, antichain(3)), (3, V_POSET),
])
def test_order_preserving_pt_matches_filtered_reference(n, leq):
    got = zoo.order_preserving_pt(n, leq)
    assert structure_fields(got) == structure_fields(reference_op(n, leq))


def test_op4_composes_only_the_kept_maps(monkeypatch):
    def no_pt_n(n):
        raise AssertionError("order_preserving_pt built PT_n")

    shapes = []
    original = zoo.validate

    def spy(table, names=None):
        shapes.append((len(table), {len(row) for row in table}))
        return original(table, names)

    monkeypatch.setattr(zoo, "pt_n", no_pt_n)
    monkeypatch.setattr(zoo, "validate", spy)
    assert zoo.order_preserving_pt(4).n == 192
    assert shapes == [(192, {192})]


def test_composing_outside_the_given_maps_is_not_closed():
    swap = np.array([[1, 0]])  # swap * swap is the identity, which is not given
    with pytest.raises(NotClosedError):
        zoo._compose_vectors(swap, 2)


@pytest.mark.parametrize("leq", [
    [[True, True], [False, True]],
    [[True, True, True], [False, True], [False, False, True]],
    [[True, True, True, True]] * 3,
])
def test_order_preserving_rejects_a_relation_of_the_wrong_shape(leq):
    with pytest.raises(ValueError, match="3x3"):
        zoo.order_preserving_pt(3, leq)
