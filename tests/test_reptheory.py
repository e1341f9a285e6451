from fractions import Fraction

import pytest

from semicat import (
    build_category,
    ei_report,
    green,
    invertible_morphisms,
    is_ei,
    is_inverse,
    radical_oracle,
    radical_span,
    reg_e,
    semisimple_image_check,
    validate,
)
from semicat import zoo
from semicat.errors import NotEIError, PreconditionNotMetError
from semicat.reptheory import category_mul, semigroup_mul


def brute_force_invertibles(es, C):
    out = []
    for a in range(C.n):
        for b in range(C.n):
            if (
                C.dom[b] == C.cod[a]
                and C.cod[b] == C.dom[a]
                and C.table[a][b] == C.dom[a]
                and C.table[b][a] == C.cod[a]
            ):
                out.append(a)
                break
    return tuple(out)


def test_invertibles_pt2_are_the_partial_injections(pt2):
    C = build_category(pt2)
    inv = invertible_morphisms(pt2, C)
    assert inv == brute_force_invertibles(pt2, C)
    assert len(inv) == 7
    assert 0 not in inv and 4 not in inv  # the two total constants


def test_objects_are_always_invertible(zoo_members):
    for es in zoo_members.values():
        inv = set(invertible_morphisms(es, build_category(es)))
        assert set(es.E) <= inv


def test_b2_counterexample_element_is_not_invertible(b2):
    # a = {(1,1),(1,2)} has dom {1} and im {1,2}; it fails a L a*
    a = 3
    inv = invertible_morphisms(b2, build_category(b2))
    assert a not in inv
    g = green(b2.S)
    assert g.l_class[a] != g.l_class[b2.star[a]]


def test_invertibles_match_brute_force_everywhere(zoo_members):
    for es in zoo_members.values():
        C = build_category(es)
        assert invertible_morphisms(es, C) == brute_force_invertibles(es, C)


def test_reg_e_of_inverse_semigroup_is_everything(i2, ssl):
    for es in (i2, ssl):
        assert is_inverse(es.S)
        assert reg_e(es).elements == tuple(range(es.n))


def test_reg_e_pt2(pt2):
    reg = reg_e(pt2)
    assert len(reg.elements) == 7
    assert {a for a in reg.elements if pt2.S.table[a][a] == a} == set(pt2.E)
    for a, b in reg.inverse_map.items():
        assert pt2.S.table[a][b] == pt2.plus[a]
        assert pt2.S.table[b][a] == pt2.star[a]


def test_reg_e_six_is_the_semilattice(six):
    assert reg_e(six).elements == six.E


def test_reg_e_down_ideal(zoo_members):
    for es in zoo_members.values():
        elems = set(reg_e(es).elements)
        for a in elems:
            for b in range(es.n):
                if es.leq_r[b][a] or es.leq_l[b][a]:
                    assert b in elems


def test_reg_e_product_chain_identity(zoo_members):
    # (ab)+ = ab b' a' (ab)+ for a, b regular with inverses a', b'
    for es in zoo_members.values():
        reg = reg_e(es)
        t = es.S.table
        for a in reg.elements:
            for b in reg.elements:
                ab = t[a][b]
                chain = t[t[t[ab][reg.inverse_map[b]]][reg.inverse_map[a]]][es.plus[ab]]
                assert chain == es.plus[ab]


def test_ei_classification(pt2, pt3, b2, six):
    for es, expected in ((pt2, True), (pt3, True), (b2, False), (six, True)):
        ok, witness = is_ei(es, build_category(es))
        assert ok == expected
        if not expected:
            assert witness is not None


def test_ei_witness_is_a_non_group_endomorphism(b2):
    C = build_category(b2)
    rep = ei_report(b2, C)
    e, a = rep.witness["object"], rep.witness["endomorphism"]
    assert b2.plus[a] == e and b2.star[a] == e
    endo = [x for x in range(b2.n) if b2.plus[x] == e and b2.star[x] == e]
    assert not any(
        b2.S.table[a][y] == e and b2.S.table[y][a] == e for y in endo
    )


def test_pt_endomorphism_monoids_are_symmetric_groups(pt2):
    rep = ei_report(pt2, build_category(pt2))
    # objects sorted as E = (id, 1_{1}, 1_{2}, empty); |S_A| = |A|!
    assert rep.endomorphism_counts == {1: 2, 2: 1, 7: 1, 8: 1}


def test_b2_maximal_semilattice_but_not_ei(b2):
    rep = ei_report(b2, build_category(b2))
    assert rep.e_is_maximal_semilattice and not rep.is_ei


def test_object_iso_classes_match_d_classes(zoo_members):
    for es in zoo_members.values():
        rep = ei_report(es, build_category(es))
        g = green(es.S)
        by_d = {}
        for e in es.E:
            by_d.setdefault(g.d_class[e], []).append(e)
        expected = {frozenset(v) for v in by_d.values()}
        assert {frozenset(c) for c in rep.object_iso_classes} == expected


def reference_object_iso_classes(es, C):
    """Objects joined along every invertible morphism a: a+ -> a*, by union-find."""
    parent = {e: e for e in es.E}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in invertible_morphisms(es, C):
        re, rf = find(es.plus[a]), find(es.star[a])
        if re != rf:
            parent[max(re, rf)] = min(re, rf)
    groups = {}
    for e in es.E:
        groups.setdefault(find(e), []).append(e)
    return tuple(tuple(v) for _, v in sorted(groups.items()))


def test_object_iso_classes_match_union_find(zoo_members):
    members = {**zoo_members, "t:3": zoo.parse_zoo_spec("t:3"), "op:4": zoo.parse_zoo_spec("op:4")}
    merged = False
    for name, es in members.items():
        C = build_category(es)
        classes = ei_report(es, C).object_iso_classes
        assert classes == reference_object_iso_classes(es, C), name
        merged |= any(len(c) > 1 for c in classes)
    assert merged


def test_groupoid_iff_inverse_with_full_idempotents(zoo_members):
    from semicat import idempotents

    for es in zoo_members.values():
        rep = ei_report(es, build_category(es))
        expected = is_inverse(es.S) and set(es.E) == idempotents(es.S)
        assert rep.is_groupoid == expected


def test_radical_oracle_two_element_semilattice():
    # QS for the meet-semilattice {e > f}: isomorphic to Q x Q, radical 0
    S = validate([[0, 1], [1, 1]])
    dim, basis = radical_oracle(2, semigroup_mul(S))
    assert dim == 0 and basis == []


def test_radical_oracle_nilpotent_extension_by_hand():
    # basis {1, n} with n^2 = 0: Gram matrix [[2, 0], [0, 0]], radical = <n>
    def mul(i, j):
        if i == 0:
            return {j: Fraction(1)}
        if j == 0:
            return {i: Fraction(1)}
        return {}

    dim, basis = radical_oracle(2, mul)
    assert dim == 1
    assert basis == [(Fraction(0), Fraction(1))]


def test_radical_oracle_rectangular_band():
    # 2x2 rectangular band (i,l)(j,m) = (i,m): the augmentation ideal K is
    # nilpotent (K^3 = 0) and the quotient is Q, so Rad has dimension 3
    table = [[(a // 2) * 2 + (b % 2) for b in range(4)] for a in range(4)]
    rb = validate(table)
    dim, _ = radical_oracle(4, semigroup_mul(rb))
    assert dim == 3


def test_radical_oracle_group_algebras_semisimple():
    for k in (2, 3, 4, 5):
        S = zoo.cyclic_group(k)
        dim, _ = radical_oracle(k, semigroup_mul(S))
        assert dim == 0


def test_radical_oracle_groupoid_category(i2, ssl):
    for es in (i2, ssl):
        C = build_category(es)
        dim, _ = radical_oracle(C.n, category_mul(C))
        assert dim == 0


def test_radical_span_pt2(pt2):
    rad = radical_span(pt2, build_category(pt2))
    assert rad.claimed_dim == 2 == rad.oracle_dim
    assert set(rad.noninvertible) == {0, 4}
    assert rad.ideal_witness is None
    assert rad.nilpotency_index <= 3
    assert rad.passed


def test_radical_span_six(six):
    rad = radical_span(six, build_category(six))
    assert rad.claimed_dim == 3 == rad.oracle_dim
    assert set(rad.noninvertible) == {1, 2, 3}
    assert rad.passed


def test_radical_span_agreement_for_all_ei_members(zoo_members):
    for es in zoo_members.values():
        C = build_category(es)
        if not is_ei(es, C)[0]:
            continue
        rad = radical_span(es, C)
        assert rad.agrees and rad.passed
        assert rad.nilpotency_index <= C.n + 1


def test_radical_span_rejects_non_ei(b2):
    with pytest.raises(NotEIError):
        radical_span(b2, build_category(b2))


def test_semisimple_image_pt2(pt2):
    semi = semisimple_image_check(pt2, build_category(pt2))
    assert semi.semisimple_check is True
    assert semi.radical_dim_s == 2 and semi.reg_size == 7
    assert semi.dims_match and semi.projection_full_rank
    assert semi.psi_image_in_span and semi.psi_image_full_rank


def test_semisimple_image_pt3(pt3):
    semi = semisimple_image_check(pt3, build_category(pt3))
    assert semi.semisimple_check is True
    assert semi.reg_size == 34  # partial injections on 3 points
    assert semi.radical_dim_s == 64 - 34


def test_semisimple_image_inverse_degenerates(i2):
    semi = semisimple_image_check(i2, build_category(i2))
    assert semi.semisimple_check is True
    assert semi.radical_dim_s == 0
    assert semi.reg_size == i2.n


def test_semisimple_image_strong_semilattice(ssl):
    # QS = QZ_2 x QZ_3: dimension 5, semisimple over the rationals
    semi = semisimple_image_check(ssl, build_category(ssl))
    assert semi.semisimple_check is True
    assert semi.radical_dim_s == 0 and semi.reg_size == 5


def test_semisimple_image_gated_outside_theorem(six, b2):
    with pytest.raises(PreconditionNotMetError):
        semisimple_image_check(six, build_category(six))
    semi = semisimple_image_check(six, build_category(six), allow_outside_theorem=True)
    assert semi.outside_theorem and semi.semisimple_check is None
    assert semi.radical_dim_s == 3 and semi.reg_size == 3
    with pytest.raises(PreconditionNotMetError):
        semisimple_image_check(b2, build_category(b2))
