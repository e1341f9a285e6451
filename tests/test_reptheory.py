import os
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_algebra import Category, is_inverse
from semicat import cli, reptheory, zoo
from semicat.algebras import psi
from semicat.ehresmann import EhresmannStructure, derive_structure
from semicat.errors import (
    InconsistentComputationError,
    NotClosedError,
    NotEIError,
    SemicatError,
)
from semicat.linalg import nullspace, rank
from semicat.reptheory import (
    EIReport,
    RadicalReport,
    RegESet,
    ei_report,
    invertible_morphisms,
    radical_oracle,
    radical_span,
    reg_e,
    semisimple_image_check,
)
from semicat.semigroups import FiniteSemigroup, from_interchange, green, validate
from test_ehresmann import reference_tilde_relations
from test_linalg import rational_rank
from test_semigroups import reference_green

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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
    C = Category(pt2)
    inv = invertible_morphisms(pt2)
    assert inv == brute_force_invertibles(pt2, C)
    assert len(inv) == 7
    assert 0 not in inv and 4 not in inv  # the two total constants


def test_objects_are_always_invertible(zoo_members):
    for es in zoo_members.values():
        inv = set(invertible_morphisms(es))
        assert set(es.E) <= inv


def test_b2_counterexample_element_is_not_invertible(b2):
    # a = {(1,1),(1,2)} has dom {1} and im {1,2}; it fails a L a*
    a = 3
    inv = invertible_morphisms(b2)
    assert a not in inv
    g = green(b2.S)
    assert g.l_class[a] != g.l_class[b2.star[a]]


def test_invertibles_match_brute_force_everywhere(zoo_members):
    for es in zoo_members.values():
        C = Category(es)
        assert invertible_morphisms(es) == brute_force_invertibles(es, C)


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
        rep = ei_report(es)
        assert rep.is_ei == expected
        if not expected:
            assert rep.witness is not None


def test_ei_witness_is_a_non_group_endomorphism(b2):
    rep = ei_report(b2)
    e, a = rep.witness["object"], rep.witness["endomorphism"]
    assert b2.plus[a] == e and b2.star[a] == e
    endo = [x for x in range(b2.n) if b2.plus[x] == e and b2.star[x] == e]
    assert not any(
        b2.S.table[a][y] == e and b2.S.table[y][a] == e for y in endo
    )


def test_pt_endomorphism_monoids_are_symmetric_groups(pt2):
    rep = ei_report(pt2)
    # objects sorted as E = (id, 1_{1}, 1_{2}, empty); |S_A| = |A|!
    assert rep.endomorphism_counts == {1: 2, 2: 1, 7: 1, 8: 1}


def test_b2_maximal_semilattice_but_not_ei(b2):
    rep = ei_report(b2)
    assert rep.e_is_maximal_semilattice and not rep.is_ei


def test_object_iso_classes_match_d_classes(zoo_members):
    for es in zoo_members.values():
        rep = ei_report(es)
        g = green(es.S)
        by_d = {}
        for e in es.E:
            by_d.setdefault(g.d_class[e], []).append(e)
        expected = {frozenset(v) for v in by_d.values()}
        assert {frozenset(c) for c in rep.object_iso_classes} == expected


def reference_object_iso_classes(es):
    """Objects joined along every invertible morphism a: a+ -> a*, by union-find."""
    parent = {e: e for e in es.E}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in invertible_morphisms(es):
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
        classes = ei_report(es).object_iso_classes
        assert classes == reference_object_iso_classes(es), name
        merged |= any(len(c) > 1 for c in classes)
    assert merged


def test_groupoid_iff_inverse_with_full_idempotents(zoo_members):
    from semicat.semigroups import idempotents

    for es in zoo_members.values():
        rep = ei_report(es)
        expected = is_inverse(es.S) and set(es.E) == idempotents(es.S)
        assert rep.is_groupoid == expected


# --- the trace-form Gram gather against the per-pair dict route ------------------


def all_defined(n):
    return np.ones((n, n), dtype=bool)


def composable(C):
    return C.cod[:, None] == C.dom


def reference_semigroup_mul(S):
    """Structure constants of the semigroup algebra, as a basis-pair callable."""
    t = S.table.tolist()

    def mul(i, j):
        return {t[i][j]: 1}

    return mul


def reference_category_mul(C):
    """Structure constants of the category algebra (zero on non-composable pairs)."""
    t, cod, dom = C.table.tolist(), C.cod.tolist(), C.dom.tolist()

    def mul(i, j):
        if cod[i] != dom[j]:
            return {}
        return {t[i][j]: 1}

    return mul


def reference_radical_oracle(dim, mul):
    """The Gram matrix T[i][j] = trace(L(b_i b_j)) from per-pair product dicts."""
    prods = [[mul(i, j) for j in range(dim)] for i in range(dim)]
    traces = [sum(prods[k][l].get(l, 0) for l in range(dim)) for k in range(dim)]

    def trace_of(combo):
        return sum(c * traces[k] for k, c in combo.items())

    equations = [[trace_of(prods[i][j]) for i in range(dim)] for j in range(dim)]
    equations.append([traces[i] for i in range(dim)])
    basis = nullspace(equations)
    return len(basis), basis


def oracle_and_basis(table, defined):
    """radical_oracle's dimension with the nullspace of the trace form it reads."""
    return radical_oracle(table, defined), nullspace(reptheory._trace_form(table, defined).tolist())


def test_radical_oracle_matches_the_dict_route_on_the_zoo(zoo_members):
    members = {**zoo_members, "t:3": zoo.parse_zoo_spec("t:3"), "op:4": zoo.parse_zoo_spec("op:4")}
    for name, es in members.items():
        C = Category(es)
        assert oracle_and_basis(es.S.table, all_defined(es.n)) == \
            reference_radical_oracle(es.n, reference_semigroup_mul(es.S)), name
        assert oracle_and_basis(C.table, composable(C)) == \
            reference_radical_oracle(C.n, reference_category_mul(C)), name


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_radical_oracle_matches_the_dict_route_on_arbitrary_tables(data):
    # any table and any mask of defined products, associative or not
    n = data.draw(st.integers(1, 6))
    cells = st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n)
    table = np.array(data.draw(cells)).reshape(n, n)
    defined = np.array(data.draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)))
    defined = defined.reshape(n, n)
    t, mask = table.tolist(), defined.tolist()

    def mul(i, j):
        return {t[i][j]: 1} if mask[i][j] else {}

    assert oracle_and_basis(table, defined) == reference_radical_oracle(n, mul)


def test_radical_oracle_ranks_only_the_nonzero_block_of_the_trace_form(zoo_members, monkeypatch):
    op4 = zoo.parse_zoo_spec("op:4")
    seen = []

    def spy(rows):
        seen.append((type(rows), np.shape(rows)))
        return rank(rows)

    monkeypatch.setattr(reptheory, "rank", spy)
    radical_span(op4)
    assert seen == [(list, (71, 70))]            # the full QC form is 193 x 192
    semisimple_image_check(op4)
    assert {kind for kind, _ in seen} == {list}  # rows, as the benchmark's span counter reads them
    monkeypatch.undo()
    for name, es in {**zoo_members, "op:4": op4}.items():
        C = Category(es)
        for table, defined in [(es.S.table, all_defined(es.n)), (C.table, composable(C))]:
            full = reptheory._trace_form(table, defined).tolist()
            assert radical_oracle(table, defined) == len(table) - rank(full), name


def stacked_rank_is_full(basis, reg, n):
    """The radical basis stacked on the unit vectors e_r, r in reg, has full rank."""
    rows = [list(v) for v in basis] + [[int(c == r) for c in range(n)] for r in reg]
    return rational_rank(rows) == len(basis) + len(reg)


def test_projection_rank_matches_the_stacked_rank_on_arbitrary_tables():
    # rank [basis; e_reg] is full iff the trace form's reg columns have full column rank
    outcomes = set()

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 6))
        cells = st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n)
        table = np.array(data.draw(cells)).reshape(n, n)
        defined = np.array(data.draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)))
        defined = defined.reshape(n, n)
        reg = sorted(data.draw(st.sets(st.integers(0, n - 1))))
        t, mask = table.tolist(), defined.tolist()
        _, basis = reference_radical_oracle(n, lambda i, j: {t[i][j]: 1} if mask[i][j] else {})
        full = rank(reptheory._trace_form(table, defined)[:, reg].tolist()) == len(reg)
        assert full == stacked_rank_is_full(basis, reg, n)
        outcomes.add(full)

    check()
    assert outcomes == {True, False}


def test_projection_full_rank_matches_the_stacked_rank(zoo_members):
    kinds = set()
    for es in list(zoo_members.values()) + list(structure_mutants(zoo_members, 44, 72)):
        got = outcome(semisimple_image_check, es)
        if kind_of(got) == "ok":
            _, basis = oracle_and_basis(es.S.table, all_defined(es.n))
            full = stacked_rank_is_full(basis, reg_e(es).elements, es.n)
            assert got.projection_full_rank == full
            kinds.add(full)
    assert True in kinds


def test_radical_oracle_two_element_semilattice():
    # QS for the meet-semilattice {e > f}: isomorphic to Q x Q, radical 0
    S = validate([[0, 1], [1, 1]])
    assert radical_oracle(S.table, all_defined(2)) == 0


def test_radical_oracle_nilpotent_extension_by_hand():
    # basis {1, n} with n^2 = 0: Gram matrix [[2, 0], [0, 0]], radical = <n>
    table = np.array([[0, 1], [1, 0]])
    defined = np.array([[True, True], [True, False]])
    dim, basis = oracle_and_basis(table, defined)
    assert dim == 1
    assert basis == [(Fraction(0), Fraction(1))]


def test_radical_oracle_rectangular_band():
    # 2x2 rectangular band (i,l)(j,m) = (i,m): the augmentation ideal K is
    # nilpotent (K^3 = 0) and the quotient is Q, so Rad has dimension 3
    table = [[(a // 2) * 2 + (b % 2) for b in range(4)] for a in range(4)]
    rb = validate(table)
    dim = radical_oracle(rb.table, all_defined(4))
    assert dim == 3


def test_radical_oracle_group_algebras_semisimple():
    for k in (2, 3, 4, 5):
        S = zoo.cyclic_group(k)
        dim = radical_oracle(S.table, all_defined(k))
        assert dim == 0


def test_radical_oracle_groupoid_category(i2, ssl):
    for es in (i2, ssl):
        C = Category(es)
        dim = radical_oracle(C.table, composable(C))
        assert dim == 0


def test_radical_span_pt2(pt2):
    rad = radical_span(pt2)
    assert rad.claimed_dim == 2 == rad.oracle_dim
    assert set(rad.noninvertible) == {0, 4}
    assert rad.ideal_witness is None
    assert rad.nilpotency_index <= 3
    assert rad.passed


def test_radical_span_six(six):
    rad = radical_span(six)
    assert rad.claimed_dim == 3 == rad.oracle_dim
    assert set(rad.noninvertible) == {1, 2, 3}
    assert rad.passed


def test_radical_span_agreement_for_all_ei_members(zoo_members):
    for es in zoo_members.values():
        if not ei_report(es).is_ei:
            continue
        rad = radical_span(es)
        assert rad.agrees and rad.passed
        assert rad.nilpotency_index <= es.n + 1


def test_radical_span_rejects_non_ei(b2):
    with pytest.raises(NotEIError):
        radical_span(b2)


def test_semisimple_image_pt2(pt2):
    semi = semisimple_image_check(pt2)
    assert semi.semisimple_check is True
    assert semi.radical_dim_s == 2 and semi.reg_size == 7
    assert semi.dims_match and semi.projection_full_rank
    assert semi.psi_image_in_span and semi.psi_image_full_rank


def test_semisimple_image_pt3(pt3):
    semi = semisimple_image_check(pt3)
    assert semi.semisimple_check is True
    assert semi.reg_size == 34  # partial injections on 3 points
    assert semi.radical_dim_s == 64 - 34


def test_semisimple_image_inverse_degenerates(i2):
    semi = semisimple_image_check(i2)
    assert semi.semisimple_check is True
    assert semi.radical_dim_s == 0
    assert semi.reg_size == i2.n


def test_semisimple_image_strong_semilattice(ssl):
    # QS = QZ_2 x QZ_3: dimension 5, semisimple over the rationals
    semi = semisimple_image_check(ssl)
    assert semi.semisimple_check is True
    assert semi.radical_dim_s == 0 and semi.reg_size == 5


def test_semisimple_image_gated_outside_theorem(six, b2):
    semi = semisimple_image_check(six)
    assert semi.outside_theorem and semi.semisimple_check is None and semi.passed
    assert not (semi.left_restriction or semi.right_restriction)
    assert semi.radical_dim_s == 3 and semi.reg_size == 3
    semi = semisimple_image_check(b2)
    assert semi.outside_theorem and semi.semisimple_check is None
    assert not semi.is_ei


# --- Reg_E, EI and the radical span against the per-element loops ------------------


def reference_invertible_morphisms(es):
    """Green's characterization and the brute-force inverse search, compared."""
    r, l = reference_green(es.S)[:2]
    n, t, plus, star = es.n, es.S.table.tolist(), es.plus.tolist(), es.star.tolist()
    by_green = tuple(a for a in range(n) if r[a] == r[plus[a]] and l[a] == l[star[a]])
    brute = tuple(
        a for a in range(n)
        if any(
            plus[b] == star[a] and star[b] == plus[a] and t[a][b] == plus[a] and t[b][a] == star[a]
            for b in range(n)
        )
    )
    if by_green != brute:
        raise InconsistentComputationError(
            "invertible morphisms", {"green": by_green, "brute": brute}
        )
    return by_green


def reference_reg_e(es):
    elems = reference_invertible_morphisms(es)
    eset = set(elems)
    t, plus, star = es.S.table.tolist(), es.plus.tolist(), es.star.tolist()
    leq_r, leq_l = es.leq_r.tolist(), es.leq_l.tolist()
    for a in elems:
        for b in elems:
            if t[a][b] not in eset:
                raise NotClosedError("reg_e product", (a, b))

    subset_idempotents = {a for a in elems if t[a][a] == a}
    if subset_idempotents != set(es.E):
        raise InconsistentComputationError(
            "reg_e idempotents", {"found": sorted(subset_idempotents), "E": es.E}
        )

    inverse_map = {}
    for a in elems:
        invs = [b for b in elems if t[t[a][b]][a] == a and t[t[b][a]][b] == b]
        if len(invs) != 1:
            raise InconsistentComputationError("reg_e unique inverse", {"a": a, "invs": invs})
        b = invs[0]
        if t[a][b] != plus[a] or t[b][a] != star[a]:
            raise InconsistentComputationError("reg_e inverse laws", {"a": a, "b": b})
        inverse_map[a] = b

    for a in elems:
        for b in range(es.n):
            if (leq_r[b][a] or leq_l[b][a]) and b not in eset:
                raise InconsistentComputationError("reg_e down ideal", {"a": a, "b": b})
    return RegESet(elems, inverse_map)


def reference_ei_report(es):
    d = reference_green(es.S)[3]
    tilde_h_index = reference_tilde_relations(es.S, es.E)[5]
    n, t, plus, star = es.n, es.S.table.tolist(), es.plus.tolist(), es.star.tolist()
    # ei_report reads the cross-checked invertible morphisms, so their check raises first
    reference_invertible_morphisms(es)

    witness = None
    for e in es.E:
        tilde_h = {a for a in range(n) if tilde_h_index[a] == tilde_h_index[e]}
        endo = {a for a in range(n) if plus[a] == e and star[a] == e}
        if tilde_h != endo:
            raise InconsistentComputationError("tilde-H vs endomorphisms", {"e": e})
        # End(e) is a group iff every loop has an inverse among the loops
        lonely = [a for a in sorted(endo) if not any(t[a][b] == e and t[b][a] == e for b in endo)]
        if lonely and witness is None:
            witness = {"object": e, "endomorphism": lonely[0]}

    e_all = {e for e in range(n) if t[e][e] == e}
    eset = set(es.E)
    maximal_witness = None
    for f in sorted(e_all - eset):
        if all(t[e][f] == t[f][e] for e in es.E):
            maximal_witness = f
            break

    groups = {}
    for e in es.E:
        groups.setdefault(d[e], []).append(e)
    iso_classes = tuple(tuple(v) for v in groups.values())

    endo_counts = {
        e: sum(1 for a in range(n) if plus[a] == e and star[a] == e)
        for e in es.E
    }
    return EIReport(
        is_ei=witness is None,
        witness=witness,
        endomorphism_counts=endo_counts,
        e_is_maximal_semilattice=maximal_witness is None,
        maximal_witness=maximal_witness,
        object_iso_classes=iso_classes,
        is_groupoid=len(reference_invertible_morphisms(es)) == n,
    )


def reference_radical_span(es, C):
    rep = reference_ei_report(es)
    if not rep.is_ei:
        raise NotEIError(rep.witness)
    invertible = set(reference_invertible_morphisms(es))
    t, dom, cod = C.table.tolist(), C.dom.tolist(), C.cod.tolist()
    noninv = tuple(a for a in range(C.n) if a not in invertible)

    ideal_witness = None
    for x in noninv:
        for m in range(C.n):
            if cod[m] == dom[x] and t[m][x] in invertible:
                ideal_witness = (m, x)
                break
            if cod[x] == dom[m] and t[x][m] in invertible:
                ideal_witness = (x, m)
                break
        if ideal_witness:
            break

    power = set(noninv)
    index = 1
    while power:
        power = {t[x][y] for x in power for y in noninv if cod[x] == dom[y]}
        index += 1
        if index > C.n + 1:
            raise InconsistentComputationError("radical nilpotency", {"stalled_at": index})

    oracle_dim, _ = reference_radical_oracle(C.n, reference_category_mul(C))
    return RadicalReport(
        noninvertible=noninv,
        claimed_dim=len(noninv),
        oracle_dim=oracle_dim,
        agrees=len(noninv) == oracle_dim,
        ideal_witness=ideal_witness,
        nilpotency_index=index,
    )


def structure_mutants(zoo_members, seed, count):
    """Structures built directly from a zoo member with one field changed.

    Trials cycle through a table with two element labels swapped, a changed
    + or * entry, a flipped order bit, and no change at all.  The swapped
    table is still a semigroup (an isomorphic copy that no longer fits the
    stored maps and orders): Green's D is R o L only on semigroups.
    """
    rng = random.Random(seed)
    members = list(zoo_members.values())
    for trial in range(count):
        es = members[trial % len(members)]
        n = es.n
        table, maps = es.S.table.tolist(), [es.plus.tolist(), es.star.tolist()]
        orders = [es.leq_r.tolist(), es.leq_l.tolist()]
        kind = trial // len(members) % 4
        x, y = rng.randrange(n), rng.randrange(n)
        if kind == 0:
            swap = list(range(n))
            swap[x], swap[y] = y, x
            table = [[swap[table[swap[i]][swap[j]]] for j in range(n)] for i in range(n)]
        elif kind == 1:
            rng.choice(maps)[x] = rng.choice(es.E)
        elif kind == 2:
            order = rng.choice(orders)
            order[x][y] = not order[x][y]
        yield EhresmannStructure(FiniteSemigroup(n, table, es.S.names), es.E, *maps, *orders)


def outcome(fn, *args):
    try:
        return fn(*args)
    except SemicatError as err:
        return type(err), str(err)


def kind_of(got):
    if isinstance(got, tuple) and got and isinstance(got[0], type):
        return got[1].split(":")[0] if got[0] is InconsistentComputationError else got[0].__name__
    return "ok"


def non_associative_structure():
    """A structure over a table that is not associative, with 0 H 1 but not 0 tilde-H 1.

    ei_report reads the loops and the cross-checked invertible morphisms, not
    Green's H, so the non-loop 1 in the H-class of object 0 leaves its verdict
    as the loops find it: End(0) = {0} is a group.
    """
    eye = np.eye(3, dtype=bool)
    return EhresmannStructure(FiniteSemigroup(3, [[0, 2, 1], [2, 0, 1], [1, 2, 2]]), (0, 2),
                              [0, 0, 2], [0, 2, 2], eye, eye)


def test_reg_e_and_ei_report_match_the_loops(zoo_members):
    members = {**zoo_members, "t:3": zoo.parse_zoo_spec("t:3"), "op:4": zoo.parse_zoo_spec("op:4")}
    kinds = set()
    for es in [*members.values(), *structure_mutants(zoo_members, 41, 360),
               non_associative_structure()]:
        for fn, reference in ((invertible_morphisms, reference_invertible_morphisms),
                              (reg_e, reference_reg_e), (ei_report, reference_ei_report)):
            got = outcome(fn, es)
            assert got == outcome(reference, es), fn.__name__
            kinds.add((fn.__name__, kind_of(got)))
    assert {kind for name, kind in kinds if name == "reg_e"} >= {
        "ok", "NotClosedError", "internal cross-check failed for invertible morphisms",
        "internal cross-check failed for reg_e idempotents",
        "internal cross-check failed for reg_e unique inverse",
        "internal cross-check failed for reg_e down ideal",
    }
    assert {kind for name, kind in kinds if name == "ei_report"} >= {
        "ok", "internal cross-check failed for tilde-H vs endomorphisms",
    }


def test_radical_span_matches_the_loops(zoo_members):
    kinds = set()
    for es in list(zoo_members.values()) + list(structure_mutants(zoo_members, 42, 72)):
        C = Category(es)
        got = outcome(radical_span, es)
        assert got == outcome(reference_radical_span, es, C)
        kinds.add(kind_of(got) if kind_of(got) != "ok" else ("ok", got.ideal_witness is None))
    assert kinds >= {("ok", True), ("ok", False), "NotEIError",
                     "internal cross-check failed for radical nilpotency"}


def reference_psi_image(es, order):
    """(psi_image_in_span, psi_image_full_rank) from psi of one invertible morphism at a time."""
    reg = reg_e(es)
    reg_set = set(reg.elements)
    pos = {a: i for i, a in enumerate(reg.elements)}
    psi_rows = []
    for x in invertible_morphisms(es):
        image = psi(es, {x: 1}, order=order)
        if any(k not in reg_set for k in image):
            return False, False
        row = [0] * len(reg.elements)
        for k, v in image.items():
            row[pos[k]] = int(v)
        psi_rows.append(row)
    return True, rank(psi_rows) == len(reg.elements)


def test_psi_image_matches_the_loop(zoo_members):
    members = {**zoo_members, "t:3": zoo.parse_zoo_spec("t:3"), "op:4": zoo.parse_zoo_spec("op:4")}
    kinds = set()
    for es in list(members.values()) + list(structure_mutants(zoo_members, 43, 360)):
        got = outcome(semisimple_image_check, es)
        if kind_of(got) == "ok":
            images = (got.psi_image_in_span, got.psi_image_full_rank)
            for order in ("r", "l"):
                # a mutant's flipped bit may leave the order psi does not read no
                # partial order, and then that order has no psi
                expected = outcome(reference_psi_image, es, order)
                if kind_of(expected) != "NotAPosetError":
                    assert images == expected
                    kinds.add((order, images))
        # otherwise a check tested above raised before the psi images
    # reg_e verifies that Reg_E is a down ideal of both orders, and psi(x) lies
    # on the down-set of x, so every structure that gets here has its images in
    # the span of psi of either order; a certified Moebius matrix makes them independent
    assert kinds == {("r", (True, True)), ("l", (True, True))}


# --- the kernel certificate for dim Rad(QS) against the two eliminations -----------


def draw_structures(monkeypatch, seeds):
    """The unmutated input-random draws of perfbench/draws.py, derived."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import draws

    for seed in seeds:
        for _, obj, is_mutant in draws.random_inputs(seed):
            if not is_mutant:
                yield derive_structure(*from_interchange(obj))


def nonzero_product(a, b):
    """An exact_matmul for reptheory whose kernel product is never zero: the eliminations run."""
    return np.ones((1, 1), dtype=np.int64)


def test_certified_radical_matches_the_forced_fallback(zoo_members, monkeypatch):
    members = {**zoo_members, "t:3": zoo.parse_zoo_spec("t:3"), "op:4": zoo.parse_zoo_spec("op:4")}
    structures = [*members.values(), *draw_structures(monkeypatch, (1, 2)),
                  *structure_mutants(zoo_members, 45, 180)]
    eliminated = []
    original = reptheory._radical_dim
    monkeypatch.setattr(reptheory, "_radical_dim",
                        lambda form: eliminated.append(True) or original(form))
    routes = set()
    for es in structures:
        eliminated.clear()
        got = outcome(semisimple_image_check, es)
        if kind_of(got) == "ok":
            routes.add(not eliminated)
        with monkeypatch.context() as m:
            m.setattr(reptheory, "exact_matmul", nonzero_product)
            eliminated.clear()
            assert got == outcome(semisimple_image_check, es)
            assert eliminated or kind_of(got) != "ok"
    assert routes == {True, False}


def test_certificate_needs_each_of_its_checks(zoo_members, monkeypatch):
    # a Reg_E naming one element too many leaves its block of the form
    # singular; one naming one element too few puts an invertible morphism's
    # psi image, which the form does not kill, among the kernel vectors.  Each
    # makes n - |Reg_E| wrong and must send the check to elimination.
    wrong = set()
    for es in zoo_members.values():
        reg = reg_e(es)
        rest = [x for x in range(es.n) if x not in reg.elements]
        patches = [("one fewer element", RegESet(reg.elements[1:], reg.inverse_map))]
        if rest:
            wider = RegESet(tuple(sorted(reg.elements + (rest[0],))), reg.inverse_map)
            patches.append(("one more element", wider))
        for kind, patched in patches:
            with monkeypatch.context() as m:
                m.setattr(reptheory, "reg_e", lambda ES, patched=patched: patched)
                got = semisimple_image_check(es)
                m.setattr(reptheory, "exact_matmul", nonzero_product)
                assert got == semisimple_image_check(es)
            if got.radical_dim_s != es.n - got.reg_size:
                wrong.add(kind)
    assert wrong == {"one fewer element", "one more element"}


def test_rep_op4_ranks_no_matrix_wider_than_reg_e(monkeypatch, capsys):
    # QS's 193 x 192 trace form is eliminated in neither order: the widest rank
    # is the Reg_E x Reg_E block (|Reg_E| = 70), beside QC's 71 x 70 nonzero
    # block.  op:4 is a left restriction structure, so the Moebius matrix of
    # <=_r certifies the radical under --order l too.
    widths = []

    def spy(rows):
        widths.append(len(rows[0]))
        return rank(rows)

    monkeypatch.setattr(reptheory, "rank", spy)
    for order in ("r", "l"):
        widths.clear()
        assert cli.main(["rep", "--zoo", "op:4", "--order", order]) == 0
        assert "PASS  semisimple-image: dim Rad(QS) = 122" in capsys.readouterr().out
        assert widths and max(widths) == 70


def test_semisimple_image_check_memory_on_op4():
    op4 = zoo.parse_zoo_spec("op:4")
    semisimple_image_check(op4)  # Reg_E, EI and the Moebius matrix are kept per structure
    form_bytes = (op4.n + 1) * op4.n * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        semi = semisimple_image_check(op4)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert semi.semisimple_check is True and semi.radical_dim_s == 192 - 70
    # the parent, eliminating the whole form, peaked at about 6 forms above entry
    assert peak <= 3.5 * form_bytes


def test_a_structure_takes_no_tilde_classes_and_ei_report_derives_them(zoo_members, monkeypatch):
    # derive_structure keeps the classes it computed; a structure built by hand has
    # none kept, so ei_report computes them from its own table and E
    calls = []
    original = reptheory.tilde_relations
    monkeypatch.setattr(reptheory, "tilde_relations", lambda S, E: calls.append(E) or original(S, E))
    for es in zoo_members.values():
        fields = (es.S, es.E, es.plus, es.star, es.leq_r, es.leq_l)
        with pytest.raises(TypeError):
            EhresmannStructure(*fields, None)
        assert not hasattr(es, "tilde")
        calls.clear()
        assert ei_report(EhresmannStructure(*fields)) == ei_report(es)
        assert calls == [es.E]
