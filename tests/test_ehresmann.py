import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semicat import (
    check_variety,
    derive_structure,
    green,
    idempotents,
    left_restriction_failure,
    maximal_subsemilattices,
    order_containment,
    right_restriction_failure,
    subsemilattice_violation,
    tilde_relations,
    validate,
)
from semicat import ehresmann, zoo
from semicat.ehresmann import EhresmannStructure
from semicat.errors import (
    ClassWithoutIdempotentError,
    CongruenceError,
    NotSubsemilatticeError,
    SemicatError,
)
from semicat.reports import VerificationReport
from semicat.semigroups import FiniteSemigroup, class_members


def test_no_tilde_class_holds_two_members_of_e(zoo_members):
    # members e, f of E in one tilde-R class are left identities of each
    # other, ef = f and fe = e, so e = f once E is a commuting subsemilattice
    # (dually for tilde-L); derive_structure checks that first
    rng = random.Random(34)
    checked = 0
    for es in zoo_members.values():
        idem = sorted(idempotents(es.S))
        draws = [rng.sample(idem, rng.randint(1, min(len(idem), 4))) for _ in range(60)]
        for E in [list(es.E), *draws]:
            if subsemilattice_violation(es.S, E) is not None:
                continue
            E = sorted(set(E))
            tilde = tilde_relations(es.S, E)
            for index in (tilde.r_index, tilde.l_index):
                assert len(set(index[E].tolist())) == len(E)
            checked += len(E) > 1
    assert checked >= 100


def test_tilde_distinct_idempotents_never_related(pt2):
    tilde = tilde_relations(pt2.S, pt2.E)
    for e in pt2.E:
        for f in pt2.E:
            if e != f:
                assert tilde.r_index[e] != tilde.r_index[f]
                assert tilde.l_index[e] != tilde.l_index[f]


def test_tilde_total_maps_share_class(pt2):
    # oracle: compare left-identity sets computed directly
    t = pt2.S.table

    def left_ids(a):
        return {e for e in pt2.E if t[e][a] == a}

    total_maps = [0, 1, 3, 4]  # image vectors without undefined
    tilde = tilde_relations(pt2.S, pt2.E)
    for a in total_maps:
        assert left_ids(a) == left_ids(total_maps[0])
        assert tilde.r_index[a] == tilde.r_index[total_maps[0]]


def test_green_r_refines_tilde_r(zoo_members):
    for es in zoo_members.values():
        g = green(es.S)
        tilde = tilde_relations(es.S, es.E)
        n = es.n
        for a in range(n):
            for b in range(n):
                if g.r_class[a] == g.r_class[b]:
                    assert tilde.r_index[a] == tilde.r_index[b]
                if g.l_class[a] == g.l_class[b]:
                    assert tilde.l_index[a] == tilde.l_index[b]


def test_derive_structure_b2_maps(b2):
    # a+ is the partial identity on dom(a), a* on im(a)
    n = 2
    for a in range(b2.n):
        dom = {i for i in range(n) for j in range(n) if a >> (i * n + j) & 1}
        im = {j for i in range(n) for j in range(n) if a >> (i * n + j) & 1}
        assert b2.plus[a] == sum(1 << (i * n + i) for i in dom)
        assert b2.star[a] == sum(1 << (j * n + j) for j in im)


def test_derive_structure_monoid_trivial_e():
    m = zoo.monoid_as_trivial_e(zoo.cyclic_group(4))
    assert all(p == m.plus[0] for p in m.plus)
    assert np.array_equal(m.plus, m.star)


def test_derive_structure_pt2_maps(pt2):
    # t+ = identity on dom(t), t* = identity on im(t)
    vec = lambda i: (i // 3, i % 3)
    ident = {frozenset(): 8, frozenset({0}): 2, frozenset({1}): 7, frozenset({0, 1}): 1}
    for a in range(9):
        v = vec(a)
        dom = frozenset(x for x in range(2) if v[x] != 2)
        im = frozenset(v[x] for x in dom)
        assert pt2.plus[a] == ident[dom]
        assert pt2.star[a] == ident[im]


def test_derive_structure_basic_laws(zoo_members):
    for es in zoo_members.values():
        t = es.S.table
        for a in range(es.n):
            assert es.plus[a] in es.E and es.star[a] in es.E
            assert t[es.plus[a]][a] == a
            assert t[a][es.star[a]] == a
        for e in es.E:
            assert es.plus[e] == e and es.star[e] == e


def test_plus_is_minimum_left_identity(zoo_members):
    for es in zoo_members.values():
        t = es.S.table
        for a in range(es.n):
            for e in es.E:
                if t[e][a] == a:
                    assert t[e][es.plus[a]] == es.plus[a]  # plus[a] <= e
                if t[a][e] == a:
                    assert t[e][es.star[a]] == es.star[a]


def test_derive_rejects_class_without_idempotent():
    left_zero = validate([[0, 0], [1, 1]])
    with pytest.raises(ClassWithoutIdempotentError):
        derive_structure(left_zero, [0])


def test_derive_rejects_congruence_failure(pt2):
    # E = {identity, empty map} satisfies the class condition but not the congruence
    with pytest.raises(CongruenceError) as exc:
        derive_structure(pt2.S, [1, 8])
    a, b = exc.value.pair
    t = pt2.S.table

    def rep(x):  # the unique E-idempotent in the class of x, for E = {1, 8}
        return 8 if x == 8 else 1

    if exc.value.side == "plus":
        assert rep(t[a][b]) != rep(t[a][rep(b)])
    else:
        assert rep(t[a][b]) != rep(t[rep(a)][b])


def test_monoid_class_condition_iff_identity_in_e(pt2):
    # on a finite monoid, every tilde-R class meets E iff the identity is in E
    with pytest.raises(ClassWithoutIdempotentError):
        derive_structure(pt2.S, [2, 7, 8])  # partial identities minus the identity
    for E in ([1], [1, 8], list(pt2.E)):
        tilde = tilde_relations(pt2.S, E)
        eset = set(E)
        assert all(any(e in eset for e in cls) for cls in tilde.classes("r"))


def test_derive_rejects_non_subsemilattice(pt2):
    with pytest.raises(NotSubsemilatticeError):
        derive_structure(pt2.S, [3])  # the swap is not idempotent
    with pytest.raises(NotSubsemilatticeError):
        derive_structure(pt2.S, [0, 4])  # the two total constants do not commute


def test_variety_all_pass_for_derived(zoo_members):
    for es in zoo_members.values():
        assert check_variety(es.S, es.plus, es.star).passed


def test_variety_swapped_maps_fail_with_witness(pt2):
    report = check_variety(pt2.S, pt2.star, pt2.plus)
    assert not report.passed
    first = report["x+ x = x"]
    assert not first.passed
    x = first.witness["x"]
    assert pt2.S.table[pt2.star[x]][x] != x


def test_variety_trivial_semigroup():
    S = validate([[0]])
    assert check_variety(S, (0,), (0,)).passed


def mutated_maps(es, rng):
    """+ and * with up to two entries each reassigned at random."""
    plus, star = list(es.plus), list(es.star)
    for _ in range(rng.randrange(0, 3)):
        plus[rng.randrange(es.n)] = rng.randrange(es.n)
    for _ in range(rng.randrange(0, 3)):
        star[rng.randrange(es.n)] = rng.randrange(es.n)
    return plus, star


def test_variety_roundtrip_equivalence_on_mutations(zoo_members):
    rng = random.Random(90210)
    members = [zoo_members[k] for k in ("pt:2", "b:2", "six", "ssl:chain2:z2,z3")]
    for trial in range(60):
        es = members[trial % len(members)]
        plus, star = mutated_maps(es, rng)
        passed = check_variety(es.S, plus, star).passed
        candidate_e = sorted(set(plus) | set(star))
        reproduced = False
        if subsemilattice_violation(es.S, candidate_e) is None:
            try:
                redo = derive_structure(es.S, candidate_e)
                reproduced = list(redo.plus) == plus and list(redo.star) == star
            except Exception:
                reproduced = False
        assert passed == reproduced


@pytest.mark.parametrize("member,left,right", [
    ("pt:2", True, False),
    ("pt:3", True, False),
    ("b:2", False, False),
    ("six", False, False),
    ("i2", True, True),
    ("ssl:chain2:z2,z3", True, True),
])
def test_restriction_classification(zoo_members, member, left, right):
    es = zoo_members[member]
    wl, wr = left_restriction_failure(es), right_restriction_failure(es)
    assert (wl is None, wr is None) == (left, right)
    t = es.S.table
    if not left:
        a, e = wl
        assert t[a][e] != t[es.plus[t[a][e]]][a]
    if not right:
        a, e = wr
        assert t[e][a] != t[a][es.star[t[e][a]]]


def test_six_element_restriction_witnesses_from_the_drawing(six):
    # (2,2)(1,id) = (1,2) but ((2,2)(1,id))+ (2,2) = (1,id)(2,2) = (2,2)
    t = six.S.table
    a, e = 3, 4  # (2,2), (1,id)
    assert t[a][e] == 2
    assert t[six.plus[t[a][e]]][a] == t[e][a] == 3
    assert t[a][e] != t[six.plus[t[a][e]]][a]
    # dual: (id,1)(2,2) = (2,1) but (2,2)((id,1)(2,2))* = (2,2)(id,1) = (2,2)
    a, e = 3, 5
    assert t[e][a] == 1
    assert t[a][six.star[t[e][a]]] == t[a][e] == 3
    assert t[e][a] != t[a][six.star[t[e][a]]]


def test_order_containment(pt2, b2, i2):
    pt = order_containment(pt2)
    assert list(pt._fields) == \
        ["l_in_r", "l_in_r_witness", "r_in_l", "r_in_l_witness"]
    assert pt.l_in_r and pt.l_in_r_witness is None
    inv = order_containment(i2)
    assert inv.l_in_r and inv.r_in_l
    bb = order_containment(b2)
    assert not bb.l_in_r and bb.l_in_r_witness is not None
    a, b = bb.l_in_r_witness
    assert b2.leq_l[a][b] and not b2.leq_r[a][b]


def test_order_containment_runs_no_restriction_sweep(monkeypatch, pt2):
    calls = []
    original = ehresmann._restriction
    monkeypatch.setattr(ehresmann, "_restriction",
                        lambda *args: calls.append(args) or original(*args))
    order_containment(pt2)
    assert calls == []


def test_natural_order_properties(zoo_members):
    for es in zoo_members.values():
        t = es.S.table
        n = es.n
        for a in range(n):
            assert es.leq_r[a][a] and es.leq_l[a][a]
        # both characterizations of the orders agree
        for a in range(n):
            for b in range(n):
                exists_r = any(t[e][b] == a for e in es.E)
                exists_l = any(t[b][e] == a for e in es.E)
                assert es.leq_r[a][b] == exists_r
                assert es.leq_l[a][b] == exists_l
                if es.leq_r[a][b]:
                    # a <=_r b forces a+ <= b+ in the semilattice
                    assert t[es.plus[a]][es.plus[b]] == es.plus[a]


def test_maximal_subsemilattices_b2(b2):
    maximals = maximal_subsemilattices(b2.S)
    assert tuple(b2.E) in maximals
    assert all(len(set(m)) == len(m) for m in maximals)
    t = b2.S.table
    for m in maximals:
        for e in m:
            for f in m:
                assert t[e][f] == t[f][e] and t[e][e] == e


def test_maximal_subsemilattices_guard():
    big = zoo.b_n(3).S
    with pytest.raises(ValueError):
        maximal_subsemilattices(big)


# --- derive_structure against the per-pair loops -------------------------------


def reference_subsemilattice_witness(S, E):
    t = S.table
    eset = set(E)
    for e in E:
        if t[e][e] != e:
            return ("not idempotent", (e,))
        for f in E:
            if t[e][f] != t[f][e]:
                return ("products do not commute", (e, f))
            if t[e][f] not in eset:
                return ("not closed", (e, f))
    return None


def test_subsemilattice_violation_is_the_loops_first_failure(zoo_members):
    rng = random.Random(5)
    kinds = set()
    for trial in range(300):
        es = list(zoo_members.values())[trial % len(zoo_members)]
        E = sorted(rng.sample(range(es.n), rng.randint(1, min(es.n, 6))))
        got = subsemilattice_violation(es.S, E)
        assert got == reference_subsemilattice_witness(es.S, E)
        kinds.add(got and got[0])
    assert kinds == {None, "not idempotent", "products do not commute", "not closed"}


def reference_group(keys):
    by_key = {}
    for x, k in enumerate(keys):
        by_key.setdefault(k, []).append(x)
    classes = sorted((tuple(v) for v in by_key.values()), key=lambda c: c[0])
    index = [0] * len(keys)
    for i, cls in enumerate(classes):
        for x in cls:
            index[x] = i
    return tuple(classes), tuple(index)


def reference_tilde_relations(S, E):
    """(r_classes, l_classes, h_classes, r_index, l_index, h_index) from identity sets."""
    t = S.table.tolist()
    E = tuple(sorted(set(E)))
    left_ids = [frozenset(e for e in E if t[e][a] == a) for a in range(S.n)]
    right_ids = [frozenset(e for e in E if t[a][e] == a) for a in range(S.n)]
    r_classes, r_index = reference_group(left_ids)
    l_classes, l_index = reference_group(right_ids)
    h_classes, h_index = reference_group(list(zip(left_ids, right_ids)))
    return r_classes, l_classes, h_classes, r_index, l_index, h_index


def tilde_fields(S, E):
    got = tilde_relations(S, E)
    return (*(tuple(got.classes(w)) for w in "rlh"), tuple(got.r_index.tolist()),
            tuple(got.l_index.tolist()), tuple(got.h_index.tolist()))


def test_tilde_relations_match_the_loops(zoo_members):
    rng = random.Random(12)
    members = list(zoo_members.values())
    for trial in range(150):
        es = members[trial % len(members)]
        table = es.S.table.tolist()
        if trial % 2:
            table[rng.randrange(es.n)][rng.randrange(es.n)] = rng.randrange(es.n)
        S = FiniteSemigroup(es.n, table)
        E = es.E if trial % 3 == 0 else rng.sample(range(es.n), rng.randint(0, min(es.n, 5)))
        assert tilde_fields(S, E) == reference_tilde_relations(S, E)


def reference_derive(S, E):
    """The class maps, then the congruence identities and orders pair by pair."""
    E = tuple(sorted(set(E)))
    bad = reference_subsemilattice_witness(S, E)
    if bad is not None:
        raise NotSubsemilatticeError(*bad)
    r_classes, l_classes = reference_tilde_relations(S, E)[:2]
    n, t = S.n, S.table.tolist()
    maps = []
    for side, classes in (("tilde-R", r_classes), ("tilde-L", l_classes)):
        image = [None] * n
        for cls in classes:
            reps = [e for e in cls if e in E]
            if not reps:
                raise ClassWithoutIdempotentError(side, cls)
            assert len(reps) == 1  # see test_no_tilde_class_holds_two_members_of_e
            for a in cls:
                image[a] = reps[0]
        maps.append(image)
    plus, star = maps
    for a in range(n):
        for b in range(n):
            if plus[t[a][b]] != plus[t[a][plus[b]]]:
                raise CongruenceError("plus", a, b)
            if star[t[a][b]] != star[t[star[a]][b]]:
                raise CongruenceError("star", a, b)
    leq_r = tuple(tuple(a == t[plus[a]][b] for b in range(n)) for a in range(n))
    leq_l = tuple(tuple(a == t[b][star[a]] for b in range(n)) for a in range(n))
    return E, tuple(plus), tuple(star), leq_r, leq_l


def derive_outcome(fn, S, E):
    try:
        got = fn(S, E)
    except SemicatError as err:
        return type(err), str(err), vars(err)
    if isinstance(got, EhresmannStructure):
        got = (got.E, tuple(got.plus.tolist()), tuple(got.star.tolist()),
               tuple(map(tuple, got.leq_r.tolist())), tuple(map(tuple, got.leq_l.tolist())))
        assert all(type(v) is bool for row in got[3] + got[4] for v in row)
    return got


BASES = {"pt:2": zoo.pt_n(2), "b:2": zoo.b_n(2), "six": zoo.six_element_example()}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_derive_mutants_fail_as_the_loops_do(data):
    es = BASES[data.draw(st.sampled_from(sorted(BASES)))]
    n = es.n
    table = [list(row) for row in es.S.table]
    for _ in range(data.draw(st.integers(0, 2))):
        table[data.draw(st.integers(0, n - 1))][data.draw(st.integers(0, n - 1))] = \
            data.draw(st.integers(0, n - 1))
    S = FiniteSemigroup(n, tuple(map(tuple, table)))
    idempotents_of_s = sorted(e for e in range(n) if table[e][e] == e)
    E = data.draw(st.one_of(st.just(list(es.E)),
                            st.lists(st.sampled_from(idempotents_of_s), min_size=1)))
    assert derive_outcome(derive_structure, S, E) == derive_outcome(reference_derive, S, E)


@pytest.mark.parametrize("spec", ["pt:2", "pt:3", "b:2"])
def test_derive_on_idempotent_subsets_fails_as_the_loops_do(spec):
    # subsets of E keep the class condition often enough to reach the congruence check
    es = zoo.parse_zoo_spec(spec)
    rng = random.Random(11)
    sides = set()
    for _ in range(40):
        E = sorted(rng.sample(es.E, rng.randint(1, len(es.E))))
        got = derive_outcome(derive_structure, es.S, E)
        assert got == derive_outcome(reference_derive, es.S, E)
        if got[0] is CongruenceError:
            sides.add(got[2]["side"])
    assert sides


def test_passing_derive_builds_no_class_members(zoo_members, monkeypatch):
    # class members are built only to name the class a rejection reports
    calls = []
    monkeypatch.setattr(ehresmann, "class_members", lambda ids: calls.append(ids) or class_members(ids))
    for es in zoo_members.values():
        derive_structure(es.S, es.E)
    assert calls == []
    pt2 = zoo.pt_n(2)
    got = derive_outcome(derive_structure, pt2.S, [2, 7, 8])
    assert got[0] is ClassWithoutIdempotentError and len(calls) == 1
    assert got == derive_outcome(reference_derive, pt2.S, [2, 7, 8])


# --- identity, restriction and containment checks against the per-pair loops ----


def reference_check_variety(S, plus, star):
    """Each identity evaluated instance by instance, stopping at the first failure."""
    n, t = S.n, S.table

    def p(x):
        return plus[x]

    def s(x):
        return star[x]

    identities = [
        ("x+ x = x", 1, lambda x: t[p(x)][x] == x),
        ("(x+ y+)+ = x+ y+", 2, lambda x, y: p(t[p(x)][p(y)]) == t[p(x)][p(y)]),
        ("x+ y+ = y+ x+", 2, lambda x, y: t[p(x)][p(y)] == t[p(y)][p(x)]),
        ("x+ (xy)+ = (xy)+", 2, lambda x, y: t[p(x)][p(t[x][y])] == p(t[x][y])),
        ("(xy)+ = (x y+)+", 2, lambda x, y: p(t[x][y]) == p(t[x][p(y)])),
        ("x x* = x", 1, lambda x: t[x][s(x)] == x),
        ("(x* y*)* = x* y*", 2, lambda x, y: s(t[s(x)][s(y)]) == t[s(x)][s(y)]),
        ("x* y* = y* x*", 2, lambda x, y: t[s(x)][s(y)] == t[s(y)][s(x)]),
        ("(xy)* y* = (xy)*", 2, lambda x, y: t[s(t[x][y])][s(y)] == s(t[x][y])),
        ("(xy)* = (x* y)*", 2, lambda x, y: s(t[x][y]) == s(t[s(x)][y])),
        ("x(yz) = (xy)z", 3, lambda x, y, z: t[t[x][y]][z] == t[x][t[y][z]]),
        ("(x+)* = x+", 1, lambda x: s(p(x)) == p(x)),
        ("(x*)+ = x*", 1, lambda x: p(s(x)) == s(x)),
    ]
    report = VerificationReport()
    for name, arity, check in identities:
        witness = None
        for args in itertools.product(range(n), repeat=arity):
            if not check(*args):
                witness = dict(zip("xyz", args))
                break
        report.add(name, witness is None, witness)
    return report


def reference_restriction(ES, side):
    """The first (a, e) failing ae = (ae)+ a (side "left") or ea = a (ea)* (side "right")."""
    t = ES.S.table
    for a in range(ES.n):
        for e in ES.E:
            if side == "left" and t[a][e] != t[ES.plus[t[a][e]]][a]:
                return (a, e)
            if side == "right" and t[e][a] != t[a][ES.star[t[e][a]]]:
                return (a, e)
    return None


def reference_containment(inner, outer):
    for a in range(len(inner)):
        for b in range(len(inner)):
            if inner[a][b] and not outer[a][b]:
                return False, (a, b)
    return True, None


def test_check_variety_holds_one_identity_mask_at_a_time():
    # all ten n^2 masks with the x+ y+ and (xy)+ gathers, held at once, came to
    # 4.9 tables above entry on op:4; one mask at a time, to about 3.1
    op4 = zoo.parse_zoo_spec("op:4")
    check_variety(op4.S, op4.plus, op4.star)  # associativity is kept per semigroup
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = check_variety(op4.S, op4.plus, op4.star)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak <= 3.5 * op4.S.table.nbytes


def assert_checks_match_the_loops(es):
    assert check_variety(es.S, es.plus, es.star).to_json() == \
        reference_check_variety(es.S, es.plus, es.star).to_json()
    assert left_restriction_failure(es) == reference_restriction(es, "left")
    assert right_restriction_failure(es) == reference_restriction(es, "right")
    got = order_containment(es)
    assert (got.l_in_r, got.l_in_r_witness) == reference_containment(es.leq_l, es.leq_r)
    assert (got.r_in_l, got.r_in_l_witness) == reference_containment(es.leq_r, es.leq_l)


def test_checks_match_the_loops_on_the_zoo(zoo_members):
    for es in zoo_members.values():
        assert_checks_match_the_loops(es)


def test_checks_match_the_loops_on_mutated_maps_and_tables(zoo_members):
    rng = random.Random(4711)
    members = [zoo_members[k] for k in ("pt:2", "b:2", "six", "ssl:chain2:z2,z3", "i2", "op:3")]
    failed = set()
    for trial in range(240):
        es = members[trial % len(members)]
        plus, star = mutated_maps(es, rng)
        table = [list(row) for row in es.S.table]
        orders = {"leq_r": es.leq_r, "leq_l": es.leq_l}
        if trial % 3 == 0:
            table[rng.randrange(es.n)][rng.randrange(es.n)] = rng.randrange(es.n)
        if trial % 4 == 0:
            name = rng.choice(sorted(orders))
            rows = [list(row) for row in orders[name]]
            x, y = rng.randrange(es.n), rng.randrange(es.n)
            rows[x][y] = not rows[x][y]
            orders[name] = rows
        mutant = EhresmannStructure(FiniteSemigroup(es.n, tuple(map(tuple, table))), es.E,
                                    tuple(plus), tuple(star), orders["leq_r"], orders["leq_l"])
        assert_checks_match_the_loops(mutant)
        report = check_variety(mutant.S, mutant.plus, mutant.star)
        failed.update(c.name for c in report.failures())
        containment = order_containment(mutant)
        failed.update(name for name, ok in (("left", left_restriction_failure(mutant) is None),
                                            ("right", right_restriction_failure(mutant) is None),
                                            ("l_in_r", containment.l_in_r),
                                            ("r_in_l", containment.r_in_l)) if not ok)
    # the mutants reach every identity and fail every restriction and containment check
    assert len(failed) == 13 + 4
