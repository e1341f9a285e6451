import random

import numpy as np
import pytest

from reference_algebra import (
    NotBelowDomainError,
    NotBelowRangeError,
    corestriction,
    restriction,
)
from semicat import (
    EhresmannCategory,
    build_category,
    derive_structure,
    rebuild_semigroup,
    validate,
    verify_axioms,
)
from semicat import zoo
from semicat.errors import NotComposableError, SemicatError
from semicat.reports import VerificationReport
from semicat.semigroups import FiniteSemigroup, associativity_failure


def replaced(C, **changes):
    """The category with C's fields but for the given ones, built by its constructor."""
    fields = dict(n=C.n, objects=C.objects, dom=C.dom, cod=C.cod, table=C.table,
                  leq_r=C.leq_r, leq_l=C.leq_l, semigroup=C.semigroup)
    return EhresmannCategory(**{**fields, **changes})


def test_monoid_category_has_one_object():
    m = zoo.monoid_as_trivial_e(zoo.cyclic_group(3))
    C = build_category(m)
    assert len(C.objects) == 1
    e = C.objects[0]
    assert all(C.dom[a] == e and C.cod[a] == e for a in range(C.n))
    assert all(C.composable(a, b) for a in range(C.n) for b in range(C.n))


def test_pt2_category_shape(pt2):
    C = build_category(pt2)
    assert set(C.objects) == set(pt2.E)
    # C(t) runs from the identity on dom(t) to the identity on im(t)
    assert C.dom[5] == 2 and C.cod[5] == 7  # 1 -> 2 as a partial map
    # composition agrees with the semigroup product on composable pairs
    for x in range(C.n):
        for y in range(C.n):
            if C.composable(x, y):
                assert C.compose(x, y) == pt2.S.table[x][y]


def test_compose_rejects_noncomposable(pt2):
    C = build_category(pt2)
    assert not C.composable(0, 0)  # total const-0 has cod 1_{1}, dom 1_{1,2}
    with pytest.raises(NotComposableError):
        C.compose(0, 0)


def test_restriction_and_corestriction_at_endpoints(zoo_members):
    for es in zoo_members.values():
        C = build_category(es)
        for x in range(C.n):
            assert restriction(C, C.dom[x], x) == x
            assert corestriction(C, x, C.cod[x]) == x


def test_restriction_b2_to_empty_object(b2):
    C = build_category(b2)
    x = 3  # {(1,1),(1,2)}
    assert restriction(C, 0, x) == 0  # the empty relation is below every domain


def test_restriction_uniqueness_sweep(pt2, b2, six):
    for es in (pt2, b2, six):
        C = build_category(es)
        for x in range(C.n):
            for e in C.objects:
                if not C.object_leq(e, C.dom[x]):
                    continue
                below = [y for y in range(C.n) if C.leq_r[y][x] and C.dom[y] == e]
                assert below == [restriction(C, e, x)]


def test_restriction_rejects_object_not_below(pt2):
    C = build_category(pt2)
    # object 1 (the full identity) is not below dom of 1_{1} (object 7)
    with pytest.raises(NotBelowDomainError):
        restriction(C, 1, 7)
    with pytest.raises(NotBelowRangeError):
        corestriction(C, 7, 1)


def test_object_leq_rejects_what_is_not_an_object(pt2):
    C = build_category(pt2)
    assert C.objects == (1, 2, 7, 8)
    assert C.object_leq(8, 1) and not C.object_leq(1, 8)
    # -1 would read as object 8, 9 is past the end, and 0 is a morphism only
    for e, f in ((-1, 8), (8, -1), (9, 0), (0, 1), (1, 0)):
        with pytest.raises(ValueError, match="not an object"):
            C.object_leq(e, f)


def test_indices_outside_the_morphisms_are_value_errors(pt2):
    # numpy would read -1 as morphism 8 and raise a bare IndexError on 9
    C = build_category(pt2)
    assert C.n == 9 and 8 in C.objects
    for call, bad in [(lambda: restriction(C, 8, -1), -1), (lambda: restriction(C, 8, 9), 9),
                      (lambda: corestriction(C, -1, 8), -1), (lambda: corestriction(C, 9, 8), 9),
                      (lambda: C.compose(-1, -1), -1), (lambda: C.compose(0, 9), 9),
                      (lambda: C.composable(8, -1), -1),
                      (lambda: restriction(C, 0, 99), 99)]:
        with pytest.raises(ValueError, match=rf"morphism {bad} is outside 0\.\.8"):
            call()
    assert restriction(C, 8, 8) == 8 and corestriction(C, 8, 8) == 8 and C.compose(8, 8) == 8


def test_axioms_pass_for_all_zoo_members(zoo_members):
    for name, es in zoo_members.items():
        report = verify_axioms(build_category(es))
        assert report.passed, (name, report.failures())


def test_axioms_detect_corrupted_order(b2):
    C = build_category(b2)
    # drop one non-reflexive pair from leq_r
    pairs = [
        (x, y)
        for x in range(C.n)
        for y in range(C.n)
        if x != y and C.leq_r[x][y]
    ]
    x0, y0 = pairs[0]
    corrupted = [list(row) for row in C.leq_r]
    corrupted[x0][y0] = False
    bad = replaced(C, leq_r=tuple(tuple(r) for r in corrupted))
    report = verify_axioms(bad)
    assert not report.passed
    assert any(c.witness is not None for c in report.failures())


def test_dom_cod_fix_objects(zoo_members):
    for es in zoo_members.values():
        C = build_category(es)
        for e in C.objects:
            assert C.dom[e] == e and C.cod[e] == e


def test_restriction_outputs(zoo_members):
    for es in zoo_members.values():
        C = build_category(es)
        for x in range(C.n):
            for e in C.objects:
                if C.object_leq(e, C.dom[x]):
                    y = restriction(C, e, x)
                    assert C.dom[y] == e and C.leq_r[y][x]
                if C.object_leq(e, C.cod[x]):
                    y = corestriction(C, x, e)
                    assert C.cod[y] == e and C.leq_l[y][x]


def test_roundtrip_reproduces_table(zoo_members):
    for name, es in zoo_members.items():
        rebuilt = rebuild_semigroup(build_category(es))
        assert np.array_equal(rebuilt.S.table, es.S.table), name
        assert rebuilt.E == es.E
        assert np.array_equal(rebuilt.plus, es.plus) and np.array_equal(rebuilt.star, es.star)


def test_pseudo_product_agrees_with_composition(pt2):
    C = build_category(pt2)
    rebuilt = rebuild_semigroup(C)
    for x in range(C.n):
        for y in range(C.n):
            if C.composable(x, y):
                assert rebuilt.S.table[x][y] == C.compose(x, y)


def test_monoid_pseudo_product_is_monoid_product():
    m = zoo.monoid_as_trivial_e(zoo.cyclic_group(5))
    rebuilt = rebuild_semigroup(build_category(m))
    assert np.array_equal(rebuilt.S.table, m.S.table)


# --- verify_axioms and rebuild_semigroup against the nested loops ---------------


def meet(C, e, f):
    """The object meet e ^ f, the table entry ef; KeyError((e, f)) unless both are objects."""
    if e not in C.objects or f not in C.objects:
        raise KeyError((int(e), int(f)))
    return C.table[e][f]


def _down_lists(leq, n):
    return [[y for y in range(n) if leq[y][x]] for x in range(n)]


def reference_verify_axioms(C):
    """Every axiom swept element by element, stopping at the first witness."""
    n = C.n
    rep = VerificationReport()
    t = C.table

    for label, leq in (("r", C.leq_r), ("l", C.leq_l)):
        bad = reference_poset_violation(leq)
        rep.add(f"poset[leq_{label}]", bad is None,
                None if bad is None else {"kind": bad[0], "at": bad[1]})

    witness = None
    for x in range(n):
        for y in range(n):
            if C.composable(x, y):
                xy = t[x][y]
                if C.dom[xy] != C.dom[x] or C.cod[xy] != C.cod[y]:
                    witness = {"x": x, "y": y}
                    break
        if witness:
            break
    rep.add("category[dom-cod-of-composition]", witness is None, witness)

    witness = None
    for e in C.objects:
        if C.dom[e] != e or C.cod[e] != e:
            witness = {"e": e}
            break
        for x in range(n):
            if C.composable(e, x) and t[e][x] != x:
                witness = {"e": e, "x": x}
                break
            if C.composable(x, e) and t[x][e] != x:
                witness = {"x": x, "e": e}
                break
        if witness:
            break
    rep.add("category[identities]", witness is None, witness)

    witness = None
    for x in range(n):
        for y in range(n):
            if not C.composable(x, y):
                continue
            xy = t[x][y]
            for z in range(n):
                if C.composable(y, z) and t[xy][z] != t[x][t[y][z]]:
                    witness = {"x": x, "y": y, "z": z}
                    break
            if witness:
                break
        if witness:
            break
    rep.add("category[associativity]", witness is None, witness)

    for label, leq in (("r", C.leq_r), ("l", C.leq_l)):
        pairs = [(x, y) for x in range(n) for y in range(n) if leq[x][y]]

        witness = None
        for x, y in pairs:
            if not leq[C.dom[x]][C.dom[y]] or not leq[C.cod[x]][C.cod[y]]:
                witness = {"x": x, "y": y}
                break
        rep.add(f"CO1[{label}]", witness is None, witness)

        by_doms = {}
        for u, v in pairs:
            by_doms.setdefault((C.dom[u], C.dom[v]), []).append((u, v))
        witness = None
        for x, y in pairs:
            for u, v in by_doms.get((C.cod[x], C.cod[y]), ()):
                if not leq[t[x][u]][t[y][v]]:
                    witness = {"x": x, "y": y, "u": u, "v": v}
                    break
            if witness:
                break
        rep.add(f"CO2[{label}]", witness is None, witness)

        witness = None
        for x, y in pairs:
            if x != y and C.dom[x] == C.dom[y] and C.cod[x] == C.cod[y]:
                witness = {"x": x, "y": y}
                break
        rep.add(f"CO3[{label}]", witness is None, witness)

    down_r = _down_lists(C.leq_r, n)
    down_l = _down_lists(C.leq_l, n)

    witness = None
    for x in range(n):
        for e in C.objects:
            if not C.object_leq(e, C.dom[x]):
                continue
            found = [y for y in down_r[x] if C.dom[y] == e]
            if len(found) != 1 or found[0] != t[e][x]:
                witness = {"e": e, "x": x, "candidates": found}
                break
        if witness:
            break
    rep.add("EC2[restriction-exists-unique]", witness is None, witness)

    witness = None
    for x in range(n):
        for e in C.objects:
            if not C.object_leq(e, C.cod[x]):
                continue
            found = [y for y in down_l[x] if C.cod[y] == e]
            if len(found) != 1 or found[0] != t[x][e]:
                witness = {"x": x, "e": e, "candidates": found}
                break
        if witness:
            break
    rep.add("EC3[corestriction-exists-unique]", witness is None, witness)

    witness = None
    for e in C.objects:
        for f in C.objects:
            if C.leq_r[e][f] != C.leq_l[e][f]:
                witness = {"e": e, "f": f}
                break
        if witness:
            break
    rep.add("EC4[object-orders-agree]", witness is None, witness)

    witness = None
    for e in C.objects:
        for f in C.objects:
            lower = [g for g in C.objects if C.object_leq(g, e) and C.object_leq(g, f)]
            tops = [g for g in lower if all(C.object_leq(h, g) for h in lower)]
            if len(tops) != 1 or tops[0] != meet(C, e, f):
                witness = {"e": e, "f": f, "lower": lower}
                break
        if witness:
            break
    rep.add("EC5[object-meets]", witness is None, witness)

    witness = None
    for x in range(n):
        for y in range(n):
            rl = any(C.leq_r[x][z] and C.leq_l[z][y] for z in range(n))
            lr = any(C.leq_l[x][z] and C.leq_r[z][y] for z in range(n))
            if rl != lr:
                witness = {"x": x, "y": y}
                break
        if witness:
            break
    rep.add("EC6[order-commutation]", witness is None, witness)

    witness = None
    for x in range(n):
        for y in range(n):
            if not C.leq_r[x][y]:
                continue
            for f in C.objects:
                xc = t[x][meet(C, C.cod[x], f)]
                yc = t[y][meet(C, C.cod[y], f)]
                if not C.leq_r[xc][yc]:
                    witness = {"x": x, "y": y, "f": f}
                    break
            if witness:
                break
        if witness:
            break
    rep.add("EC7[corestriction-monotone]", witness is None, witness)

    witness = None
    for x in range(n):
        for y in range(n):
            if not C.leq_l[x][y]:
                continue
            for f in C.objects:
                xr = t[meet(C, C.dom[x], f)][x]
                yr = t[meet(C, C.dom[y], f)][y]
                if not C.leq_l[xr][yr]:
                    witness = {"x": x, "y": y, "f": f}
                    break
            if witness:
                break
        if witness:
            break
    rep.add("EC8[restriction-monotone]", witness is None, witness)

    return rep


def reference_poset_violation(leq):
    m = len(leq)
    for x in range(m):
        if not leq[x][x]:
            return ("reflexive", (x,))
    for x in range(m):
        for y in range(m):
            if x != y and leq[x][y] and leq[y][x]:
                return ("antisymmetric", (x, y))
    for x in range(m):
        for y in range(m):
            if not leq[x][y] and any(leq[x][z] and leq[z][y] for z in range(m)):
                return ("transitive", (x, y))
    return None


def reference_rebuild_table(C):
    return tuple(
        tuple(C.table[C.table[x][meet(C, C.cod[x], C.dom[y])]][C.table[meet(C, C.cod[x], C.dom[y])][y]]
              for y in range(C.n))
        for x in range(C.n)
    )


def printed(report):
    """The JSON form and the printed form, which shows the order of a witness's keys."""
    return report.to_json(), [f"{c.name} {c.witness}" for c in report.checks]


def test_verify_axioms_reports_as_the_loops_do_on_the_zoo(zoo_members):
    for name, es in zoo_members.items():
        C = build_category(es)
        expect = printed(reference_verify_axioms(C))
        # built directly, without its semigroup, C's associativity is swept
        for category in (C, replaced(C, semigroup=None)):
            assert printed(verify_axioms(category)) == expect, name


def _flip(rows, x, y):
    rows = [list(row) for row in rows]
    rows[x][y] = not rows[x][y]
    return tuple(map(tuple, rows))


def single_field_mutant(C, rng):
    """C with one table entry, end or order bit changed."""
    n, objects = C.n, C.objects
    x, y = rng.randrange(n), rng.randrange(n)
    field = rng.choice(["table", "dom", "cod", "leq_r", "leq_l"])
    if field == "table":
        rows = [list(row) for row in C.table]
        rows[x][y] = rng.choice([v for v in range(n) if v != rows[x][y]] or [rows[x][y]])
        return replaced(C, table=tuple(map(tuple, rows)))
    if field in ("dom", "cod"):
        # ends stay objects: the meet of any other element is a KeyError
        ends = list(getattr(C, field))
        ends[x] = rng.choice(objects)
        return replaced(C, **{field: tuple(ends)})
    return replaced(C, **{field: _flip(getattr(C, field), x, y)})


MUTANT_BASES = ("pt:2", "b:2", "six", "ssl:chain2:z2,z3", "i2", "op:3", "z:3")


def test_verify_axioms_reports_as_the_loops_do_on_single_field_mutants(zoo_members):
    rng = random.Random(2016)
    failed = set()
    for trial in range(350):
        C = single_field_mutant(build_category(zoo_members[MUTANT_BASES[trial % len(MUTANT_BASES)]]), rng)
        (expect, expect_text) = printed(reference_verify_axioms(C))
        for category in (C, replaced(C, semigroup=None)):
            (got, got_text) = printed(verify_axioms(category))
            assert got == expect and got_text == expect_text, trial
        failed.update(c["name"] for c in got["checks"] if not c["passed"])
    # the mutants reach every check
    assert failed == {c["name"] for c in expect["checks"]}


def associativity(C):
    return verify_axioms(C)["category[associativity]"]


def test_a_changed_table_is_swept_though_the_category_keeps_its_semigroup(pt2):
    # a composable triple of pt:2 broken in a copy of the table: S's Light's
    # test covers S's own array, not this one
    C = build_category(pt2)
    rows = C.table.tolist()
    x, y = next((x, y) for x in range(C.n) for y in range(C.n)
                if x not in C.objects and C.composable(x, y))
    rows[x][y] = next(v for v in range(C.n) if v != rows[x][y] and C.cod[v] == C.cod[y])
    bad = replaced(C, table=rows)
    assert bad.semigroup is pt2.S and bad.table is not pt2.S.table
    got, expect = associativity(bad), reference_verify_axioms(bad)["category[associativity]"]
    assert not got.passed and got == expect


def test_a_semigroup_failing_only_off_the_composable_triples_leaves_the_category_associative(b2):
    # an entry x*y with cod x != dom y is read by no composable triple
    C = build_category(b2)
    rows = C.table.tolist()
    x, y = next((x, y) for x in range(C.n) for y in range(C.n)
                if x not in C.objects and y not in C.objects and not C.composable(x, y))
    rows[x][y] = (rows[x][y] + 1) % C.n
    S = FiniteSemigroup(C.n, rows)
    assert associativity_failure(S) is not None
    category = replaced(C, table=S.table, semigroup=S)
    assert category.table is S.table
    got, expect = associativity(category), reference_verify_axioms(category)["category[associativity]"]
    assert got.passed and got == expect


def rebuild_outcome(build, C):
    try:
        ES = build(C)
    except (SemicatError, KeyError) as err:
        return type(err), str(err)
    return ES.S.table.tolist(), ES.E, ES.plus.tolist(), ES.star.tolist()


def test_rebuild_is_the_pseudo_product_on_single_field_mutants(zoo_members):
    rng = random.Random(7)
    outcomes = set()
    for trial in range(70):
        C = single_field_mutant(build_category(zoo_members[MUTANT_BASES[trial % len(MUTANT_BASES)]]), rng)
        got = rebuild_outcome(rebuild_semigroup, C)
        expect = rebuild_outcome(
            lambda C: derive_structure(validate(reference_rebuild_table(C)), C.objects), C)
        assert got == expect, trial
        outcomes.add(got[0] if isinstance(got[0], type) else "rebuilt")
    assert "rebuilt" in outcomes and len(outcomes) > 1


def test_rebuild_rejects_an_end_outside_the_objects_as_the_loop_does(pt2):
    C = build_category(pt2)
    x = next(a for a in range(C.n) if a not in C.objects)
    cod = C.cod.copy()
    cod[x] = x
    bad = replaced(C, cod=cod)
    with pytest.raises(KeyError) as got:
        rebuild_semigroup(bad)
    with pytest.raises(KeyError) as expect:
        reference_rebuild_table(bad)
    assert got.value.args == expect.value.args


def test_verify_axioms_names_the_first_end_outside_the_objects(zoo_members):
    # EC7 reads the meets cod(x) ^ f and names the first pair outside the objects, row-major
    rng = random.Random(45)
    for name, es in zoo_members.items():
        C = build_category(es)
        outside = [a for a in range(C.n) if a not in C.objects]
        if not outside:
            continue
        cod = C.cod.copy()
        xs = sorted(rng.sample(range(C.n), min(2, C.n)))
        for x in xs:
            cod[x] = rng.choice(outside)
        bad = replaced(C, cod=cod)
        with pytest.raises(KeyError) as got:
            verify_axioms(bad)
        assert got.value.args == ((int(cod[xs[0]]), C.objects[0]),), name


def test_stored_arrays_are_read_only(pt2):
    C = build_category(pt2)
    arrays = {"S.table": pt2.S.table, "ES.plus": pt2.plus, "ES.leq_r": pt2.leq_r,
              "C.dom": C.dom, "C.table": C.table}
    for name, array in arrays.items():
        assert not array.flags.writeable, name
        first = (0,) * array.ndim
        with pytest.raises(ValueError, match="read-only"):
            array[first] = array[first]
    assert (pt2.S.table.dtype, pt2.plus.dtype, pt2.leq_r.dtype) == (np.int64, np.int64, bool)
    assert C.table is pt2.S.table and C.dom is pt2.plus  # the category shares the arrays
    assert C.semigroup is pt2.S
