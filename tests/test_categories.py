import random

import numpy as np
import pytest

from reference_algebra import (
    Category,
    NotBelowDomainError,
    NotBelowRangeError,
    corestriction,
    restriction,
)
from semicat import (
    EhresmannStructure,
    derive_structure,
    rebuild_semigroup,
    validate,
    verify_axioms,
)
from semicat import zoo
from semicat.errors import SemicatError
from semicat.reports import VerificationReport
from semicat.semigroups import FiniteSemigroup, associativity_failure, associativity_witness


def replaced(ES, table=None, **changes):
    """A structure with ES's fields but for the given ones, built by hand on a new semigroup.

    Nothing is derived or validated: the semigroup holds `table` (ES's own
    table when not given) and keeps its own Light's test.
    """
    fields = dict(E=ES.E, plus=ES.plus, star=ES.star, leq_r=ES.leq_r, leq_l=ES.leq_l)
    S = FiniteSemigroup(ES.n, ES.S.table if table is None else table)
    return EhresmannStructure(S, **{**fields, **changes})


def test_monoid_category_has_one_object():
    m = zoo.monoid_as_trivial_e(zoo.cyclic_group(3))
    assert len(m.E) == 1
    e = m.E[0]
    assert all(m.plus[a] == e and m.star[a] == e for a in range(m.n))
    assert (m.star[:, None] == m.plus).all()  # every pair composes


def test_pt2_category_shape(pt2):
    # C(t) runs from the identity on dom(t) to the identity on im(t)
    assert pt2.E == (1, 2, 7, 8)
    assert pt2.plus[5] == 2 and pt2.star[5] == 7  # 1 -> 2 as a partial map
    assert pt2.star[0] != pt2.plus[0]  # total const-0 has cod 1_{1}, dom 1_{1,2}


def test_restriction_and_corestriction_at_endpoints(zoo_members):
    for es in zoo_members.values():
        for x in range(es.n):
            assert restriction(es, es.plus[x], x) == x
            assert corestriction(es, x, es.star[x]) == x


def test_restriction_b2_to_empty_object(b2):
    x = 3  # {(1,1),(1,2)}
    assert restriction(b2, 0, x) == 0  # the empty relation is below every domain


def test_restriction_uniqueness_sweep(pt2, b2, six):
    for es in (pt2, b2, six):
        for x in range(es.n):
            for e in es.E:
                if not es.leq_r[e, es.plus[x]]:
                    continue
                below = [y for y in range(es.n) if es.leq_r[y][x] and es.plus[y] == e]
                assert below == [restriction(es, e, x)]


def test_restriction_rejects_object_not_below(pt2):
    # object 1 (the full identity) is not below dom of 1_{1} (object 7)
    with pytest.raises(NotBelowDomainError):
        restriction(pt2, 1, 7)
    with pytest.raises(NotBelowRangeError):
        corestriction(pt2, 7, 1)


def test_indices_outside_the_morphisms_are_value_errors(pt2):
    # numpy would read -1 as morphism 8 and raise a bare IndexError on 9
    assert pt2.n == 9 and 8 in pt2.E
    for call, bad in [(lambda: restriction(pt2, 8, -1), -1),
                      (lambda: restriction(pt2, 8, 9), 9),
                      (lambda: corestriction(pt2, -1, 8), -1),
                      (lambda: corestriction(pt2, 9, 8), 9),
                      (lambda: restriction(pt2, 0, 99), 99)]:
        with pytest.raises(ValueError, match=rf"morphism {bad} is outside 0\.\.8"):
            call()
    assert restriction(pt2, 8, 8) == 8 and corestriction(pt2, 8, 8) == 8


def test_axioms_pass_for_all_zoo_members(zoo_members):
    for name, es in zoo_members.items():
        report = verify_axioms(es)
        assert report.passed, (name, report.failures())


def test_axioms_detect_corrupted_order(b2):
    # drop one non-reflexive pair from leq_r
    pairs = [
        (x, y)
        for x in range(b2.n)
        for y in range(b2.n)
        if x != y and b2.leq_r[x][y]
    ]
    x0, y0 = pairs[0]
    corrupted = [list(row) for row in b2.leq_r]
    corrupted[x0][y0] = False
    bad = replaced(b2, leq_r=tuple(tuple(r) for r in corrupted))
    report = verify_axioms(bad)
    assert not report.passed
    assert any(c.witness is not None for c in report.failures())


def test_dom_cod_fix_objects(zoo_members):
    for es in zoo_members.values():
        for e in es.E:
            assert es.plus[e] == e and es.star[e] == e


def test_restriction_outputs(zoo_members):
    for es in zoo_members.values():
        for x in range(es.n):
            for e in es.E:
                if es.leq_r[e, es.plus[x]]:
                    y = restriction(es, e, x)
                    assert es.plus[y] == e and es.leq_r[y][x]
                if es.leq_r[e, es.star[x]]:
                    y = corestriction(es, x, e)
                    assert es.star[y] == e and es.leq_l[y][x]


def test_roundtrip_reproduces_table(zoo_members):
    for name, es in zoo_members.items():
        rebuilt = rebuild_semigroup(es)
        assert np.array_equal(rebuilt.S.table, es.S.table), name
        assert rebuilt.E == es.E
        assert np.array_equal(rebuilt.plus, es.plus) and np.array_equal(rebuilt.star, es.star)


def test_pseudo_product_agrees_with_composition(pt2):
    rebuilt = rebuild_semigroup(pt2)
    for x in range(pt2.n):
        for y in range(pt2.n):
            if pt2.star[x] == pt2.plus[y]:
                assert rebuilt.S.table[x][y] == pt2.S.table[x][y]


def test_monoid_pseudo_product_is_monoid_product():
    m = zoo.monoid_as_trivial_e(zoo.cyclic_group(5))
    rebuilt = rebuild_semigroup(m)
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
        expect = printed(reference_verify_axioms(Category(es)))
        assert printed(verify_axioms(es)) == expect, name


def test_the_composable_sweep_finds_no_triple_on_the_zoo(zoo_members):
    # the sweep verify_axioms falls back to when S fails Light's test
    for name, es in zoo_members.items():
        expect = reference_verify_axioms(Category(es))["category[associativity]"].witness
        assert associativity_witness(es.S.table, es.star[:, None] == es.plus) is None, name
        assert expect is None, name


def _flip(rows, x, y):
    rows = [list(row) for row in rows]
    rows[x][y] = not rows[x][y]
    return tuple(map(tuple, rows))


def single_field_mutant(ES, rng):
    """ES with one table entry, end or order bit changed, built by hand."""
    n, objects = ES.n, ES.E
    x, y = rng.randrange(n), rng.randrange(n)
    field = rng.choice(["table", "dom", "cod", "leq_r", "leq_l"])
    if field == "table":
        rows = ES.S.table.tolist()
        rows[x][y] = rng.choice([v for v in range(n) if v != rows[x][y]] or [rows[x][y]])
        return replaced(ES, table=rows)
    if field in ("dom", "cod"):
        # ends stay objects: the meet of any other element is a KeyError
        field = "plus" if field == "dom" else "star"
        ends = getattr(ES, field).tolist()
        ends[x] = rng.choice(objects)
        return replaced(ES, **{field: ends})
    return replaced(ES, **{field: _flip(getattr(ES, field), x, y)})


MUTANT_BASES = ("pt:2", "b:2", "six", "ssl:chain2:z2,z3", "i2", "op:3", "z:3")


def test_verify_axioms_reports_as_the_loops_do_on_single_field_mutants(zoo_members):
    rng = random.Random(2016)
    failed = set()
    for trial in range(350):
        ES = single_field_mutant(zoo_members[MUTANT_BASES[trial % len(MUTANT_BASES)]], rng)
        (expect, expect_text) = printed(reference_verify_axioms(Category(ES)))
        (got, got_text) = printed(verify_axioms(ES))
        assert got == expect and got_text == expect_text, trial
        failed.update(c["name"] for c in got["checks"] if not c["passed"])
    # the mutants reach every check
    assert failed == {c["name"] for c in expect["checks"]}


@pytest.mark.parametrize("order", ["leq_r", "leq_l"])
def test_an_empty_order_fails_reflexivity_as_the_loops_do(zoo_members, order):
    # CO2 numbers the pairs of an empty order: no pair, so no largest key
    for name in ("pt:2", "six", "z:3"):
        es = zoo_members[name]
        ES = replaced(es, **{order: np.zeros((es.n, es.n), dtype=bool)})
        assert printed(verify_axioms(ES)) == printed(reference_verify_axioms(Category(ES))), name


def associativity(ES):
    return verify_axioms(ES)["category[associativity]"]


def test_a_broken_composable_triple_fails_light_and_is_swept(pt2):
    # a composable triple of pt:2 broken in the table: S's Light's test fails,
    # and the sweep over the composable triples names the loop's first triple
    t = pt2.S.table
    rows = t.tolist()
    x, y = next((x, y) for x in range(pt2.n) for y in range(pt2.n)
                if x not in pt2.E and pt2.star[x] == pt2.plus[y])
    rows[x][y] = next(v for v in range(pt2.n) if v != rows[x][y] and pt2.star[v] == pt2.star[y])
    bad = replaced(pt2, table=rows)
    assert associativity_failure(bad.S) is not None
    got = associativity(bad)
    expect = reference_verify_axioms(Category(bad))["category[associativity]"]
    assert not got.passed and got == expect


def test_a_semigroup_failing_only_off_the_composable_triples_leaves_the_category_associative(b2):
    # an entry x*y with cod x != dom y is read by no composable triple
    rows = b2.S.table.tolist()
    x, y = next((x, y) for x in range(b2.n) for y in range(b2.n)
                if x not in b2.E and y not in b2.E and b2.star[x] != b2.plus[y])
    rows[x][y] = (rows[x][y] + 1) % b2.n
    category = replaced(b2, table=rows)
    assert associativity_failure(category.S) is not None
    got = associativity(category)
    expect = reference_verify_axioms(Category(category))["category[associativity]"]
    assert got.passed and got == expect


def rebuild_outcome(build, ES):
    try:
        rebuilt = build(ES)
    except (SemicatError, KeyError) as err:
        return type(err), str(err)
    return rebuilt.S.table.tolist(), rebuilt.E, rebuilt.plus.tolist(), rebuilt.star.tolist()


def test_rebuild_is_the_pseudo_product_on_single_field_mutants(zoo_members):
    rng = random.Random(7)
    outcomes = set()
    for trial in range(70):
        ES = single_field_mutant(zoo_members[MUTANT_BASES[trial % len(MUTANT_BASES)]], rng)
        got = rebuild_outcome(rebuild_semigroup, ES)
        expect = rebuild_outcome(
            lambda ES: derive_structure(validate(reference_rebuild_table(Category(ES))), ES.E), ES)
        assert got == expect, trial
        outcomes.add(got[0] if isinstance(got[0], type) else "rebuilt")
    assert "rebuilt" in outcomes and len(outcomes) > 1


def test_rebuild_rejects_an_end_outside_the_objects_as_the_loop_does(pt2):
    x = next(a for a in range(pt2.n) if a not in pt2.E)
    cod = pt2.star.copy()
    cod[x] = x
    bad = replaced(pt2, star=cod)
    with pytest.raises(KeyError) as got:
        rebuild_semigroup(bad)
    with pytest.raises(KeyError) as expect:
        reference_rebuild_table(Category(bad))
    assert got.value.args == expect.value.args


def test_verify_axioms_names_the_first_end_outside_the_objects(zoo_members):
    # EC7 reads the meets cod(x) ^ f and names the first pair outside the objects, row-major
    rng = random.Random(45)
    for name, es in zoo_members.items():
        outside = [a for a in range(es.n) if a not in es.E]
        if not outside:
            continue
        cod = es.star.copy()
        xs = sorted(rng.sample(range(es.n), min(2, es.n)))
        for x in xs:
            cod[x] = rng.choice(outside)
        bad = replaced(es, star=cod)
        with pytest.raises(KeyError) as got:
            verify_axioms(bad)
        assert got.value.args == ((int(cod[xs[0]]), es.E[0]),), name


def test_stored_arrays_are_read_only(pt2):
    arrays = {"S.table": pt2.S.table, "ES.plus": pt2.plus, "ES.star": pt2.star,
              "ES.leq_r": pt2.leq_r, "ES.leq_l": pt2.leq_l}
    for name, array in arrays.items():
        assert not array.flags.writeable, name
        first = (0,) * array.ndim
        with pytest.raises(ValueError, match="read-only"):
            array[first] = array[first]
    assert (pt2.S.table.dtype, pt2.plus.dtype, pt2.leq_r.dtype) == (np.int64, np.int64, bool)
