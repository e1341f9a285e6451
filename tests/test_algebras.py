import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_algebra import (
    BasisMismatchError,
    basis_element,
    element,
    mul_category,
    mul_partial,
    mul_semigroup,
    unit,
)
from semicat import (
    algebras,
    categories,
    derive_structure,
    format_element,
    linalg,
    phi,
    posets,
    psi,
    reptheory,
    semigroups,
    subsemigroup,
    verify_isomorphism,
    zoo,
)
from semicat.cli import main
from semicat.ehresmann import EhresmannStructure
from semicat.semigroups import FiniteSemigroup

A, B, EMPTY = 3, 1, 0  # in B_2: {(1,1),(1,2)}, {(1,1)}, {}


def rand_element(rng, basis, n, terms=3):
    coeffs = {}
    for _ in range(terms):
        coeffs[rng.randrange(n)] = Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
    return element(basis, coeffs)


def test_element_canonical_form():
    e = element("semigroup", {2: Fraction(0), 1: 2})
    assert e.coeffs == {1: Fraction(2)}
    assert element("semigroup", {}).is_zero()


def test_addition_and_scaling():
    u = element("semigroup", {0: 1, 1: 2})
    v = element("semigroup", {1: -2, 2: 5})
    assert (u + v).coeffs == {0: 1, 2: 5}
    assert (u - u).is_zero()
    assert u.scale(Fraction(1, 2)).coeffs == {0: Fraction(1, 2), 1: 1}


def test_basis_mismatch_rejected(pt2):
    u = basis_element("semigroup", 0)
    v = basis_element("category", 0)
    with pytest.raises(BasisMismatchError):
        u + v
    with pytest.raises(BasisMismatchError):
        mul_semigroup(pt2, u, v)
    with pytest.raises(BasisMismatchError):
        mul_category(pt2, v, u)


def test_mul_semigroup_on_basis_is_table(pt2):
    for a in range(pt2.n):
        for b in range(pt2.n):
            got = mul_semigroup(
                pt2, basis_element("semigroup", a), basis_element("semigroup", b)
            )
            assert got.coeffs == {pt2.S.table[a][b]: 1}


def test_bilinearity_on_random_triples(pt2, b2):
    rng = random.Random(17)
    for es in (pt2, b2):
        for _ in range(25):
            u = rand_element(rng, "semigroup", es.n)
            v = rand_element(rng, "semigroup", es.n)
            w = rand_element(rng, "semigroup", es.n)
            lhs = mul_semigroup(es, u + v, w)
            rhs = mul_semigroup(es, u, w) + mul_semigroup(es, v, w)
            assert lhs == rhs
            lhs = mul_semigroup(es, w, u + v)
            rhs = mul_semigroup(es, w, u) + mul_semigroup(es, w, v)
            assert lhs == rhs


def test_algebra_products_associative_on_random_triples(pt2, b2):
    rng = random.Random(99)
    for es in (pt2, b2):
        for _ in range(20):
            u = rand_element(rng, "semigroup", es.n)
            v = rand_element(rng, "semigroup", es.n)
            w = rand_element(rng, "semigroup", es.n)
            assert mul_semigroup(es, mul_semigroup(es, u, v), w) == \
                mul_semigroup(es, u, mul_semigroup(es, v, w))
            x = rand_element(rng, "category", es.n)
            y = rand_element(rng, "category", es.n)
            z = rand_element(rng, "category", es.n)
            assert mul_category(es, mul_category(es, x, y), z) == \
                mul_category(es, x, mul_category(es, y, z))


def test_b2_semigroup_product_of_counterexample_pair(b2):
    got = mul_semigroup(b2, basis_element("semigroup", A), basis_element("semigroup", B))
    assert got.coeffs == {B: 1}  # ab = {(1,1)}


# one call per function, each with a basis index outside 0..8 on the side it reads
OUT_OF_RANGE = {
    "phi": lambda es, i: phi(es, {i: 1}),
    "phi-l": lambda es, i: phi(es, {i: 1}, "l"),
    "psi": lambda es, i: psi(es, {i: 1}),
    "psi-l": lambda es, i: psi(es, {i: 1}, "l"),
    "mul_semigroup-left": lambda es, i: mul_semigroup(
        es, basis_element("semigroup", i), basis_element("semigroup", 0)),
    "mul_semigroup-right": lambda es, i: mul_semigroup(
        es, basis_element("semigroup", 0), basis_element("semigroup", i)),
    "mul_category-left": lambda es, i: mul_category(
        es, basis_element("category", i), basis_element("category", 0)),
    "mul_category-right": lambda es, i: mul_category(
        es, basis_element("category", 0), basis_element("category", i)),
}


@pytest.mark.parametrize("call", OUT_OF_RANGE)
@pytest.mark.parametrize("bad", [-1, 9])
def test_out_of_range_basis_indices_raise_instead_of_wrapping(pt2, call, bad):
    # index -1 was read as 8: phi(S(-1)) gave C(8), psi(C(-1)) S(8) and S(-1) S(0) S(8)
    with pytest.raises(ValueError, match=f"^element {bad} is outside 0..8$"):
        OUT_OF_RANGE[call](pt2, bad)


def test_mul_category_noncomposable_is_zero(pt2):
    assert mul_category(pt2, basis_element("category", 0), basis_element("category", 0)).is_zero()


def test_category_product_of_counterexample_images(b2):
    lhs = element("category", {A: 1, EMPTY: 1})
    rhs = element("category", {B: 1, EMPTY: 1})
    assert mul_category(b2, lhs, rhs).coeffs == {EMPTY: 1}


def test_phi_on_counterexample_pair(b2):
    assert phi(b2, {EMPTY: 1}) == {EMPTY: 1}
    assert phi(b2, {A: 1}) == {A: 1, EMPTY: 1}
    ab = b2.S.table[A][B]
    expect = {B: 1, EMPTY: 1}
    assert phi(b2, {B: 1}) == expect
    assert phi(b2, {ab: 1}) == expect


def test_phi_is_linear(b2):
    u = element("semigroup", {A: Fraction(2), B: Fraction(-1, 3)})
    expanded = element("category", phi(b2, {A: 1})).scale(2) + \
        element("category", phi(b2, {B: 1})).scale(Fraction(-1, 3))
    assert phi(b2, u.coeffs) == expanded.coeffs


def test_psi_on_bottom_and_two_chain(b2):
    assert psi(b2, {EMPTY: 1}) == {EMPTY: 1}
    # the down-set of a is the 2-chain {empty < a}, so mu weights are -1, 1
    assert psi(b2, {A: 1}) == {A: 1, EMPTY: -1}


def test_psi_phi_identity_on_all_basis_elements(b2):
    for a in range(b2.n):
        assert psi(b2, phi(b2, {a: 1})) == {a: 1}
        assert phi(b2, psi(b2, {a: 1})) == {a: 1}


def test_verify_isomorphism_pt2_pt3(pt2, pt3):
    for es in (pt2, pt3):
        report = verify_isomorphism(es)
        assert report.passed
        assert report.pairs_checked == es.n * es.n
        assert report.witness_expansion is None


def test_verify_isomorphism_b2_separates_halves(b2):
    report = verify_isomorphism(b2)
    assert report.bijection
    assert not report.case1_failures  # composable pairs never fail
    assert (A, B) in report.case2_failures
    assert not report.passed
    w = report.witness_expansion
    assert (w["a"], w["b"]) == (A, B)  # lexicographically first failure
    assert w["phi_a"] == {A: 1, EMPTY: 1}
    assert w["phi_b"] == {B: 1, EMPTY: 1}
    assert w["phi_ab"] == {B: 1, EMPTY: 1}
    assert w["phi_a_phi_b"] == {EMPTY: 1}


def test_verify_isomorphism_case1_never_fails(zoo_members):
    for es in zoo_members.values():
        assert verify_isomorphism(es).case1_failures == []


def test_verify_isomorphism_bijection_for_all_members(zoo_members):
    for es in zoo_members.values():
        for order in ("r", "l"):
            assert verify_isomorphism(es, order=order).bijection


def test_left_order_variant(pt2, ssl, i2):
    # right restriction makes the left-order map multiplicative
    assert verify_isomorphism(ssl, order="l").passed
    assert verify_isomorphism(i2, order="l").passed
    # for PT_2 the left-order sweep is informational: it fails multiplicativity
    report = verify_isomorphism(pt2, order="l")
    assert report.bijection and not report.homomorphism


def test_workers_flag_is_accepted_and_has_no_effect(tmp_path, capsys):
    results = []
    for workers in ("1", "1000"):
        path = tmp_path / f"iso-{workers}.json"
        assert main(["iso", "--zoo", "b:2", "--report", str(path), "--workers", workers]) == 1
        body = json.loads(path.read_text())
        assert body["config"]["workers"] == int(workers)
        results.append(body["result"])
    capsys.readouterr()
    assert results[0] == results[1]
    assert not hasattr(algebras, "multiprocessing")


# --- the bijection is the certificate of the Moebius matrix ----------------------


def test_iso_op4_makes_two_order_products(monkeypatch, capsys):
    # transitivity of <=_r (poset_violation) and Z M = I (moebius); the
    # bijection reads that certificate and multiplies no M Z of its own
    products = []
    original = linalg.exact_matmul

    def spy(a, b):
        products.append((np.shape(a), np.shape(b)))
        return original(a, b)

    for module in (algebras, categories, linalg, posets, reptheory):
        if hasattr(module, "exact_matmul"):
            monkeypatch.setattr(module, "exact_matmul", spy)
    assert main(["iso", "--zoo", "op:4"]) == 0
    assert "PASS  bijection" in capsys.readouterr().out
    assert products == [((192, 192), (192, 192))] * 2


# --- the numpy hom sweep against the per-pair reference ----------------------


def reference_hom_sweep(t, cod, dom, leq):
    """The per-pair sweep: phi(a)phi(b) and phi(ab) compared as dicts for all a, b."""
    table, cod, dom = t.tolist(), cod.tolist(), dom.tolist()
    n = len(table)
    phis = [dict.fromkeys(np.flatnonzero(leq[:, a]).tolist(), 1) for a in range(n)]
    case1, case2 = [], []
    for a in range(n):
        pa = phis[a]
        for b in range(n):
            lhs = phis[table[a][b]]
            rhs = mul_partial(table, cod, dom, pa, phis[b])
            if lhs != rhs:
                (case1 if cod[a] == dom[b] else case2).append((a, b))
    return case1, case2


def assert_sweep_matches_reference(es):
    """Equal reports from the numpy sweep and the reference, in both orders."""
    n = es.n
    assert verify_isomorphism(es).case1_count == sum(
        1 for a in range(n) for b in range(n) if es.star[a] == es.plus[b])
    reports = {}
    for order in ("r", "l"):
        fast = verify_isomorphism(es, order=order).to_json()
        leq = posets.order_poset(es, order).zeta
        with pytest.MonkeyPatch.context() as m:
            m.setattr(algebras, "_multiplicative_on_generators", lambda es, down: False)
            m.setattr(algebras, "_hom_sweep",
                      lambda t, cod, dom, down: reference_hom_sweep(t, cod, dom, leq))
            reference = verify_isomorphism(es, order=order).to_json()
        assert fast == reference
        reports[order] = reference
    return reports


@pytest.mark.parametrize("spec", ["six", "b:2", "pt:2", "pt:3", "op:3", "t:3", "ssl:chain2:z2,z3"])
def test_hom_sweep_matches_reference_on_zoo(spec):
    reports = assert_sweep_matches_reference(zoo.parse_zoo_spec(spec))
    if spec in ("six", "b:2"):
        assert reports["r"]["hom_case2_failures"]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_hom_sweep_matches_reference_on_arbitrary_tables(data):
    # any table, dom/cod maps and relation: rows b whose key counts agree but
    # whose keys differ occur here, not only on Ehresmann inputs
    n = data.draw(st.integers(1, 6))

    def draw_array(elements, *shape):
        size = int(np.prod(shape))
        return np.array(data.draw(st.lists(elements, min_size=size, max_size=size))).reshape(shape)

    t = draw_array(st.integers(0, n - 1), n, n).astype(np.int64)
    cod, dom = (draw_array(st.integers(0, n - 1), n).astype(np.int64) for _ in range(2))
    leq = draw_array(st.booleans(), n, n).astype(bool)
    down = posets.down_sets(leq)
    assert algebras._hom_sweep(t, cod, dom, down) == reference_hom_sweep(t, cod, dom, leq)


def closed_subsemigroup(es, generators):
    """The subsemigroup generated by `generators` and closed under + and *."""
    t = es.S.table
    elems, frontier = set(), list(generators)
    while frontier:
        a = frontier.pop()
        if a in elems:
            continue
        elems.add(a)
        frontier += [es.plus[a], es.star[a]]
        frontier += [t[a][b] for b in elems] + [t[b][a] for b in elems]
    elems = sorted(elems)
    sub = subsemigroup(es.S, elems)
    return derive_structure(sub, [i for i, a in enumerate(elems) if a in set(es.E)])


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 63), min_size=1, max_size=3))
def test_hom_sweep_matches_reference_on_pt3_subsemigroups(pt3, generators):
    reports = assert_sweep_matches_reference(closed_subsemigroup(pt3, generators))
    assert reports["r"]["passed"]  # pt:3 is left restriction


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 15), max_size=2))
def test_hom_sweep_matches_reference_on_b2_subsemigroups(b2, generators):
    # A and B fail in every subsemigroup that holds them: phi(ab) has C(B) as
    # a term, and phi(a)phi(b) has none, as A* is not B+
    sub = closed_subsemigroup(b2, [A, B, *generators])
    reports = assert_sweep_matches_reference(sub)
    assert reports["r"]["hom_case2_failures"]


def generator_rows_pass(es, leq):
    """phi(a)phi(g) = phi(ag) for every a and every g in generators(S), without the guards."""
    G = semigroups.generators(es.S).tolist()
    down = posets.down_sets(leq)
    return next(algebras._hom_failures(es.S.table.T, es.plus, es.star, down, G), None) is None


def changed_structures(es):
    """es with one +, * or table entry changed, built directly: nothing is derived or validated."""
    fields = {"S": es.S, "E": es.E, "plus": es.plus, "star": es.star,
              "leq_r": es.leq_r, "leq_l": es.leq_l}
    for name in ("plus", "star"):
        for a in range(es.n):
            for e in es.E:
                ends = getattr(es, name).copy()
                if ends[a] != e:
                    ends[a] = e
                    yield EhresmannStructure(**{**fields, name: ends})
    for a, b in np.ndindex(es.n, es.n):
        t = es.S.table.copy()
        t[a, b] = (t[a, b] + 1) % es.n
        yield EhresmannStructure(**{**fields, "S": FiniteSemigroup(es.n, t)})


@pytest.mark.parametrize("spec", ["pt:2", "ssl:chain2:z2,z3"])
def test_generator_pass_matches_the_full_sweep_on_changed_structures(spec):
    # a changed end can break QC's associativity, and a changed entry S's: the
    # generator rows may then pass while other pairs fail, which only the
    # full sweep sees
    guarded = 0
    for es in changed_structures(zoo.parse_zoo_spec(spec)):
        reports = assert_sweep_matches_reference(es)
        for order in "rl":
            failed = reports[order]["hom_case1_failures"] or reports[order]["hom_case2_failures"]
            guarded += bool(failed) and generator_rows_pass(es, posets.order_poset(es, order).zeta)
    assert guarded


@pytest.mark.parametrize("spec", ["six", "b:2", "pt:2", "pt:3", "op:4", "t:3"])
def test_generator_pass_decides_as_the_full_sweep_on_the_zoo(spec):
    es = zoo.parse_zoo_spec(spec)
    for order in "rl":
        down = posets.order_poset(es, order).down
        case1, case2 = algebras._hom_sweep(es.S.table, es.star, es.plus, down)
        assert algebras._multiplicative_on_generators(es, down) == (not case1 and not case2)


def test_unit_is_two_sided_identity(pt2):
    u = unit(pt2)
    assert u.coeffs == {e: 1 for e in pt2.E}
    for x in range(pt2.n):
        bx = basis_element("category", x)
        assert mul_category(pt2, u, bx) == bx
        assert mul_category(pt2, bx, u) == bx


def test_unit_of_monoid_is_its_identity():
    from semicat import zoo

    m = zoo.monoid_as_trivial_e(zoo.cyclic_group(3))
    assert unit(m).coeffs == {m.E[0]: 1}


def test_psi_of_unit_is_identity_of_semigroup_algebra(pt2):
    pu = element("semigroup", psi(pt2, unit(pt2).coeffs))
    for x in range(pt2.n):
        bx = basis_element("semigroup", x)
        assert mul_semigroup(pt2, pu, bx) == bx
        assert mul_semigroup(pt2, bx, pu) == bx


def test_format_element_matches_exhibit_style(b2):
    text = format_element({A: 1, EMPTY: 1}, "C", b2.S.names)
    assert text == "C({}) + C({(1,1),(1,2)})"
    assert format_element({}, "C", b2.S.names) == "0"
    assert format_element({0: -1, 2: Fraction(3, 2)}, "S") == "-S(0) + 3/2*S(2)"


def test_repr_is_format_element():
    el = element("semigroup", {0: -1, 2: Fraction(-3, 2), 3: 1, 5: Fraction(2, 3)})
    assert repr(el) == format_element(el.coeffs, "S") == "-S(0) - 3/2*S(2) + S(3) + 2/3*S(5)"
    assert repr(element("category", {})) == format_element({}, "C") == "0"


@pytest.mark.parametrize("spec,failing", [("pt:3", 1197), ("op:4", 15808)])
def test_failing_pairs_of_the_opposite_are_the_transposed_pairs(spec, failing):
    # <=_l of S is <=_r of its opposite with E kept, and a pair (a, b) of S is (b, a) there
    es = zoo.parse_zoo_spec(spec)
    dual = derive_structure(semigroups.opposite(es.S), es.E)
    assert np.array_equal(dual.plus, es.star) and np.array_equal(dual.leq_r, es.leq_l)
    mine, theirs = verify_isomorphism(es, "l"), verify_isomorphism(dual, "r")
    for pairs, dual_pairs in ((mine.case1_failures, theirs.case1_failures),
                              (mine.case2_failures, theirs.case2_failures)):
        assert sorted((b, a) for a, b in pairs) == dual_pairs
    assert len(theirs.case1_failures) + len(theirs.case2_failures) == failing
    assert mine.case1_count == theirs.case1_count
