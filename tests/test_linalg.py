"""The certified modular route of linalg against Fraction elimination."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semicat import linalg, reptheory, zoo
from semicat.linalg import PRIME, nullspace, rank, rational_nullspace, row_echelon


def rational_rank(matrix) -> int:
    """Rank by Fraction elimination: the reference route."""
    return len(row_echelon([[Fraction(x) for x in row] for row in matrix]))


@pytest.fixture
def fallbacks(monkeypatch):
    """Records each fallback of nullspace and rank to Fraction elimination.

    The tests call the reference route through its own imported name, which
    the spy does not see.
    """
    calls = []
    original = linalg.rational_nullspace

    def spy(matrix):
        calls.append("rational_nullspace")
        return original(matrix)

    monkeypatch.setattr(linalg, "rational_nullspace", spy)
    return calls


def product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@st.composite
def integer_matrices(draw):
    """Random small integer matrices, half of them of rank below min(m, n)."""
    m, n = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    entries = st.integers(-6, 6)
    if draw(st.booleans()):
        return draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))
    k = draw(st.integers(0, min(m, n) - 1))
    left = draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=m, max_size=m))
    right = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=k, max_size=k))
    return product(left, right) if k else [[0] * n for _ in range(m)]


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_fast_paths_match_fraction_elimination(matrix):
    assert nullspace(matrix) == rational_nullspace(matrix)
    assert rank(matrix) == rational_rank(matrix)


@st.composite
def integer_arrays(draw):
    """integer_matrices as int64 arrays with some rows and columns zeroed, or
    times 2**64 (same rank and kernel) as Python ints beyond int64."""
    a = np.array(draw(integer_matrices()), dtype=np.int64)
    m, n = a.shape
    a[draw(st.lists(st.booleans(), min_size=m, max_size=m))] = 0
    a[:, draw(st.lists(st.booleans(), min_size=n, max_size=n))] = 0
    if draw(st.booleans()):
        a = a.astype(object) * 2**64
    return a


@settings(max_examples=300, deadline=None)
@given(integer_arrays())
@example(np.array([[2, 1]]))          # kernel (-1/2, 1): rational reconstruction
@example(np.array([[2**70, 3]], dtype=object))
@example(np.zeros((0, 3), dtype=np.int64))
@example(np.zeros((3, 0), dtype=np.int64))
def test_array_rows_match_list_rows_and_fraction_elimination(a):
    rows = a.tolist()
    assert rank(list(a)) == rank(rows) == rational_rank(rows)
    basis = nullspace(list(a))
    assert basis == nullspace(rows) == rational_nullspace(rows)
    assert all(type(x) is Fraction for v in basis for x in v)


def test_rational_kernel_is_reconstructed_without_fraction_elimination(fallbacks):
    assert nullspace([[2, 1]]) == [(Fraction(-1, 2), Fraction(1))]
    assert nullspace([[3, 0, 2], [0, 5, 2]]) == [(Fraction(-2, 3), Fraction(-2, 5), Fraction(1))]
    assert fallbacks == []


def test_cleared_denominators_beyond_int64_stay_exact(fallbacks):
    # x_i = x_16 / q_i for the first 16 primes: their product, 3.3e19, is the free entry
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]
    matrix = [[q if c == i else -1 if c == len(primes) else 0 for c in range(len(primes) + 1)]
              for i, q in enumerate(primes)]
    assert nullspace(matrix) == rational_nullspace(matrix) == \
        [tuple(Fraction(1, q) for q in primes) + (Fraction(1),)]
    assert math.prod(primes) >= 2**63
    assert fallbacks == []


def test_entries_that_are_not_integers_are_rejected():
    # a cast to int64 would read Fraction(1, 2) as 0 and 0.5 as 0
    for entry in (Fraction(1, 2), Fraction(2), 0.5, 1.0, "1", None):
        for matrix in ([[entry]], [[1, entry], [0, 1]], [[2**70, entry]]):
            with pytest.raises(TypeError):
                rank(matrix)
            with pytest.raises(TypeError):
                nullspace(matrix)


def test_op4_trace_form_rank_is_certified_without_fraction_elimination(fallbacks):
    # rank deficient (70 of 192 columns): the certified kernel gives the rank
    es = zoo.parse_zoo_spec("op:4")
    equations = reptheory._trace_form(es.S.table, np.ones((es.n, es.n), dtype=bool))
    assert rank(equations.tolist()) == 70
    assert fallbacks == []


def test_small_integer_matrices_take_the_fast_path(fallbacks):
    # a nilpotent Jordan block: kernel <e0>, rank n - 1, all in the fast route
    block = [[int(j == i + 1) for j in range(6)] for i in range(6)]
    assert nullspace(block) == [tuple(Fraction(int(c == 0)) for c in range(6))]
    assert rank([[2, 1], [1, 1]]) == 2
    assert fallbacks == []


def test_vectors_are_the_canonical_echelon_basis(fallbacks):
    matrix = [[1, 2, 0, 3], [2, 4, 1, 7]]
    expected = [
        (Fraction(-2), Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(-3), Fraction(0), Fraction(-1), Fraction(1)),
    ]
    assert nullspace(matrix) == expected
    assert fallbacks == []


def test_entries_that_are_multiples_of_p_fall_back(fallbacks):
    # mod p the first column vanishes, so e0 looks like a kernel vector; the
    # exact check refutes it and Fraction elimination answers
    matrix = [[PRIME, 0], [0, 1]]
    assert nullspace(matrix) == rational_nullspace(matrix) == []
    assert rank(matrix) == 2
    assert fallbacks == ["rational_nullspace", "rational_nullspace"]


def test_unreconstructable_kernel_falls_back(fallbacks):
    # the kernel is spanned by (10**6, 1): too large for reconstruction mod p
    matrix = [[1, -10**6]]
    assert nullspace(matrix) == rational_nullspace(matrix) == [(Fraction(10**6), Fraction(1))]
    assert fallbacks == ["rational_nullspace"]


def test_entries_beyond_int64_are_checked_in_python_ints(fallbacks):
    big = 2**70
    matrix = [[big, big, 0], [0, big, big]]
    assert nullspace(matrix) == rational_nullspace(matrix) == [(1, -1, 1)]
    assert rank(matrix) == 2
    assert fallbacks == []


def test_entries_from_2_63_beside_negative_ones_stay_exact(fallbacks):
    # numpy reads 2**63 next to a negative entry as float64, which would round it
    matrix = [[2**63, -1], [1, 0]]
    assert nullspace(matrix) == [] and rank(matrix) == 2
    assert nullspace([[2**63 + 1, -(2**63 + 1)]]) == [(1, 1)]
    assert fallbacks == []


def test_tiny_prime_forces_the_fallback_and_agrees(monkeypatch, fallbacks):
    monkeypatch.setattr(linalg, "PRIME", 3)
    rng = random.Random(7)
    for _ in range(200):
        m, n = rng.randrange(1, 6), rng.randrange(1, 6)
        matrix = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(m)]
        assert nullspace(matrix) == rational_nullspace(matrix)
        assert rank(matrix) == rational_rank(matrix)
    assert fallbacks


def test_empty_and_zero_width_inputs():
    assert nullspace([]) == [] and rank([]) == 0
    assert nullspace([[], []]) == [] and rank([[]]) == 0
    assert nullspace([[0, 0]]) == [(1, 0), (0, 1)]


# --- exact_matmul ------------------------------------------------------------


@st.composite
def matrix_pairs(draw, bound=2**20):
    """Integer matrices a (m x k) and b (k x n), entries within +-bound."""
    m, k, n = (draw(st.integers(0, 6)) for _ in range(3))
    entries = st.integers(-bound, bound)
    a = draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=m, max_size=m))
    b = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=k, max_size=k))
    return a, b, m, k, n


def python_product(a, b, m, k, n):
    return [[sum(a[i][l] * b[l][j] for l in range(k)) for j in range(n)] for i in range(m)]


@settings(max_examples=200, deadline=None)
@given(st.one_of(matrix_pairs(), matrix_pairs(bound=2**29)))
def test_exact_matmul_matches_python_ints(pair):
    # entries up to 2**29 put the bound above 2**53: the int64 route
    a, b, m, k, n = pair
    got = linalg.exact_matmul(np.array(a, dtype=np.int64).reshape(m, k),
                              np.array(b, dtype=np.int64).reshape(k, n))
    assert got.dtype == np.int64
    assert got.tolist() == python_product(a, b, m, k, n)


@settings(max_examples=100, deadline=None)
@given(matrix_pairs())
def test_exact_matmul_int64_route_when_bound_is_zero(pair):
    a, b, m, k, n = pair
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "FLOAT64_EXACT", 0)
        got = linalg.exact_matmul(np.array(a, dtype=np.int64).reshape(m, k),
                                  np.array(b, dtype=np.int64).reshape(k, n))
    assert got.tolist() == python_product(a, b, m, k, n)


@settings(max_examples=100, deadline=None)
@given(matrix_pairs(bound=2**40))
def test_exact_matmul_python_int_route_above_int64_safe(pair):
    # int64 products of entries near 2**40 would wrap around
    a, b, m, k, n = pair
    a, b = np.array(a, dtype=np.int64).reshape(m, k), np.array(b, dtype=np.int64).reshape(k, n)
    got = linalg.exact_matmul(a, b)
    if linalg.abs_max(a) * linalg.abs_max(b) * k >= linalg.INT64_SAFE:
        assert got.dtype == object
    assert got.tolist() == python_product(a.tolist(), b.tolist(), m, k, n)


def test_exact_matmul_of_entries_beyond_int64():
    a = np.array([[2**40, -(2**40)], [3, 2**70]], dtype=object)
    b = np.array([[2**40], [1]])
    assert linalg.exact_matmul(a, b).tolist() == [[2**80 - 2**40], [3 * 2**40 + 2**70]]
    assert linalg.exact_matmul(b.T, b).tolist() == [[2**80 + 1]]


def test_exact_matmul_bound_keeps_float_route_exact(monkeypatch):
    # (2**30 + 1)**2 needs 61 bits: float64 rounds it, int64 does not
    a = np.array([[2**30 + 1]])
    assert linalg.exact_matmul(a, a).tolist() == [[(2**30 + 1) ** 2]]
    monkeypatch.setattr(linalg, "FLOAT64_EXACT", 2**64)
    assert linalg.exact_matmul(a, a).tolist() != [[(2**30 + 1) ** 2]]


def test_exact_matmul_of_boolean_relations():
    rng = np.random.default_rng(5)
    a = rng.random((40, 30)) < 0.3
    b = rng.random((30, 20)) < 0.3
    assert (linalg.exact_matmul(a, b) == a.astype(np.int64) @ b.astype(np.int64)).all()


ROUTES = {
    "float64": {},
    "int64": {"FLOAT64_EXACT": 0},
    "object": {"FLOAT64_EXACT": 0, "INT64_SAFE": 0},
}


@pytest.mark.parametrize("route", ROUTES)
def test_blocked_exact_matmul_on_every_route(monkeypatch, route):
    # row counts off multiples of the 8 row blocks, one row, no rows, no inner dimension
    for name, value in ROUTES[route].items():
        monkeypatch.setattr(linalg, name, value)
    rng = np.random.default_rng(3)

    def draw(shape, kind):
        return rng.random(shape) < 0.4 if kind == "bool" else rng.integers(-50, 51, shape)

    for m, k, n in [(9, 5, 4), (17, 6, 1), (23, 7, 9), (16, 3, 3), (3, 4, 2), (1, 4, 3),
                    (0, 3, 2), (5, 0, 4), (0, 0, 0)]:
        for kinds in [("int", "int"), ("bool", "int"), ("int", "bool"), ("bool", "bool")]:
            a, b = draw((m, k), kinds[0]), draw((k, n), kinds[1])
            got = linalg.exact_matmul(a, b)
            assert got.dtype == (object if route == "object" else np.int64)
            assert got.shape == (m, n)
            assert (got == a.astype(object) @ b.astype(object)).all(), (m, k, n, kinds)


# --- memory ------------------------------------------------------------------


def traced_peak(f, *args):
    """f(*args) and the most bytes it held at once, numpy's buffers included."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = f(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_rank_of_the_op4_trace_form_peaks_below_five_copies():
    es = zoo.parse_zoo_spec("op:4")
    form = reptheory._trace_form(es.S.table, np.ones((es.n, es.n), dtype=bool))
    rows = list(form)
    got, peak = traced_peak(rank, rows)
    assert got == 70
    assert peak <= 5 * form.nbytes, peak / form.nbytes


def test_exact_matmul_of_the_op4_order_peaks_below_two_and_a_half_results():
    leq = zoo.parse_zoo_spec("op:4").leq_r
    got, peak = traced_peak(linalg.exact_matmul, leq, leq)
    assert got.dtype == np.int64
    assert peak <= 2.5 * got.nbytes, peak / got.nbytes
