import random
import re
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from osgm.linalg import (
    add_scaled,
    by_column,
    clear_denominators,
    rank,
    rref,
    image_and_kernel,
    evaluate_int,
    solve_row_combination,
    form_matmul,
    matmul,
)
from oracles import (
    Form,
    Quadratic,
    dense,
    coset_reduce,
    dense_left_null_space,
    dense_product,
    dense_rref,
    divided_by_pivots,
    echelon_reduce,
    form_value,
    fraction_rref,
    identity_matrix,
    key_rows,
    mat_evaluate,
    products_agree_by_evaluation,
    quadratic_value,
    rows_at,
    sparse,
    sparse_vector,
)
from strategies import linear_form_matrices, linear_forms, small_rationals


# ---------------------------------------------------------------------------
# Independent oracle: Bareiss fraction-free elimination over the integers.
# Kept deliberately separate from the library's Fraction-based elimination so
# rank always has two routes.
# ---------------------------------------------------------------------------

def bareiss_rank(m):
    m = [list(map(int, row)) for row in m]
    if not m:
        return 0
    rows, cols = len(m), len(m[0])
    prev = 1
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        if r == rows:
            break
    return r


def frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def random_int_matrix(rng, nrows, ncols, lo=-4, hi=4):
    return [[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(nrows)]


def test_rank_against_bareiss_oracle():
    rng = random.Random(20240214)
    for _ in range(300):
        nrows = rng.randint(1, 7)
        ncols = rng.randint(1, 7)
        m = random_int_matrix(rng, nrows, ncols)
        assert rank(sparse(frac_matrix(m))) == bareiss_rank(m)


def test_rank_selberg_boundary_specialized():
    # 5x6 degree-1 boundary matrix of the Selberg arrangement specialized at
    # weights (1,2,2,1,-3); this weight vector satisfies the four resonance
    # equations, dropping the rank from 4 to 3
    m = frac_matrix(
        [
            [-2, -1, 3, 0, 0, 0],
            [0, 0, 0, -2, -1, 3],
            [-2, 0, 3, 2, 0, 0],
            [0, 1, 0, 0, -1, 3],
            [-2, 0, 3, 0, -1, 3],
        ]
    )
    assert rank(sparse(m)) == 3
    assert bareiss_rank([[-2, -1, 3, 0, 0, 0], [0, 0, 0, -2, -1, 3], [-2, 0, 3, 2, 0, 0], [0, 1, 0, 0, -1, 3], [-2, 0, 3, 0, -1, 3]]) == 3
    _, _, ker, _ = image_and_kernel(sparse(m))
    assert len(ker) == 2
    # the cocycle e1 - e2 - e3 + e4 lies in the kernel span
    v = [Fraction(1), Fraction(-1), Fraction(-1), Fraction(1), Fraction(0)]
    assert coset_reduce(v, dense(ker, 5, Fraction(0))) == [Fraction(0)] * 5


def test_kernel_vectors_annihilate_and_are_normalized():
    rng = random.Random(99)
    for _ in range(150):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        m = sparse(frac_matrix(random_int_matrix(rng, nrows, ncols)))
        _, _, ker, ker_pivots = image_and_kernel(m)
        ker = divided_by_pivots(ker, ker_pivots)
        assert len(ker) == nrows - rank(m)
        for v in ker:
            assert matmul([v], m) == [{}]
            assert v[min(v)] == 1
        assert ker_pivots == [min(v) for v in ker]
        # basis vectors are independent
        if ker:
            assert rank(ker) == len(ker)


def test_rref_pivots_are_canonical():
    m = frac_matrix([[2, 4, 0], [1, 2, 1]])
    rows, pivots = rref(sparse(m))
    assert pivots == [0, 2]
    assert rows == sparse(frac_matrix([[1, 2, 0], [0, 0, 1]]))


def test_coset_reduce_properties():
    rng = random.Random(5)
    for _ in range(100):
        dim = rng.randint(1, 6)
        base = frac_matrix(random_int_matrix(rng, rng.randint(0, dim), dim))
        v = [Fraction(rng.randint(-4, 4)) for _ in range(dim)]
        red = coset_reduce(v, base)
        # idempotent
        assert coset_reduce(red, base) == red
        # difference lies in the subspace
        diff = [a - b for a, b in zip(v, red)]
        if base:
            assert rank(sparse(base + [diff])) == rank(sparse(base))
        else:
            assert red == v
        # coset invariance: shifting v by any basis row does not change it
        if base:
            shifted = [a + b for a, b in zip(v, base[0])]
            assert coset_reduce(shifted, base) == red
    # zero exactly on members of the span
    base = frac_matrix([[1, 1, 0], [0, 0, 1]])
    assert coset_reduce([Fraction(3), Fraction(3), Fraction(-2)], base) == [Fraction(0)] * 3
    assert coset_reduce([Fraction(1), Fraction(0), Fraction(0)], base) != [Fraction(0)] * 3


# mostly zeros, as in the specialized differentials; the rational entries
# keep small numerators and denominators so the elimination stays cheap
_sparse_entry = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-5, 5),
                          st.fractions(min_value=-3, max_value=3, max_denominator=7))


@st.composite
def _sparse_matrices(draw):
    nrows, ncols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    entries = draw(st.sampled_from([st.integers(-5, 5), _sparse_entry]))
    return [[Fraction(x) for x in draw(st.lists(entries, min_size=ncols, max_size=ncols))]
            for _ in range(nrows)]


@given(m=_sparse_matrices())
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_rref_matches_dense_elimination(m):
    rows, pivots = rref(sparse(m))
    dense_rows, dense_pivots = dense_rref(m)
    assert (rows, pivots) == (sparse(dense_rows[:len(dense_pivots)]), dense_pivots)
    assert not any(map(any, dense_rows[len(dense_pivots):]))
    # clearing denominators row by row keeps the rank
    ints = [[int(x * lcm(*(y.denominator for y in row))) for x in row] for row in m]
    assert len(pivots) == bareiss_rank(ints)


def test_echelon_reduce_agrees_with_coset_reduce():
    rng = random.Random(17)
    for _ in range(100):
        dim = rng.randint(1, 7)
        base = frac_matrix(random_int_matrix(rng, rng.randint(1, dim), dim))
        rows, pivots = rref(sparse(base))
        v = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim)]
        red = echelon_reduce(sparse_vector(v), rows, pivots)
        assert red == sparse_vector(coset_reduce(v, base))
        assert not any(p in red for p in pivots)
        # members of the span reduce to zero
        member = {}
        for k, r in enumerate(rows, start=1):
            for j, x in r.items():
                member[j] = member.get(j, 0) + k * x
        assert echelon_reduce({j: x for j, x in member.items() if x}, rows, pivots) == {}


def test_solve_row_combination():
    rng = random.Random(31)
    for _ in range(100):
        dim = rng.randint(1, 6)
        k = rng.randint(1, 4)
        rows = frac_matrix(random_int_matrix(rng, k, dim))
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(k)]
        w = [sum((coeffs[i] * rows[i][j] for i in range(k)), Fraction(0)) for j in range(dim)]
        x = solve_row_combination(sparse(rows), sparse_vector(w))
        assert x is not None
        for j in range(dim):
            assert sum((x[i] * rows[i][j] for i in range(k)), Fraction(0)) == w[j]
    # inconsistent system reports None
    assert solve_row_combination(sparse(frac_matrix([[1, 0]])), {1: Fraction(1)}) is None
    assert solve_row_combination([], {}) == []
    assert solve_row_combination([], {0: Fraction(1)}) is None


def _random_form(rng, n):
    return Form(n, {rng.randint(1, n): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                          for _ in range(rng.randint(0, 3))})


def test_matmul_and_polynomial_evaluation_commute():
    rng = random.Random(44)
    n = 3
    lam = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))
    for _ in range(25):
        a = [[_random_form(rng, n) for _ in range(3)] for _ in range(2)]
        b = [[_random_form(rng, n) for _ in range(2)] for _ in range(3)]
        ab = dense(matmul(sparse(a), sparse(b)), 2, Quadratic())
        left = [[quadratic_value(f, lam) for f in row] for row in ab]
        right = matmul(sparse(mat_evaluate(a, lam)), sparse(mat_evaluate(b, lam)))
        assert left == dense(right, 2, Fraction(0))
        # a rational factor keeps the entries linear forms
        r = [[Fraction(rng.randint(-3, 3)) for _ in range(2)] for _ in range(3)]
        ar = dense(matmul(sparse(a), sparse(r)), 2, Form.zero(n))
        assert mat_evaluate(ar, lam) == dense(matmul(sparse(mat_evaluate(a, lam)), sparse(r)),
                                              2, Fraction(0))


@given(data=st.data())
@settings(max_examples=120, deadline=None, derandomize=True, database=None)
def test_symbolic_products_agree_exactly_when_evaluations_do(data):
    # a @ b against c @ d, where c @ d is the same product written another
    # way, (a P)(P^-1 b) for an elementary P, or an unrelated one; either
    # may then have one entry of d moved
    draw = data.draw
    n = draw(st.integers(1, 4))
    rows, inner, cols = (draw(st.integers(1, 3)) for _ in range(3))
    a = draw(linear_form_matrices(n, rows, inner))
    b = draw(linear_form_matrices(n, inner, cols))
    how = draw(st.sampled_from(["same", "change of basis", "unrelated"]))
    if how == "unrelated":
        c = draw(linear_form_matrices(n, rows, inner))
        d = draw(linear_form_matrices(n, inner, cols))
    elif how == "change of basis" and inner > 1:
        i, j = draw(st.lists(st.integers(0, inner - 1), min_size=2, max_size=2, unique=True))
        f = draw(small_rationals())
        p, p_inv = identity_matrix(inner), identity_matrix(inner)
        p[i][j], p_inv[i][j] = f, -f
        c = dense_product(a, p, Form.zero(n))
        d = dense_product(p_inv, b, Form.zero(n))
    else:
        c, d = a, b
    if draw(st.booleans()):
        d = [list(row) for row in d]
        i, j = draw(st.integers(0, inner - 1)), draw(st.integers(0, cols - 1))
        d[i][j] = d[i][j] + draw(linear_forms(n))
    symbolic = matmul(sparse(a), sparse(b)) == matmul(sparse(c), sparse(d))
    assert symbolic == products_agree_by_evaluation(a, b, c, d, n)
    # the library's int route: rows keyed (col, j), products keyed (col, j, k)
    keyed = [form_matmul(key_rows(sparse(x)), key_rows(sparse(y))) for x, y in ((a, b), (c, d))]
    assert (keyed[0] == keyed[1]) == symbolic


def test_identity_matrix():
    i3 = identity_matrix(3)
    m = frac_matrix([[1, 2, 3], [0, 1, 0], [5, 0, 1]])
    assert matmul(sparse(i3), sparse(m)) == sparse(m)
    assert matmul(sparse(m), sparse(i3)) == sparse(m)


@given(data=st.data())
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_matmul_matches_the_dense_product(data):
    # sparse rows against the entry-by-entry product over the full shape,
    # for rational and linear-form entries; zero sums are never stored
    draw = data.draw
    # a dense matrix with no rows has no width, so the inner size is positive
    rows, inner, cols = draw(st.integers(0, 4)), draw(st.integers(1, 4)), draw(st.integers(0, 4))
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["rational", "forms", "mixed"]))
    rational = st.one_of(st.just(Fraction(0)), small_rationals())

    def matrix(entries, nrows, ncols):
        return [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]

    a = matrix(rational if kind == "rational" else linear_forms(n), rows, inner)
    b = matrix(linear_forms(n) if kind == "forms" else rational, inner, cols)
    zero = Quadratic() if kind == "forms" else (Fraction(0) if kind == "rational"
                                                 else Form.zero(n))
    product = matmul(sparse(a), sparse(b))
    assert all(c for row in product for c in row.values())
    assert dense(product, cols, zero) == dense_product(a, b, zero)
    if kind != "rational":
        # forms as rows keyed (col, j): the product is keyed (col, j, k)
        # against forms and stays keyed (col, j) against rationals
        right = key_rows(sparse(b)) if kind == "forms" else sparse(b)
        keyed = form_matmul(key_rows(sparse(a)), right)
        assert all(c for row in keyed for c in row.values())
        assert keyed == key_rows(sparse(dense_product(a, b, zero)))


@given(data=st.data())
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_add_scaled_matches_the_dense_sum(data):
    # acc + f * row on sparse rows against the entry-by-entry sum over the
    # full width, for each kind of entry the library accumulates, f nonzero;
    # some entries of acc are chosen to cancel f * row exactly
    draw = data.draw
    width, n = draw(st.integers(0, 6)), draw(st.integers(1, 3))
    ints, forms = st.integers(-3, 3), linear_forms(n)
    entries, coefficients, zero = draw(st.sampled_from([
        (ints, ints, 0),
        (small_rationals(), small_rationals(), Fraction(0)),
        (forms, st.one_of(ints, small_rationals()), Form.zero(n)),
        (ints, forms, Form.zero(n)),
        (forms, forms, Quadratic()),
    ]))
    f = draw(coefficients.filter(bool))
    row = [draw(entries) for _ in range(width)]
    acc = []
    for b in row:
        how = draw(st.sampled_from(["cancel", "zero", "other"]))
        if how == "cancel":
            acc.append((-f) * b)
        else:
            acc.append(zero if how == "zero" else draw(coefficients) * draw(entries))
    expected = sparse_vector([a + f * b for a, b in zip(acc, row)])
    acc, row = sparse_vector(acc), sparse_vector(row)
    before = dict(row)
    add_scaled(acc, row, f)
    assert acc == expected
    assert all(acc.values())
    assert row == before


# rational rows with some rows zero, down to no columns and no rows
@st.composite
def _matrices_with_zero_rows(draw):
    nrows, ncols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    entries = draw(st.sampled_from([st.integers(-5, 5), _sparse_entry]))
    return [[Fraction(x) for x in draw(st.lists(entries, min_size=ncols, max_size=ncols))]
            if draw(st.integers(0, 3)) else [Fraction(0)] * ncols
            for _ in range(nrows)]


@given(m=_matrices_with_zero_rows())
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_image_and_kernel_match_the_dense_oracles(m):
    rows, pivots, kernel, kernel_pivots = image_and_kernel(sparse(m))
    assert all(type(x) is int for row in rows + kernel for x in row.values())
    rows, kernel = divided_by_pivots(rows, pivots), divided_by_pivots(kernel, kernel_pivots)
    dense_rows, dense_pivots = dense_rref(m)
    assert (rows, pivots) == (sparse(dense_rows[:len(dense_pivots)]), dense_pivots)
    null_rows, null_pivots = dense_rref(dense_left_null_space(m))
    assert (kernel, kernel_pivots) == (sparse(null_rows[:len(null_pivots)]), null_pivots)
    assert len(kernel) + len(rows) == len(m)
    ints = [[int(x * lcm(*(y.denominator for y in row))) for x in row] for row in m]
    assert rank(sparse(m)) == len(pivots) == bareiss_rank(ints)


def test_integer_echelon_pivots_on_the_sparsest_row(monkeypatch):
    # of the rows holding column 0 the first has four entries and the second
    # two, the fewest, so the second is the pivot row; the reduced form is
    # unique, so the results are still those of the dense and first-row routes
    import osgm.linalg

    m = [[1, 2, 3, 4], [2, 0, 0, 1], [0, 1, 5, 0], [1, 3, 8, 4],
         [Fraction(3, 2), 0, 1, Fraction(-1, 4)]]
    sm = sparse(m)
    added = []
    add = osgm.linalg.add_scaled
    monkeypatch.setattr(osgm.linalg, "add_scaled",
                        lambda acc, row, f: added.append(dict(row)) or add(acc, row, f))
    rows, pivots = rref(sm)
    # the first row cleared by the pivot row [2, 0, 0, 1] gets it without
    # its pivot entry, which the elimination pops before clearing
    assert added[0] == {3: 1}
    monkeypatch.undo()
    dense_rows, dense_pivots = dense_rref(m)
    assert (rows, pivots) == (sparse(dense_rows[:len(dense_pivots)]), dense_pivots)
    assert (rows, pivots) == fraction_rref(sm)
    int_rows, int_pivots = osgm.linalg._integer_echelon(sm)
    img, img_pivots, kernel, kernel_pivots = image_and_kernel(sm)
    assert int_pivots == img_pivots == pivots
    assert all(type(x) is int for row in int_rows + img + kernel for x in row.values())
    # a kernel row is zero left of the identity block, so it is a whole
    # primitive row of the elimination; an image row drops that block
    assert all(gcd(*row.values()) == 1 for row in int_rows + kernel)
    assert divided_by_pivots(int_rows, int_pivots) == rows
    assert divided_by_pivots(img, img_pivots) == rows
    null_rows, null_pivots = dense_rref(dense_left_null_space(m))
    assert (divided_by_pivots(kernel, kernel_pivots), kernel_pivots) == (
        sparse(null_rows[:len(null_pivots)]), null_pivots)
    assert len(kernel) == 1


def test_integer_echelon_normalizes_content_one_integral_fraction_and_mixed_rows():
    # each row is first scaled to a primitive int row: a row of content 1
    # as it is, integral Fractions such as Fraction(4, 1) to ints, and
    # mixed int and Fraction rows over their common denominator; a single
    # row is returned as that first scaling leaves it, a new dict
    import osgm.linalg

    f = Fraction
    for m, first in [
        ([[2, 3, 0]], {0: 2, 1: 3}),
        ([[f(4, 1), f(6, 1), 0]], {0: 2, 1: 3}),
        ([[f(4, 1), 0, f(-3, 1)]], {0: 4, 2: -3}),
        ([[3, f(1, 2), 0, 4]], {0: 6, 1: 1, 3: 8}),
        ([[f(9, 1), 6, 0, f(-3, 2)]], {0: 6, 1: 4, 3: -1}),
        ([[2, 3, 0], [0, 5, 7], [1, 1, 1]], None),
        ([[f(4, 1), f(6, 1), 0], [0, f(-8, 1), f(12, 1)], [f(2, 1), 0, f(5, 1)]], None),
        ([[3, f(1, 2), 0, 4], [f(4, 1), 6, 2, 0], [1, f(-2, 3), 5, f(7, 1)]], None),
        ([[6, 4, 2], [f(9, 1), 6, 3], [1, f(2, 3), f(1, 3)]], None),
    ]:
        sm = sparse(m)
        before = [[(j, type(x), x) for j, x in row.items()] for row in sm]
        rows, pivots = osgm.linalg._integer_echelon(sm)
        assert [[(j, type(x), x) for j, x in row.items()] for row in sm] == before
        assert all(type(x) is int for row in rows for x in row.values())
        assert all(gcd(*row.values()) == 1 for row in rows)
        if first is not None:
            assert rows == [first] and rows[0] is not sm[0]
        reduced_rows = divided_by_pivots(rows, pivots)
        assert (reduced_rows, pivots) == fraction_rref(sm)
        dense_rows, dense_pivots = dense_rref(m)
        assert (reduced_rows, pivots) == (sparse(dense_rows[:len(dense_pivots)]), dense_pivots)


# Large rationals, so that clearing denominators, content removal and the
# gcd of pivot and entry all act: numerators up to 10^30 over primes whose
# products run far past a machine word.  Some rows are int only, some are
# zero, and some repeat or combine earlier rows with large rational factors.
_BIG = 10 ** 30
_BIG_DENOMINATORS = (1009, 999983, 1000003, 2 ** 61 - 1)
_big_ints = st.integers(-_BIG, _BIG)
_big_fractions = st.builds(Fraction, _big_ints, st.sampled_from(_BIG_DENOMINATORS))
_big_factors = st.builds(Fraction, _big_ints.filter(bool),
                         st.sampled_from(_BIG_DENOMINATORS))


@st.composite
def _big_rational_matrices(draw):
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["int", "int", "rational", "sparse", "zero"]))
        if kind == "zero":
            rows.append([0] * ncols)
            continue
        entries = {"int": _big_ints, "rational": st.one_of(_big_ints, _big_fractions),
                   "sparse": st.one_of(st.just(0), st.just(0), _big_fractions)}[kind]
        rows.append(draw(st.lists(entries, min_size=ncols, max_size=ncols)))
    for _ in range(draw(st.integers(0, 3))):
        i, k = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        a, b = draw(_big_factors), draw(st.sampled_from([0, 1, -1]) | _big_factors)
        rows.insert(draw(st.integers(0, len(rows))),
                    [a * x + b * y for x, y in zip(rows[i], rows[k])])
    # integral Fractions become ints, as the library's own rows hold them
    return [[x.numerator if isinstance(x, Fraction) and x.denominator == 1 else x
             for x in row] for row in rows]


@given(m=_big_rational_matrices())
@settings(max_examples=250, deadline=None, derandomize=True, database=None)
def test_integer_elimination_matches_the_fraction_route(m):
    sm = sparse(m)
    before = [dict(row) for row in sm]
    rows, pivots = rref(sm)
    assert sm == before
    assert (rows, pivots) == fraction_rref(sm)
    assert sm == before
    dense_rows, dense_pivots = dense_rref(m)
    assert (rows, pivots) == (sparse(dense_rows[:len(dense_pivots)]), dense_pivots)
    assert all(type(x) is Fraction for row in rows for x in row.values())
    assert all(type(row[p]) is Fraction and row[p] == 1 for row, p in zip(rows, pivots))
    ints = [[int(x * lcm(*(Fraction(y).denominator for y in row))) for x in row] for row in m]
    assert rank(sm) == len(pivots) == bareiss_rank(ints)
    result = image_and_kernel(sm)
    assert sm == before
    img, img_pivots, kernel, kernel_pivots = result
    assert all(type(x) is int for row in img + kernel for x in row.values())
    img, kernel = divided_by_pivots(img, img_pivots), divided_by_pivots(kernel, kernel_pivots)
    assert (img, img_pivots) == (rows, pivots)
    null_rows, null_pivots = dense_rref(dense_left_null_space(m))
    assert (kernel, kernel_pivots) == (sparse(null_rows[:len(null_pivots)]), null_pivots)
    assert all(type(x) is Fraction for row in img + kernel for x in row.values())
    # the same results from the int rows d*M with the identity block scaled by d
    d = lcm(*(Fraction(x).denominator for row in m for x in row))
    scaled = [{j: int(d * x) for j, x in row.items()} for row in sm]
    assert image_and_kernel(scaled, d) == result


def test_clear_denominators():
    assert clear_denominators([]) == (1, [])
    assert clear_denominators([3, -4]) == (1, [3, -4])
    xs = [Fraction(1, 6), Fraction(-3, 4), 5, Fraction(0), Fraction(7, 2 ** 61 - 1)]
    d, nums = clear_denominators(xs)
    assert d == 12 * (2 ** 61 - 1)
    assert all(type(v) is int for v in nums)
    assert [Fraction(v, d) for v in nums] == xs


_large_primes = [1009, 999983, 1000003, 2 ** 61 - 1, 2 ** 89 - 1, 10 ** 9 + 7]


@given(data=st.data())
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_evaluate_int_matches_entrywise_evaluation(data):
    nvars = data.draw(st.integers(1, 6))
    coeffs = data.draw(st.sampled_from([
        st.integers(-10 ** 12, 10 ** 12),
        st.one_of(st.integers(-9, 9), st.fractions(max_denominator=10 ** 6))]))
    kind = data.draw(st.sampled_from(["zero", "negative", "integer", "primes", "mixed"]))
    if kind == "zero":
        lam = [Fraction(0)] * nvars
    elif kind == "negative":
        lam = [Fraction(-data.draw(st.integers(1, 10 ** 6)), data.draw(st.integers(1, 50)))
               for _ in range(nvars)]
    elif kind == "integer":
        lam = [Fraction(data.draw(st.integers(-10 ** 20, 10 ** 20))) for _ in range(nvars)]
    elif kind == "primes":
        ps = data.draw(st.permutations(_large_primes))[:nvars]
        lam = [Fraction(data.draw(st.integers(-10 ** 9, 10 ** 9)), p) for p in ps]
    else:
        lam = [data.draw(st.fractions(max_denominator=10 ** 9)) for _ in range(nvars)]
    rows = []
    for _ in range(data.draw(st.integers(0, 4))):
        row = {}
        for j in data.draw(st.sets(st.integers(0, 5), max_size=4)):
            terms = data.draw(st.dictionaries(st.integers(1, nvars), coeffs, max_size=nvars))
            f = Form(nvars, terms)
            if f:
                row[j] = f
        rows.append(row)
    # at N = D * lam every value is D times the value at lam, as an int
    d, nums = clear_denominators(lam)
    expected = [{j: d * v for j, f in row.items() if (v := form_value(f, lam))}
                for row in rows]
    got = evaluate_int(by_column(key_rows(rows)), nums, nvars)
    assert got == expected
    # int coefficients, as every library matrix has, give int values
    if all(type(c) is int for row in rows for f in row.values() for c in f.terms.values()):
        assert all(type(v) is int for row in got for v in row.values())


@given(data=st.data())
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_grouped_evaluation_matches_the_entrywise_oracle(data):
    # int rows keyed (col, j), their keys in any order, so that a column's
    # terms need not be adjacent; some entries have terms built to cancel at
    # the point.  Grouped by `by_column` and evaluated at N = D * lam, every
    # value is D times the Fraction value of `rows_at`, an int, cancelled
    # entries are dropped, and the columns keep the order the row first
    # holds them.  A vector of the wrong length is refused unless no entry
    # is stored
    draw = data.draw
    nvars = draw(st.integers(1, 5))
    den = draw(st.sampled_from([1, 7, 1009, 2 ** 61 - 1]))
    lam = [Fraction(draw(st.sampled_from([0, 1]) | st.integers(-3 * den, 3 * den)), den)
           for _ in range(nvars)]
    d, nums = clear_denominators(lam)
    coeffs = st.integers(-10 ** 6, 10 ** 6).filter(bool)
    rows, cancelled = [], []
    for _ in range(draw(st.integers(0, 4))):
        terms, gone = {}, set()
        for col in draw(st.sets(st.integers(0, 6), max_size=5)):
            js = draw(st.lists(st.integers(1, nvars), min_size=1, max_size=nvars, unique=True))
            cs = [draw(coeffs) for _ in js]
            last = [j for j in range(1, nvars + 1) if j not in js and nums[j - 1]]
            if last and draw(st.booleans()):
                # c_j N_last for each drawn term and -(sum c_j N_j) at `last`
                k = draw(st.sampled_from(last))
                s = sum(c * nums[j - 1] for j, c in zip(js, cs))
                cs = [c * nums[k - 1] for c in cs]
                if s:
                    js, cs = js + [k], cs + [-s]
                gone.add(col)
            terms.update({(col, j): c for j, c in zip(js, cs)})
        keys = draw(st.permutations(list(terms)))
        rows.append({key: terms[key] for key in keys})
        cancelled.append(gone)
    layout = by_column(rows)
    got = evaluate_int(layout, nums, nvars)
    assert got == [{col: d * v for col, v in row.items()} for row in rows_at(rows, lam, nvars)]
    assert all(type(v) is int for row in got for v in row.values())
    for row, vals, gone in zip(rows, got, cancelled):
        assert not gone & set(vals)
        assert list(vals) == [col for col in dict.fromkeys(col for col, _ in row) if col in vals]
    wrong = draw(st.integers(0, nvars + 2).filter(lambda k: k != nvars))
    if any(rows):
        with pytest.raises(ValueError, match="^expected %d values, got %d$" % (nvars, wrong)):
            evaluate_int(layout, [1] * wrong, nvars)
    else:
        assert evaluate_int(layout, [1] * wrong, nvars) == [{} for _ in rows]


def test_evaluate_int_refuses_a_weight_vector_of_the_wrong_length():
    rows = [{0: Form(3, {1: 1, 3: -2})}]
    for nums in ([1, 2], [1] * 4):
        with pytest.raises(ValueError) as exc:
            form_value(rows[0][0], nums)
        with pytest.raises(ValueError, match=re.escape(str(exc.value))):
            evaluate_int(by_column(key_rows(rows)), nums, 3)
    assert str(exc.value) == "expected 3 values, got 4"
    # no stored entry, nothing to evaluate
    assert evaluate_int(by_column([{}]), [1], 3) == [{}]
