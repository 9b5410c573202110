import random
from fractions import Fraction
from math import lcm

from hypothesis import given, settings, strategies as st

from osgm.linalg import (
    add_scaled,
    rank,
    rref,
    image_and_kernel,
    echelon_reduce,
    solve_row_combination,
    matmul,
    dense,
)
from osgm.poly import LinearForm, Quadratic
from oracles import (
    coset_reduce,
    dense_left_null_space,
    dense_product,
    dense_rref,
    identity_matrix,
    mat_evaluate,
    products_agree_by_evaluation,
    quadratic_value,
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
    _, _, ker = image_and_kernel(sparse(m))
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
        _, _, ker = image_and_kernel(m)
        assert len(ker) == nrows - rank(m)
        for v in ker:
            assert matmul([v], m) == [{}]
            assert v[min(v)] == 1
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
    return LinearForm(n, {rng.randint(1, n): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
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
        ar = dense(matmul(sparse(a), sparse(r)), 2, LinearForm.zero(n))
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
        c = dense_product(a, p, LinearForm.zero(n))
        d = dense_product(p_inv, b, LinearForm.zero(n))
    else:
        c, d = a, b
    if draw(st.booleans()):
        d = [list(row) for row in d]
        i, j = draw(st.integers(0, inner - 1)), draw(st.integers(0, cols - 1))
        d[i][j] = d[i][j] + draw(linear_forms(n))
    symbolic = matmul(sparse(a), sparse(b)) == matmul(sparse(c), sparse(d))
    assert symbolic == products_agree_by_evaluation(a, b, c, d, n)


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
                                                 else LinearForm.zero(n))
    product = matmul(sparse(a), sparse(b))
    assert all(c for row in product for c in row.values())
    assert dense(product, cols, zero) == dense_product(a, b, zero)


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
        (forms, st.one_of(ints, small_rationals()), LinearForm.zero(n)),
        (ints, forms, LinearForm.zero(n)),
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
    rows, pivots, kernel = image_and_kernel(sparse(m))
    dense_rows, dense_pivots = dense_rref(m)
    assert (rows, pivots) == (sparse(dense_rows[:len(dense_pivots)]), dense_pivots)
    null_rows, null_pivots = dense_rref(dense_left_null_space(m))
    assert kernel == sparse(null_rows[:len(null_pivots)])
    assert len(kernel) + len(rows) == len(m)
    ints = [[int(x * lcm(*(y.denominator for y in row))) for x in row] for row in m]
    assert rank(sparse(m)) == len(pivots) == bareiss_rank(ints)
