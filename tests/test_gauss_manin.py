import functools
import random
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from osgm.arrangement import Arrangement, CombinatorialType, generic_type, pencil_realization
from osgm.aomoto import AomotoComplex, Weights, build_aomoto, os_cohomology, weights_nonresonant
from osgm.gauss_manin import (
    ChainEndomorphism,
    NotCovered,
    SigmaAction,
    eigenspace_dims,
    gm_endomorphism,
    induce_on_type,
    omega_tilde,
    omega_tilde_pair,
    omega_tilde_sum,
    pencil_sum_terms,
    principal_dependence,
    relative_multiplicities,
    spectrum_check,
    spectrum_report,
)
from osgm.linalg import dense, rank
from osgm.poly import LinearForm, Quadratic
from oracles import (
    bareiss_rank,
    chain_failure_by_evaluation,
    dense_chain_failure,
    dense_induce_on_type,
    dense_omega_tilde,
    dense_product,
    dense_spectrum_check,
    dense_weighted_sum,
    frac_rank,
    identity_matrix,
    mat_evaluate,
    omega_tilde_by_conjugation,
    principal_dependence_by_walk,
    sigma_for,
    sparse,
    sparse_rows,
    sparse_vector,
    spectrum_check_by_evaluation,
)
from strategies import linear_forms, realized_type_pairs, type_pairs

SELBERG = {"ell": 2, "n": 5, "rows": [
    ["0", "1", "0"],
    ["-1", "1", "0"],
    ["0", "0", "1"],
    ["-1", "0", "1"],
    ["0", "1", "-1"],
]}

COLLAPSED = {"ell": 2, "n": 5, "rows": [
    ["0", "1", "0"],
    ["-1", "1", "0"],
    ["0", "0", "1"],
    ["0", "0", "1"],
    ["0", "0", "1"],
]}


def selberg_type():
    return CombinatorialType.from_arrangement(Arrangement.from_json(SELBERG))


def collapsed_type():
    return CombinatorialType.from_arrangement(Arrangement.from_json(COLLAPSED))


def y(*js):
    p = LinearForm.zero(5)
    for j in js:
        p = p + LinearForm.variable(j, 5)
    return p


Z = LinearForm.zero(5)


def poly_zeros(nrows, ncols):
    return [[Z for _ in range(ncols)] for _ in range(nrows)]


def b_block():
    return [
        [y(4, 5), -y(4), -y(5)],
        [-y(3), y(3, 5), -y(5)],
        [-y(3), -y(4), y(3, 4)],
    ]


def expected_degree1_sum():
    m = poly_zeros(5, 5)
    b = b_block()
    for i in range(3):
        for j in range(3):
            m[2 + i][2 + j] = b[i][j]
    return m


def expected_degree2_sum():
    # basis order: 12,13,14,15,23,24,25,34,35,45
    m = poly_zeros(10, 10)
    b = b_block()
    for i in range(3):
        for j in range(3):
            m[1 + i][1 + j] = b[i][j]
            m[4 + i][4 + j] = b[i][j]
    for i in range(7, 10):
        m[i][i] = y(3, 4, 5)
    return m


NONRES = ["1/2", "1/3", "1/5", "1/7", "1/11"]
RES = ["1", "2", "2", "1", "-3"]


# ---- permutation action ----------------------------------------------------


def test_sigma_identity():
    act = SigmaAction((1, 2, 3, 4, 5, 6), 5, 2)
    assert act.mats[0] == identity_matrix(1)
    assert act.mats[1] == identity_matrix(5)
    assert act.mats[2] == identity_matrix(10)
    assert act.substitute(y(2)) == y(2)


def test_sigma_swapping_with_last_index():
    # swap 3 <-> 6: the moved generator picks up the affine relation
    act = SigmaAction((1, 2, 6, 4, 5, 3), 5, 2)
    one = Fraction(1)
    m = act.mats[1]
    assert m[2] == [0, 0, -one, 0, 0]
    assert m[0] == [one, 0, -one, 0, 0]
    assert m[4] == [0, 0, -one, 0, one]
    assert act.substitute(y(3)) == LinearForm.subset_sum((6,), 5)
    assert act.substitute(y(1)) == y(1)


def test_sigma_rejects_non_bijection():
    with pytest.raises(ValueError):
        SigmaAction((1, 1, 2, 3, 4, 5), 5, 2)


def test_sigma_inverse_composes_to_identity():
    rng = random.Random(7)
    for _ in range(4):
        images = list(range(1, 7))
        rng.shuffle(images)
        act = SigmaAction(tuple(images), 5, 2)
        inv = act.inverse()
        for p in range(3):
            size = comb(5, p)
            assert dense_product(act.mats[p], inv.mats[p], Fraction(0)) == identity_matrix(size)
            assert dense_product(inv.mats[p], act.mats[p], Fraction(0)) == identity_matrix(size)


def test_sigma_preserves_weighted_one_form():
    # sum_j y_j e_j is carried to itself, with coefficients transported
    rng = random.Random(11)
    for _ in range(4):
        images = list(range(1, 7))
        rng.shuffle(images)
        act = SigmaAction(tuple(images), 5, 2)
        coords = [Z] * 5
        for j in range(1, 6):
            cj = act.substitute(y(j))
            row = act.mats[1][j - 1]
            coords = [c + cj * row[k] for k, c in enumerate(coords)]
        assert coords == [y(1), y(2), y(3), y(4), y(5)]


def test_sigma_twisted_chain_identity():
    cx = build_aomoto(generic_type(5, 2))
    rng = random.Random(3)
    for _ in range(3):
        images = list(range(1, 7))
        rng.shuffle(images)
        act = SigmaAction(tuple(images), 5, 2)
        for p in range(2):
            twisted = [[act.substitute(c) for c in row] for row in cx.boundary[p]]
            lhs = dense_product(twisted, act.mats[p + 1], Z)
            rhs = dense_product(act.mats[p], cx.boundary[p], Z)
            assert lhs == rhs


def test_sigma_for_canonical():
    assert sigma_for((3, 4), 5) == (3, 4, 1, 2, 5, 6)
    assert sigma_for((2, 4, 6), 5) == (2, 4, 6, 1, 3, 5)
    assert sigma_for((1, 2, 3), 5) == (1, 2, 3, 4, 5, 6)


# ---- single endomorphisms ---------------------------------------------------


def test_omega_tilde_base_case_block():
    e = omega_tilde((1, 2, 3), 5, 2)
    assert e.mats[0] == [[Z]]
    assert e.mats[1] == poly_zeros(5, 5)
    pairs = list(combinations(range(1, 6), 2))
    idx = {T: i for i, T in enumerate(pairs)}
    expected = poly_zeros(10, 10)
    # rows inside {1,2,3} carry y_j times the boundary of the full monomial
    for T, j, sgn in [((2, 3), 1, 1), ((1, 3), 2, -1), ((1, 2), 3, 1)]:
        row = expected[idx[T]]
        row[idx[(2, 3)]] = y(j) * sgn
        row[idx[(1, 3)]] = y(j) * -sgn
        row[idx[(1, 2)]] = y(j) * sgn
    assert e.mats[2] == expected


def test_omega_tilde_conjugated_pair_block():
    e = omega_tilde((3, 4), 5, 2)
    m = e.mats[1]
    assert m[0] == [Z] * 5
    assert m[1] == [Z] * 5
    assert m[4] == [Z] * 5
    assert m[2] == [Z, Z, y(4), -y(4), Z]
    assert m[3] == [Z, Z, -y(3), y(3), Z]


def test_omega_tilde_rows_outside_support_vanish():
    pairs = list(combinations(range(1, 6), 2))
    idx = {T: i for i, T in enumerate(pairs)}
    e = omega_tilde((4, 5), 5, 2)
    for T in [(1, 2), (1, 3), (2, 3)]:
        assert e.mats[2][idx[T]] == [Z] * 10
    e = omega_tilde((3, 4, 6), 5, 2)
    for T in [(1, 2), (1, 5), (2, 5)]:
        assert e.mats[2][idx[T]] == [Z] * 10


def test_omega_tilde_large_sets_vanish():
    e = omega_tilde((1, 2, 3, 4), 5, 2)
    assert e.mats[1] == poly_zeros(5, 5)
    assert e.mats[2] == poly_zeros(10, 10)
    e = omega_tilde(tuple(range(1, 7)), 5, 2)
    assert e.mats[2] == poly_zeros(10, 10)


def test_omega_tilde_input_validation():
    with pytest.raises(ValueError):
        omega_tilde((3,), 5, 2)
    with pytest.raises(ValueError):
        omega_tilde((0, 2), 5, 2)
    with pytest.raises(ValueError):
        omega_tilde((2, 7), 5, 2)
    with pytest.raises(ValueError):
        omega_tilde((2, 2), 5, 2)


def test_omega_tilde_all_small_sets_are_chain_maps():
    # construction re-checks commutation with the generic differential
    for size in (2, 3):
        for S in combinations(range(1, 7), size):
            omega_tilde(S, 5, 2)


def test_omega_tilde_extension_independence():
    # the closed form equals the leading-set endomorphism conjugated through
    # every relabeling tried, the order-preserving one and random others
    rng = random.Random(23)
    for n, ell in [(4, 2), (5, 2), (5, 3), (6, 3)]:
        for k in range(2, ell + 2):
            for K in combinations(range(1, n + 2), k):
                direct = omega_tilde(K, n, ell).mats
                rest = [i for i in range(1, n + 2) if i not in K]
                sigmas = {sigma_for(K, n)}
                while len(sigmas) < min(3, factorial(len(rest))):
                    rng.shuffle(rest)
                    sigmas.add(K + tuple(rest))
                assert len(sigmas) >= 2
                for sigma in sorted(sigmas):
                    assert omega_tilde_by_conjugation(K, n, ell, sigma) == direct, \
                        (n, ell, K, sigma)


def test_chain_check_rejects_a_flipped_sign():
    for K, n, ell in [((3, 4), 5, 2), ((2, 4, 6), 5, 2), ((1, 3, 7), 6, 3)]:
        e = omega_tilde(K, n, ell)
        spots = [(q, i, j) for q, m in enumerate(e.mats)
                 for i, row in enumerate(m) for j, c in enumerate(row) if c]
        assert spots
        for q, i, j in spots:
            mats = [[list(row) for row in m] for m in e.mats]
            mats[q][i][j] = -mats[q][i][j]
            with pytest.raises(ValueError, match="commute"):
                ChainEndomorphism(e.cx, sparse_rows(mats))


def test_chain_endomorphism_refuses_malformed_rows():
    e = omega_tilde((3, 4), 5, 2)
    past_width = [dict(row) for row in e.rows[2]]
    past_width[0][10] = y(1)
    for q, bad in [(1, e.rows[1][:-1]), (1, e.rows[1] + [{}]), (2, past_width),
                   (2, e.mats[2])]:
        rows = list(e.rows)
        rows[q] = bad
        with pytest.raises(ValueError, match="degree-%d rows are not" % q):
            ChainEndomorphism(e.cx, rows, validate=False)


# ---- weighted sums ----------------------------------------------------------


def test_pencil_sum_terms_selberg():
    terms = pencil_sum_terms((3, 4, 5), 1, 5, 2)
    expected = {
        (3, 4): 1, (3, 5): 1, (4, 5): 1,
        (1, 3, 4): 1, (2, 3, 4): 1, (3, 4, 6): 1,
        (1, 3, 5): 1, (2, 3, 5): 1, (3, 5, 6): 1,
        (1, 4, 5): 1, (2, 4, 5): 1, (4, 5, 6): 1,
        (3, 4, 5): 2,
    }
    assert terms == expected


def test_omega_tilde_sum_selberg_printed():
    e = omega_tilde_sum((3, 4, 5), 1, 5, 2)
    assert e.mats[0] == [[Z]]
    assert e.mats[1] == expected_degree1_sum()
    assert e.mats[2] == expected_degree2_sum()


def test_relative_multiplicities_selberg_pair():
    terms = relative_multiplicities(collapsed_type(), selberg_type())
    expected = {
        (3, 4): 1, (3, 5): 1, (4, 5): 1,
        (1, 3, 4): 1, (2, 3, 4): 1, (2, 3, 5): 1, (3, 5, 6): 1,
        (1, 4, 5): 1, (4, 5, 6): 1,
        (3, 4, 5): 2,
    }
    assert terms == expected
    # multiplicities agree with |K| - rank over the degenerate realization
    a = Arrangement.from_json(COLLAPSED)
    for K, m in terms.items():
        rows = [[int(x) for x in a.row(j)] for j in K]
        assert m == len(K) - bareiss_rank(rows)


def test_pair_route_matches_pencil_route_after_inducing():
    t = selberg_type()
    pair_e = omega_tilde_pair(collapsed_type(), t)
    pencil_e = omega_tilde_sum((3, 4, 5), 1, 5, 2)
    assert pair_e.mats[2] != pencil_e.mats[2]
    ind_pair = induce_on_type(pair_e, t)
    ind_pencil = induce_on_type(pencil_e, t)
    assert ind_pair.mats == ind_pencil.mats


# ---- induced maps -----------------------------------------------------------


def test_induce_identity():
    cx = build_aomoto(generic_type(5, 2))
    mats = []
    for q in range(3):
        size = len(cx.bases[q])
        mats.append([
            [y(1) if i == j else Z for j in range(size)]
            for i in range(size)
        ])
    e = ChainEndomorphism(cx, sparse_rows(mats))
    ind = induce_on_type(e, selberg_type())
    for q, size in enumerate((1, 5, 6)):
        expected = [
            [y(1) if i == j else Z for j in range(size)]
            for i in range(size)
        ]
        assert ind.mats[q] == expected


def test_induce_on_selberg_printed():
    e = omega_tilde_sum((3, 4, 5), 1, 5, 2)
    ind = induce_on_type(e, selberg_type())
    assert ind.mats[1] == expected_degree1_sum()
    b = b_block()
    expected = poly_zeros(6, 6)
    for i in range(3):
        for j in range(3):
            expected[i][j] = b[i][j]
            expected[3 + i][3 + j] = b[i][j]
    assert ind.mats[2] == expected


def test_induce_rejects_map_that_breaks_relations():
    cx = build_aomoto(generic_type(5, 2))
    mats = [
        [[Z]],
        poly_zeros(5, 5),
        poly_zeros(10, 10),
    ]
    mats[2][0][1] = y(1)  # e_12 (a relation for the Selberg type) -> e_13
    e = ChainEndomorphism(cx, sparse_rows(mats), validate=False)
    with pytest.raises(NotCovered, match="covering"):
        induce_on_type(e, selberg_type())


def test_induce_on_type_runs_no_elimination(monkeypatch):
    # descent is the identity W P = P M on the projection, so neither the
    # induced map nor the refusal of one that breaks the relations row-reduces
    import osgm.linalg

    t = selberg_type()
    e = omega_tilde_sum((3, 4, 5), 1, 5, 2)
    expected = dense_induce_on_type(e.mats, t)
    broken = [[[Z]], poly_zeros(5, 5), poly_zeros(10, 10)]
    broken[2][0][1] = y(1)
    broken = ChainEndomorphism(e.cx, sparse_rows(broken), validate=False)
    build_aomoto(t)

    def refuse(*args):
        raise AssertionError("rref called")

    monkeypatch.setattr(osgm.linalg, "rref", refuse)
    assert induce_on_type(e, t).mats == expected
    with pytest.raises(NotCovered, match="degree-2 relations"):
        induce_on_type(broken, t)


# ---- action on cohomology ---------------------------------------------------


def test_gm_endomorphism_nonresonant_selberg():
    t = selberg_type()
    ind = induce_on_type(omega_tilde_sum((3, 4, 5), 1, 5, 2), t)
    lam = Weights(NONRES)
    assert gm_endomorphism(ind, lam, 0) == []
    assert gm_endomorphism(ind, lam, 1) == []
    target = Fraction(167, 385)
    assert gm_endomorphism(ind, lam, 2) == [
        [target, Fraction(0)],
        [Fraction(0), target],
    ]


def test_gm_endomorphism_scalar_at_random_nonresonant_weights():
    t = selberg_type()
    ind = induce_on_type(omega_tilde_sum((3, 4, 5), 1, 5, 2), t)
    rng = random.Random(41)
    found = 0
    while found < 3:
        lam = Weights([Fraction(rng.randint(1, 30), rng.randint(2, 13)) for _ in range(5)])
        if not weights_nonresonant(t, lam):
            continue
        found += 1
        s = lam.subset_sum((3, 4, 5))
        omega2 = gm_endomorphism(ind, lam, 2)
        assert omega2 == [[s if i == j else Fraction(0) for j in range(2)] for i in range(2)]


def test_gm_endomorphism_resonant_selberg():
    t = selberg_type()
    ind = induce_on_type(omega_tilde_sum((3, 4, 5), 1, 5, 2), t)
    lam = Weights(RES)
    h = os_cohomology(t, lam)
    assert h.dims == [0, 1, 3]
    assert gm_endomorphism(ind, lam, 1, h=h) == [[Fraction(0)]]
    zero3 = [[Fraction(0)] * 3 for _ in range(3)]
    assert gm_endomorphism(ind, lam, 2, h=h) == zero3


def test_gm_endomorphism_zero_weights():
    t = selberg_type()
    ind = induce_on_type(omega_tilde_sum((3, 4, 5), 1, 5, 2), t)
    lam = Weights(["0"] * 5)
    h = os_cohomology(t, lam)
    assert h.dims == [1, 5, 6]
    for q, d in enumerate(h.dims):
        expected = [[Fraction(0)] * d for _ in range(d)]
        assert gm_endomorphism(ind, lam, q, h=h) == expected


def test_gm_classes_are_representative_independent():
    t = selberg_type()
    ind = induce_on_type(omega_tilde_sum((3, 4, 5), 1, 5, 2), t)
    lam = Weights(NONRES)
    h = os_cohomology(t, lam)
    cx = build_aomoto(t)
    w2 = dense(ind.specialize(lam, 2), 6, Fraction(0))
    d1 = dense(cx.boundary_at(lam, 1), 6, Fraction(0))
    rng = random.Random(5)
    for z in dense(h.reps[2], 6, Fraction(0)):
        v = [Fraction(rng.randint(-4, 4)) for _ in range(5)]
        db = dense_product([v], d1, Fraction(0))[0]
        shifted = [a + b for a, b in zip(z, db)]
        img1 = dense_product([z], w2, Fraction(0))[0]
        img2 = dense_product([shifted], w2, Fraction(0))[0]
        assert h.class_coords(2, sparse_vector(img1)) == h.class_coords(2, sparse_vector(img2))


# ---- principal dependence ----------------------------------------------------


def test_principal_dependence_selberg():
    assert principal_dependence(collapsed_type(), selberg_type()) == ((3, 4, 5), 1)


def test_principal_dependence_new_triple_point():
    rows = [["0", "1", "0"], ["0", "0", "1"], ["0", "1", "1"], ["1", "1", "2"]]
    t = CombinatorialType.from_arrangement(
        Arrangement.from_json({"ell": 2, "n": 4, "rows": rows}))
    assert principal_dependence(t, generic_type(4, 2)) == ((1, 2, 3), 2)


def test_principal_dependence_coincident_pair():
    rows = [["0", "1", "0"], ["0", "1", "0"], ["0", "0", "1"], ["1", "1", "1"]]
    t = CombinatorialType.from_arrangement(
        Arrangement.from_json({"ell": 2, "n": 4, "rows": rows}))
    assert principal_dependence(t, generic_type(4, 2)) == ((1, 2), 1)


def test_principal_dependence_requires_a_difference():
    t = selberg_type()
    with pytest.raises(ValueError):
        principal_dependence(t, t)


def _outcome(route, t_special, t_general):
    try:
        return route(t_special, t_general)
    except ValueError as e:
        return type(e), str(e)


@given(pair=type_pairs())
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_principal_dependence_matches_the_walk_route(pair):
    # same pencil, or the same refusal with the same message, as the route
    # that walks every subset for the starred sets and for each profile
    assert _outcome(principal_dependence, *pair) == _outcome(principal_dependence_by_walk, *pair)


# ---- spectrum ----------------------------------------------------------------


def test_eigenspace_dims_values():
    assert eigenspace_dims(5, 3, 1, 2) == (3, 7)
    assert eigenspace_dims(5, 3, 1, 1) == (3, 2)
    assert eigenspace_dims(5, 3, 1, 0) == (1, 0)
    for n in range(2, 7):
        for s in range(2, n + 1):
            for r in range(1, s):
                for q in range(0, 4):
                    d0, ds = eigenspace_dims(n, s, r, q)
                    assert d0 + ds == comb(n, q)
    with pytest.raises(ValueError):
        eigenspace_dims(5, 3, 0, 1)
    with pytest.raises(ValueError):
        eigenspace_dims(5, 3, 3, 1)
    with pytest.raises(ValueError):
        eigenspace_dims(5, 3, 1, -1)


def test_eigenspace_dims_match_specialized_ranks():
    e = omega_tilde_sum((3, 4, 5), 1, 5, 2)
    lam = Weights(NONRES)
    lam_s = lam.subset_sum((3, 4, 5))
    for q in range(3):
        d0, ds = eigenspace_dims(5, 3, 1, q)
        size = comb(5, q)
        m = dense(e.specialize(lam, q), size, Fraction(0))
        assert rank(sparse(m)) == ds
        shifted = [[m[i][j] - (lam_s if i == j else 0) for j in range(size)]
                   for i in range(size)]
        product = dense_product(m, shifted, Fraction(0))
        assert all(not c for row in product for c in row)


def test_spectrum_check_symbolic_and_witness():
    e = omega_tilde_sum((3, 4, 5), 1, 5, 2)
    ok, witness = spectrum_check(e, (3, 4, 5))
    assert ok and witness is None
    # a zero endomorphism passes against any eigenvalue form
    zero_e = omega_tilde((1, 2, 3, 4), 5, 2)
    ok, witness = spectrum_check(zero_e, (1, 2, 3, 4))
    assert ok and witness is None
    # doubling one degree breaks the quadratic relation
    broken = [e.mats[0], [[c * 2 for c in row] for row in e.mats[1]], e.mats[2]]
    bad = ChainEndomorphism(e.cx, sparse_rows(broken), validate=False)
    ok, witness = spectrum_check(bad, (3, 4, 5))
    assert not ok
    assert witness["degree"] == 1


def test_spectrum_witness_is_first_failing_entry_row_major():
    e = omega_tilde_sum((3, 4, 5), 1, 5, 2)
    ys = y(3, 4, 5)
    for q, (i, j) in ((1, (3, 2)), (2, (0, 0)), (2, (9, 4))):
        mats = [[list(row) for row in m] for m in e.mats]
        mats[q][i][j] = mats[q][i][j] + y(1)
        ok, witness = spectrum_check(ChainEndomorphism(e.cx, sparse_rows(mats),
                                                       validate=False), (3, 4, 5))
        m = mats[q]
        shifted = [[c - ys if a == b else c for b, c in enumerate(row)]
                   for a, row in enumerate(m)]
        product = dense_product(m, shifted, Quadratic())
        first = next((a, b) for a, row in enumerate(product)
                     for b, c in enumerate(row) if c)
        assert not ok
        assert witness == {"degree": q, "row": first[0], "col": first[1]}


@given(data=st.data())
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_chain_and_spectrum_verdicts_match_evaluation(data):
    # a pencil sum with up to two entries flipped or moved: the symbolic
    # chain check and spectrum check decide as the probe-point route does
    draw = data.draw
    n, ell = draw(st.sampled_from([(3, 1), (3, 2), (4, 2), (4, 3)]))
    S = tuple(sorted(draw(st.lists(st.integers(1, n + 1), min_size=2, max_size=n + 1,
                                   unique=True))))
    r = draw(st.integers(1, min(ell, len(S) - 1)))
    e = omega_tilde_sum(S, r, n, ell)
    mats = [[list(row) for row in m] for m in e.mats]
    for _ in range(draw(st.integers(0, 2))):
        q = draw(st.integers(0, ell))
        i, j = (draw(st.integers(0, len(mats[q]) - 1)) for _ in range(2))
        if draw(st.booleans()):
            mats[q][i][j] = -mats[q][i][j]
        else:
            mats[q][i][j] = mats[q][i][j] + draw(linear_forms(n))
    failing = chain_failure_by_evaluation(e.cx, mats)
    if failing is None:
        ChainEndomorphism(e.cx, sparse_rows(mats))
    else:
        with pytest.raises(ValueError, match="in degree %d$" % failing):
            ChainEndomorphism(e.cx, sparse_rows(mats))
    unchecked = ChainEndomorphism(e.cx, sparse_rows(mats), validate=False)
    assert spectrum_check(unchecked, S) == spectrum_check_by_evaluation(unchecked, S)


def test_spectrum_report_flags_only_the_broken_degree():
    e = omega_tilde_sum((3, 4, 5), 1, 5, 2)
    lam = Weights(NONRES)
    good = spectrum_report(e, (3, 4, 5), 1, lam)
    assert good == spectrum_report(omega_tilde_sum((3, 4, 5), 1, 5, 2), (3, 4, 5), 1, lam)
    assert [d["verified"] for d in good["degrees"]] == [True, True, True]
    broken = [e.mats[0], [[c * 2 for c in row] for row in e.mats[1]], e.mats[2]]
    bad = spectrum_report(ChainEndomorphism(e.cx, sparse_rows(broken), validate=False),
                          (3, 4, 5), 1, lam)
    assert [d["verified"] for d in bad["degrees"]] == [True, False, True]
    assert [{k: d[k] for k in ("degree", "lambda_S", "d0", "dS")}
            for d in bad["degrees"]] == [
        {k: d[k] for k in ("degree", "lambda_S", "d0", "dS")} for d in good["degrees"]]


def _two_rank_verdicts(e, S, r, lam):
    """`verified` per degree with both ranks taken, by dense Fraction
    elimination."""
    n = e.cx.t.n
    lam_s = lam.subset_sum(tuple(sorted(S)))
    out = []
    for q, mat in enumerate(e.mats):
        m = mat_evaluate(mat, lam.values)
        shifted = [[c - lam_s * (i == j) for j, c in enumerate(row)]
                   for i, row in enumerate(m)]
        d0, ds = eigenspace_dims(n, len(S), r, q)
        vanishes = not any(any(row) for row in dense_product(m, shifted, Fraction(0)))
        out.append(vanishes and frac_rank(m) == ds and frac_rank(shifted) == d0)
    return out


def test_spectrum_report_ranks_each_degree_once(monkeypatch):
    # once M (M - lambda_S I) = 0 with lambda_S != 0, rank (M - lambda_S I)
    # is size - rank M, so one rank per degree gives the two-rank verdict
    import osgm.gauss_manin

    calls = []
    real = osgm.gauss_manin.rank
    monkeypatch.setattr(osgm.gauss_manin, "rank", lambda m: calls.append(len(m)) or real(m))
    six = ["1/2", "1/3", "1/5", "1/7", "1/11", "1/13"]
    cases = [((3, 4, 5), 1, 5, 2, NONRES), ((3, 4, 5), 1, 5, 2, ["1", "2", "2", "1", "-2"]),
             ((1, 2, 6), 1, 5, 2, NONRES), ((1, 2, 4, 7), 2, 6, 3, six),
             ((2, 3, 5, 6), 1, 6, 3, ["1", "2", "-1", "1", "3", "-2"])]
    for S, r, n, ell, weights in cases:
        e = omega_tilde_sum(S, r, n, ell)
        lam = Weights(weights)
        calls.clear()
        report = spectrum_report(e, S, r, lam)
        assert [d["verified"] for d in report["degrees"]] == _two_rank_verdicts(e, S, r, lam)
        assert calls == [len(m) for m in e.rows], (S, r, n, ell)
    e = omega_tilde_sum((3, 4, 5), 1, 5, 2)
    broken = [e.mats[0], [[c * 2 for c in row] for row in e.mats[1]], e.mats[2]]
    broken = ChainEndomorphism(e.cx, sparse_rows(broken), validate=False)
    lam = Weights(NONRES)
    report = spectrum_report(broken, (3, 4, 5), 1, lam)
    assert [d["verified"] for d in report["degrees"]] == [True, False, True]
    assert [d["verified"] for d in report["degrees"]] == _two_rank_verdicts(broken, (3, 4, 5), 1, lam)
    # on a smaller complex d0 + dS need not be the size, so rank M = dS alone
    # does not verify a degree: here y1 + y2 on four of six degree-2 rows
    ys = LinearForm.subset_sum((1, 2), 5)
    rows = [[{}], [{}] * 5, [{i: ys} if i < 4 else {} for i in range(6)]]
    diagonal = ChainEndomorphism(build_aomoto(selberg_type()), rows, validate=False)
    report = spectrum_report(diagonal, (1, 2), 1, lam)
    assert [d["verified"] for d in report["degrees"]] == [True, False, False]
    assert [d["verified"] for d in report["degrees"]] == _two_rank_verdicts(diagonal, (1, 2), 1, lam)


def test_gm_endomorphism_refuses_classes_of_other_weights():
    # cohomology computed at resonant weights does not describe the complex
    # at nonresonant ones: the image of a class leaves the closed classes
    t = selberg_type()
    ind = induce_on_type(omega_tilde_sum((3, 4, 5), 1, 5, 2), t)
    h = os_cohomology(t, Weights(RES))
    with pytest.raises(NotCovered, match="not closed in degree 1"):
        gm_endomorphism(ind, Weights(NONRES), 1, h=h)


def test_principal_dependence_failures_are_not_covered():
    rows = [["0", "1", "0"], ["1", "1", "0"], ["2", "1", "0"],
            ["0", "0", "1"], ["1", "0", "1"], ["2", "0", "1"]]
    two = CombinatorialType.from_arrangement(
        Arrangement.from_json({"ell": 2, "n": 6, "rows": rows}))
    with pytest.raises(NotCovered, match="no single pencil"):
        principal_dependence(two, generic_type(6, 2))


# ---- the sparse route against the dense one ----------------------------------

SMALL = [(3, 1), (3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (6, 2), (6, 3)]


def _pencils(n, ell):
    return [(S, r) for size in range(2, n + 2) for S in combinations(range(1, n + 2), size)
            for r in range(1, min(ell, size - 1) + 1)]


@functools.lru_cache(maxsize=None)
def _pencil_type(n, ell, S, r):
    """The type of the pencil (S, r), or the generic type where a rank-1
    pencil through infinity has no affine realization."""
    if n + 1 in S and r == 1:
        return generic_type(n, ell)
    return CombinatorialType.from_arrangement(pencil_realization(n, ell, S, r))


def _induced(e, t):
    """Dense induced matrices, or the error the sparse route raises."""
    try:
        return induce_on_type(e, t).mats
    except ValueError as err:
        return "%s: %s" % (type(err).__name__, err)


def _dense_induced(mats, t):
    """The same outcome by the dense route: the dense push-down, then the
    dense chain check on the type's complex."""
    try:
        out = dense_induce_on_type(mats, t)
    except NotCovered as err:
        return "NotCovered: %s" % err
    failing = dense_chain_failure(build_aomoto(t), out)
    if failing is None:
        return out
    return ("ValueError: matrices do not commute with the differential in degree %d"
            % failing)


def _nonzeros_only(rows):
    return all(f for m in rows for row in m for f in row.values())


def test_every_omega_tilde_matches_the_dense_route():
    # terms of the closed form that cancel are dropped, so every stored
    # entry is nonzero
    for n, ell in SMALL:
        assert _nonzeros_only(build_aomoto(generic_type(n, ell)).rows)
        for size in range(2, n + 2):
            for K in combinations(range(1, n + 2), size):
                e = omega_tilde(K, n, ell)
                assert e.mats == dense_omega_tilde(K, n, ell), (n, ell, K)
                assert _nonzeros_only(e.rows), (n, ell, K)


@given(data=st.data())
@settings(max_examples=120, deadline=None, derandomize=True, database=None)
def test_sums_and_induced_maps_match_the_dense_route(data):
    # a pencil sum, induced on the generic type, on its own pencil type and
    # on another pencil's type, where it need not descend
    draw = data.draw
    n, ell = draw(st.sampled_from(SMALL))
    S, r = draw(st.sampled_from(_pencils(n, ell)))
    e = omega_tilde_sum(S, r, n, ell)
    assert e.mats == dense_weighted_sum(pencil_sum_terms(S, r, n, ell), n, ell)
    assert _nonzeros_only(e.rows)
    other = draw(st.sampled_from(_pencils(n, ell)))
    for t in (generic_type(n, ell), _pencil_type(n, ell, S, r), _pencil_type(n, ell, *other)):
        assert _induced(e, t) == _dense_induced(e.mats, t), (n, ell, S, r, other)
        assert _nonzeros_only(build_aomoto(t).rows)


@given(pair=type_pairs())
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_pair_sums_match_the_dense_route(pair):
    special, general = pair
    try:
        terms = relative_multiplicities(special, general)
    except ValueError:
        return
    n, ell = general.n, general.ell
    assert omega_tilde_pair(special, general).mats == dense_weighted_sum(terms, n, ell)


@given(pair=realized_type_pairs())
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_pair_sum_and_recovered_pencil_sum_induce_the_same_map(pair):
    # `osgm gm FILE FILE2` recovers (S, r) and runs the pencil route: on
    # realized types the pencil sum adds to the pair sum only sets already
    # dependent in the general type, whose maps induce zero there
    special, general = pair
    try:
        S, r = principal_dependence(special, general)
    except ValueError:
        return
    pencil = omega_tilde_sum(S, r, general.n, general.ell)
    assert _induced(omega_tilde_pair(special, general), general) == _induced(pencil, general)


@given(data=st.data())
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_sparse_checks_fail_exactly_where_the_dense_ones_do(data):
    # one entry of a pencil sum flipped or moved: the chain check raises for
    # the degree the dense check names, spectrum_check gives the dense
    # witness, and inducing fails (or not) as the dense route does
    draw = data.draw
    n, ell = draw(st.sampled_from(SMALL))
    S, r = draw(st.sampled_from(_pencils(n, ell)))
    e = omega_tilde_sum(S, r, n, ell)
    mats = [[list(row) for row in m] for m in e.mats]
    spots = [(q, i, j) for q, m in enumerate(mats) for i, row in enumerate(m)
             for j, c in enumerate(row) if c]
    if spots and draw(st.booleans()):
        q, i, j = draw(st.sampled_from(spots))
    else:
        q = draw(st.integers(0, ell))
        i, j = (draw(st.integers(0, len(mats[q]) - 1)) for _ in range(2))
    row = mats[q][i]
    if draw(st.booleans()):
        row[j] = -row[j]
    else:
        k = draw(st.integers(0, len(row) - 1))
        if k != j:
            row[k], row[j] = row[k] + row[j], LinearForm.zero(n)
    failing = dense_chain_failure(e.cx, mats)
    if failing is None:
        ChainEndomorphism(e.cx, sparse_rows(mats))
    else:
        with pytest.raises(ValueError, match="in degree %d$" % failing):
            ChainEndomorphism(e.cx, sparse_rows(mats))
    unchecked = ChainEndomorphism(e.cx, sparse_rows(mats), validate=False)
    assert spectrum_check(unchecked, S) == dense_spectrum_check(mats, S, n)
    t = _pencil_type(n, ell, S, r)
    assert _induced(unchecked, t) == _dense_induced(mats, t)


def test_no_stored_entry_is_zero():
    # every omega_tilde up to n = 7, ell = n included, where terms of the
    # closed form cancel in a few rows; the complexes they live on; and maps
    # induced on the Selberg type and on the generic (7,3) type
    for n in range(1, 8):
        for ell in range(1, min(3, n) + 1):
            assert _nonzeros_only(build_aomoto(generic_type(n, ell)).rows), (n, ell)
            for size in range(2, n + 2):
                for K in combinations(range(1, n + 2), size):
                    assert _nonzeros_only(omega_tilde(K, n, ell).rows), (n, ell, K)
    selberg = selberg_type()
    cases = [(selberg, omega_tilde_sum((3, 4, 5), 1, 5, 2)),
             (selberg, omega_tilde_pair(collapsed_type(), selberg)),
             (generic_type(7, 3), omega_tilde_sum((1, 2, 3), 1, 7, 3)),
             (generic_type(7, 3), omega_tilde_sum((2, 4, 6, 8), 2, 7, 3))]
    for t, e in cases:
        assert _nonzeros_only(build_aomoto(t).rows)
        assert _nonzeros_only(e.rows)
        assert _nonzeros_only(induce_on_type(e, t).rows)


# ---- coefficient types and the dense views ------------------------------------


def _coefficients(rows):
    return [c for m in rows for row in m for f in row.values() for c in f.terms.values()]


def test_library_coefficients_are_ints():
    selberg, collapsed = selberg_type(), collapsed_type()
    cases = [(selberg, omega_tilde_sum((3, 4, 5), 1, 5, 2)),
             (selberg, omega_tilde_pair(collapsed, selberg)),
             (generic_type(6, 3), omega_tilde_sum((2, 4, 7), 2, 6, 3)),
             (_pencil_type(6, 3, (1, 2, 3, 4), 2), omega_tilde_sum((1, 2, 3, 4), 2, 6, 3))]
    for t, e in cases:
        n, ell = t.n, t.ell
        coeffs = _coefficients(build_aomoto(t).rows) + _coefficients(e.rows)
        coeffs += _coefficients(induce_on_type(e, t).rows)
        for K in pencil_sum_terms((1, 2, 3), 1, n, ell):
            coeffs += _coefficients(omega_tilde(K, n, ell).rows)
        assert coeffs and all(type(c) is int for c in coeffs), (n, ell)


def test_specialize_matches_the_dense_route():
    t = selberg_type()
    lam = Weights(NONRES)
    for e in (omega_tilde_sum((3, 4, 5), 1, 5, 2),
              induce_on_type(omega_tilde_sum((3, 4, 5), 1, 5, 2), t)):
        for q, m in enumerate(e.mats):
            values = dense(e.specialize(lam, q), len(m), Fraction(0))
            assert values == mat_evaluate(m, lam.values)
            assert all(type(c) is Fraction for row in values for c in row)
    cx = build_aomoto(t)
    for q, m in enumerate(cx.boundary):
        assert cx.boundary_at(lam, q) == sparse(mat_evaluate(m, lam.values))


def test_library_route_builds_no_dense_view(monkeypatch):
    import osgm.aomoto
    import osgm.gauss_manin
    import osgm.linalg

    def refuse(*args):
        raise AssertionError("dense view built")

    monkeypatch.setattr(ChainEndomorphism, "mats", property(refuse))
    monkeypatch.setattr(AomotoComplex, "boundary", property(refuse))
    # every module that binds `dense`, so no computation goes through it
    for module in (osgm.linalg, osgm.aomoto, osgm.gauss_manin):
        monkeypatch.setattr(module, "dense", refuse)
    # start from a generic type no other test has built
    generic_type.cache_clear()
    t = selberg_type()
    e = omega_tilde_sum((3, 4, 5), 1, 5, 2)
    ind = induce_on_type(e, t)
    for weights in (NONRES, RES):
        lam = Weights(weights)
        h = os_cohomology(t, lam)
        for q in range(3):
            gm_endomorphism(ind, lam, q, h=h)
        spectrum_report(e, (3, 4, 5), 1, lam)
    assert spectrum_check(e, (3, 4, 5)) == (True, None)
