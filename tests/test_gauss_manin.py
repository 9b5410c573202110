import random
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

import pytest

from osgm.arrangement import Arrangement, CombinatorialType, generic_type
from osgm.aomoto import Weights, build_aomoto, os_cohomology, weights_nonresonant
from osgm.gauss_manin import (
    ChainEndomorphism,
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
    sigma_for,
    spectrum_check,
)
from osgm.linalg import identity_matrix, matmul, mat_sub, rank
from osgm.poly import Polynomial
from oracles import bareiss_rank, omega_tilde_by_conjugation

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
    p = Polynomial.zero(5)
    for j in js:
        p = p + Polynomial.variable(j, 5)
    return p


Z = Polynomial.zero(5)


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
    assert act.substitute(y(3)) == Polynomial.subset_sum((6,), 5)
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
            assert matmul(act.mats[p], inv.mats[p], Fraction(0)) == identity_matrix(size)
            assert matmul(inv.mats[p], act.mats[p], Fraction(0)) == identity_matrix(size)


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
            lhs = matmul(twisted, act.mats[p + 1], Z)
            rhs = matmul(act.mats[p], cx.boundary[p], Z)
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
                ChainEndomorphism(e.cx, mats)


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
            [Polynomial.constant(Fraction(int(i == j)), 5) for j in range(size)]
            for i in range(size)
        ])
    e = ChainEndomorphism(cx, mats)
    ind = induce_on_type(e, selberg_type())
    for q, size in enumerate((1, 5, 6)):
        expected = [
            [Polynomial.constant(Fraction(int(i == j)), 5) for j in range(size)]
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
    one = Polynomial.constant(Fraction(1), 5)
    mats[2][0][1] = one  # e_12 (a relation for the Selberg type) -> e_13
    e = ChainEndomorphism(cx, mats, validate=False)
    with pytest.raises(ValueError, match="covering"):
        induce_on_type(e, selberg_type())


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
    w2 = ind.specialize(lam)[2]
    d1 = cx.boundary_at(lam, 1)
    rng = random.Random(5)
    for k in range(h.dims[2]):
        z = h.reps[2][k]
        v = [Fraction(rng.randint(-4, 4)) for _ in range(5)]
        db = matmul([v], d1, Fraction(0))[0]
        shifted = [a + b for a, b in zip(z, db)]
        img1 = matmul([z], w2, Fraction(0))[0]
        img2 = matmul([shifted], w2, Fraction(0))[0]
        assert h.class_coords(2, img1) == h.class_coords(2, img2)


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
    mats = e.specialize(lam)
    for q in range(3):
        d0, ds = eigenspace_dims(5, 3, 1, q)
        m = mats[q]
        assert rank(m) == ds
        size = comb(5, q)
        shifted = [[m[i][j] - (lam_s if i == j else 0) for j in range(size)]
                   for i in range(size)]
        product = matmul(m, shifted, Fraction(0))
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
    bad = ChainEndomorphism(e.cx, broken, validate=False)
    ok, witness = spectrum_check(bad, (3, 4, 5))
    assert not ok
    assert witness["degree"] == 1
