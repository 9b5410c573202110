import functools
import random
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from osgm.arrangement import Arrangement, CombinatorialType, generic_type, read_json
from osgm.aomoto import (
    AomotoComplex,
    Weights,
    build_aomoto,
    nonresonance_conditions,
    os_cohomology,
    weights_nonresonant,
)
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
from osgm.linalg import evaluate_int, matmul, rank
from oracles import (
    Form,
    Quadratic,
    dense,
    bareiss_rank,
    boundary_at,
    chain_failure_by_evaluation,
    chain_failure_by_forms,
    checked_term_sum,
    closure_row,
    dense_chain_failure,
    dense_induce_on_type,
    dense_omega_tilde,
    dense_product,
    dense_spectrum_check,
    dense_weighted_sum,
    frac_rank,
    gm_by_solving,
    identity_matrix,
    induce_by_forms,
    lift,
    mat_evaluate,
    omega_tilde_by_conjugation,
    pencil_realization,
    relabel,
    relabeling_by_expansion,
    relabeling_inverse,
    relabeling_mats,
    principal_dependence_by_walk,
    reduced,
    rows_at,
    sigma_for,
    sparse,
    sparse_rows,
    sparse_vector,
    spectrum_check_by_evaluation,
    spectrum_check_by_forms,
    spectrum_report_by_fractions,
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
    p = Form.zero(5)
    for j in js:
        p = p + Form.variable(j, 5)
    return p


Z = Form.zero(5)


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
    mats = relabeling_mats(act)
    assert mats[0] == identity_matrix(1)
    assert mats[1] == identity_matrix(5)
    assert mats[2] == identity_matrix(10)
    assert relabel(act, y(2)) == y(2)


def test_sigma_swapping_with_last_index():
    # swap 3 <-> 6: the moved generator picks up the affine relation
    act = SigmaAction((1, 2, 6, 4, 5, 3), 5, 2)
    one = Fraction(1)
    m = relabeling_mats(act)[1]
    assert m[2] == [0, 0, -one, 0, 0]
    assert m[0] == [one, 0, -one, 0, 0]
    assert m[4] == [0, 0, -one, 0, one]
    assert relabel(act, y(3)) == Form.subset_sum((6,), 5)
    assert relabel(act, y(1)) == y(1)


def test_sigma_rejects_non_bijection():
    with pytest.raises(ValueError):
        SigmaAction((1, 1, 2, 3, 4, 5), 5, 2)


def test_sigma_inverse_composes_to_identity():
    rng = random.Random(7)
    for _ in range(4):
        images = list(range(1, 7))
        rng.shuffle(images)
        act = SigmaAction(tuple(images), 5, 2)
        mats = relabeling_mats(act)
        inv = relabeling_mats(relabeling_inverse(act))
        for p in range(3):
            size = comb(5, p)
            assert dense_product(mats[p], inv[p], Fraction(0)) == identity_matrix(size)
            assert dense_product(inv[p], mats[p], Fraction(0)) == identity_matrix(size)


def test_sigma_preserves_weighted_one_form():
    # sum_j y_j e_j is carried to itself, with coefficients transported
    rng = random.Random(11)
    for _ in range(4):
        images = list(range(1, 7))
        rng.shuffle(images)
        act = SigmaAction(tuple(images), 5, 2)
        coords = [Z] * 5
        for j in range(1, 6):
            cj = relabel(act, y(j))
            row = relabeling_mats(act)[1][j - 1]
            coords = [c + cj * row[k] for k, c in enumerate(coords)]
        assert coords == [y(1), y(2), y(3), y(4), y(5)]


def test_sigma_twisted_chain_identity():
    cx = build_aomoto(generic_type(5, 2))
    rng = random.Random(3)
    for _ in range(3):
        images = list(range(1, 7))
        rng.shuffle(images)
        act = SigmaAction(tuple(images), 5, 2)
        mats = relabeling_mats(act)
        for p in range(2):
            twisted = [[relabel(act, c) for c in row] for row in cx.boundary[p]]
            lhs = dense_product(twisted, mats[p + 1], Z)
            rhs = dense_product(mats[p], lift(cx.boundary[p]), Z)
            assert lhs == rhs


def _relabelings():
    # every bijection of [n+1] for n <= 4 with every ell <= n, then a fixed
    # sample of 120 for n = 5..7
    for n in range(1, 5):
        for ell in range(1, n + 1):
            for images in permutations(range(1, n + 2)):
                yield images, n, ell
    rng = random.Random(18)
    for _ in range(120):
        n = rng.randint(5, 7)
        images = list(range(1, n + 2))
        rng.shuffle(images)
        yield tuple(images), n, rng.randint(1, n)


def test_sigma_closed_form_matches_the_expansion():
    # the closed form e_T -> e_sigma(T) - sum_i e_sigma(T) with sigma(t_i)
    # replaced by sigma(n+1) against expanding the product of the images of
    # the generators; the chain check runs on every action
    count = 0
    for images, n, ell in _relabelings():
        act = SigmaAction(images, n, ell)
        assert relabeling_mats(act) == relabeling_by_expansion(images, n, ell), (images, ell)
        for p, rows in enumerate(act.rows):
            assert len(rows) == comb(n, p)
            for row in rows:
                assert len(row) <= p + 1 and set(row.values()) <= {1, -1}, (images, ell, row)
        count += 1
    assert count == 686


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
            mats = lift(e.mats)
            mats[q][i][j] = -mats[q][i][j]
            with pytest.raises(ValueError, match="commute"):
                ChainEndomorphism(e.cx, sparse_rows(mats))


def test_chain_endomorphism_refuses_malformed_rows():
    e = omega_tilde((3, 4), 5, 2)
    past_width = [dict(row) for row in e.rows[2]]
    past_width[0][10, 1] = 1
    past_n = [dict(row) for row in e.rows[1]]
    past_n[0][0, 6] = 1
    for q, bad in [(1, e.rows[1][:-1]), (1, e.rows[1] + [{}]), (2, past_width),
                   (1, past_n), (2, e.mats[2])]:
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
        rows = [[int(x) for x in closure_row(a, j)] for j in K]
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
        raise AssertionError("elimination called")

    monkeypatch.setattr(osgm.linalg, "rref", refuse)
    monkeypatch.setattr(osgm.linalg, "_integer_echelon", refuse)
    assert induce_on_type(e, t).mats == expected
    with pytest.raises(NotCovered, match="degree-2 relations"):
        induce_on_type(broken, t)


@pytest.mark.parametrize("shape", ["selberg", "generic-7-3", "pencil-8-2"])
def test_induce_on_type_multiplies_w_by_p_once_per_degree(shape, monkeypatch):
    # row i of W P is row i of W times P, so the induced map is read off
    # the one product the descent check needs: the products whose left
    # factor holds rows of W are counted, and there is one per degree
    import osgm.gauss_manin

    t, e = {
        "selberg": lambda: (selberg_type(), omega_tilde_sum((3, 4, 5), 1, 5, 2)),
        "generic-7-3": lambda: (generic_type(7, 3), omega_tilde_sum((1, 2, 6, 7), 1, 7, 3)),
        "pencil-8-2": lambda: (
            CombinatorialType.from_arrangement(pencil_realization(8, 2, (1, 2, 4, 5), 2)),
            omega_tilde_sum((1, 2, 4, 5), 2, 8, 2)),
    }[shape]()
    expected = dense_induce_on_type(e.mats, t)
    w_rows = {id(row) for m in e.rows for row in m}
    left = []
    real = osgm.gauss_manin.form_matmul

    def counting(a, b):
        if a and all(id(row) in w_rows for row in a):
            left.append(a)
        return real(a, b)

    monkeypatch.setattr(osgm.gauss_manin, "form_matmul", counting)
    ind = induce_on_type(e, t)
    assert len(left) == t.ell + 1
    assert all(a is m for a, m in zip(left, e.rows))
    assert ind.mats == expected


# ---- action on cohomology ---------------------------------------------------


def test_gm_endomorphism_nonresonant_selberg():
    t = selberg_type()
    ind = induce_on_type(omega_tilde_sum((3, 4, 5), 1, 5, 2), t)
    lam = Weights(NONRES)
    assert gm_endomorphism(ind, lam, 0) == []
    assert gm_endomorphism(ind, lam, 1) == []
    for q in (-1, 3):
        with pytest.raises(ValueError, match="^degree %d out of range 0..2$" % q):
            gm_endomorphism(ind, lam, q)
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


def _gm_case(name):
    """(type, pencil S, r, weights) of a GM case, with the golden-file
    weights where a golden case runs the same pencil."""
    if name == "four-fold-8-2":
        path = Path(__file__).parent / "golden" / "inputs" / "four-fold-8-2.json"
        t = CombinatorialType.from_arrangement(Arrangement.from_json(read_json(path)))
        return t, (1, 2, 3, 4), 2, ["1/999961", "1/999979", "1/999983", "1/1000003",
                                    "1/1000033", "1/1000037", "1/1000039", "1/1000081"]
    if name == "generic-7-3":
        return generic_type(7, 3), (1, 5, 6, 7), 1, ["1/2", "1/3", "1/5", "1/7", "1/11",
                                                     "-1/13", "2/17"]
    return selberg_type(), (3, 4, 5), 1, NONRES if name == "selberg-nonres" else RES


@pytest.mark.parametrize("name", ["four-fold-8-2", "selberg-nonres", "selberg-res",
                                  "generic-7-3"])
def test_gm_matrices_are_fractions_and_match_the_dense_route(name):
    # representatives and images stay int rows up to the class coordinates;
    # every entry must still come out a Fraction
    t, S, r, weights = _gm_case(name)
    e = induce_on_type(omega_tilde_sum(S, r, t.n, t.ell), t)
    if name == "four-fold-8-2":
        assert not any(any(rows) for rows in e.rows)
    lam = Weights(weights)
    h = os_cohomology(t, lam)
    for q in range(t.ell + 1):
        got = gm_endomorphism(e, lam, q, h=h)
        assert got == gm_by_solving(e, lam, q, h)
        assert all(type(c) is Fraction for row in got for c in row)


_FOUR_FOLD_WEIGHTS = [
    # generic, resonant on the four-fold point 1..4 (H^1 of dimension 2), zero
    ["1/2", "1/3", "1/5", "1/7", "1/11", "1/13", "1/17", "1/19"],
    ["1/2", "1/3", "-1/2", "-1/3", "0", "0", "0", "0"],
    ["0"] * 8,
]


@pytest.mark.parametrize("S", [(1, 2, 3), (5, 6, 7)])
def test_gm_images_zero_and_nonzero_match_the_solving_route(S):
    # the one product per degree gives some zero images, read off as rows of
    # Fraction(0), and some not, read off by int_coords; both must agree
    # with the dense solving route at generic, resonant and zero weights
    t, _, _, _ = _gm_case("four-fold-8-2")
    e = induce_on_type(omega_tilde_sum(S, 1, t.n, t.ell), t)
    assert [sum(map(len, rows)) for rows in e.rows] == [0, 12, 56 if S == (1, 2, 3) else 69]
    zero = nonzero = 0
    for weights in _FOUR_FOLD_WEIGHTS:
        lam = Weights(weights)
        h = os_cohomology(t, lam)
        for q in range(t.ell + 1):
            images = matmul(h.rep_rows[q].values(), evaluate_int(e.rows[q], lam.nums, t.n))
            zero += images.count({})
            nonzero += len(images) - images.count({})
            got = gm_endomorphism(e, lam, q, h=h)
            assert got == gm_by_solving(e, lam, q, h)
            assert len(got) == h.dims[q] and all(len(row) == h.dims[q] for row in got)
            assert all(type(c) is Fraction for row in got for c in row)
    assert zero and nonzero


def test_gm_endomorphism_of_the_zero_map_is_a_square_of_fractions():
    t, S, r, _ = _gm_case("four-fold-8-2")
    e = induce_on_type(omega_tilde_sum(S, r, t.n, t.ell), t)
    assert not any(any(rows) for rows in e.rows)
    for weights in _FOUR_FOLD_WEIGHTS:
        lam = Weights(weights)
        h = os_cohomology(t, lam)
        for q, d in enumerate(h.dims):
            got = gm_endomorphism(e, lam, q, h=h)
            assert got == gm_by_solving(e, lam, q, h)
            assert got == [[0] * d for _ in range(d)]
            assert all(type(c) is Fraction for row in got for c in row)


def test_gm_classes_are_representative_independent():
    t = selberg_type()
    ind = induce_on_type(omega_tilde_sum((3, 4, 5), 1, 5, 2), t)
    lam = Weights(NONRES)
    h = os_cohomology(t, lam)
    cx = build_aomoto(t)
    w2 = dense(rows_at(ind.rows[2], lam.values, 5), 6, Fraction(0))
    d1 = dense(boundary_at(cx, lam, 1), 6, Fraction(0))
    rng = random.Random(5)
    for z in dense(reduced(h.rep_rows[2]), 6, Fraction(0)):
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
        m = dense(rows_at(e.rows[q], lam.values, 5), size, Fraction(0))
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
    broken = [e.mats[0], [[c * 2 for c in row] for row in lift(e.mats[1])], e.mats[2]]
    bad = ChainEndomorphism(e.cx, sparse_rows(broken), validate=False)
    ok, witness = spectrum_check(bad, (3, 4, 5))
    assert not ok
    assert witness["degree"] == 1


def test_spectrum_witness_is_first_failing_entry_row_major():
    e = omega_tilde_sum((3, 4, 5), 1, 5, 2)
    ys = y(3, 4, 5)
    for q, (i, j) in ((1, (3, 2)), (2, (0, 0)), (2, (9, 4))):
        mats = lift(e.mats)
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
    mats = lift(e.mats)
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
    broken = [e.mats[0], [[c * 2 for c in row] for row in lift(e.mats[1])], e.mats[2]]
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


def test_spectrum_report_makes_no_elimination(monkeypatch):
    # once M (M - lambda_S I) = 0 with lambda_S != 0, M is diagonalizable
    # with eigenvalues 0 and lambda_S, so rank M = tr M / lambda_S and
    # rank (M - lambda_S I) = size - rank M: the two-rank verdict, read off
    # the trace with no elimination
    import osgm.linalg

    def refuse(*args):
        raise AssertionError("elimination called")

    def report_without_elimination(e, S, r, lam):
        with monkeypatch.context() as patch:
            patch.setattr(osgm.linalg, "_integer_echelon", refuse)
            return spectrum_report(e, S, r, lam)

    six = ["1/2", "1/3", "1/5", "1/7", "1/11", "1/13"]
    cases = [((3, 4, 5), 1, 5, 2, NONRES), ((3, 4, 5), 1, 5, 2, ["1", "2", "2", "1", "-2"]),
             ((1, 2, 6), 1, 5, 2, NONRES), ((1, 2, 4, 7), 2, 6, 3, six),
             ((2, 3, 5, 6), 1, 6, 3, ["1", "2", "-1", "1", "3", "-2"])]
    for S, r, n, ell, weights in cases:
        e = omega_tilde_sum(S, r, n, ell)
        lam = Weights(weights)
        report = report_without_elimination(e, S, r, lam)
        assert [d["verified"] for d in report["degrees"]] == _two_rank_verdicts(e, S, r, lam)
    e = omega_tilde_sum((3, 4, 5), 1, 5, 2)
    broken = [e.mats[0], [[c * 2 for c in row] for row in lift(e.mats[1])], e.mats[2]]
    broken = ChainEndomorphism(e.cx, sparse_rows(broken), validate=False)
    lam = Weights(NONRES)
    report = report_without_elimination(broken, (3, 4, 5), 1, lam)
    assert [d["verified"] for d in report["degrees"]] == [True, False, True]
    assert [d["verified"] for d in report["degrees"]] == _two_rank_verdicts(broken, (3, 4, 5), 1, lam)
    # on a smaller complex d0 + dS need not be the size, so rank M = dS alone
    # does not verify a degree: here y1 + y2 on four of six degree-2 rows
    rows = [[{}], [{}] * 5, [{(i, 1): 1, (i, 2): 1} if i < 4 else {} for i in range(6)]]
    diagonal = ChainEndomorphism(build_aomoto(selberg_type()), rows, validate=False)
    report = report_without_elimination(diagonal, (1, 2), 1, lam)
    assert [d["verified"] for d in report["degrees"]] == [True, False, False]
    assert [d["verified"] for d in report["degrees"]] == _two_rank_verdicts(diagonal, (1, 2), 1, lam)


@pytest.mark.parametrize("S, r, n, ell", [
    ((1, 2, 3, 4), 1, 8, 3), ((1, 2, 3, 4), 2, 12, 2), ((1, 2, 3, 4, 11), 2, 10, 4),
    ((1, 2, 3, 4), 1, 12, 4)])
def test_spectrum_report_matches_the_fraction_route_on_larger_pencils(S, r, n, ell):
    # degrees with hundreds of rows, where the trace sum stands in for a
    # rank over many pivots; weights 1/p
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    e = omega_tilde_sum(S, r, n, ell)
    lam = Weights(["1/%d" % p for p in primes[:n]])
    report = spectrum_report(e, S, r, lam)
    assert report == spectrum_report_by_fractions(e, S, r, lam)
    assert all(d["verified"] for d in report["degrees"])


def test_gm_endomorphism_refuses_classes_of_other_weights():
    # cohomology computed at resonant weights does not describe the complex
    # at nonresonant ones: the image of a class leaves the closed classes
    t = selberg_type()
    ind = induce_on_type(omega_tilde_sum((3, 4, 5), 1, 5, 2), t)
    h = os_cohomology(t, Weights(RES))
    with pytest.raises(NotCovered, match="not closed in degree 1"):
        gm_endomorphism(ind, Weights(NONRES), 1, h=h)


def test_gm_endomorphism_refuses_a_weight_vector_of_the_wrong_length():
    # the induced map of the four-fold pencil is zero, so nothing evaluates
    # it at the weights, and the cohomology is passed in
    t, S, r, weights = _gm_case("four-fold-8-2")
    ind = induce_on_type(omega_tilde_sum(S, r, t.n, t.ell), t)
    h = os_cohomology(t, Weights(weights))
    for q in range(t.ell + 1):
        with pytest.raises(ValueError, match="^expected 8 values, got 2$"):
            gm_endomorphism(ind, Weights(weights[:2]), q, h=h)
        with pytest.raises(ValueError, match="^expected 8 values, got 9$"):
            gm_endomorphism(ind, Weights(weights + ["1"]), q)


def test_spectrum_report_refuses_a_weight_vector_of_the_wrong_length():
    # two weights on a five-hyperplane map would give lambda_S = 0 over S = {1, 2}
    e = omega_tilde_sum((3, 4, 5), 1, 5, 2)
    with pytest.raises(ValueError, match="^expected 5 values, got 2$"):
        spectrum_report(e, (1, 2), 1, Weights(["1", "-1"]))
    with pytest.raises(ValueError, match="^expected 5 values, got 6$"):
        spectrum_report(e, (3, 4, 5), 1, Weights(NONRES + ["1"]))


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
    # and every term of an (8,3) pencil sum; the sum checks only itself
    for K in pencil_sum_terms((1, 2, 3, 4), 1, 8, 3):
        assert omega_tilde(K, 8, 3).mats == dense_omega_tilde(K, 8, 3), K


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


@given(data=st.data())
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
def test_gm_matrices_match_the_dense_route_for_a_random_pencil(data):
    # the int representatives times the int map, one Fraction per GM entry,
    # against the Fraction images and the solving route, on the generic type
    # and on another pencil's type where the sum descends there, at random
    # and zero weights and at weights resonant on a starred set of the type
    draw = data.draw
    n, ell = draw(st.sampled_from(SMALL))
    S, r = draw(st.sampled_from(_pencils(n, ell)))
    t = generic_type(n, ell)
    if draw(st.booleans()):
        t = _pencil_type(n, ell, *draw(st.sampled_from(_pencils(n, ell))))
    try:
        e = induce_on_type(omega_tilde_sum(S, r, n, ell), t)
    except NotCovered:
        return
    kind = draw(st.sampled_from(["random", "zero", "resonant"]))
    dens = st.sampled_from([1, 2, 5, 1009])
    vals = [Fraction(draw(st.integers(-12, 12).filter(bool)), draw(dens)) for _ in range(n)]
    starred = [K for K in nonresonance_conditions(t) if len(K) > 2]
    if kind == "zero":
        vals = [Fraction(0)] * n
    elif kind == "resonant" and starred:
        K = draw(st.sampled_from(starred))
        vals = [x if j in K else Fraction(0) for j, x in enumerate(vals, start=1)]
        if n + 1 not in K:
            vals[K[-1] - 1] -= Weights(vals).subset_sum(K)
    lam = Weights(vals)
    h = os_cohomology(t, lam)
    for q in range(ell + 1):
        got = gm_endomorphism(e, lam, q, h=h)
        assert got == gm_by_solving(e, lam, q, h)
        assert all(type(c) is Fraction for row in got for c in row)


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
    mats = lift(e.mats)
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
            row[k], row[j] = row[k] + row[j], Form.zero(n)
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
    return [c for m in rows for row in m for c in row.values()]


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
    # the library's one route: int rows at N = D * lam, D times the values
    t = selberg_type()
    lam = Weights(NONRES)
    cx = build_aomoto(t)
    e = omega_tilde_sum((3, 4, 5), 1, 5, 2)
    ind = induce_on_type(e, t)
    for rows, mats in ((e.rows, e.mats), (ind.rows, ind.mats), (cx.rows, cx.boundary)):
        for r, m in zip(rows, mats):
            values = mat_evaluate(m, lam.values)
            ints = evaluate_int(r, lam.nums, t.n)
            assert ints == sparse([[lam.d * x for x in row] for row in values])
            assert all(type(c) is int for row in ints for c in row.values())
    for q, m in enumerate(cx.boundary):
        assert boundary_at(cx, lam, q) == sparse(mat_evaluate(m, lam.values))


def test_library_route_builds_no_dense_view(monkeypatch, capsys):
    import osgm.aomoto
    import osgm.gauss_manin
    import osgm.poly
    from osgm.cli import main

    def refuse(*args):
        raise AssertionError("dense view built")

    monkeypatch.setattr(ChainEndomorphism, "mats", property(refuse))
    monkeypatch.setattr(AomotoComplex, "boundary", property(refuse))
    # every module that binds `dense_forms`, so no computation goes through it
    for module in (osgm.poly, osgm.aomoto, osgm.gauss_manin):
        monkeypatch.setattr(module, "dense_forms", refuse)
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
    # the command line prints gm and aomoto from the rows, in both formats
    data = Path(__file__).parents[1] / "data"
    sel, deg = str(data / "selberg.json"), str(data / "selberg-degenerate.json")
    weights = ",".join(NONRES)
    for argv in (["gm", sel, "--pencil", "3,4,5", "1", "--weights", weights],
                 ["gm", sel, deg, "--weights", weights], ["aomoto", sel]):
        for fmt in ([], ["--json"]):
            assert main(argv + fmt) == 0, argv + fmt
            assert capsys.readouterr().out


# ---- one pass per sum -----------------------------------------------------------


def test_one_pass_sums_match_the_checked_term_sums():
    # a sum checks only itself; the oracle builds every omega_K of it through
    # the validating omega_tilde, so each term still passes the chain check
    cases = [((1, 2, 3, 4), 1, 8, 3, 121), ((1, 2, 3, 4), 1, 10, 4, 508),
             ((1, 2, 3, 4, 5), 2, 10, 4, None)]
    for S, r, n, ell, size in cases:
        terms = pencil_sum_terms(S, r, n, ell)
        assert size is None or len(terms) == size
        assert omega_tilde_sum(S, r, n, ell).rows == checked_term_sum(terms, n, ell), (S, r)
    selberg, collapsed = selberg_type(), collapsed_type()
    terms = relative_multiplicities(collapsed, selberg)
    assert omega_tilde_pair(collapsed, selberg).rows == checked_term_sum(terms, 5, 2)


def test_each_returned_map_is_checked_once_and_no_term_is_stored(monkeypatch):
    checks = []
    real = ChainEndomorphism._check_chain

    def counted(self):
        checks.append(self)
        return real(self)

    monkeypatch.setattr(ChainEndomorphism, "_check_chain", counted)
    # start from generic types no other test has built
    generic_type.cache_clear()
    selberg, collapsed = selberg_type(), collapsed_type()
    for build in (lambda: omega_tilde_sum((1, 2, 3, 4), 1, 6, 2),
                  lambda: omega_tilde_pair(collapsed, selberg),
                  lambda: omega_tilde((1, 2, 3), 6, 2)):
        checks.clear()
        e = build()
        assert checks == [e]
    for n in (5, 6):
        assert "omega_tilde" not in generic_type(n, 2)._store


def test_a_checked_map_induces_without_a_second_check(monkeypatch, capsys):
    # P is a chain map that is the identity on the nbc rows, so the map a
    # checked W induces commutes with the type's differential; an unchecked
    # W gets its induced map checked
    from osgm.cli import main

    checks = []
    real = ChainEndomorphism._check_chain
    monkeypatch.setattr(ChainEndomorphism, "_check_chain",
                        lambda self: checks.append(self) or real(self))
    e = omega_tilde_sum((3, 4, 5), 1, 5, 2)
    for t in (selberg_type(), generic_type(5, 2)):
        checks.clear()
        induce_on_type(e, t)
        assert checks == []
        unchecked = ChainEndomorphism(e.cx, e.rows, validate=False)
        ind = induce_on_type(unchecked, t)
        assert checks == [ind] and ind.rows == induce_on_type(e, t).rows
    # `gm` on a generic file builds one complex and checks the sum once
    import osgm.aomoto

    built = []
    real_build = osgm.aomoto._build_aomoto
    monkeypatch.setattr(osgm.aomoto, "_build_aomoto", lambda t: built.append(t) or real_build(t))
    generic_type.cache_clear()
    checks.clear()
    path = Path(__file__).parent / "golden" / "inputs" / "generic-10-2.json"
    weights = ",".join("1/%d" % p for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29))
    assert main(["gm", str(path), "--pencil", "2,10,11", "1", "--weights", weights]) == 0
    assert capsys.readouterr().out
    assert len(built) == 1 and len(checks) == 1


# ---- the int checks against the form route -------------------------------------
# The library checks chain maps, descent and M (M - y_S I) = 0 on int rows
# keyed (col, j) and (col, j, k); the oracle runs each check as it ran on
# {col: Form} rows with Quadratic products, and the eigenvalue report on
# Fraction matrices.


def _chain_verdict(cx, rows):
    try:
        ChainEndomorphism(cx, rows)
    except ValueError as err:
        return str(err)
    return None


def _form_chain_verdict(cx, rows):
    q = chain_failure_by_forms(cx, rows)
    return None if q is None else (
        "matrices do not commute with the differential in degree %d" % q)


def _descent(e, t):
    """The induced rows, or the error inducing raises."""
    try:
        return induce_on_type(e, t).rows
    except ValueError as err:
        return str(err)


def _form_descent(e, t):
    """The same outcome by the form route: descent, then the chain check of
    the induced map on the type's complex."""
    try:
        rows = induce_by_forms(e, t)
    except NotCovered as err:
        return str(err)
    return _form_chain_verdict(build_aomoto(t), rows) or rows


def _assert_same_verdicts(e, S, types):
    assert _chain_verdict(e.cx, e.rows) == _form_chain_verdict(e.cx, e.rows)
    assert spectrum_check(e, S) == spectrum_check_by_forms(e, S)
    for t in types:
        assert _descent(e, t) == _form_descent(e, t)


def _mutations(rows, n):
    """Every single-entry mutation of a map's rows: each stored coefficient
    negated, and each moved to the next variable."""
    for q, m in enumerate(rows):
        for i, row in enumerate(m):
            for (col, j), c in row.items():
                for key, value in (((col, j), -c), ((col, j % n + 1), c)):
                    bad = [list(x) for x in rows]
                    changed = dict(row)
                    del changed[col, j]
                    changed[key] = changed.get(key, 0) + value
                    if not changed[key]:
                        del changed[key]
                    bad[q][i] = changed
                    yield bad


def test_every_single_entry_mutation_gets_the_form_route_verdict():
    # each stored coefficient of a sum negated or moved to another variable:
    # the chain check, spectrum_check's witness and descent decide as the
    # form route does
    cases = [((3, 4, 5), 1, 5, 2, [selberg_type()]),
             ((1, 2, 4, 6), 1, 5, 3, [_pencil_type(5, 3, (1, 2, 4, 6), 1)])]
    for S, r, n, ell, types in cases:
        e = omega_tilde_sum(S, r, n, ell)
        rejected = 0
        for rows in _mutations(e.rows, n):
            bad = ChainEndomorphism(e.cx, rows, validate=False)
            _assert_same_verdicts(bad, S, types)
            rejected += _chain_verdict(e.cx, rows) is not None
        assert rejected, (S, r, n, ell)


@given(pair=realized_type_pairs(), data=st.data())
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_sums_pair_sums_and_induced_maps_get_the_form_route_verdicts(pair, data):
    special, general = pair
    n, ell = general.n, general.ell
    maps = []
    try:
        S, r = principal_dependence(special, general)
        maps.append((S, r, omega_tilde_sum(S, r, n, ell)))
        maps.append((S, r, omega_tilde_pair(special, general)))
    except ValueError:
        S, r = data.draw(st.sampled_from(_pencils(n, ell)))
        maps.append((S, r, omega_tilde_sum(S, r, n, ell)))
    for S, r, e in maps:
        _assert_same_verdicts(e, S, [special, general])
        for t in (special, general):
            try:
                ind = induce_on_type(e, t)
            except NotCovered:
                continue
            _assert_same_verdicts(ind, S, [])
        # the report at weights with lambda_S = 0, integral weights, and
        # denominators up to 2^61 - 1
        kind = data.draw(st.sampled_from(["zero", "integer", "large"]))
        if kind == "integer":
            values = data.draw(st.lists(st.integers(-30, 30), min_size=n, max_size=n))
        else:
            dens = st.sampled_from([1, 2, 3, 1009, 10 ** 9 + 7, 2 ** 61 - 1])
            values = [Fraction(data.draw(st.integers(-10 ** 6, 10 ** 6)), data.draw(dens))
                      for _ in range(n)]
        values = [Fraction(v) for v in values]
        ys = Form.subset_sum(S, n).terms
        if kind == "zero" and ys:
            # move one weight so that lambda_S vanishes
            j = min(ys)
            lam_s = sum(c * values[k - 1] for k, c in ys.items())
            values[j - 1] -= lam_s / ys[j]
        lam = Weights(values)
        assert kind != "zero" or lam.subset_sum(S) == 0
        assert spectrum_report(e, S, r, lam) == spectrum_report_by_fractions(e, S, r, lam)
