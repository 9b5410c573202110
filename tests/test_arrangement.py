import json
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from osgm.arrangement import (
    Arrangement,
    CombinatorialType,
    dependent_subsets,
    dep_star,
    multiplicity_pencil,
    pencil_starred,
    pencil_realization,
    compare_types,
    generic_type,
    pencil_profile,
)
from osgm.gauss_manin import pencil_sum_terms
from oracles import (
    affine_empty_by_rank,
    dep_star_by_walk,
    frac_rank,
    generic_type_by_rank,
    is_starred,
    multiplicity,
    pencil_profile_by_walk,
)
from strategies import asserted_types, integer_arrangements, pencil_arrangements, realized_types

SELBERG_ROWS = [
    ["0", "1", "0"],
    ["-1", "1", "0"],
    ["0", "0", "1"],
    ["-1", "0", "1"],
    ["0", "1", "-1"],
]

SELBERG_DEGENERATE_ROWS = [
    ["0", "1", "0"],
    ["-1", "1", "0"],
    ["0", "0", "1"],
    ["0", "0", "1"],
    ["0", "0", "1"],
]


def selberg():
    return Arrangement.from_json({"ell": 2, "n": 5, "rows": SELBERG_ROWS})


def selberg_degenerate():
    return Arrangement.from_json({"ell": 2, "n": 5, "rows": SELBERG_DEGENERATE_ROWS})


def generic_lines(n, seed=7):
    # moment-curve rows: any three are independent, no two parallel
    rows = [["1", str(j + seed), str((j + seed) ** 2)] for j in range(1, n + 1)]
    return Arrangement.from_json({"ell": 2, "n": n, "rows": rows})


def test_load_and_rows():
    a = selberg()
    assert a.n == 5 and a.ell == 2
    assert a.row(1) == (Fraction(0), Fraction(1), Fraction(0))
    assert a.row(6) == (Fraction(1), Fraction(0), Fraction(0))
    # round trip
    b = Arrangement.from_json(a.to_json())
    assert b.rows == a.rows


def test_load_rejects_bad_input():
    with pytest.raises(ValueError, match="row 2"):
        Arrangement.from_json({"ell": 2, "n": 2, "rows": [["0", "1", "0"], ["1", "1/0", "0"]]})
    with pytest.raises(ValueError):
        Arrangement.from_json({"ell": 2, "n": 2, "rows": [["0", "1", "0"]]})
    with pytest.raises(ValueError, match="row 1"):
        Arrangement.from_json({"ell": 2, "n": 1, "rows": [["0", "1"]]})
    # zero coefficient part: not a hyperplane
    with pytest.raises(ValueError, match="row 1"):
        Arrangement.from_json({"ell": 2, "n": 1, "rows": [["3", "0", "0"]]})
    # not essential: both lines parallel, coefficient rank 1 < 2
    with pytest.raises(ValueError, match="essential"):
        Arrangement.from_json({"ell": 2, "n": 2, "rows": [["0", "1", "0"], ["-1", "1", "0"]]})


def test_dependent_subsets_selberg():
    a = selberg()
    assert dependent_subsets(a, 2) == []
    assert dependent_subsets(a, 3) == [(1, 2, 6), (1, 3, 5), (2, 4, 5), (3, 4, 6)]
    with pytest.raises(ValueError):
        dependent_subsets(a, 1)
    with pytest.raises(ValueError):
        dependent_subsets(a, 7)


def test_dependent_subsets_other_examples():
    assert dependent_subsets(generic_lines(5), 3) == []
    # three concurrent lines through the origin
    a = Arrangement.from_json(
        {"ell": 2, "n": 3, "rows": [["0", "1", "0"], ["0", "0", "1"], ["0", "1", "1"]]}
    )
    assert dependent_subsets(a, 3) == [(1, 2, 3)]


def test_dependent_subsets_match_rank_oracle():
    rng = random.Random(12)
    for _ in range(10):
        n, ell = rng.randint(2, 5), 2
        rows = [[str(rng.randint(-3, 3)) for _ in range(ell + 1)] for _ in range(n)]
        try:
            a = Arrangement.from_json({"ell": ell, "n": n, "rows": rows})
        except ValueError:
            continue
        for q in range(2, n + 2):
            got = set(dependent_subsets(a, q))
            want = {
                S
                for S in combinations(range(1, n + 2), q)
                if frac_rank([a.row(j) for j in S]) < q
            }
            assert got == want


def test_dep_star_selberg():
    t = CombinatorialType.from_arrangement(selberg())
    star = dep_star(t)
    assert star[3] == [(1, 2, 6), (1, 3, 5), (2, 4, 5), (3, 4, 6)]
    # no starred sets of size 4 or more: every 4-subset has projective rank 3
    a = selberg()
    for q in range(4, 7):
        assert star[q] == []
        for S in combinations(range(1, 7), q):
            assert frac_rank([a.row(j) for j in S]) == 3
    # {1,2} is independent even though the lines are affinely parallel
    assert (1, 2) not in set(star[2])


def test_dep_star_degenerate_selberg():
    t = CombinatorialType.from_arrangement(selberg_degenerate())
    star = dep_star(t)
    assert star[2] == [(3, 4), (3, 5), (4, 5)]
    assert set(star[3]) == {S for S in combinations(range(1, 7), 3) if len(set(S) & {3, 4, 5}) >= 2} | {(1, 2, 6)}
    assert star[4] == [(1, 3, 4, 5), (2, 3, 4, 5), (3, 4, 5, 6)]
    assert star[5] == []


def test_is_starred_big_sets_agree_with_rank():
    # on realization-backed types, the every-(ell+1)-subset rule must agree
    # with the honest rank predicate rank(N_S) <= ell, and so must the
    # starred sets grown level by level
    for a in (selberg_degenerate(), generic_lines(5)):
        t = CombinatorialType.from_arrangement(a)
        star = dep_star(t)
        for q in range(a.ell + 2, a.n + 2):
            for S in combinations(range(1, a.n + 2), q):
                starred = frac_rank([a.row(j) for j in S]) <= a.ell
                assert is_starred(t, S) == starred
                assert (S in star[q]) == starred


def test_multiplicity():
    ap = selberg_degenerate()
    assert multiplicity((3, 4, 5), ap) == 2
    assert multiplicity((3, 4), ap) == 1
    assert multiplicity((1, 3), ap) == 0
    assert multiplicity((1,), ap) == 0
    assert multiplicity((1, 2, 6), ap) == 1
    with pytest.raises(ValueError):
        multiplicity((), ap)


def test_multiplicity_pencil_examples():
    assert multiplicity_pencil((3, 4, 5), (3, 4, 5), 1, 2, 5) == 2
    assert multiplicity_pencil((1, 3, 4), (3, 4, 5), 1, 2, 5) == 1
    assert multiplicity_pencil((1, 2), (3, 4, 5), 1, 2, 5) == 0
    assert multiplicity_pencil((1, 6), (3, 4, 5), 1, 2, 5) == 0
    with pytest.raises(ValueError):
        multiplicity_pencil((3, 4), (3, 4, 5), 3, 2, 5)
    with pytest.raises(ValueError):
        multiplicity_pencil((3, 4), (3, 4, 5), 0, 2, 5)


def test_pencil_starred_printed_characterization():
    # for sets of size at most ell+1, membership in the pencil type is
    # |K & S| >= r+1
    S = (3, 4, 5)
    for q in (2, 3):
        for K in combinations(range(1, 7), q):
            assert pencil_starred(K, S, 1, 2) == (len(set(K) & set(S)) >= 2)
    # bigger sets need the rank rule, not the verbatim characterization:
    # {1,2,3,4} meets S={3,4} in 2 >= r+1 elements but has generic rank 3
    assert not pencil_starred((1, 2, 3, 4), (3, 4), 1, 2)
    assert pencil_starred((1, 3, 4, 5), (1, 3, 4, 5), 2, 2)
    assert not pencil_starred((1, 2, 3, 4), (1, 3, 4, 5), 2, 2)


def test_pencil_realization_matches_closed_form():
    # the closed-form multiplicity and starredness must agree with honest
    # rank computations on an explicit rational pencil realization
    for ell in (1, 2, 3):
        for n in range(max(2, ell), 7):
            for s in range(2, n + 1):
                for r in range(1, min(ell, s - 1) + 1):
                    S = tuple(range(1, s + 1))
                    a = pencil_realization(n, ell, S, r)
                    t = CombinatorialType.from_arrangement(a)
                    for q in range(1, n + 2):
                        for K in combinations(range(1, n + 2), q):
                            rk = frac_rank([a.row(j) for j in K])
                            assert len(K) - rk == multiplicity_pencil(K, S, r, ell, n)
                            if q >= 2:
                                assert is_starred(t, K) == pencil_starred(K, S, r, ell)


def test_pencil_realization_with_infinity_member():
    # a pencil through the infinity hyperplane is realizable for r >= 2
    n, ell, r = 5, 3, 2
    S = (2, 4, 6)
    a = pencil_realization(n, ell, S, r)
    for q in range(2, n + 2):
        for K in combinations(range(1, n + 2), q):
            rk = frac_rank([a.row(j) for j in K])
            assert len(K) - rk == multiplicity_pencil(K, S, r, ell, n)
    with pytest.raises(ValueError):
        pencil_realization(n, ell, (2, 4, 6), 1)


def test_compare_types():
    t1 = CombinatorialType.from_arrangement(selberg())
    t2 = CombinatorialType.from_arrangement(selberg_degenerate())
    assert compare_types(t1, t2) == "t1_finer"
    assert compare_types(t2, t1) == "t2_finer"
    assert compare_types(t1, t1) == "equal"
    g1 = CombinatorialType.from_arrangement(generic_lines(5, seed=3))
    g2 = CombinatorialType.from_arrangement(generic_lines(5, seed=11))
    assert compare_types(g1, g2) == "equal"
    assert compare_types(t1, g1) == "t2_finer"
    # two different special positions are incomparable
    a = Arrangement.from_json(
        {"ell": 2, "n": 5, "rows": [["1", "1", "1"], ["1", "2", "4"], ["1", "3", "9"], ["1", "4", "16"], ["2", "3", "5"]]}
    )
    # rows 1,2,5 dependent here and nowhere in selberg's dep set of triples
    if (1, 2, 5) in set(dependent_subsets(a, 3)):
        assert compare_types(t1, CombinatorialType.from_arrangement(a)) == "incomparable"
    with pytest.raises(ValueError):
        compare_types(t1, CombinatorialType.from_arrangement(generic_lines(4)))


def test_degeneration_is_monotone():
    # dependencies of a generic member of a one-parameter family persist at
    # every member, since each minor vanishes on a closed set of parameters

    # a pencil-collapse family: rows 3,4,5 fold onto the same line at s=0
    def member(s):
        rows = [
            ["0", "1", "0"],
            ["-1", "1", "0"],
            ["0", "0", "1"],
            [str(-s), "0", "1"],
            ["0", str(s), "-1"],
        ]
        return Arrangement.from_json({"ell": 2, "n": 5, "rows": rows})

    generic_dep = {q: set(dependent_subsets(member(Fraction(1)), q)) for q in range(2, 7)}
    for s in (Fraction(1, 2), Fraction(7, 3)):
        for q in range(2, 7):
            assert set(dependent_subsets(member(s), q)) == generic_dep[q]
    degenerate = member(Fraction(0))
    for q in range(2, 7):
        assert generic_dep[q] <= set(dependent_subsets(degenerate, q))
    assert (3, 4, 5) in dependent_subsets(degenerate, 3)

    # random segments base + s*drift: entries are bounded by 3, so every
    # 3x3 minor polynomial in s has roots below the Cauchy bound 1 + 162;
    # a parameter far beyond that is provably generic for the segment
    rng = random.Random(99)
    for _ in range(6):
        base = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(5)]
        drift = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(5)]

        def at(s):
            rows = [
                tuple(Fraction(b) + s * d for b, d in zip(br, dr))
                for br, dr in zip(base, drift)
            ]
            return Arrangement(2, 5, rows)

        far = at(Fraction(10**4 + rng.randint(0, 100)))
        for s in (Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 2)):
            near = at(s)
            for q in range(2, 7):
                assert set(dependent_subsets(far, q)) <= set(dependent_subsets(near, q))


def test_user_asserted_type_validation():
    # supersets of a dependent set within sizes <= ell+1 must be dependent
    good = CombinatorialType(
        n=5, ell=2, dep={2: [], 3: [(1, 2, 3)]}, affine_empty=[]
    )
    assert good.is_dependent((1, 2, 3))
    assert not good.backed_by_realization
    with pytest.raises(ValueError):
        CombinatorialType(n=5, ell=2, dep={2: [(1, 2)], 3: []}, affine_empty=[])


def test_type_json_round_trip():
    t = CombinatorialType.from_arrangement(selberg())
    s = json.dumps(t.to_json())
    t2 = CombinatorialType.from_json(json.loads(s))
    assert compare_types(t, t2) == "equal"
    assert t2.affine_empty == t.affine_empty


def test_sets_listed_twice_are_stored_once():
    # an asserted type may repeat a dependent or an affine-empty set, also
    # out of order; every reader sees each set once
    t = CombinatorialType(4, 2, {2: [(1, 2), (2, 1)], 3: [(1, 2, 3), (1, 2, 4), (1, 2, 5)]},
                          [(3, 4), (4, 3)])
    assert t.dep == {2: [(1, 2)], 3: [(1, 2, 3), (1, 2, 4), (1, 2, 5)]}
    assert dep_star(t)[2] == [(1, 2)]
    assert t.affine_empty == [(3, 4)]
    data = t.to_json()
    assert data["dep"]["2"] == [[1, 2]]
    assert data["affine_empty"] == [[3, 4]]
    t2 = CombinatorialType.from_json(json.loads(json.dumps(data)))
    assert (t2.dep, t2.affine_empty) == (t.dep, t.affine_empty)
    assert t2.to_json() == data


def test_generic_type_closed_form_matches_rank_oracle():
    for n in range(1, 12):
        for ell in range(1, 5):
            t, oracle = generic_type(n, ell), generic_type_by_rank(n, ell)
            assert t.dep == oracle.dep, (n, ell)
            assert t.affine_empty == oracle.affine_empty, (n, ell)
            assert t.backed_by_realization and oracle.backed_by_realization
            assert t.realization.rows == oracle.realization.rows


def test_generic_type_is_one_object_per_shape():
    assert generic_type(5, 2) is generic_type(5, 2)
    assert generic_type(5, 2) is not generic_type(5, 3)


def test_derived_data_is_computed_once_per_type():
    t = CombinatorialType.from_arrangement(selberg())
    calls = []

    def build(u):
        calls.append(u)
        return len(calls)

    assert t.derived("probe", build) == 1
    assert t.derived("probe", build) == 1
    assert calls == [t]
    assert dep_star(t) is dep_star(t)
    # an equal but separate type keeps its own store
    assert CombinatorialType.from_arrangement(selberg()).derived("probe", build) == 2


# ---- level-by-level and closed-form routes against whole-subset walks -------

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@given(t=st.one_of(realized_types(), asserted_types()))
@PROPERTY
def test_dep_star_matches_the_walk_over_all_subsets(t):
    star = dep_star(t)
    assert star == dep_star_by_walk(t)
    assert list(star) == list(range(2, t.n + 2))


@given(a=st.one_of(integer_arrangements(), pencil_arrangements(1), pencil_arrangements(2)))
@PROPERTY
def test_affine_emptiness_read_off_dependence_matches_ranks(a):
    assert CombinatorialType.from_arrangement(a).affine_empty == affine_empty_by_rank(a)


@given(data=st.data(), ell=st.integers(1, 4), n=st.integers(1, 8))
@PROPERTY
def test_pencil_profile_matches_the_walk_over_all_subsets(data, ell, n):
    S = tuple(sorted(data.draw(st.lists(st.integers(1, n + 1), min_size=2,
                                        max_size=n + 1, unique=True))))
    r = data.draw(st.integers(1, min(ell, len(S) - 1)))
    profile = list(pencil_profile(S, r, n, ell))
    assert len(profile) == len(set(profile))
    assert set(profile) == pencil_profile_by_walk(S, r, n, ell)
    top = data.draw(st.integers(2, n + 1))
    assert set(pencil_profile(S, r, n, ell, top=top)) == {
        K for K in profile if len(K) <= top}
    # the pencil sum runs over the same family, cut at ell+1, by size then
    # lexicographically
    forced = sorted((K for K in profile if len(K) <= ell + 1), key=lambda K: (len(K), K))
    assert list(pencil_sum_terms(S, r, n, ell)) == forced
