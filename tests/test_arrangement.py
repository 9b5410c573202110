import json
import random
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import osgm.linalg
from osgm import arrangement
from osgm.arrangement import (
    Arrangement,
    CombinatorialType,
    dep_star,
    pencil_starred,
    compare_types,
    generic_type,
    pencil_profile,
)
from osgm.gauss_manin import pencil_sum_terms
from oracles import (
    affine_empty_by_rank,
    closure_row,
    multiplicity_pencil,
    pencil_realization,
    type_from_json,
    type_to_json,
    dep_star_by_walk,
    frac_rank,
    generic_type_by_rank,
    is_starred,
    multiplicity,
    pencil_profile_by_walk,
    pencil_rank,
    type_by_subset_eliminations,
    type_by_two_walks,
)
from strategies import (
    asserted_types,
    integer_arrangements,
    pencil_arrangements,
    realized_types,
    special_arrangements,
    wide_arrangements,
)

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
    assert closure_row(a, 1) == (Fraction(0), Fraction(1), Fraction(0))
    assert closure_row(a, 6) == (Fraction(1), Fraction(0), Fraction(0))
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
    t = CombinatorialType.from_arrangement(selberg())
    assert t.dep == {2: [], 3: [(1, 2, 6), (1, 3, 5), (2, 4, 5), (3, 4, 6)]}


def test_dependent_subsets_other_examples():
    assert CombinatorialType.from_arrangement(generic_lines(5)).dep[3] == []
    # three concurrent lines through the origin
    a = Arrangement.from_json(
        {"ell": 2, "n": 3, "rows": [["0", "1", "0"], ["0", "0", "1"], ["0", "1", "1"]]}
    )
    assert CombinatorialType.from_arrangement(a).dep[3] == [(1, 2, 3)]


def test_dependent_subsets_match_rank_oracle():
    rng = random.Random(12)
    for _ in range(10):
        n, ell = rng.randint(2, 5), 2
        rows = [[str(rng.randint(-3, 3)) for _ in range(ell + 1)] for _ in range(n)]
        try:
            a = Arrangement.from_json({"ell": ell, "n": n, "rows": rows})
        except ValueError:
            continue
        t = CombinatorialType.from_arrangement(a)
        for q in range(2, n + 2):
            want = [
                S
                for S in combinations(range(1, n + 2), q)
                if frac_rank([closure_row(a, j) for j in S]) < q
            ]
            # above ell+1 every set is dependent, and the type stores none
            assert want == (t.dep[q] if q <= ell + 1
                            else list(combinations(range(1, n + 2), q)))


def test_dep_star_selberg():
    t = CombinatorialType.from_arrangement(selberg())
    star = dep_star(t)
    assert star[3] == [(1, 2, 6), (1, 3, 5), (2, 4, 5), (3, 4, 6)]
    # no starred sets of size 4 or more: every 4-subset has projective rank 3
    a = selberg()
    for q in range(4, 7):
        assert star[q] == []
        for S in combinations(range(1, 7), q):
            assert frac_rank([closure_row(a, j) for j in S]) == 3
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
                starred = frac_rank([closure_row(a, j) for j in S]) <= a.ell
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


def test_pencil_rank_errors_name_r_and_the_range():
    from osgm.gauss_manin import pencil_sum_terms

    for S, r, ell, top in [((3, 4, 5), 0, 2, 2), ((3, 4, 5), 3, 2, 2),
                           ((3, 4), 2, 2, 1), ((1, 2, 3, 4), 4, 3, 3)]:
        message = "^pencil rank %d out of range 1..%d$" % (r, top)
        with pytest.raises(ValueError, match=message):
            multiplicity_pencil(S, S, r, ell, 5)
        with pytest.raises(ValueError, match=message):
            pencil_realization(5, ell, S, r)
        with pytest.raises(ValueError, match=message):
            pencil_sum_terms(S, r, 5, ell)


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


def test_pencil_starred_matches_the_rank_form():
    # the rule |K & S| >= r+1, |K - S| <= ell - r against its source: K has
    # rank at most min(|K|-1, ell), dependent with a common point
    for ell in range(1, 5):
        for n in range(max(2, ell), 7):
            subsets = [K for q in range(n + 2) for K in combinations(range(1, n + 2), q)]
            for S in subsets:
                for r in range(1, min(ell, len(S) - 1) + 1):
                    for K in subsets:
                        rank_form = (len(K) >= 2
                                     and pencil_rank(K, S, r, ell) <= min(len(K) - 1, ell))
                        assert pencil_starred(K, S, r, ell) == rank_form, (K, S, r, ell)


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
                            rk = frac_rank([closure_row(a, j) for j in K])
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
            rk = frac_rank([closure_row(a, j) for j in K])
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
    ta = CombinatorialType.from_arrangement(a)
    if (1, 2, 5) in ta.dep[3]:
        assert compare_types(t1, ta) == "incomparable"
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

    def dep(a):
        return CombinatorialType.from_arrangement(a).dep

    generic_dep = dep(member(Fraction(1)))
    for s in (Fraction(1, 2), Fraction(7, 3)):
        assert dep(member(s)) == generic_dep
    degenerate = dep(member(Fraction(0)))
    for q in generic_dep:
        assert set(generic_dep[q]) <= set(degenerate[q])
    assert (3, 4, 5) in degenerate[3]

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

        far = dep(at(Fraction(10**4 + rng.randint(0, 100))))
        for s in (Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 2)):
            near = dep(at(s))
            for q in far:
                assert set(far[q]) <= set(near[q])


def test_user_asserted_type_validation():
    # supersets of a dependent set within sizes <= ell+1 must be dependent
    good = CombinatorialType(
        n=5, ell=2, dep={2: [], 3: [(1, 2, 3)]}, affine_empty=[]
    )
    assert good.is_dependent((1, 2, 3))
    assert good.realization is None
    with pytest.raises(ValueError):
        CombinatorialType(n=5, ell=2, dep={2: [(1, 2)], 3: []}, affine_empty=[])


def test_type_json_round_trip():
    t = CombinatorialType.from_arrangement(selberg())
    s = json.dumps(type_to_json(t))
    t2 = type_from_json(json.loads(s))
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
    data = type_to_json(t)
    assert data["dep"]["2"] == [[1, 2]]
    assert data["affine_empty"] == [[3, 4]]
    t2 = type_from_json(json.loads(json.dumps(data)))
    assert (t2.dep, t2.affine_empty) == (t.dep, t.affine_empty)
    assert type_to_json(t2) == data


def test_generic_type_closed_form_matches_rank_oracle():
    for n in range(1, 12):
        for ell in range(1, 5):
            t, oracle = generic_type(n, ell), generic_type_by_rank(n, ell)
            assert t.dep == oracle.dep, (n, ell)
            assert t.affine_empty == oracle.affine_empty, (n, ell)
            assert t.realization is not None and oracle.realization is not None
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
    assert set(profile) == {K for K in pencil_profile_by_walk(S, r, n, ell) if len(K) <= ell + 1}
    # the pencil sum runs over the same family, by size then lexicographically
    assert list(pencil_sum_terms(S, r, n, ell)) == sorted(profile, key=lambda K: (len(K), K))


@given(t=st.one_of(realized_types(), asserted_types()), data=st.data())
@PROPERTY
def test_a_type_holds_a_pencils_starred_sets_when_it_holds_its_stored_grades(t, data):
    # the lemmas behind principal_dependence, on data that need not be a
    # matroid: every starred set of the pencil is starred in t exactly when
    # every forced set of size at most ell+1 is dependent in t, and exactly
    # when every (r+1)-subset of S is.  S is drawn among t's own starred
    # sets half the time, so both answers occur.
    n, ell = t.n, t.ell
    starred = {K for fam in dep_star(t).values() for K in fam}
    anywhere = st.lists(st.integers(1, n + 1), min_size=2, max_size=n + 1, unique=True)
    S = tuple(sorted(data.draw(st.one_of(anywhere, st.sampled_from(sorted(starred)))
                               if starred else anywhere)))
    r = data.draw(st.integers(1, min(ell, len(S) - 1)))
    held = pencil_profile_by_walk(S, r, n, ell) <= starred
    assert held == all(t.is_dependent(K) for K in pencil_profile(S, r, n, ell))
    assert held == all(t.is_dependent(A) for A in combinations(S, r + 1))


def test_pencil_sum_terms_match_the_rank_rule_on_every_small_pencil():
    # the closed form |K & S| - r against the rank rule on every subset K of
    # [n+1] of size 2..ell+1: the sum holds exactly the sets whose rank
    # drops, by size then lexicographically, with that drop
    count = 0
    for n in range(1, 7):
        for ell in range(1, n + 1):
            subsets = [K for q in range(2, ell + 2) for K in combinations(range(1, n + 2), q)]
            for s in range(2, n + 2):
                for S in combinations(range(1, n + 2), s):
                    for r in range(1, min(ell, s - 1) + 1):
                        drops = [(K, multiplicity_pencil(K, S, r, ell, n)) for K in subsets]
                        assert list(pencil_sum_terms(S, r, n, ell).items()) == [
                            (K, m) for K, m in drops if m]
                        count += 1
    assert count == 2328


# ---- the one walk against the two-walk oracle -------------------------------

GOLDEN_INPUTS = sorted((Path(__file__).parent / "golden" / "inputs").glob("*.json"))
DATA_FILES = sorted((Path(__file__).parents[1] / "data").glob("*.json"))
PENCIL_SHAPES = [(15, 2, (1, 2, 3, 4, 5), 2), (10, 4, (1, 2, 3, 4), 1),
                 (12, 3, (1, 2, 3, 4, 5), 2), (8, 2, (1, 2, 4, 5), 2)]


def assert_same_type(a):
    t = CombinatorialType.from_arrangement(a)
    for oracle in (type_by_two_walks(a), type_by_subset_eliminations(a)):
        assert t.dep == oracle.dep
        assert t.affine_empty == oracle.affine_empty


@given(a=st.one_of(special_arrangements(), integer_arrangements(),
                   pencil_arrangements(1), pencil_arrangements(2)))
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_one_walk_matches_the_two_walks(a):
    assert_same_type(a)


@given(a=wide_arrangements())
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_one_walk_matches_the_two_walks_on_wide_entries(a):
    assert_same_type(a)


def test_one_walk_matches_the_two_walks_on_the_bundled_files_and_pencils():
    for path in GOLDEN_INPUTS + DATA_FILES:
        assert_same_type(Arrangement.from_file(path))
    for n, ell, S, r in PENCIL_SHAPES:
        assert_same_type(pencil_realization(n, ell, S, r))
    # pencils through the hyperplane at infinity
    for n, ell, S, r in [(6, 2, (1, 2, 7), 2), (7, 3, (2, 3, 5, 8), 2),
                         (7, 3, (1, 2, 3, 4, 8), 3)]:
        assert_same_type(pencil_realization(n, ell, S, r))
    # rows built directly, with no coefficient part: {j, n+1} is dependent
    rows = [(Fraction(2), Fraction(0), Fraction(0)), (Fraction(0),) * 3,
            (Fraction(0), Fraction(1), Fraction(0)), (Fraction(1), Fraction(0), Fraction(1))]
    a = Arrangement(2, 4, rows)
    assert_same_type(a)
    assert CombinatorialType.from_arrangement(a).dep[2] == [(1, 2), (1, 5), (2, 3), (2, 4),
                                                          (2, 5)]


def test_the_walk_runs_no_elimination(monkeypatch):
    # the walk carries null spaces down the subset tree: building a type
    # calls `_integer_echelon` nowhere, neither directly nor through `rank`
    def refuse(rows):
        raise AssertionError("from_arrangement called _integer_echelon")

    assert "_integer_echelon" not in vars(arrangement)
    cases = [selberg(), selberg_degenerate()] + [
        Arrangement.from_file(path) for path in GOLDEN_INPUTS] + [
        pencil_realization(n, ell, S, r) for n, ell, S, r in PENCIL_SHAPES]
    # the oracle eliminates each subset of [n] of size 2..min(ell+1, n)
    # once, Selberg's 20 subsets of sizes 2 and 3 among them
    real, calls = osgm.linalg._integer_echelon, []

    def counting(rows):
        calls.append(rows)
        return real(rows)

    monkeypatch.setattr(osgm.linalg, "_integer_echelon", counting)
    oracles, eliminations = [], []
    for a in cases:
        oracles.append(type_by_subset_eliminations(a))
        eliminations.append(len(calls))
        calls.clear()
    assert eliminations == [sum(comb(a.n, q) for q in range(2, min(a.ell + 1, a.n) + 1))
                            for a in cases]
    assert eliminations[0] == 20
    monkeypatch.setattr(osgm.linalg, "_integer_echelon", refuse)
    monkeypatch.setattr(arrangement, "_integer_echelon", refuse, raising=False)
    for a, oracle in zip(cases, oracles):
        t = CombinatorialType.from_arrangement(a)
        assert (t.dep, t.affine_empty) == (oracle.dep, oracle.affine_empty)
