import random
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from osgm import orlik_solomon
from osgm.arrangement import Arrangement, CombinatorialType, generic_type
from osgm.orlik_solomon import (
    circuits,
    nbc_basis,
    betti_numbers,
    os_reduce,
    reduce_monomial,
    wedge,
    projection_matrix,
)
from oracles import Form
from oracles import circuits_by_walk, exterior_quotient_dims, frac_rank, ideal_span_rows, multiply
from oracles import (
    breaking_circuit_by_scan,
    broken_circuits,
    nbc_basis_by_filter,
    projection_by_scan,
    reduce_by_scan,
)
from strategies import asserted_types, realized_types

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


def concurrent_type():
    a = Arrangement.from_json(
        {"ell": 2, "n": 3, "rows": [["0", "1", "0"], ["0", "0", "1"], ["0", "1", "1"]]}
    )
    return CombinatorialType.from_arrangement(a)


def test_wedge():
    assert wedge((1, 3), (2,)) == ((1, 2, 3), -1)
    assert wedge((2,), (1, 3)) == ((1, 2, 3), -1)
    assert wedge((), (1, 3)) == ((1, 3), 1)
    assert wedge((1, 3), (3,)) is None
    assert wedge((2, 4), (1, 3)) == ((1, 2, 3, 4), -1)


def test_circuits():
    assert circuits(selberg_type()) == [(1, 3, 5), (2, 4, 5)]
    assert circuits(generic_type(5, 2)) == []
    assert circuits(concurrent_type()) == [(1, 2, 3)]
    assert circuits(collapsed_type()) == [(3, 4), (3, 5), (4, 5)]


def test_circuits_skip_empty_intersections():
    # three parallel lines: dependent triple with no common point is not a
    # circuit, it contributes the monomial generator instead
    a = Arrangement.from_json(
        {"ell": 2, "n": 3, "rows": [["0", "1", "0"], ["-1", "1", "0"], ["-2", "1", "1"]]}
    )
    # rows 1,2 parallel, row 3 transverse: no dependent triple at all here
    assert circuits(CombinatorialType.from_arrangement(a)) == []
    b = Arrangement.from_json(
        {"ell": 2, "n": 4, "rows": [["0", "1", "0"], ["-1", "1", "0"], ["-2", "1", "0"], ["0", "0", "1"]]}
    )
    t = CombinatorialType.from_arrangement(b)
    assert t.is_dependent((1, 2, 3)) and t.has_empty_intersection((1, 2, 3))
    assert circuits(t) == []


@given(t=st.one_of(realized_types(), asserted_types()))
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_circuits_match_the_walk_over_all_subsets(t):
    # the stored dependent sets inside [n] are the walk's candidates, in order
    assert circuits(t) == circuits_by_walk(t)


def test_circuits_of_a_set_listed_twice():
    # an asserted type may list a dependent set twice; it is one circuit
    t = CombinatorialType(4, 2, {2: [(1, 2), (1, 2)], 3: [(1, 2, 3), (1, 2, 4), (1, 2, 5)]}, [])
    assert t.dep[2] == [(1, 2)]
    assert circuits(t) == circuits_by_walk(t) == [(1, 2)]


def test_broken_circuits():
    # the rewriting's table is keyed by the broken circuits, sorted
    for t, broken in [(selberg_type(), [(3, 5), (4, 5)]), (concurrent_type(), [(2, 3)]),
                      (collapsed_type(), [(4,), (5,)])]:
        assert broken_circuits(t) == broken
        assert list(t.derived("breaking", orlik_solomon._breaking)) == broken


def _first_step(S, t):
    """(B, C) the rewriting of e_S starts from, on a fresh copy of t so no
    memo answers first: its first wedge is e_B e_rest, its second is C
    without its second element times e_rest, which gives C = (min C,) + B.
    None when the rewriting wedges nothing."""
    fresh = CombinatorialType(t.n, t.ell, t.dep, t.affine_empty)
    calls = []

    def spy(t1, t2):
        calls.append(t1)
        return wedge(t1, t2)

    with mock.patch.object(orlik_solomon, "wedge", spy):
        reduce_monomial(S, fresh)
    return (calls[0], calls[1][:1] + calls[0]) if calls else None


@given(t=st.one_of(realized_types(), asserted_types()))
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_rewriting_matches_the_filter_and_the_scan(t):
    # the basis is the set of monomials the rewriting fixes: the old filter's
    # basis, and each other monomial starts from the scanned broken circuit
    # and circuit and ends where the memo-free rewriting ends
    circuits = circuits_by_walk(t)
    assert betti_numbers(t) == [len(nbc_basis_by_filter(t, q)) for q in range(t.ell + 1)]
    for q in range(t.ell + 1):
        assert nbc_basis(t, q) == nbc_basis_by_filter(t, q)
        assert projection_matrix(t, q) == projection_by_scan(t, q)
        for S in combinations(range(1, t.n + 1), q):
            assert reduce_monomial(S, t) == reduce_by_scan(S, t, circuits)
            if len(S) < 2 or not t.has_empty_intersection(S):
                assert _first_step(S, t) == breaking_circuit_by_scan(S, circuits)


def test_nbc_basis():
    t = selberg_type()
    assert nbc_basis(t, 0) == [()]
    assert nbc_basis(t, 1) == [(1,), (2,), (3,), (4,), (5,)]
    assert nbc_basis(t, 2) == [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)]
    g = generic_type(5, 2)
    assert nbc_basis(g, 2) == sorted(combinations(range(1, 6), 2))
    c = collapsed_type()
    assert nbc_basis(c, 1) == [(1,), (2,), (3,)]
    assert nbc_basis(c, 2) == [(1, 3), (2, 3)]
    with pytest.raises(ValueError):
        nbc_basis(t, 3)
    with pytest.raises(ValueError):
        nbc_basis(t, -1)


def test_betti_numbers():
    assert betti_numbers(selberg_type()) == [1, 5, 6]
    assert betti_numbers(collapsed_type()) == [1, 3, 2]
    assert betti_numbers(generic_type(5, 2)) == [1, 5, 10]
    # alternating sums
    assert 1 - 5 + 6 == 2
    assert 1 - 3 + 2 == 0


def test_os_reduce_selberg_printed_examples():
    t = selberg_type()
    one = Fraction(1)
    assert os_reduce({(3, 5): one}, t) == {(1, 5): one, (1, 3): -one}
    assert os_reduce({(4, 5): one}, t) == {(2, 5): one, (2, 4): -one}
    assert os_reduce({(1, 2): one}, t) == {}
    assert os_reduce({(3, 4): one}, t) == {}
    assert os_reduce({(1, 3): one}, t) == {(1, 3): one}
    for T in [(1, 4), (1, 5), (2, 3), (2, 4), (2, 5)]:
        assert os_reduce({T: one}, t) == {T: one}
    for j in range(1, 6):
        assert os_reduce({(j,): one}, t) == {(j,): one}
    # a monomial past degree ell lies in the ideal and drops out
    assert os_reduce({(1, 2, 3): 1, (1, 3): 2}, t) == {(1, 3): 2}


def test_os_reduce_polynomial_coefficients():
    t = selberg_type()
    y1 = Form.variable(1, 5)
    out = os_reduce({(3, 5): y1}, t)
    assert out == {(1, 5): y1, (1, 3): -y1}


def test_os_reduce_idempotent_and_nbc_supported():
    rng = random.Random(5)
    for t in (selberg_type(), collapsed_type(), concurrent_type()):
        basis = set(nbc_basis(t, 2)) if t.ell >= 2 else set()
        for _ in range(20):
            x = {}
            for T in combinations(range(1, t.n + 1), 2):
                c = Fraction(rng.randint(-4, 4))
                if c:
                    x[T] = c
            r = os_reduce(x, t)
            assert set(r) <= basis
            assert os_reduce(r, t) == r


def test_os_reduce_difference_lies_in_ideal():
    # os_reduce(x) - x must be a combination of ideal generators
    arr = Arrangement.from_json(SELBERG)
    t = CombinatorialType.from_arrangement(arr)
    rng = random.Random(17)
    span, monoms = ideal_span_rows(arr, 2)
    index = {T: i for i, T in enumerate(monoms)}
    base_rank = frac_rank(span)
    for _ in range(15):
        x = {T: Fraction(rng.randint(-3, 3)) for T in monoms}
        x = {T: c for T, c in x.items() if c}
        r = os_reduce(x, t)
        diff = [Fraction(0)] * len(monoms)
        for T, c in x.items():
            diff[index[T]] += c
        for T, c in r.items():
            diff[index[T]] -= c
        assert frac_rank(span + [diff]) == base_rank


def test_multiply():
    t = selberg_type()
    one = Fraction(1)
    # e_3 e_5 is already sorted; e_5 e_3 flips the sign
    assert multiply({(3,): one}, {(5,): one}, t) == {(1, 5): one, (1, 3): -one}
    assert multiply({(5,): one}, {(3,): one}, t) == {(1, 5): -one, (1, 3): one}
    # repeated index dies before reduction
    assert multiply({(3,): one}, {(3,): one}, t) == {}
    # degree past ell truncates to zero
    assert multiply({(1, 3): one}, {(2,): one}, t) == {}


def test_multiply_graded_commutative():
    t = selberg_type()
    rng = random.Random(23)
    for _ in range(10):
        x = {(j,): Fraction(rng.randint(-3, 3)) for j in range(1, 6)}
        y = {(j,): Fraction(rng.randint(-3, 3)) for j in range(1, 6)}
        x = {T: c for T, c in x.items() if c}
        y = {T: c for T, c in y.items() if c}
        xy = multiply(x, y, t)
        yx = multiply(y, x, t)
        assert xy == {T: -c for T, c in yx.items()}
        # a.a = 0 for any degree-1 element
        assert multiply(x, x, t) == {}


def test_nbc_counts_match_quotient_oracle():
    rng = random.Random(41)
    done = 0
    while done < 25:
        ell = rng.randint(1, 3)
        n = rng.randint(ell, 6)
        rows = [[str(rng.randint(-2, 2)) for _ in range(ell + 1)] for _ in range(n)]
        try:
            arr = Arrangement.from_json({"ell": ell, "n": n, "rows": rows})
        except ValueError:
            continue
        t = CombinatorialType.from_arrangement(arr)
        dims = exterior_quotient_dims(arr)
        for q in range(ell + 1):
            assert len(nbc_basis(t, q)) == dims[q]
        done += 1


def test_projection_matrix_selberg():
    t = selberg_type()
    p = projection_matrix(t, 2)
    monoms = list(combinations(range(1, 6), 2))
    basis = nbc_basis(t, 2)
    assert len(p) == 10 and len(basis) == 6
    assert all(type(c) is int for row in p for c in row.values())
    # nbc rows carry the identity
    for T in basis:
        assert p[monoms.index(T)] == {basis.index(T): 1}
    # the printed reductions
    assert p[monoms.index((3, 5))] == {basis.index((1, 5)): 1, basis.index((1, 3)): -1}
    assert p[monoms.index((1, 2))] == {}
    assert p[monoms.index((3, 4))] == {}
    assert frac_rank([[row.get(j, 0) for j in range(6)] for row in p]) == 6
