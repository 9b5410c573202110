import random
from fractions import Fraction

import pytest

from osgm.arrangement import Arrangement, CombinatorialType, generic_type, pencil_realization
from osgm.orlik_solomon import betti_numbers, nbc_basis
from osgm.aomoto import (
    Weights,
    build_aomoto,
    os_cohomology,
    in_resonance,
    nonresonance_conditions,
    weights_nonresonant,
)
from osgm.poly import LinearForm
from osgm.linalg import dense, evaluate_rows, matmul
from oracles import (
    class_coords_by_solving,
    cohomology_reps_by_elimination,
    dense_product,
    frac_rank,
    mat_evaluate,
    sparse,
    sparse_vector,
)

SELBERG = {"ell": 2, "n": 5, "rows": [
    ["0", "1", "0"],
    ["-1", "1", "0"],
    ["0", "0", "1"],
    ["-1", "0", "1"],
    ["0", "1", "-1"],
]}


def selberg_type():
    return CombinatorialType.from_arrangement(Arrangement.from_json(SELBERG))


def y(*js):
    p = LinearForm.zero(5)
    for j in js:
        p = p + LinearForm.variable(j, 5)
    return p


def test_weights():
    lam = Weights(["1/2", "1/3", "1/5", "1/7", "1/11"])
    assert lam.n == 5
    assert lam[1] == Fraction(1, 2)
    assert lam[6] == -(Fraction(1, 2) + Fraction(1, 3) + Fraction(1, 5) + Fraction(1, 7) + Fraction(1, 11))
    assert lam.subset_sum((3, 4, 5)) == Fraction(1, 5) + Fraction(1, 7) + Fraction(1, 11)
    assert lam.subset_sum((3, 4, 5)) == Fraction(167, 385)
    with pytest.raises(ValueError):
        lam[7]
    with pytest.raises(ValueError, match="^weight 2: zero denominator"):
        Weights(["1/2", "1/0"])
    with pytest.raises(ValueError, match="^weight 1: not a rational literal: 'x'"):
        Weights(["x", "1/2"])


def test_selberg_boundary_degree0():
    c = build_aomoto(selberg_type())
    assert c.boundary[0] == [[y(1), y(2), y(3), y(4), y(5)]]


def test_selberg_boundary_degree1():
    c = build_aomoto(selberg_type())
    z = LinearForm.zero(5)
    expected = [
        [-y(3), -y(4), -y(5), z, z, z],
        [z, z, z, -y(3), -y(4), -y(5)],
        [y(1, 5), z, -y(5), y(2), z, z],
        [z, y(1), z, z, y(2, 5), -y(5)],
        [-y(3), z, y(1, 3), z, -y(4), y(2, 4)],
    ]
    assert c.boundary[1] == expected


def test_boundary_rows_match_bases():
    t = selberg_type()
    c = build_aomoto(t)
    assert c.bases[1] == nbc_basis(t, 1)
    assert c.bases[2] == nbc_basis(t, 2)
    assert len(c.boundary[1]) == 5 and len(c.boundary[1][0]) == 6


def test_differential_squares_to_zero():
    types = [
        selberg_type(),
        generic_type(5, 2),
        generic_type(6, 3),
        generic_type(4, 1),
        CombinatorialType.from_arrangement(
            Arrangement.from_json({"ell": 2, "n": 5, "rows": [
                ["0", "1", "0"], ["-1", "1", "0"], ["0", "0", "1"],
                ["0", "0", "1"], ["0", "0", "1"]]})
        ),
    ]
    rng = random.Random(3)
    done = 0
    while done < 5:
        ell = rng.randint(1, 3)
        n = rng.randint(ell, 6)
        rows = [[str(rng.randint(-2, 2)) for _ in range(ell + 1)] for _ in range(n)]
        try:
            arr = Arrangement.from_json({"ell": ell, "n": n, "rows": rows})
        except ValueError:
            continue
        types.append(CombinatorialType.from_arrangement(arr))
        done += 1
    for t in types:
        c = build_aomoto(t)
        for q in range(len(c.rows) - 1):
            assert not any(matmul(c.rows[q], c.rows[q + 1]))


def test_specialized_chain_is_complex():
    c = build_aomoto(selberg_type())
    lam = Weights(["1/2", "1/3", "1/5", "1/7", "1/11"])
    d0 = mat_evaluate(c.boundary[0], lam.values)
    d1 = mat_evaluate(c.boundary[1], lam.values)
    prod = dense_product(d0, d1, Fraction(0))
    assert all(e == 0 for row in prod for e in row)


def test_cohomology_nonresonant_selberg():
    t = selberg_type()
    lam = Weights(["1/2", "1/3", "1/5", "1/7", "1/11"])
    h = os_cohomology(t, lam)
    assert h.dims == [0, 0, 2]
    assert len(h.reps[2]) == 2
    # representatives really are independent modulo coboundaries
    assert frac_rank(dense(h.reps[2], 6, 0)) == 2


def test_cohomology_resonant_selberg():
    t = selberg_type()
    lam = Weights(["1", "2", "2", "1", "-3"])
    h = os_cohomology(t, lam)
    assert h.dims == [0, 1, 3]
    # the degree-1 class of a_1 - a_2 - a_3 + a_4 spans H^1
    v = [Fraction(1), Fraction(-1), Fraction(-1), Fraction(1), Fraction(0)]
    c = build_aomoto(t)
    d1 = mat_evaluate(c.boundary[1], lam.values)
    image = [sum(v[i] * d1[i][k] for i in range(5)) for k in range(6)]
    assert all(e == 0 for e in image)
    coords = h.class_coords(1, sparse_vector(v))
    assert coords is not None and any(coords)


def test_cohomology_zero_weights():
    for t in (selberg_type(), generic_type(4, 2)):
        lam = Weights(["0"] * t.n)
        h = os_cohomology(t, lam)
        assert h.dims == betti_numbers(t)


def test_class_coords_well_defined():
    # shifting a cocycle by a coboundary must not change its coordinates
    t = selberg_type()
    lam = Weights(["1", "2", "2", "1", "-3"])
    h = os_cohomology(t, lam)
    c = build_aomoto(t)
    d0 = mat_evaluate(c.boundary[0], lam.values)
    v = [Fraction(1), Fraction(-1), Fraction(-1), Fraction(1), Fraction(0)]
    shifted = [a + Fraction(3) * b for a, b in zip(v, d0[0])]
    assert h.class_coords(1, sparse_vector(v)) == h.class_coords(1, sparse_vector(shifted))


_COORD_CASES = [
    # (type, weights): nonresonant first, then resonant
    ("selberg", ["1/2", "1/3", "1/5", "1/7", "1/11"]),
    ("selberg", ["1", "2", "2", "1", "-3"]),
    ("generic-5-2", ["1/2", "1/3", "1/5", "1/7", "1/11"]),
    ("generic-5-2", ["0"] * 5),
    ("generic-5-2", ["1", "2", "3", "4", "5"]),
    # four concurrent lines among eight: dims (0, 0, 18), then (0, 2, 20)
    ("four-fold-8-2", ["1/2", "1/3", "1/5", "1/7", "1/11", "1/13", "1/17", "1/19"]),
    ("four-fold-8-2", ["1", "2", "-1", "-2", "0", "0", "0", "0"]),
]


def _coord_type(name):
    if name == "selberg":
        return selberg_type()
    if name == "generic-5-2":
        return generic_type(5, 2)
    return CombinatorialType.from_arrangement(pencil_realization(8, 2, (1, 2, 3, 4), 2))


@pytest.mark.parametrize("name, weights", _COORD_CASES)
def test_cohomology_reps_match_dense_elimination(name, weights):
    t = _coord_type(name)
    h = os_cohomology(t, Weights(weights))
    expected = cohomology_reps_by_elimination(t, Weights(weights))
    assert [(h.reps[q], h.rep_pivots[q]) for q in range(t.ell + 1)] == [
        (sparse(reps), piv) for reps, piv in expected]
    assert h.dims == [len(reps) for reps, _ in expected]


@pytest.mark.parametrize("name, weights", _COORD_CASES)
def test_class_coords_match_the_solving_oracle(name, weights):
    # the pivot read-off against a fresh reduction and solve, None included
    t = _coord_type(name)
    lam = Weights(weights)
    h = os_cohomology(t, lam)
    c = build_aomoto(t)
    rng = random.Random("%s:%s" % (name, weights))
    for q in range(t.ell + 1):
        size = len(c.bases[q])
        d_out = c.boundary_at(lam, q)
        reps, cob = dense(h.reps[q], size, Fraction(0)), dense(h.cobound[q], size, Fraction(0))
        for k, z in enumerate(h.reps[q]):
            unit = [Fraction(int(i == k)) for i in range(len(reps))]
            assert h.class_coords(q, z) == class_coords_by_solving(h, q, z) == unit
        for _ in range(12):
            a = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in reps]
            b = [Fraction(rng.randint(-3, 3)) for _ in cob]
            v = sparse_vector([sum((x * r[j] for x, r in zip(a + b, reps + cob)), Fraction(0))
                               for j in range(size)])
            assert h.class_coords(q, v) == class_coords_by_solving(h, q, v) == a
        # a basis vector the differential does not kill, added to a cocycle
        for i in range(size):
            if not d_out[i]:
                continue
            base = reps[0] if reps else [Fraction(0)] * size
            v = sparse_vector([x + (1 if j == i else 0) for j, x in enumerate(base)])
            assert h.class_coords(q, v) is None
            assert class_coords_by_solving(h, q, v) is None
        for _ in range(12):
            v = sparse_vector([Fraction(rng.choice((0, 0, 1, -2))) for _ in range(size)])
            assert h.class_coords(q, v) == class_coords_by_solving(h, q, v)


def test_os_cohomology_eliminates_each_differential_once(monkeypatch):
    # an elimination of a differential is an rref whose input is the
    # differential, its transpose, or the differential with columns
    # appended on the right
    import osgm.aomoto
    import osgm.linalg

    t = _coord_type("four-fold-8-2")
    lam = Weights(_COORD_CASES[5][1])
    c = build_aomoto(t)
    seen = []
    real = osgm.linalg.rref

    def recording(m):
        seen.append(m)
        return real(m)

    monkeypatch.setattr(osgm.linalg, "rref", recording)
    monkeypatch.setattr(osgm.aomoto, "rref", recording)
    os_cohomology(t, lam)
    counts = []
    for q in range(t.ell):
        d, width = evaluate_rows(c.rows[q], lam.values), len(c.bases[q + 1])
        transpose = [{i: row[j] for i, row in enumerate(d) if j in row} for j in range(width)]
        counts.append(sum(
            m == transpose or [{j: x for j, x in row.items() if j < width} for row in m] == d
            for m in seen))
    assert counts == [1] * t.ell


def test_euler_characteristic_invariant():
    rng = random.Random(8)
    done = 0
    while done < 5:
        ell = rng.randint(1, 2)
        n = rng.randint(ell, 5)
        rows = [[str(rng.randint(-2, 2)) for _ in range(ell + 1)] for _ in range(n)]
        try:
            arr = Arrangement.from_json({"ell": ell, "n": n, "rows": rows})
        except ValueError:
            continue
        t = CombinatorialType.from_arrangement(arr)
        b = betti_numbers(t)
        euler = sum((-1) ** q * bq for q, bq in enumerate(b))
        for _ in range(10):
            lam = Weights([Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3])) for _ in range(n)])
            h = os_cohomology(t, lam)
            assert sum((-1) ** q * d for q, d in enumerate(h.dims)) == euler
        done += 1


def test_nonresonance_conditions_selberg():
    t = selberg_type()
    conds = nonresonance_conditions(t)
    singles = [(j,) for j in range(1, 7)]
    triples = [(1, 2, 6), (1, 3, 5), (2, 4, 5), (3, 4, 6)]
    assert conds == sorted(singles + triples, key=lambda S: (len(S), S))
    lam = Weights(["1/2", "1/3", "1/5", "1/7", "1/11"])
    assert weights_nonresonant(t, lam)
    # every singleton passes here but lambda_135 = 1/2 + 1/4 + 1/4 = 1 trips
    bad = Weights(["1/2", "1/3", "1/4", "1/7", "1/4"])
    assert not weights_nonresonant(t, bad)
    # the infinity weight is a condition too: lambda_6 = 0 here and every
    # other listed sum stays out of the nonnegative integers
    bad2 = Weights(["1/3", "1/3", "1/3", "1/3", "-4/3"])
    assert not weights_nonresonant(t, bad2)


def test_nonresonant_weights_concentrate_cohomology():
    rng = random.Random(31)
    done = 0
    while done < 6:
        ell = rng.randint(1, 2)
        n = rng.randint(ell + 1, 5)
        rows = [[str(rng.randint(-2, 2)) for _ in range(ell + 1)] for _ in range(n)]
        try:
            arr = Arrangement.from_json({"ell": ell, "n": n, "rows": rows})
        except ValueError:
            continue
        t = CombinatorialType.from_arrangement(arr)
        b = betti_numbers(t)
        euler = sum((-1) ** q * bq for q, bq in enumerate(b))
        lam = None
        for _ in range(60):
            cand = Weights([Fraction(rng.randint(1, 9), rng.choice([5, 7, 11, 13])) for _ in range(n)])
            if weights_nonresonant(t, cand):
                lam = cand
                break
        if lam is None:
            continue
        h = os_cohomology(t, lam)
        for q in range(ell):
            assert h.dims[q] == 0
        assert h.dims[ell] == abs(euler)
        done += 1


def test_in_resonance():
    t = selberg_type()
    assert in_resonance(t, Weights(["1", "2", "2", "1", "-3"]), 1, 1)
    assert not in_resonance(t, Weights(["1/2", "1/3", "1/5", "1/7", "1/11"]), 1, 1)
    lam0 = Weights(["0"] * 5)
    for q, bq in enumerate(betti_numbers(t)):
        assert in_resonance(t, lam0, q, bq)
        assert not in_resonance(t, lam0, q, bq + 1)


def test_generic_complex_shapes():
    t = generic_type(5, 2)
    c = build_aomoto(t)
    assert c.boundary[0] == [[y(1), y(2), y(3), y(4), y(5)]]
    assert len(c.boundary[1]) == 5 and len(c.boundary[1][0]) == 10
    # row of a_1: a_y a_1 = -y2 e12 - y3 e13 - y4 e14 - y5 e15
    pairs = c.bases[2]
    row = c.boundary[1][0]
    for k, U in enumerate(pairs):
        if 1 in U:
            other = U[0] if U[1] == 1 else U[1]
            assert row[k] == -y(other)
        else:
            assert not row[k]


def test_build_aomoto_is_built_once_per_type():
    t = selberg_type()
    assert build_aomoto(t) is build_aomoto(t)
    g = generic_type(4, 2)
    assert build_aomoto(g) is build_aomoto(generic_type(4, 2))


def test_weights_reject_non_rational_entries():
    for bad in (None, {"a": 1}, [1], float("nan"), float("inf"), 0.1, 1.5):
        with pytest.raises(ValueError, match="weight 2 is not a rational number"):
            Weights(["1", bad, "3"])
    # an integral float reads as its integer, as ell and n do
    assert Weights([2.0, "1/2"]).values == (2, Fraction(1, 2))
