import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from osgm.arrangement import Arrangement, CombinatorialType, generic_type
from osgm.orlik_solomon import betti_numbers, nbc_basis
from osgm.aomoto import (
    Weights,
    build_aomoto,
    os_cohomology,
    in_resonance,
    nonresonance_conditions,
    weights_nonresonant,
)
from osgm.linalg import form_matmul, matmul
from osgm.poly import y_coeffs
from strategies import infinity_pencil_pairs, realized_types
from oracles import (
    aomoto_rows_by_scan,
    Form,
    pencil_realization,
    dense,
    form_rows,
    boundary_at,
    class_coords_by_solving,
    cohomology_by_two_eliminations,
    cohomology_reps_by_elimination,
    dense_product,
    frac_rank,
    mat_evaluate,
    reduced,
    rows_at,
    sparse,
    sparse_vector,
    fraction_subset_sum,
    weights_nonresonant_by_subset_sums,
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
    p = Form.zero(5)
    for j in js:
        p = p + Form.variable(j, 5)
    return p


def test_weights():
    lam = Weights(["1/2", "1/3", "1/5", "1/7", "1/11"])
    assert lam.n == 5
    assert lam.subset_sum((1,)) == Fraction(1, 2)
    assert lam.subset_sum((6,)) == \
        -(Fraction(1, 2) + Fraction(1, 3) + Fraction(1, 5) + Fraction(1, 7) + Fraction(1, 11))
    assert lam.subset_sum((3, 4, 5)) == Fraction(1, 5) + Fraction(1, 7) + Fraction(1, 11)
    assert lam.subset_sum((3, 4, 5)) == Fraction(167, 385)
    with pytest.raises(ValueError, match=r"^weight index 7 out of range 1\.\.6$"):
        lam.subset_sum((7,))
    # the int point N = D * lam at which every map is specialized
    assert (lam.d, lam.nums) == (2310, (1155, 770, 462, 330, 210))
    mixed = Weights([3, "-1/4", 0])
    assert (mixed.d, mixed.nums) == (4, (12, -1, 0))
    # followed by D times the weight of the hyperplane at infinity
    assert mixed.point == (12, -1, 0, -11)
    assert all(type(v) is int for v in lam.nums + mixed.nums)
    with pytest.raises(ValueError, match="^weight 2: zero denominator"):
        Weights(["1/2", "1/0"])
    with pytest.raises(ValueError, match="^weight 1: not a rational literal: 'x'"):
        Weights(["x", "1/2"])


def test_selberg_boundary_degree0():
    c = build_aomoto(selberg_type())
    assert c.boundary[0] == [[y(1), y(2), y(3), y(4), y(5)]]


def test_selberg_boundary_degree1():
    c = build_aomoto(selberg_type())
    z = Form.zero(5)
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
        d = [form_rows(m, t.n) for m in c.rows]
        for q in range(len(c.rows) - 1):
            assert not any(matmul(d[q], d[q + 1]))


@given(t=st.one_of(realized_types(), infinity_pencil_pairs().map(lambda pair: pair[0])))
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_aomoto_complex_matches_the_scan(t):
    # bases and rows against an oracle with no library sign code, pencils
    # through infinity included; index numbers each basis in order
    c = build_aomoto(t)
    assert (c.bases, c.rows) == aomoto_rows_by_scan(t)
    assert [sorted(ix, key=ix.get) for ix in c.index] == c.bases
    assert [sorted(ix.values()) for ix in c.index] == [list(range(len(b))) for b in c.bases]


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
    assert len(h.rep_rows[2]) == 2
    # representatives really are independent modulo coboundaries
    assert frac_rank(dense(reduced(h.rep_rows[2]), 6, 0)) == 2


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
    assert [(reduced(h.rep_rows[q]), list(h.rep_rows[q])) for q in range(t.ell + 1)] == [
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
        d_out = boundary_at(c, lam, q)
        reps = dense(reduced(h.rep_rows[q]), size, Fraction(0))
        cob = dense(reduced(h.cob_rows[q]), size, Fraction(0))
        for k, z in enumerate(reduced(h.rep_rows[q])):
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


@given(t=realized_types(), data=st.data())
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_class_coords_match_the_solving_oracle_on_realized_types(t, data):
    # the int pivot read-off at nonresonant weights, at weights resonant on
    # a starred set and at zero, against a fresh reduction and solve
    n = t.n
    kind = data.draw(st.sampled_from(["nonresonant", "starred", "zero"]))
    vals = [Fraction(data.draw(st.integers(-3000, 3000).filter(bool)), 1009) for _ in range(n)]
    if kind == "zero":
        vals = [Fraction(0)] * n
    elif kind == "starred":
        starred = [S for S in nonresonance_conditions(t) if len(S) > 1]
        if starred:
            S = data.draw(st.sampled_from(starred))
            vals = [x if j in S else Fraction(0) for j, x in enumerate(vals, start=1)]
            if n + 1 not in S:
                vals[S[-1] - 1] -= Weights(vals).subset_sum(S)
            assert Weights(vals).subset_sum(S) == 0
    elif not weights_nonresonant(t, Weights(vals)):
        return
    lam = Weights(vals)
    h = os_cohomology(t, lam)
    assert all(type(x) is int for rows in h.rep_rows + h.cob_rows
               for row in rows.values() for x in row.values())
    c = build_aomoto(t)
    rng = random.Random(repr((vals, t.dep)))
    for q in range(t.ell + 1):
        size, dim = len(c.bases[q]), h.dims[q]
        reps = dense(reduced(h.rep_rows[q]), size, Fraction(0))
        cob = dense(reduced(h.cob_rows[q]), size, Fraction(0))
        zero = h.class_coords(q, {})
        assert zero == [Fraction(0)] * dim and all(type(x) is Fraction for x in zero)
        for k, z in enumerate(reduced(h.rep_rows[q])):
            unit = [Fraction(int(i == k)) for i in range(dim)]
            assert h.class_coords(q, z) == class_coords_by_solving(h, q, z) == unit
        for _ in range(4):
            a = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in reps]
            b = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in cob]
            v = sparse_vector([sum((x * r[j] for x, r in zip(a + b, reps + cob)), Fraction(0))
                               for j in range(size)])
            assert h.class_coords(q, v) == class_coords_by_solving(h, q, v) == a
        # a cocycle plus a basis vector the differential does not kill
        for i, row in enumerate(boundary_at(c, lam, q)):
            if row:
                v = sparse_vector([x + (j == i) for j, x in enumerate(reps[0] if reps else
                                                                     [Fraction(0)] * size)])
                assert h.class_coords(q, v) is None
                assert class_coords_by_solving(h, q, v) is None


def test_weights_nonresonant_refuses_a_weight_vector_of_the_wrong_length():
    t = selberg_type()
    with pytest.raises(ValueError, match="^expected 5 values, got 6$"):
        weights_nonresonant(t, Weights(["1/2", "1/3", "1/5", "1/7", "1/11", "1"]))
    with pytest.raises(ValueError, match="^expected 5 values, got 4$"):
        weights_nonresonant(t, Weights(["1/2", "1/3", "1/5", "1/7"]))


def test_os_cohomology_refuses_a_weight_vector_of_the_wrong_length():
    # a type with ell = 0 has no differential to evaluate at the weights
    for t in (generic_type(3, 0), selberg_type()):
        for values in (["1/2"] * (t.n - 1), ["1/2"] * (t.n + 1)):
            with pytest.raises(ValueError, match="^expected %d values, got %d$"
                               % (t.n, len(values))):
                os_cohomology(t, Weights(values))


def test_os_cohomology_eliminates_each_differential_once(monkeypatch):
    # every elimination, through rref, rank or image_and_kernel, runs the
    # integer kernel.  Each differential is eliminated once as the int rows
    # of D * D_q(lam), D the common denominator of lam, at the indices off
    # the coboundary pivots of degree q, in index order, with no identity
    # block: the rows at those pivots are combinations of the others.  Only
    # a degree left with cohomology, degree 1 at the resonant weight, also
    # eliminates those rows beside an identity block, for its kernel, cut
    # down to the pivot columns of the first elimination, which are the
    # pivots of the coboundaries of degree q+1
    import osgm.aomoto
    import osgm.linalg

    t = _coord_type("four-fold-8-2")
    c = build_aomoto(t)
    eliminated = []
    kernel = osgm.linalg._integer_echelon

    def spy(m):
        eliminated.append(m)
        return kernel(m)

    monkeypatch.setattr(osgm.linalg, "_integer_echelon", spy)
    monkeypatch.setattr(osgm.aomoto, "_integer_echelon", spy)
    for case, dims in [(5, [0, 0, 18]), (6, [0, 2, 20])]:
        lam = Weights(_COORD_CASES[case][1])
        d = lam.d
        assert (d > 1) == (case == 5)
        eliminated.clear()
        h = os_cohomology(t, lam)
        assert h.dims == dims
        expected = []
        for q in range(t.ell):
            m = [{j: d * v for j, v in row.items()} for row in rows_at(c.rows[q], lam.values, t.n)]
            sub = [row for i, row in enumerate(m) if i not in h.cob_rows[q]]
            expected.append(sub)
            if dims[q]:
                cut = [{j: x for j, x in row.items() if j in h.cob_rows[q + 1]} for row in sub]
                assert cut != sub
                width = 1 + max(max(row) for row in cut if row)
                expected.append([{**row, width + i: d} for i, row in enumerate(cut)])
        assert [len(x) for x in expected] == [1, 7] + [7] * (case == 6)
        assert eliminated == expected
        assert all(type(v) is int for x in eliminated for row in x for v in row.values())


_TWO_ELIMINATION_TYPES = {
    "selberg": selberg_type,
    "generic-5-2": lambda: generic_type(5, 2),
    "generic-6-3": lambda: generic_type(6, 3),
    "four-fold-8-2": lambda: _coord_type("four-fold-8-2"),
    "pencil-7-3-rank-1": lambda: CombinatorialType.from_arrangement(
        pencil_realization(7, 3, (2, 3, 4), 1)),
    "pencil-7-3-rank-2": lambda: CombinatorialType.from_arrangement(
        pencil_realization(7, 3, (1, 2, 3, 5, 8), 2)),
}
_built = {}


def _typed(rows):
    return [{j: (type(x), x) for j, x in row.items()} for row in rows]


@given(data=st.data())
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_os_cohomology_matches_the_two_elimination_route(data):
    # one integer elimination per differential against the Fraction route
    # that echelonizes the closed cochains modulo the coboundaries again
    name = data.draw(st.sampled_from(sorted(_TWO_ELIMINATION_TYPES)))
    if name not in _built:
        _built[name] = _TWO_ELIMINATION_TYPES[name]()
    t = _built[name]
    n = t.n
    kind = data.draw(st.sampled_from(["generic", "condition", "resonant", "zero", "integer"]))
    den = data.draw(st.sampled_from([1, 2, 12, 1009, 999983, 2 ** 61 - 1]))
    if kind == "zero":
        vals = [Fraction(0)] * n
    elif kind == "integer":
        vals = [Fraction(data.draw(st.integers(-5, 5))) for _ in range(n)]
    else:
        vals = [Fraction(data.draw(st.integers(-3 * den, 3 * den)), den) for _ in range(n)]
    conds = nonresonance_conditions(t)
    if kind == "condition":
        # steer one condition to a nonnegative integer sum, as in
        # test_weights_nonresonant_matches_the_subset_sum_route
        S = data.draw(st.sampled_from(conds))
        free = [j for j in range(1, n + 1) if (j in S) != (n + 1 in S)]
        j = data.draw(st.sampled_from(free))
        target = data.draw(st.integers(0, 2))
        vals[j - 1] += (-1 if n + 1 in S else 1) * (target - Weights(vals).subset_sum(S))
        assert not weights_nonresonant(t, Weights(vals))
    elif kind == "resonant" and any(len(S) > 2 for S in conds):
        # weights on the hyperplanes of one starred set S, summing to 0 over
        # S; with lambda_{n+1} = -(lambda_1 + ... + lambda_n), the sum over
        # S is 0 by itself when n+1 is in S
        S = data.draw(st.sampled_from([S for S in conds if len(S) > 2]))
        vals = [x if j in S else Fraction(0) for j, x in enumerate(vals, start=1)]
        if n + 1 not in S:
            vals[S[-1] - 1] -= Weights(vals).subset_sum(S)
        assert Weights(vals).subset_sum(S) == 0
    lam = Weights(vals)
    h = os_cohomology(t, lam)
    dims, reps, rep_pivots, cobound, cob_pivots = cohomology_by_two_eliminations(t, lam)
    assert h.dims == dims
    assert [list(r) for r in h.rep_rows] == rep_pivots
    assert [list(r) for r in h.cob_rows] == cob_pivots
    assert [_typed(reduced(r)) for r in h.rep_rows] == [_typed(r) for r in reps]
    assert [_typed(reduced(r)) for r in h.cob_rows] == [_typed(r) for r in cobound]
    # the rows stay int; `element` divides one of them by its pivot entry
    assert all(type(x) is int for rows in h.rep_rows + h.cob_rows
               for row in rows.values() for x in row.values())
    bases = build_aomoto(t).bases
    for q, rows in enumerate(reps):
        for k, row in enumerate(rows):
            elem = h.element(q, k)
            assert _typed([elem]) == _typed([{bases[q][j]: x for j, x in row.items()}])


def test_os_cohomology_reindexes_the_kernel_where_a_degree_has_coboundaries_and_classes():
    # degrees 1 and 2 each hold coboundaries and classes, so the kernel of
    # the rows off the coboundary pivots is read back through their indices
    t = CombinatorialType.from_arrangement(pencil_realization(8, 3, (1, 2, 3, 4), 2))
    lam = Weights(["1/7", "2/7", "3/7", "-6/7", "0", "0", "0", "0"])
    h = os_cohomology(t, lam)
    dims, reps, rep_pivots, cobound, cob_pivots = cohomology_by_two_eliminations(t, lam)
    assert h.dims == dims == [0, 2, 10, 30]
    assert [len(r) for r in h.cob_rows] == [0, 1, 5, 10]
    assert [list(r) for r in h.rep_rows] == rep_pivots
    assert [list(r) for r in h.cob_rows] == cob_pivots
    assert [_typed(reduced(r)) for r in h.rep_rows] == [_typed(r) for r in reps]
    assert [_typed(reduced(r)) for r in h.cob_rows] == [_typed(r) for r in cobound]
    assert not any(p in row for q in range(t.ell + 1)
                   for row in h.rep_rows[q].values() for p in h.cob_rows[q])


def test_os_cohomology_checks_the_composition_once_per_complex(monkeypatch):
    # D_{q-1} D_q = 0 is checked as quadratic forms, one product for each
    # 1 <= q < ell, and each differential is grouped by column once, both
    # when the complex is first specialized; a later weight, resonant or
    # not, repeats neither, and building the complex alone runs neither
    import osgm.aomoto

    t = CombinatorialType.from_arrangement(pencil_realization(8, 3, (1, 2, 3, 4), 2))
    c = build_aomoto(t)
    products, grouped = [], []
    product, group = osgm.aomoto.form_matmul, osgm.aomoto.by_column
    monkeypatch.setattr(osgm.aomoto, "form_matmul",
                        lambda a, b: products.append((a, b)) or product(a, b))
    monkeypatch.setattr(osgm.aomoto, "by_column", lambda rows: grouped.append(rows) or group(rows))
    assert "layouts" not in vars(c)
    dims = []
    for weights in (["1/7", "2/7", "3/7", "-6/7", "0", "0", "0", "0"],
                    ["1/2", "1/3", "1/5", "1/7", "1/11", "1/13", "1/17", "1/19"],
                    ["1", "2", "3", "-6", "0", "0", "0", "0"]):
        dims.append(os_cohomology(t, Weights(weights)).dims)
        assert len(products) == t.ell - 1 and len(grouped) == t.ell
    assert dims[0] == [0, 2, 10, 30] and dims[1] == [0, 0, 0, 22]
    assert all(a is c.rows[q] and b is c.rows[q + 1] for q, (a, b) in enumerate(products))
    assert all(rows is c.rows[q] for q, rows in enumerate(grouped))


def test_os_cohomology_refuses_differentials_that_do_not_compose_to_zero(monkeypatch):
    import osgm.aomoto
    from osgm.aomoto import AomotoComplex

    t = selberg_type()
    c = build_aomoto(t)
    # D_1 sends a_i to y_1 times the i-th degree-2 basis vector: injective at
    # lambda_1 != 0, so the coboundaries of degree 1 are not all closed
    bad_rows = [{(i, 1): 1} for i in range(len(c.bases[1]))]
    bad = AomotoComplex(t, c.bases, [c.rows[0], bad_rows])
    assert any(form_matmul(c.rows[0], bad_rows)[0].values())
    monkeypatch.setattr(osgm.aomoto, "build_aomoto", lambda t: bad)
    with pytest.raises(ValueError, match="^the differentials entering and leaving degree 1 "
                                         "do not compose to zero$"):
        os_cohomology(t, Weights(_COORD_CASES[0][1]))


def test_os_cohomology_refuses_a_bad_differential_whose_kernel_holds_the_coboundary_pivot(
        monkeypatch):
    import osgm.aomoto
    from osgm.aomoto import AomotoComplex

    t = selberg_type()
    c = build_aomoto(t)
    lam = Weights(_COORD_CASES[0][1])
    # D_1 kills a_1 and sends a_i, i > 1, to y_1 times the i-th degree-2
    # basis vector: its kernel at lambda_1 != 0 is spanned by a_1, so it
    # holds the pivot column 0 of omega = D_0, yet omega D_1 is not zero
    bad_rows = [{}] + [{(i, 1): 1} for i in range(1, len(c.bases[1]))]
    bad = AomotoComplex(t, c.bases, [c.rows[0], bad_rows])
    assert list(os_cohomology(t, lam).cob_rows[1]) == [0]
    assert any(form_matmul(c.rows[0], bad_rows)[0].values())
    monkeypatch.setattr(osgm.aomoto, "build_aomoto", lambda t: bad)
    with pytest.raises(ValueError, match="^the differentials entering and leaving degree 1 "
                                         "do not compose to zero$"):
        os_cohomology(t, lam)


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


_NONRES_TYPES = ["selberg", "generic-5-2", "four-fold-8-2"]


@given(data=st.data())
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_weights_nonresonant_matches_the_subset_sum_route(data):
    # the common-denominator test against each condition's Fraction sum,
    # with one condition steered to sum to exactly 0 (resonant) or -1 (not)
    t = _coord_type(data.draw(st.sampled_from(_NONRES_TYPES)))
    n = t.n
    den = data.draw(st.sampled_from([1, 2, 1009, 999983, 2 ** 61 - 1]))
    vals = [Fraction(data.draw(st.integers(-3 * den, 3 * den)), den) for _ in range(n)]
    target = data.draw(st.sampled_from([None, 0, -1]))
    if target is not None:
        S = data.draw(st.sampled_from(nonresonance_conditions(t)))
        # lambda_{n+1} = -(lambda_1 + ... + lambda_n): a sum through n+1
        # moves against the weights outside S
        free = [j for j in range(1, n + 1) if (j in S) != (n + 1 in S)]
        j = data.draw(st.sampled_from(free))
        sign = -1 if n + 1 in S else 1
        vals[j - 1] += sign * (target - Weights(vals).subset_sum(S))
        assert Weights(vals).subset_sum(S) == target
    lam = Weights(vals)
    assert weights_nonresonant(t, lam) == weights_nonresonant_by_subset_sums(t, lam)
    if target == 0:
        assert not weights_nonresonant(t, lam)


def test_weights_nonresonant_at_the_boundary_sums():
    t = selberg_type()
    # lambda_135 = 0 exactly, with no weight an integer: resonant
    p, q = Fraction(1, 1009), Fraction(1, 999983)
    zero = Weights([p, Fraction(1, 5), q, Fraction(1, 7), -p - q])
    assert zero.subset_sum((1, 3, 5)) == 0
    assert not weights_nonresonant(t, zero)
    # lambda_135 = -1, and no other condition sums to an integer
    minus = Weights([-p, Fraction(1, 5), -q, Fraction(1, 7), p + q - 1])
    assert minus.subset_sum((1, 3, 5)) == -1
    assert weights_nonresonant(t, minus)
    for lam in (zero, minus):
        assert weights_nonresonant(t, lam) == weights_nonresonant_by_subset_sums(t, lam)


@given(data=st.data())
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_the_infinity_weight_is_minus_the_sum_in_both_statements(data):
    # y_{n+1} = -(y_1 + ... + y_n) is stated symbolically in `y_coeffs` and
    # at a weight vector in `Weights.point`; both must give the oracle's
    # Fraction subset sum, which states the rule itself from lam.values
    n = data.draw(st.integers(1, 8))
    rationals = st.fractions(min_value=-7, max_value=7, max_denominator=30)
    lam = Weights(data.draw(st.lists(rationals, min_size=n, max_size=n)))
    S = tuple(sorted(data.draw(st.sets(st.integers(1, n + 1)))))
    expected = fraction_subset_sum(lam.values, S)
    assert Fraction(sum(lam.point[j - 1] for j in S), lam.d) == expected
    assert lam.subset_sum(S) == expected
    coeffs = y_coeffs(S, n)
    assert all(1 <= k <= n and type(c) is int and c for k, c in coeffs.items())
    assert sum((c * lam.values[k - 1] for k, c in coeffs.items()), Fraction(0)) == expected
    # y_S is the zero form for a nonempty S exactly when S is all of [n+1]
    assert (coeffs == {}) == (S in ((), tuple(range(1, n + 2))))
    assert y_coeffs(tuple(range(1, n + 2)), n) == {}


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


def test_a_realized_generic_type_shares_the_generic_store():
    # no dependent set up to size ell+1 makes a realized type generic, so it
    # reuses the derived data of generic_type; other types keep their own
    for n, ell in ((5, 2), (7, 3)):
        rows = [[str((j + 3) ** k) for k in range(ell + 1)] for j in range(1, n + 1)]
        t = CombinatorialType.from_arrangement(
            Arrangement.from_json({"ell": ell, "n": n, "rows": rows}))
        g = generic_type(n, ell)
        assert t is not g and t.realization is not g.realization
        assert build_aomoto(t) is build_aomoto(g)
    assert build_aomoto(selberg_type()) is not build_aomoto(generic_type(5, 2))


def test_weights_reject_non_rational_entries():
    for bad in (None, {"a": 1}, [1], float("nan"), float("inf"), 0.1, 1.5):
        with pytest.raises(ValueError, match="weight 2 is not a rational number"):
            Weights(["1", bad, "3"])
    # an integral float reads as its integer, as ell and n do
    assert Weights([2.0, "1/2"]).values == (2, Fraction(1, 2))
