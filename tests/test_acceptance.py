"""End-to-end acceptance checks.

Each test reports one PASS/FAIL line per criterion; the lines are printed
in a terminal section at the end of the run (see conftest) so they stay
visible under output capture.
"""

import functools
import random
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

from osgm.aomoto import Weights, build_aomoto, os_cohomology, weights_nonresonant
from osgm.arrangement import Arrangement, CombinatorialType, generic_type
from osgm.cli import main as cli_main
from osgm.gauss_manin import (
    eigenspace_dims,
    gm_endomorphism,
    induce_on_type,
    omega_tilde,
    omega_tilde_sum,
    principal_dependence,
    spectrum_check,
)
from osgm.linalg import matmul, rank
from osgm.orlik_solomon import betti_numbers, nbc_basis, os_reduce
from conftest import record
from oracles import (Form, boundary_at, dense, dense_product, exterior_quotient_dims, form_rows,
                     rows_at, sparse, sparse_vector)

DATA = Path(__file__).resolve().parents[1] / "data"
SELBERG_FILE = str(DATA / "selberg.json")
DEGENERATE_FILE = str(DATA / "selberg-degenerate.json")
NONRES = ["1/2", "1/3", "1/5", "1/7", "1/11"]


def criterion(num, label):
    def wrap(func):
        @functools.wraps(func)
        def run(*args, **kwargs):
            try:
                func(*args, **kwargs)
            except BaseException:
                record("ACCEPTANCE %d: FAIL - %s" % (num, label))
                raise
            record("ACCEPTANCE %d: PASS - %s" % (num, label))
        return run
    return wrap


def selberg_type():
    return CombinatorialType.from_arrangement(Arrangement.from_file(SELBERG_FILE))


def y(*js):
    p = Form.zero(5)
    for j in js:
        p = p + Form.variable(j, 5)
    return p


Z = Form.zero(5)


def b_block():
    return [
        [y(4, 5), -y(4), -y(5)],
        [-y(3), y(3, 5), -y(5)],
        [-y(3), -y(4), y(3, 4)],
    ]


@criterion(1, "boundary matrices of the weighted complex")
def test_criterion_1():
    cx = build_aomoto(selberg_type())
    assert cx.bases[2] == [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)]
    assert cx.boundary[0] == [[y(1), y(2), y(3), y(4), y(5)]]
    expected = [
        [-y(3), -y(4), -y(5), Z, Z, Z],
        [Z, Z, Z, -y(3), -y(4), -y(5)],
        [y(1, 5), Z, -y(5), y(2), Z, Z],
        [Z, y(1), Z, Z, y(2, 5), -y(5)],
        [-y(3), Z, y(1, 3), Z, -y(4), y(2, 4)],
    ]
    assert cx.boundary[1] == expected


@criterion(2, "degree-two basis and rewriting onto it")
def test_criterion_2():
    t = selberg_type()
    basis = nbc_basis(t, 2)
    assert basis == [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)]

    def reduced(T):
        return os_reduce({T: Fraction(1)}, t)

    assert reduced((3, 5)) == {(1, 5): Fraction(1), (1, 3): Fraction(-1)}
    assert reduced((4, 5)) == {(2, 5): Fraction(1), (2, 4): Fraction(-1)}
    assert reduced((1, 2)) == {}
    assert reduced((3, 4)) == {}
    for T in basis:
        assert reduced(T) == {T: Fraction(1)}


@criterion(3, "formal connection matrices of the degeneration")
def test_criterion_3():
    e = omega_tilde_sum((3, 4, 5), 1, 5, 2)
    b = b_block()
    expected1 = [[Z] * 5 for _ in range(5)]
    for i in range(3):
        for j in range(3):
            expected1[2 + i][2 + j] = b[i][j]
    assert e.mats[1] == expected1
    expected2 = [[Z] * 10 for _ in range(10)]
    for i in range(3):
        for j in range(3):
            expected2[1 + i][1 + j] = b[i][j]
            expected2[4 + i][4 + j] = b[i][j]
    for i in range(7, 10):
        expected2[i][i] = y(3, 4, 5)
    assert e.mats[2] == expected2
    ind = induce_on_type(e, selberg_type())
    induced2 = [[Z] * 6 for _ in range(6)]
    for i in range(3):
        for j in range(3):
            induced2[i][j] = b[i][j]
            induced2[3 + i][3 + j] = b[i][j]
    assert ind.mats[2] == induced2


@criterion(4, "nonresonant action on top cohomology is the scalar weight sum")
def test_criterion_4():
    t = selberg_type()
    lam = Weights(NONRES)
    # the sums that must avoid the nonnegative integers for these weights
    conds = [(j,) for j in range(1, 7)]
    conds += [(1, 3, 5), (2, 4, 5), (1, 2, 6), (3, 4, 6)]
    for S in conds:
        s = lam.subset_sum(S)
        assert not (s.denominator == 1 and s >= 0), S
    h = os_cohomology(t, lam)
    assert h.dims == [0, 0, 2]
    ind = induce_on_type(omega_tilde_sum((3, 4, 5), 1, 5, 2), t)
    target = Fraction(167, 385)
    assert lam.subset_sum((3, 4, 5)) == target
    assert gm_endomorphism(ind, lam, 2, h=h) == [
        [target, Fraction(0)],
        [Fraction(0), target],
    ]
    rng = random.Random(2026)
    found = 0
    while found < 5:
        cand = Weights([Fraction(rng.randint(-40, 40), rng.randint(1, 12))
                        for _ in range(5)])
        if not weights_nonresonant(t, cand):
            continue
        found += 1
        s = cand.subset_sum((3, 4, 5))
        assert os_cohomology(t, cand).dims == [0, 0, 2]
        assert gm_endomorphism(ind, cand, 2) == [
            [s, Fraction(0)],
            [Fraction(0), s],
        ]


@criterion(5, "resonant action vanishes on both cohomology groups")
def test_criterion_5():
    t = selberg_type()
    lam = Weights(["1", "2", "2", "1", "-3"])
    h = os_cohomology(t, lam)
    assert h.dims[1] == 1
    assert h.dims[2] == 3
    # the surviving degree-1 class
    v = [Fraction(1), Fraction(-1), Fraction(-1), Fraction(1), Fraction(0)]
    cx = build_aomoto(t)
    image = dense_product([v], dense(boundary_at(cx, lam, 1), 6, Fraction(0)), Fraction(0))[0]
    assert not any(image)
    coords = h.class_coords(1, sparse_vector(v))
    assert coords is not None and any(coords)
    ind = induce_on_type(omega_tilde_sum((3, 4, 5), 1, 5, 2), t)
    assert gm_endomorphism(ind, lam, 1, h=h) == [[Fraction(0)]]
    assert gm_endomorphism(ind, lam, 2, h=h) == [[Fraction(0)] * 3 for _ in range(3)]


@criterion(6, "two-eigenvalue structure across the parameter grid")
def test_criterion_6():
    rng = random.Random(99)
    for n in range(2, 7):
        for ell in range(1, min(3, n) + 1):
            for s in range(2, n + 1):
                for r in range(1, min(ell, s - 1) + 1):
                    S = tuple(range(1, s + 1))
                    e = omega_tilde_sum(S, r, n, ell)
                    ok, witness = spectrum_check(e, S)
                    assert ok, (n, ell, s, r, witness)
                    for q in range(ell + 1):
                        d0, ds = eigenspace_dims(n, s, r, q)
                        assert d0 + ds == comb(n, q)
                    checked = 0
                    while checked < 3:
                        lam = Weights([
                            Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                            for _ in range(n)
                        ])
                        lam_s = lam.subset_sum(S)
                        if lam_s == 0:
                            continue
                        checked += 1
                        for q in range(ell + 1):
                            d0, ds = eigenspace_dims(n, s, r, q)
                            size = comb(n, q)
                            m = dense(rows_at(e.rows[q], lam.values, n), size, Fraction(0))
                            assert rank(sparse(m)) == ds, (n, ell, s, r, q)
                            shifted = [
                                [m[i][j] - (lam_s if i == j else Fraction(0))
                                 for j in range(size)]
                                for i in range(size)
                            ]
                            assert rank(sparse(shifted)) == d0, (n, ell, s, r, q)


@criterion(7, "oracle-backed property suites")
def test_criterion_7():
    # the differential squares to zero, symbolically
    squares = [generic_type(4, 1), generic_type(5, 2), generic_type(6, 3),
               selberg_type()]
    for t in squares:
        cx = build_aomoto(t)
        d = [form_rows(m, t.n) for m in cx.rows]
        for q in range(t.ell - 1):
            assert not any(matmul(d[q], d[q + 1]))
    # every basic endomorphism commutes with the differential
    cx = build_aomoto(generic_type(5, 2))
    d = [form_rows(m, 5) for m in cx.rows]
    for size in (2, 3, 4):
        for S in combinations(range(1, 7), size):
            w = [form_rows(m, 5) for m in omega_tilde(S, 5, 2).rows]
            for q in range(2):
                lhs = matmul(w[q], d[q])
                rhs = matmul(d[q], w[q + 1])
                assert lhs == rhs, S
    # basis counts against the brute-force quotient dimensions, and the
    # alternating-sum identity at random weights
    rng = random.Random(7)
    done = 0
    while done < 25:
        ell = rng.randint(1, 3)
        n = rng.randint(ell, 6)
        rows = [[str(rng.randint(-2, 2)) for _ in range(ell + 1)]
                for _ in range(n)]
        try:
            arr = Arrangement.from_json({"ell": ell, "n": n, "rows": rows})
        except ValueError:
            continue
        done += 1
        t = CombinatorialType.from_arrangement(arr)
        b = betti_numbers(t)
        assert b == exterior_quotient_dims(arr)
        euler = sum((-1) ** q * x for q, x in enumerate(b))
        for _ in range(10):
            lam = Weights([Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                           for _ in range(n)])
            dims = os_cohomology(t, lam).dims
            assert sum((-1) ** q * d for q, d in enumerate(dims)) == euler


@criterion(8, "principal dependence and command-line route agreement")
def test_criterion_8(capsys):
    t1 = CombinatorialType.from_arrangement(Arrangement.from_file(SELBERG_FILE))
    t2 = CombinatorialType.from_arrangement(Arrangement.from_file(DEGENERATE_FILE))
    assert principal_dependence(t2, t1) == ((3, 4, 5), 1)
    weights = ",".join(NONRES)
    code1 = cli_main(["gm", SELBERG_FILE, DEGENERATE_FILE, "--weights", weights])
    out1 = capsys.readouterr().out
    code2 = cli_main(["gm", SELBERG_FILE, "--pencil", "3,4,5", "1",
                      "--weights", weights])
    out2 = capsys.readouterr().out
    assert code1 == 0 and code2 == 0
    assert out1 == out2
    assert "pencil (S, r): S = {3,4,5}, r = 1" in out1
    assert "167/385" in out1
