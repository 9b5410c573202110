#!/usr/bin/env python3
# Walk through the five-line arrangement that is worked out end to end in
# the test suite: combinatorics, basis, weighted cohomology, and the
# connection matrices of the degeneration collapsing lines 3, 4, 5.

from fractions import Fraction
from pathlib import Path

from osgm.aomoto import Weights, build_aomoto, os_cohomology
from osgm.arrangement import Arrangement, CombinatorialType
from osgm.gauss_manin import gm_endomorphism, induce_on_type, omega_tilde_sum
from osgm.linalg import by_column
from osgm.orlik_solomon import betti_numbers, nbc_basis
from osgm.poly import format_form

DATA = Path(__file__).resolve().parents[1] / "data"


def form_texts(row, ncols):
    """The entries of a sparse row keyed (col, j), the coefficient of y_j
    at column col, as text, one per column."""
    cells = ["0"] * ncols
    for col, terms in by_column([row])[0]:
        cells[col] = format_form(terms)
    return cells


arr = Arrangement.from_file(DATA / "selberg.json")
t = CombinatorialType.from_arrangement(arr)

print("n = %d lines in C^%d" % (t.n, t.ell))
print("dependent triples of the projective closure:", t.dep[3])
print("betti numbers:", betti_numbers(t))
print("degree-2 basis:", nbc_basis(t, 2))

cx = build_aomoto(t)
print("\nboundary leaving degree 1 (rows act on the right):")
for T, row in zip(cx.bases[1], cx.rows[1]):
    print(" ", T, form_texts(row, len(cx.bases[2])))

# generic weights: everything concentrates in the top degree
lam = Weights(["1/2", "1/3", "1/5", "1/7", "1/11"])
h = os_cohomology(t, lam)
print("\ncohomology dimensions at", lam.to_json(), "->", h.dims)

# the pencil degeneration: lines 3, 4, 5 fall together (rank 1)
e = omega_tilde_sum((3, 4, 5), 1, t.n, t.ell)
ind = induce_on_type(e, t)
print("\ninduced connection matrix in degree 2:")
for row in ind.rows[2]:
    print(" ", form_texts(row, len(ind.rows[2])))

m = gm_endomorphism(ind, lam, 2, h=h)
print("\naction on the 2-dimensional top cohomology:")
for row in m:
    print(" ", [str(c) for c in row])
print("which is the scalar y3+y4+y5 =", lam.subset_sum((3, 4, 5)),
      "times the identity")

# resonant weights kill the action entirely
res = Weights(["1", "2", "2", "1", "-3"])
hres = os_cohomology(t, res)
print("\nresonant weights", res.to_json(), "-> dimensions", hres.dims)
for q in (1, 2):
    m = gm_endomorphism(ind, res, q, h=hres)
    print("action on H^%d:" % q, [[str(c) for c in row] for row in m])
