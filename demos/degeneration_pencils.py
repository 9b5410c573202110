#!/usr/bin/env python3
# Compare a degenerate arrangement against a generic one, recover the
# pencil that produces the degeneration, and check the eigenvalue
# structure the connection matrices are supposed to have.

from pathlib import Path

from osgm.arrangement import Arrangement, CombinatorialType
from osgm.gauss_manin import (
    eigenspace_dims,
    induce_on_type,
    omega_tilde_pair,
    omega_tilde_sum,
    principal_dependence,
    relative_multiplicities,
    spectrum_check,
)

DATA = Path(__file__).resolve().parents[1] / "data"

t1 = CombinatorialType.from_arrangement(Arrangement.from_file(DATA / "selberg.json"))
t2 = CombinatorialType.from_arrangement(
    Arrangement.from_file(DATA / "selberg-degenerate.json"))

print("generic dependent triples:  ", t1.dep[3])
print("degenerate dependent triples:", t2.dep[3])

S, r = principal_dependence(t2, t1)
print("\nthe degeneration comes from the pencil S = %r, r = %d" % (S, r))

# two ways to assemble the connection endomorphism: from the pencil, or
# from the dependences acquired in the degeneration.  They differ as raw
# sums but agree after passing to the quotient (see the test suite).
terms = relative_multiplicities(t2, t1)
print("\nacquired dependences and their multiplicities:")
for T, mult in sorted(terms.items()):
    print("  %r: %d" % (T, mult))

e_pair = omega_tilde_pair(t2, t1)
e_pencil = omega_tilde_sum(S, r, t1.n, t1.ell)
# no sparse row stores a zero, so rows are equal exactly when the matrices are
print("\nraw endomorphisms equal before inducing:", e_pair.rows == e_pencil.rows)

ind_pair = induce_on_type(e_pair, t1)
ind_pencil = induce_on_type(e_pencil, t1)
print("induced endomorphisms equal:", ind_pair.rows == ind_pencil.rows)

# eigenvalues of the pencil endomorphism are 0 and y_S; the multiplicity
# count is purely combinatorial
ok, witness = spectrum_check(e_pencil, S)
print("W(W - y_S) = 0 in every degree:", ok, witness or "")
print("\npredicted eigenvalue multiplicities (n=%d, |S|=%d, r=%d):"
      % (t1.n, len(S), r))
for q in range(t1.ell + 2):
    d0, ds = eigenspace_dims(t1.n, len(S), r, q)
    print("  degree %d: mult(0) = %2d, mult(y_S) = %2d" % (q, d0, ds))
