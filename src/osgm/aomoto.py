"""Cochain complexes on the nbc basis with polynomial weights.

The differential in degree q sends a basis monomial a_T to the reduction of
(sum_j y_j e_j) e_T, a matrix over Q[y_1..y_n] under the row convention
(row = image of the basis vector, maps act by v |-> v M).  Specializing the
variables at a rational weight vector gives the complex whose cohomology is
computed here, together with resonance queries.
"""

from fractions import Fraction

from .linalg import (
    rref,
    kernel_basis,
    coset_reduce,
    solve_row_combination,
    mat_evaluate,
    identity_matrix,
)
from .orlik_solomon import nbc_basis, os_reduce, wedge
from .poly import Polynomial, parse_rational


class Weights:
    """Rational weight per hyperplane; index n+1 carries minus their sum."""

    def __init__(self, values):
        vals = []
        for x in values:
            vals.append(parse_rational(x) if isinstance(x, str) else Fraction(x))
        self.values = tuple(vals)

    @property
    def n(self):
        return len(self.values)

    def __getitem__(self, j):
        if 1 <= j <= self.n:
            return self.values[j - 1]
        if j == self.n + 1:
            return -sum(self.values)
        raise ValueError("weight index %d out of range 1..%d" % (j, self.n + 1))

    def subset_sum(self, S):
        return sum((self[j] for j in S), Fraction(0))

    def __eq__(self, other):
        return isinstance(other, Weights) and self.values == other.values

    def to_json(self):
        return [str(v) for v in self.values]


class AomotoComplex:

    def __init__(self, t, bases, boundary):
        self.t = t
        self.bases = bases        # bases[q] = nbc monomials of degree q
        self.boundary = boundary  # boundary[q]: |nbc_q| x |nbc_{q+1}| over Q[y]

    def boundary_at(self, lam, q):
        """Specialized differential leaving degree q (zero-width at the top)."""
        if q >= len(self.boundary):
            return [[] for _ in self.bases[q]]
        return mat_evaluate(self.boundary[q], lam.values)


def build_aomoto(t):
    n = t.n
    bases = [nbc_basis(t, q) for q in range(t.ell + 1)]
    boundary = []
    for q in range(t.ell):
        cols = {U: k for k, U in enumerate(bases[q + 1])}
        mat = []
        for T in bases[q]:
            x = {}
            for j in range(1, n + 1):
                w = wedge((j,), T)
                if w is None:
                    continue
                M, sgn = w
                x[M] = x.get(M, Polynomial.zero(n)) + Polynomial.variable(j, n) * sgn
            row = [Polynomial.zero(n)] * len(cols)
            for U, c in os_reduce(x, t).items():
                row[cols[U]] = c
            mat.append(row)
        boundary.append(mat)
    return AomotoComplex(t, bases, boundary)


class CohomologyData:
    """Per-degree dimensions and echelon-canonical representative cocycles
    of the specialized complex, plus the reduced coboundary spaces needed to
    compare classes."""

    def __init__(self, dims, reps, cobound, bases):
        self.dims = dims
        self.reps = reps          # reps[q]: list of row vectors, rref'd mod coboundaries
        self.cobound = cobound    # cobound[q]: rref rows of the coboundary space
        self.bases = bases

    def class_coords(self, q, vec):
        """Coordinates of a cocycle's class in the representative basis,
        or None when the vector is not in the cocycle-plus-coboundary span."""
        reduced = coset_reduce(list(vec), self.cobound[q])
        if not self.reps[q]:
            return [] if not any(reduced) else None
        return solve_row_combination(self.reps[q], reduced)

    def element(self, q, k):
        """The k-th representative as {monomial: coefficient}."""
        return {
            T: c for T, c in zip(self.bases[q], self.reps[q][k]) if c
        }


def os_cohomology(t, lam):
    c = build_aomoto(t)
    dims, reps, cobound = [], [], []
    for q in range(t.ell + 1):
        dim_q = len(c.bases[q])
        out_mat = c.boundary_at(lam, q)
        if not out_mat or not out_mat[0]:
            cocycles = identity_matrix(dim_q)
        else:
            cocycles = kernel_basis(out_mat)
        if q == 0:
            cob_rows, _ = rref([])
        else:
            cob_rows, _ = rref(c.boundary_at(lam, q - 1))
        cob_rows = [r for r in cob_rows if any(r)]
        reduced = [coset_reduce(z, cob_rows) for z in cocycles]
        canon, _ = rref(reduced)
        canon = [r for r in canon if any(r)]
        dims.append(len(canon))
        reps.append(canon)
        cobound.append(cob_rows)
    return CohomologyData(dims, reps, cobound, c.bases)


def in_resonance(t, lam, q, m, h=None):
    """Whether the specialized complex has at least m-dimensional degree-q
    cohomology; pass `os_cohomology(t, lam)` as `h` when it is at hand."""
    if not 0 <= q <= t.ell or m < 1:
        raise ValueError("need 0 <= q <= ell and m >= 1")
    if h is None:
        h = os_cohomology(t, lam)
    return h.dims[q] >= m


def nonresonance_conditions(t):
    """Subsets whose weight sums must avoid the nonnegative integers: the
    singletons of [n+1] and every starred dependent set.  Sufficient for
    cohomology to concentrate in the top degree; not claimed necessary."""
    conds = [(j,) for j in range(1, t.n + 2)]
    from .arrangement import dep_star

    for fam in dep_star(t).values():
        conds.extend(fam)
    return sorted(conds, key=lambda S: (len(S), S))


def weights_nonresonant(t, lam):
    for S in nonresonance_conditions(t):
        s = lam.subset_sum(S)
        if s.denominator == 1 and s >= 0:
            return False
    return True
