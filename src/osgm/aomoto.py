"""Cochain complexes on the nbc basis with symbolic weights.

The differential in degree q sends a basis monomial a_T to the reduction of
(sum_j y_j e_j) e_T, a matrix of linear forms in y_1..y_n under the row
convention (row = image of the basis vector, maps act by v |-> v M).  It
is kept as sparse int rows keyed (col, j), the coefficient of y_j at
column col (see `osgm.linalg`): row T holds reduce(e_j e_T) at the keys
(col, j), one j at a time, so no two variables ever meet in one sum.
Specializing the variables at a rational weight vector gives the complex
whose cohomology is computed here, together with resonance queries.
`os_cohomology` specializes each differential straight to int rows at the
weights' int point N = D * lam (`Weights.nums`) and eliminates it once.
"""

from fractions import Fraction

from .arrangement import dep_star
from .linalg import clear_denominators, echelon_reduce, evaluate_int, image_and_kernel
from .orlik_solomon import insertions, nbc_basis, reduce_monomial
from .poly import dense_forms, parse_rational


class Weights:
    """Rational weight per hyperplane; index n+1 carries minus their sum.
    `d` is their common denominator D and `nums` the int point N = D * lam
    at which every map is specialized."""

    def __init__(self, values):
        vals = []
        for i, x in enumerate(values, start=1):
            if isinstance(x, str):
                try:
                    vals.append(parse_rational(x))
                except ValueError as e:
                    raise ValueError("weight %d: %s" % (i, e)) from None
                continue
            if isinstance(x, bool) or (isinstance(x, float) and not x.is_integer()):
                raise ValueError("weight %d is not a rational number: %r" % (i, x))
            try:
                vals.append(Fraction(x))
            except (TypeError, ValueError, OverflowError) as e:
                raise ValueError("weight %d is not a rational number: %r" % (i, x)) from e
        self.values = tuple(vals)
        self.d, nums = clear_denominators(vals)
        self.nums = tuple(nums)

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

    def to_json(self):
        return [str(v) for v in self.values]


class AomotoComplex:
    """The weighted complex of a type on its nbc bases.

    The differential leaving degree q is kept as sparse int rows:
    rows[q][i] maps (k, j) to the nonzero coefficient of y_j in row i,
    column k of degree q+1.  `boundary` is the dense view.
    """

    def __init__(self, t, bases, rows):
        self.t = t
        self.bases = bases  # bases[q] = nbc monomials of degree q
        self.rows = rows    # rows[q][i] = {(k, j): c}, |nbc_q| rows, degrees q < ell

    @property
    def boundary(self):
        """Dense |nbc_q| x |nbc_{q+1}| matrices of linear forms, per degree:
        a view built on demand for the tests and the benchmark's tracer;
        the command line and the demos print from `rows`."""
        return [dense_forms(r, len(self.bases[q + 1]), self.t.n)
                for q, r in enumerate(self.rows)]


def build_aomoto(t):
    """The weighted complex of a type, built once per type object."""
    return t.derived("aomoto", _build_aomoto)


def _build_aomoto(t):
    n = t.n
    bases = [nbc_basis(t, q) for q in range(t.ell + 1)]
    rows = []
    for q in range(t.ell):
        cols = {U: k for k, U in enumerate(bases[q + 1])}
        mat = []
        for T in bases[q]:
            row = {}
            for a, j, M in insertions(T, n):
                sgn = -1 if a % 2 else 1
                for U, c in reduce_monomial(M, t).items():
                    row[cols[U], j] = sgn * c
            mat.append(row)
        rows.append(mat)
    return AomotoComplex(t, bases, rows)


class CohomologyData:
    """Per-degree dimensions and echelon-canonical representative cocycles
    of the specialized complex, plus the reduced coboundary spaces needed to
    compare classes, each as sparse rows with its pivot columns."""

    def __init__(self, dims, reps, rep_pivots, cobound, cob_pivots, bases):
        self.dims = dims
        self.reps = reps              # reps[q]: rref rows, reduced mod coboundaries
        self.rep_pivots = rep_pivots  # their pivots, none of them a coboundary pivot
        self.cobound = cobound        # cobound[q]: rref rows of the coboundary space
        self.cob_pivots = cob_pivots
        self.bases = bases

    def class_coords(self, q, vec):
        """Coordinates of a cocycle's class in the representative basis,
        or None when the sparse vector is not in the cocycle-plus-coboundary
        span.

        After reduction by the coboundaries each coordinate is the entry at
        its representative's pivot; the vector is a member exactly when
        nothing is left once the representatives are taken off as well.
        """
        reduced = echelon_reduce(vec, self.cobound[q], self.cob_pivots[q])
        zero = Fraction(0)
        coords = [reduced.get(p, zero) for p in self.rep_pivots[q]]
        if echelon_reduce(reduced, self.reps[q], self.rep_pivots[q]):
            return None
        return coords

    def element(self, q, k):
        """The k-th representative as {monomial: coefficient}."""
        return {self.bases[q][j]: c for j, c in sorted(self.reps[q][k].items())}


def os_cohomology(t, lam):
    """Cohomology of the Aomoto complex of t at the weights lam, with one
    integer elimination per differential.

    With D the common denominator of lam and N = D * lam, the differential
    D_q evaluated at N is the int matrix D * D_q(lam), and
    `image_and_kernel` eliminates D * [D_q(lam) | I] once.  Its image rows
    are the coboundaries of degree q+1, its kernel rows the closed cochains
    of degree q.  The representatives of degree q are the kernel rows whose
    pivot is not a coboundary pivot.  Proof: im D_{q-1} lies in ker D_q, so
    every coboundary pivot is a kernel pivot; a reduced kernel row is zero
    at every other kernel pivot, so the rows kept are zero at every
    coboundary pivot, and there are dim ker - dim im of them, which makes
    them the reduced basis of the closed cochains modulo the coboundaries.
    The pivot inclusion is checked, and a complex whose differentials do
    not compose to zero is refused.
    """
    c = build_aomoto(t)
    dims, reps, rep_pivots, cobound, cob_pivots = [], [], [], [], []
    cob_rows, cob_piv = [], []
    for q in range(t.ell + 1):
        cobound.append(cob_rows)
        cob_pivots.append(cob_piv)
        taken = set(cob_piv)
        if q < t.ell:
            img, img_piv, closed, closed_piv = image_and_kernel(
                evaluate_int(c.rows[q], lam.nums, t.n), lam.d)
            if not taken <= set(closed_piv):
                raise ValueError("the differentials entering and leaving degree %d "
                                 "do not compose to zero" % q)
            canon, piv = [], []
            for z, p in zip(closed, closed_piv):
                if p not in taken:
                    canon.append(z)
                    piv.append(p)
            cob_rows, cob_piv = img, img_piv
        else:
            # every cochain is closed, and reducing the unit vectors by the
            # coboundaries spans exactly the coordinates off their pivots
            piv = [j for j in range(len(c.bases[q])) if j not in taken]
            canon = [{j: 1} for j in piv]
        dims.append(len(canon))
        reps.append(canon)
        rep_pivots.append(piv)
    return CohomologyData(dims, reps, rep_pivots, cobound, cob_pivots, c.bases)


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
    for fam in dep_star(t).values():
        conds.extend(fam)
    return sorted(conds, key=lambda S: (len(S), S))


def weights_nonresonant(t, lam):
    """Whether no condition of `nonresonance_conditions` sums to a
    nonnegative integer.  Over the weights' common denominator D, with
    N = D * lam, the sum over S is s / D for the int s = sum of N_j over S,
    and it is a nonnegative integer exactly when s >= 0 and D divides s."""
    d, nums = lam.d, lam.nums + (-sum(lam.nums),)
    for S in nonresonance_conditions(t):
        s = sum(nums[j - 1] for j in S)
        if s >= 0 and s % d == 0:
            return False
    return True
