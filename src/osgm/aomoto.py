"""Cochain complexes on the nbc basis with symbolic weights.

The differential in degree q sends a basis monomial a_T to the reduction of
(sum_j y_j e_j) e_T, a matrix of linear forms in y_1..y_n under the row
convention (row = image of the basis vector, maps act by v |-> v M).
Specializing the variables at a rational weight vector gives the complex
whose cohomology is computed here, together with resonance queries.
"""

from fractions import Fraction

from .arrangement import dep_star
from .linalg import dense, echelon_reduce, evaluate_rows, image_and_kernel, rref
from .orlik_solomon import nbc_basis, os_reduce, wedge
from .poly import LinearForm, parse_rational


class Weights:
    """Rational weight per hyperplane; index n+1 carries minus their sum."""

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
    """The weighted complex of a type on its nbc bases.

    The differential leaving degree q is kept as sparse rows: rows[q][i]
    maps column k of degree q+1 to the nonzero linear form in row i,
    column k, with integer coefficients.  `boundary` is the dense view,
    built on demand for printing.
    """

    def __init__(self, t, bases, rows):
        self.t = t
        self.bases = bases  # bases[q] = nbc monomials of degree q
        self.rows = rows    # rows[q][i] = {k: form}, |nbc_q| rows, degrees q < ell

    @property
    def boundary(self):
        """Dense |nbc_q| x |nbc_{q+1}| matrices of linear forms, per degree."""
        zero = LinearForm.zero(self.t.n)
        return [dense(r, len(self.bases[q + 1]), zero) for q, r in enumerate(self.rows)]

    def boundary_at(self, lam, q):
        """Specialized differential leaving degree q as sparse rows of
        Fractions (empty rows at the top); only its nonzero entries are
        evaluated."""
        if q >= len(self.rows):
            return [{} for _ in self.bases[q]]
        return evaluate_rows(self.rows[q], lam.values)


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
            x = {}
            for j in range(1, n + 1):
                w = wedge((j,), T)
                if w is None:
                    continue
                M, sgn = w
                x[M] = LinearForm.variable(j, n) * sgn  # one j per M
            mat.append({cols[U]: c for U, c in os_reduce(x, t).items()})
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
    c = build_aomoto(t)
    dims, reps, rep_pivots, cobound, cob_pivots = [], [], [], [], []
    cob_rows, cob_piv = [], []
    for q in range(t.ell + 1):
        cobound.append(cob_rows)
        cob_pivots.append(cob_piv)
        if q < t.ell:
            # one elimination of the differential leaving degree q gives the
            # closed cochains of degree q and the coboundaries of degree q+1
            img, img_piv, closed = image_and_kernel(c.boundary_at(lam, q))
            canon, piv = rref([echelon_reduce(z, cob_rows, cob_piv) for z in closed])
            cob_rows, cob_piv = img, img_piv
        else:
            # every cochain is closed, and reducing the unit vectors by the
            # coboundaries spans exactly the coordinates off their pivots
            taken = set(cob_piv)
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
    for S in nonresonance_conditions(t):
        s = lam.subset_sum(S)
        if s.denominator == 1 and s >= 0:
            return False
    return True
