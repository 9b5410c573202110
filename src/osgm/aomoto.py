"""Cochain complexes on the nbc basis with symbolic weights.

The differential in degree q sends a basis monomial a_T to the reduction of
(sum_j y_j e_j) e_T, a matrix of linear forms in y_1..y_n under the row
convention (row = image of the basis vector, maps act by v |-> v M).  It
is kept as sparse int rows keyed (col, j), the coefficient of y_j at
column col (see `osgm.linalg`): row T holds reduce(e_j e_T) at the keys
(col, j), one j at a time, so no two variables ever meet in one sum.
Specializing the variables at a rational weight vector gives the complex
whose cohomology is computed here, together with resonance queries.
What depends on the complex alone is done once per complex, the first
time it is specialized (`AomotoComplex.layouts`): the check that
D_{q-1} D_q = 0 as quadratic forms, and each differential's terms grouped
by column.  Per weight, `os_cohomology` specializes, straight to int rows
at the weights' int point N = D * lam (`Weights.nums`), only the rows of
each differential off the coboundary pivots, since the other rows span
those in a checked complex, and eliminates them, R, alone.  The
degree is exact exactly when R is independent; otherwise R, cut down to
the pivot columns of that elimination, is eliminated again beside an
identity block, and since ker = span(coboundaries) + ker R, a direct sum,
the kernel read back through the kept indices gives the representatives.
Its rows stay int, and only `element` and class coordinates make
Fractions.
"""

from fractions import Fraction
from functools import cached_property
from math import gcd

from .arrangement import dep_star
from .linalg import (
    _integer_echelon,
    add_scaled,
    by_column,
    clear_denominators,
    evaluate_int,
    form_matmul,
    image_and_kernel,
)
from .orlik_solomon import insertions, nbc_index, reduce_monomial
from .poly import dense_forms, parse_rational


class Weights:
    """Rational weight per hyperplane 1..n.  `d` is their common
    denominator D and `nums` the int point N = D * lam at which every map
    is specialized; `point` is N followed by D times the weight of the
    hyperplane at infinity, -(N_1 + ... + N_n), the one place that rule is
    evaluated (`poly.y_coeffs` states it symbolically)."""

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
        self.point = self.nums + (-sum(nums),)

    @property
    def n(self):
        return len(self.values)

    def check_length(self, n):
        """Refuse a vector that does not hold one weight per hyperplane 1..n."""
        if self.n != n:
            raise ValueError("expected %d values, got %d" % (n, self.n))

    def subset_sum(self, S):
        """lambda_S, the sum of the weights over S in [n+1], as a Fraction."""
        for j in S:
            if not 1 <= j <= self.n + 1:
                raise ValueError("weight index %d out of range 1..%d" % (j, self.n + 1))
        return Fraction(sum(self.point[j - 1] for j in S), self.d)

    def to_json(self):
        return [str(v) for v in self.values]


class AomotoComplex:
    """The weighted complex of a type on its nbc bases.

    The differential leaving degree q is kept as sparse int rows:
    rows[q][i] maps (k, j) to the nonzero coefficient of y_j in row i,
    column k of degree q+1.  `boundary` is the dense view.
    """

    def __init__(self, t, rows):
        self.t = t
        self.rows = rows  # rows[q][i] = {(k, j): c}, |nbc_q| rows, degrees q < ell
        self.index = nbc_index(t)  # index[q][T] = position of T in bases[q]
        self.bases = [list(index) for index in self.index]  # nbc monomials by degree

    @cached_property
    def layouts(self):
        """Each differential in the layout of `by_column`, built the first
        time the complex is specialized, once the complex is checked: for
        1 <= q < ell, D_{q-1} D_q must store no entry as a `form_matmul`,
        that is be zero as a matrix of quadratic forms, or it is refused."""
        for q in range(1, len(self.rows)):
            if any(form_matmul(self.rows[q - 1], self.rows[q])):
                raise ValueError("the differentials entering and leaving degree %d "
                                 "do not compose to zero" % q)
        return [by_column(rows) for rows in self.rows]

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
    """Row T of degree q holds reduce(e_j e_T) at the keys (col, j), signed
    as `insertions` yields it (see the `orlik_solomon` docstring)."""
    index = nbc_index(t)
    return AomotoComplex(t, [[{(cols[U], j): s * c for s, j, M in insertions(T, t.n)
                               for U, c in reduce_monomial(M, t).items()} for T in T_q]
                             for T_q, cols in zip(index, index[1:])])


class CohomologyData:
    """Representative cocycles per degree and the coboundaries that compare
    classes: rep_rows[q] and cob_rows[q] map each pivot, in order, to its int
    row from `linalg._integer_echelon` (the unit rows {j: 1} at the top degree),
    which stands for row / row[pivot] and is zero at the other pivots of its
    dict; a representative is zero at the coboundary pivots too.  `element`
    finds the k-th pivot in a list kept per degree.  Fractions are made only
    by `element` and the coordinates."""

    def __init__(self, rep_rows, cob_rows, bases):
        self.rep_rows, self.cob_rows, self.bases = rep_rows, cob_rows, bases
        self.dims = [len(reps) for reps in rep_rows]
        self._pivots = [list(reps) for reps in rep_rows]
        self._index = [{p: k for k, p in enumerate(piv)} for piv in self._pivots]

    def class_coords(self, q, vec):
        """Coordinates of the class of a sparse vector of ints or Fractions in
        the representative basis, or None off the cocycle-plus-coboundary span."""
        d, nums = clear_denominators(list(vec.values()))
        return self.int_coords(q, dict(zip(vec, nums)), d)

    def int_coords(self, q, v, s):
        """`class_coords` of v / s for a sparse int vector v, used up: with the
        coboundaries cleared, each coordinate is the entry at its representative's
        pivot over the scale, and nothing is left after the representatives."""
        s = _clear(v, self.cob_rows[q], s)
        coords, index = [Fraction(0)] * self.dims[q], self._index[q]
        for p, x in v.items():
            if p in index:
                coords[index[p]] = Fraction(x, s)
        _clear(v, self.rep_rows[q], 1)
        return None if v else coords

    def element(self, q, k):
        """The k-th representative as {monomial: Fraction}, over its pivot entry."""
        p = self._pivots[q][k]
        row = self.rep_rows[q][p]
        return {self.bases[q][j]: Fraction(c, row[p]) for j, c in sorted(row.items())}


def _clear(v, rows, s):
    """Clear the int vector v / s in place at the pivots of `rows`, each row
    zero at the others' pivots, and return its scale: x at the pivot of a row
    with pivot a goes as (a/g) v - (x/g) row, g = gcd(a, x), scaling s by a/g."""
    for p in [p for p in v if p in rows]:
        a, x = rows[p][p], v[p]
        g = gcd(a, x)
        if a != g:
            for j in v:
                v[j] *= a // g
            s *= a // g
        add_scaled(v, rows[p], -(x // g))
    return s


def os_cohomology(t, lam):
    """Cohomology of the Aomoto complex of t at the weights lam, eliminating
    only what each degree needs.

    With D the common denominator of lam and N = D * lam, the differential
    D_q evaluated at N is the int matrix m_q = D * D_q(lam).  In degree
    q < ell, with m = m_q:

    - The coboundaries of degree q times m must be zero.  That is checked
      once per complex, not per weight: `AomotoComplex.layouts` refuses the
      complex unless D_{q-1} D_q stores no entry as a `form_matmul`, for
      1 <= q < ell, which is exact, as quadratic forms.  Proof that this
      covers every weight: the coboundaries of degree q are
      `_integer_echelon` rows of rows of m_{q-1}, so they lie in its row
      space, and m_{q-1} m_q = D^2 (D_{q-1} D_q)(lam) = 0; so coboundaries
      times m_q are zero at every lam.  The row drop below rests on this
      check, not on a theorem.
    - `keep` lists the indices of m that are not coboundary pivots, and R
      holds the rows of m at them, the only ones specialized.  R alone is
      eliminated; its rows are the coboundaries of degree q+1.  Proof: a
      coboundary row z is reduced, so it is zero at the other pivots, and
      z m = 0; so the row of m at z's pivot is a combination of rows of R,
      and im m = row space R.
    - Degree q is exact exactly when R is independent, rank R = len(keep).
      Proof: from a closed v, subtracting v_p / z_p times each coboundary z
      at its pivot p leaves a closed cochain on `keep`, which R kills, and
      no nonzero sum of coboundaries vanishes on every pivot; so ker m =
      span(coboundaries) + ker R, a direct sum, and H^q = 0 iff ker R = 0.
      This rank test decides, not `weights_nonresonant`, so no theorem
      stands in for arithmetic; at nonresonant weights it finds every
      degree below ell exact.
    - Otherwise `image_and_kernel` eliminates D * [R' | I] once, R' the
      rows of R cut down to the pivot columns of R's elimination, and its
      kernel rows, with their indices read back through `keep`, are the
      representatives.  Proof: the pivot columns of R span its column
      space, so v R = 0 exactly when v R' = 0; the kernel is the same
      subspace, and its reduced basis is unique.  By the direct sum that
      basis is a basis of the closed cochains modulo the coboundaries, zero
      at every coboundary pivot; `keep` is increasing, so it stays reduced.
      So the representatives are the kernel rows of m whose pivot is not a
      coboundary pivot, and the reduced rows of R are those of m, each up
      to the sign of its int multiple.

    In the top degree every cochain is closed.  All rows stay int.
    """
    lam.check_length(t.n)
    c = build_aomoto(t)
    layouts = c.layouts
    reps, cobound, cob = [], [], {}
    for q in range(t.ell + 1):
        cobound.append(cob)
        if q < t.ell:
            layout = layouts[q]
            keep = [i for i in range(len(layout)) if i not in cob]
            sub = evaluate_int([layout[i] for i in keep], lam.nums, t.n)
            img, img_piv = _integer_echelon(sub)
            if len(img_piv) == len(keep):
                reps.append({})
            else:
                piv = set(img_piv)
                closed, closed_piv = image_and_kernel(
                    [{j: x for j, x in row.items() if j in piv} for row in sub], lam.d)[2:]
                reps.append({keep[p]: {keep[j]: x for j, x in z.items()}
                             for z, p in zip(closed, closed_piv)})
            cob = dict(zip(img_piv, img))
        else:
            # every cochain is closed, and reducing the unit vectors by the
            # coboundaries spans exactly the coordinates off their pivots
            reps.append({j: {j: 1} for j in range(len(c.bases[q])) if j not in cob})
    return CohomologyData(reps, cobound, c.bases)


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
    """Whether no condition of `nonresonance_conditions` (from the type's
    store) sums to a nonnegative integer.  With N = D * lam, the sum over S
    is s / D for the int s = sum of `lam.point` over S: a nonnegative integer
    exactly when s >= 0 and D divides s.  lam has one weight per 1..n."""
    lam.check_length(t.n)
    d, point = lam.d, lam.point
    for S in t.derived("nonresonance_conditions", nonresonance_conditions):
        s = sum(point[j - 1] for j in S)
        if s >= 0 and s % d == 0:
            return False
    return True
