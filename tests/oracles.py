# Independent oracles used across test files.  These deliberately avoid the
# library's own elimination and reduction code so that every derived number
# has a second route.

from fractions import Fraction
from itertools import combinations
from math import lcm

from osgm.linalg import add_scaled, matmul, rank
from osgm.poly import LinearForm


# ---- linear and quadratic forms with arithmetic --------------------------------
# The library keeps matrices of linear forms as int rows keyed (col, j) and
# never computes with form objects.  The classes below are the form
# arithmetic it used to do, kept as the route its checks must agree with.


def _exact(c):
    """An int or Fraction as an int when it is integral."""
    return c.numerator if c.denominator == 1 else c


def _add_terms(terms, pairs):
    """A copy of the sparse coefficient map `terms` with each (key, c) of
    `pairs` added in, zero coefficients dropped."""
    out = dict(terms)
    for key, c in pairs:
        s = out.get(key, 0) + c
        if s:
            out[key] = _exact(s)
        else:
            out.pop(key, None)
    return out


class Form(LinearForm):
    """A `LinearForm` with a constructor that normalizes its coefficients,
    +, -, scalar multiples, the `Quadratic` product of two forms, and
    substitution.  It equals the library form with the same terms."""

    __slots__ = ()

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {j: _exact(Fraction(c)) for j, c in terms.items() if c} if terms else {}

    @classmethod
    def subset_sum(cls, S, nvars):
        """y_S = sum of y_j over j in S, where j = nvars+1 means the infinity
        weight -(y_1 + ... + y_nvars)."""
        coeffs = [0] * (nvars + 1)
        for j in S:
            if j == nvars + 1:
                for k in range(1, nvars + 1):
                    coeffs[k] -= 1
            else:
                coeffs[j] += 1
        return cls._of(nvars, {j: c for j, c in enumerate(coeffs) if c})

    @classmethod
    def variable(cls, j, nvars):
        """The variable y_j, 1-based, 1 <= j <= nvars."""
        if not 1 <= j <= nvars:
            raise ValueError("variable index %d out of range 1..%d" % (j, nvars))
        return cls._of(nvars, {j: 1})

    def __add__(self, other):
        if not isinstance(other, LinearForm):
            # 0 + form, as sums started from the integer 0 produce
            return self if other == 0 else NotImplemented
        if self.nvars != other.nvars:
            raise ValueError("mixed variable counts: %d vs %d" % (self.nvars, other.nvars))
        return Form._of(self.nvars, _add_terms(self.terms, other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return Form._of(self.nvars, {j: -c for j, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, LinearForm):
            return NotImplemented
        return self + (-lift(other))

    def __rsub__(self, other):
        return lift(other) - self

    def __mul__(self, other):
        """Scalar multiple, or the Quadratic product of two forms."""
        if isinstance(other, LinearForm):
            return Quadratic(_add_terms({}, (((j, k) if j <= k else (k, j), a * b)
                                             for j, a in self.terms.items()
                                             for k, b in other.terms.items())))
        c = other if other.__class__ is int else _exact(Fraction(other))
        if c == 1:
            return self
        if not c:
            return Form._of(self.nvars, {})
        return Form._of(self.nvars, {j: _exact(c * v) for j, v in self.terms.items()})

    __rmul__ = __mul__

    def substitute(self, mapping):
        """Image under y_j -> mapping[j] (a form); variables not in the
        mapping are left alone."""
        out = Form.zero(self.nvars)
        for j, c in self.terms.items():
            img = mapping.get(j)
            out = out + (lift(img) * c if img is not None else Form._of(self.nvars, {j: c}))
        return out

    def to_json(self):
        """The JSON record the command line prints for a form: one
        {"coefficient", "exponents"} per term, by ascending variable index."""
        out = []
        for j, c in sorted(self.terms.items()):
            expo = [0] * self.nvars
            expo[j - 1] = 1
            out.append({"coefficient": str(c), "exponents": expo})
        return out


class Quadratic:
    """A quadratic form, sum of c y_j y_k over j <= k, stored as
    {(j, k): c} with nonzero coefficients only.  Only the product of two
    forms makes one; it supports +, truthiness and ==."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = terms or {}

    def __add__(self, other):
        return Quadratic(_add_terms(self.terms, other.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Quadratic):
            return NotImplemented
        return self.terms == other.terms


def lift(x):
    """A form, or a (nested) list of them, as `Form`s with arithmetic;
    anything else is returned as it is."""
    if isinstance(x, list):
        return [lift(v) for v in x]
    if isinstance(x, LinearForm) and not isinstance(x, Form):
        return Form._of(x.nvars, dict(x.terms))
    return x


# ---- the command line's former output route ------------------------------------
# The command line prints matrices straight from sparse rows; these build the
# dense JSON tree and table it printed before, as the route its output must
# match byte for byte.


def form_matrix_json(m):
    """JSON tree of a dense matrix of forms."""
    return [[lift(entry).to_json() for entry in row] for row in m]


def rational_matrix_json(m):
    return [[str(c) for c in row] for row in m]


def fmt_table(rows):
    """Aligned lines of a dense matrix, each column as wide as its widest
    entry."""
    cells = [[str(x) for x in row] for row in rows]
    if not cells or not cells[0]:
        return ["  (empty)"]
    widths = [max(len(r[j]) for r in cells) for j in range(len(cells[0]))]
    return [
        "  [ " + "   ".join(c.rjust(w) for c, w in zip(row, widths)) + " ]"
        for row in cells
    ]


def dense(rows, ncols, zero):
    """The list-of-lists view of sparse rows, `zero` off their support."""
    return [[row.get(j, zero) for j in range(ncols)] for row in rows]


def key_rows(rows):
    """Sparse rows keyed (col, j) of sparse rows {col: form}, as the library
    keeps a matrix of linear forms, or keyed (col, j, k) of sparse rows
    {col: Quadratic}, as `form_matmul` returns a product."""
    return [{(col,) + (t if isinstance(t, tuple) else (t,)): c
             for col, f in row.items() for t, c in f.terms.items()} for row in rows]


def form_rows(rows, nvars):
    """Sparse rows {col: Form} of rows keyed (col, j): the representation
    the library used before, on which `matmul` multiplies forms."""
    out = []
    for row in rows:
        terms = {}
        for (col, j), c in row.items():
            terms.setdefault(col, {})[j] = c
        out.append({col: Form._of(nvars, t) for col, t in terms.items()})
    return out


def bareiss_rank(m):
    # fraction-free integer elimination
    m = [list(map(int, row)) for row in m]
    if not m:
        return 0
    rows, cols = len(m), len(m[0])
    prev = 1
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        if r == rows:
            break
    return r


def frac_rank(m):
    # plain rational elimination, written without reference to osgm.linalg
    m = [[Fraction(x) for x in row] for row in m]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = None
        for i in range(rank, len(m)):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def ideal_span_rows(arr, q):
    """Degree-q slice of the Orlik-Solomon ideal, by brute force.

    Multiplies every generator (boundary of a dependent set with nonempty
    intersection, or a monomial with empty intersection) by all exterior
    monomials up to degree q.  Returns (rows, monomial list); no
    broken-circuit theory is used anywhere here.
    """
    n, ell = arr.n, arr.ell

    def affine_nonempty(S):
        rows_full = [closure_row(arr, j) for j in S]
        rows_coef = [r[1:] for r in rows_full]
        return frac_rank(rows_coef) == frac_rank(rows_full)

    def dependent(S):
        return frac_rank([closure_row(arr, j) for j in S]) < len(S)

    gens = []  # (degree, {monomial: coeff})
    for size in range(1, ell + 2):
        for S in combinations(range(1, n + 1), size):
            if not affine_nonempty(S):
                gens.append((size, {S: Fraction(1)}))
            elif dependent(S):
                bd = {}
                for i in range(size):
                    T = S[:i] + S[i + 1:]
                    bd[T] = bd.get(T, Fraction(0)) + Fraction((-1) ** i)
                gens.append((size - 1, bd))

    monoms = list(combinations(range(1, n + 1), q))
    index = {T: i for i, T in enumerate(monoms)}
    span = []
    for gdeg, g in gens:
        extra = q - gdeg
        if extra < 0:
            continue
        for W in combinations(range(1, n + 1), extra):
            row = [Fraction(0)] * len(monoms)
            hit = False
            for T, c in g.items():
                if set(W) & set(T):
                    continue
                merged = sorted(W + T)
                # sign of the permutation sorting W followed by T
                seq = list(W + T)
                sign = 1
                for a in range(len(seq)):
                    for b in range(a + 1, len(seq)):
                        if seq[a] > seq[b]:
                            sign = -sign
                row[index[tuple(merged)]] += sign * c
                hit = True
            if hit and any(row):
                span.append(row)
    return span, monoms


def exterior_quotient_dims(arr):
    """Brute-force dim(E^q / I^q) for q = 0..ell."""
    dims = []
    for q in range(arr.ell + 1):
        span, monoms = ideal_span_rows(arr, q)
        dims.append(len(monoms) - (frac_rank(span) if span else 0))
    return dims


def _sort_sign(seq):
    # sorted tuple and the sign of the permutation that sorts seq
    sign = 1
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            if seq[a] > seq[b]:
                sign = -sign
    return tuple(sorted(seq)), sign


def leading_set_omega(k, n, ell):
    """Basic endomorphism of the leading set (1, ..., k) on the generic
    complex, written straight from its defining pattern in the affine
    generators.

    In degree k-1 the monomial missing j picks up the sign of (j, rest)
    times y_j times the boundary of e_{1..k}; in degree k the monomial
    e_{1..k} goes to the weighted one-form times that boundary.  Sets
    reaching past n act as zero.
    """
    zero = Form.zero(n)
    bases = [list(combinations(range(1, n + 1), p)) for p in range(ell + 1)]
    index = [{T: i for i, T in enumerate(b)} for b in bases]
    mats = [[[zero] * len(b) for _ in b] for b in bases]
    if k > n:
        return mats
    s0 = tuple(range(1, k + 1))
    bnd = [(s0[:a] + s0[a + 1:], (-1) ** a) for a in range(k)]
    if k - 1 <= ell:
        idx = index[k - 1]
        for j in s0:
            T = tuple(t for t in s0 if t != j)
            _, sgn = _sort_sign((j,) + T)
            row = mats[k - 1][idx[T]]
            for V, b in bnd:
                row[idx[V]] = row[idx[V]] + Form.variable(j, n) * (sgn * b)
    if k <= ell:
        idx = index[k]
        row = mats[k][idx[s0]]
        for U, b in bnd:
            for j in range(1, n + 1):
                if j not in U:
                    V, sgn = _sort_sign((j,) + U)
                    row[idx[V]] = row[idx[V]] + Form.variable(j, n) * (b * sgn)
    return mats


def dense_product(a, b, zero):
    # a @ b for list-of-lists matrices, `zero` the additive identity of the
    # products of entries
    out = []
    for row in a:
        acc = [zero] * (len(b[0]) if b else 0)
        for x, brow in zip(row, b):
            if x:
                for j, y in enumerate(brow):
                    if y:
                        acc[j] = acc[j] + x * y
        out.append(acc)
    return out


def sigma_for(S, n):
    """Order-preserving relabeling of [n+1] carrying 1..|S| onto sorted S."""
    S = tuple(sorted(S))
    inside = set(S)
    rest = tuple(j for j in range(1, n + 2) if j not in inside)
    return S + rest


def omega_tilde_by_conjugation(S, n, ell, sigma=None):
    """Matrices of the basic endomorphism of S by the relabeling route.

    A relabeling sigma of [n+1] carrying 1..|S| onto sorted S (the
    order-preserving one unless given) conjugates the leading-set
    endomorphism into place: inverse action, then the coefficient
    substitution, then the action.  Any such sigma must give the same
    matrices.
    """
    from osgm.gauss_manin import SigmaAction

    S = tuple(sorted(S))
    images = tuple(sigma) if sigma is not None else sigma_for(S, n)
    if images[:len(S)] != S:
        raise ValueError("sigma must carry 1..%d onto sorted S" % len(S))
    base = leading_set_omega(len(S), n, ell)
    act = SigmaAction(images, n, ell, validate=False)
    act_mats = relabeling_mats(act)
    inv_mats = relabeling_mats(relabeling_inverse(act))
    zero = Form.zero(n)
    return [
        dense_product(dense_product(inv_mats[p], [[relabel(act, c) for c in row]
                                                  for row in base[p]], zero),
                      act_mats[p], zero)
        for p in range(ell + 1)
    ]


def relabeling_mats(act):
    """Dense int matrices of a `SigmaAction`, per degree, from its rows."""
    return [dense(rows, len(rows), 0) for rows in act.rows]


def relabel(act, f):
    """The form f with each y_j replaced by its image under the relabeling
    `act` (a `SigmaAction`)."""
    return lift(f).substitute({j: Form._of(act.n, dict(t)) for j, t in act.subst.items()})


def relabeling_inverse(act):
    from osgm.gauss_manin import SigmaAction

    inv = [0] * (act.n + 1)
    for i, m in enumerate(act.images, start=1):
        inv[m - 1] = i
    return SigmaAction(tuple(inv), act.n, act.ell, validate=False)


def _relabeled_generator(images, n, i):
    """Coordinates of the image of e_i in the affine generators."""
    coords = [Fraction(0)] * n
    target = images[i - 1]
    m_inf = images[n]
    if m_inf == n + 1:
        coords[target - 1] = Fraction(1)
    elif target == n + 1:
        coords[m_inf - 1] = Fraction(-1)
    else:
        coords[target - 1] = Fraction(1)
        coords[m_inf - 1] -= Fraction(1)
    return coords


def relabeling_by_expansion(images, n, ell):
    """Dense Fraction matrices of the relabeling `images` of [n+1], per
    degree p <= ell, by expanding the product of the images of the
    generators one factor at a time, as `SigmaAction` used to; row T holds
    the coordinates of the image of e_T."""
    gen = [_relabeled_generator(images, n, i) for i in range(1, n + 1)]
    mats = [[[Fraction(1)]]]
    for p in range(1, ell + 1):
        subsets = list(combinations(range(1, n + 1), p))
        index = {T: k for k, T in enumerate(subsets)}
        out = []
        for T in subsets:
            acc = {(): Fraction(1)}
            for i in T:
                nxt = {}
                for mono, c in acc.items():
                    for m in range(1, n + 1):
                        cm = gen[i - 1][m - 1]
                        if not cm or m in mono:
                            continue
                        U, sgn = _sort_sign(mono + (m,))
                        val = nxt.get(U, Fraction(0)) + c * cm * sgn
                        if val:
                            nxt[U] = val
                        elif U in nxt:
                            del nxt[U]
                acc = nxt
            row = [Fraction(0)] * len(subsets)
            for U, c in acc.items():
                row[index[U]] = c
            out.append(row)
        mats.append(out)
    return mats


def _integer_rows(rows):
    # scaling a row keeps every rank, so clear each row's denominators
    out = []
    for row in rows:
        m = lcm(*(Fraction(x).denominator for x in row))
        out.append([int(Fraction(x) * m) for x in row])
    return out


def closure_row(a, j):
    """Row j of the projective closure matrix of the realization a,
    1-based; j = n+1 is infinity's row (1, 0, ..., 0)."""
    if j == a.n + 1:
        return (Fraction(1),) + (Fraction(0),) * a.ell
    return a.rows[j - 1]


def affine_empty_by_rank(a):
    """Subsets of [n] of sizes 2..ell+1 with no common affine point, sorted,
    found by comparing the rank of the coefficient rows with that of the
    full rows for every such subset."""
    return sorted(S for q in range(2, min(a.ell + 1, a.n) + 1)
                  for S in combinations(range(1, a.n + 1), q) if not _affine_nonempty(a, S))


def subset_rank(a, S):
    """Rank of the closure rows of S in the realization a, infinity's row
    included as n+1, by `bareiss_rank` on the rows `closure_row` gives."""
    return bareiss_rank(_integer_rows(closure_row(a, j) for j in S))


def dependent_subsets(a, q):
    """All dependent q-subsets of [n+1], sorted."""
    if q < 2 or q > a.n + 1:
        raise ValueError("subset size must be between 2 and n+1")
    return [S for S in combinations(range(1, a.n + 2), q) if subset_rank(a, S) < len(S)]


def _affine_nonempty(a, S):
    """Whether the hyperplanes of S (subset of [n]) share an affine point:
    their coefficient rows have the rank of their full rows."""
    full = _integer_rows(closure_row(a, j) for j in S)
    return bareiss_rank([r[1:] for r in full]) == bareiss_rank(full)


def type_by_two_walks(a):
    """The type of the realization a by two walks: one over the subsets of
    [n+1] for dependence, one over the subsets of [n] for emptiness, where
    each dependent set is ranked a second time with and without its
    constant terms.  `CombinatorialType.from_arrangement` finds the same
    type in one walk."""
    from osgm.arrangement import CombinatorialType

    dep = {}
    for q in range(2, min(a.ell + 1, a.n + 1) + 1):
        dep[q] = dependent_subsets(a, q)
    dependent = set().union(*dep.values())
    # emptiness matters up to size ell+1: a dependent set of that size
    # with no common affine point contributes e_S, not a circuit.  For
    # independent S the coefficient rows have rank rank(S + infinity) - 1,
    # so S is empty exactly when adding infinity makes it dependent,
    # which always happens at size ell+1.  Only dependent S need ranks.
    empty = []
    for q in range(2, min(a.ell + 1, a.n) + 1):
        for S in combinations(range(1, a.n + 1), q):
            if S in dependent:
                if not _affine_nonempty(a, S):
                    empty.append(S)
            elif q == a.ell + 1 or S + (a.n + 1,) in dependent:
                empty.append(S)
    return CombinatorialType(a.n, a.ell, dep, empty, realization=a)


def type_by_subset_eliminations(a):
    """The type of the realization a by one elimination per subset S of
    [n] with 2 <= |S| <= ell+1: the library's walk before it carried null
    spaces down the subset tree, kept as a second oracle.  It runs
    `linalg._integer_echelon` on the rows of S, times their common
    denominator, with the constant b0 moved last to column ell.  r pivots
    make S dependent when r < |S|, and column ell is a pivot exactly when
    S has no common affine point (Rouche-Capelli).  Infinity's row is the
    unit vector of column ell, so S + {n+1} is dependent when S is or
    column ell is a pivot.  A pair {j, n+1} is dependent only when row j
    has no coefficient part."""
    from osgm.arrangement import CombinatorialType
    from osgm.linalg import _integer_echelon, clear_denominators

    n, ell = a.n, a.ell
    rows = [{k: x for k, x in enumerate(b[1:] + b[:1]) if x}
            for b in (clear_denominators(r)[1] for r in a.rows)]
    dep = {2: [(j, n + 1) for j in range(1, n + 1) if rows[j - 1].keys() <= {ell}]}
    dep.update((q, []) for q in range(3, min(ell + 1, n + 1) + 1))
    empty = []
    for size in range(2, min(ell + 1, n) + 1):
        for S in combinations(range(1, n + 1), size):
            pivots = _integer_echelon([rows[j - 1] for j in S])[1]
            if len(pivots) < size:
                dep[size].append(S)
            if ell in pivots:
                empty.append(S)
            if size <= ell and (len(pivots) < size or ell in pivots):
                dep[size + 1].append(S + (n + 1,))
    return CombinatorialType(n, ell, dep, empty, realization=a)


def pencil_realization(n, ell, S, r):
    """Explicit rational arrangement of the pencil type on (S, r), the
    witness the tests build pencil types from.

    Hyperplane j gets the moment row (1, t_j, ..., t_j^ell) at node t_j = j;
    members of S are replaced by combinations (1, t_j, ..., t_j^(r-1)) of r
    fixed moment rows, so any r of them are independent and everything else
    stays generic.  The infinity row is the moment row at node 0, which is
    why a pencil containing n+1 forces node 0 into the pencil's row space
    and needs r >= 2 to keep the members honest affine hyperplanes.
    """
    from osgm.arrangement import Arrangement, check_pencil_rank

    S = tuple(sorted(S))
    check_pencil_rank(S, r, ell)
    if not set(S) <= set(range(1, n + 2)):
        raise ValueError("S must be a subset of [n+1]")
    if n + 1 in S and r == 1:
        raise ValueError("a rank-1 pencil through infinity is not an affine arrangement")

    def moment(t, width):
        return [Fraction(t) ** k for k in range(width)]

    # base rows of the pencil's subspace; node 0 is included exactly when
    # the infinity hyperplane belongs to the pencil
    base_nodes = ([0] if n + 1 in S else [n + 1]) + [n + 1 + k for k in range(1, r)]
    base = [moment(c, ell + 1) for c in base_nodes]
    rows = []
    for j in range(1, n + 1):
        if j in S:
            w = moment(j, r)
            row = [sum(w[k] * base[k][c] for k in range(r)) for c in range(ell + 1)]
        else:
            row = moment(j, ell + 1)
        rows.append(tuple(row))
    # built directly: the witness matrix for a pencil type need not be
    # essential (e.g. every hyperplane in one rank-1 pencil), and the
    # closed-form agreement test covers exactly those ranks
    return Arrangement(ell, n, rows)


def pencil_rank(K, S, r, ell):
    """Rank of the rows of K when the rows of S lie in a generic rank-r
    subspace and everything else is generic."""
    K, S = set(K), set(S)
    return min(ell + 1, min(len(K & S), r) + len(K - S))


def multiplicity_pencil(K, S, r, ell, n):
    """Multiplicity |K| - rank of K in the pencil type on (S, r), from the
    rank rule `pencil_rank` for any subset K of [n+1]: the cross-check of
    the closed form in `gauss_manin.pencil_sum_terms`."""
    from osgm.arrangement import check_pencil_rank

    check_pencil_rank(S, r, ell)
    if not set(K) <= set(range(1, n + 2)):
        raise ValueError("K must be a subset of [n+1]")
    return len(K) - pencil_rank(K, S, r, ell)


def type_to_json(t):
    """A combinatorial type as a JSON record, and back."""
    return {
        "n": t.n,
        "ell": t.ell,
        "dep": {str(q): [list(S) for S in fam] for q, fam in t.dep.items()},
        "affine_empty": [list(S) for S in t.affine_empty],
    }


def type_from_json(data):
    from osgm.arrangement import CombinatorialType

    dep = {int(q): [tuple(S) for S in fam] for q, fam in data["dep"].items()}
    empty = [tuple(S) for S in data["affine_empty"]]
    return CombinatorialType(data["n"], data["ell"], dep, empty)


def generic_type_by_rank(n, ell):
    """The generic type on the moment-curve rows (1, j, .., j^ell), found by
    rank-testing every stored subset, for dependence and affine emptiness
    alike, instead of from the closed form."""
    from osgm.arrangement import Arrangement, CombinatorialType

    rows = [tuple(Fraction(j) ** k for k in range(ell + 1)) for j in range(1, n + 1)]
    a = Arrangement(ell, n, rows)
    dep = {q: [S for S in combinations(range(1, n + 2), q)
               if bareiss_rank([closure_row(a, j) for j in S]) < q]
           for q in range(2, min(ell + 1, n + 1) + 1)}
    return CombinatorialType(n, ell, dep, affine_empty_by_rank(a), realization=a)


def is_starred(t, S):
    """Dependent with a common point in the projective closure, from the
    definition: plain dependence up to size ell+1, and beyond that every
    (ell+1)-subset dependent."""
    S = tuple(sorted(S))
    if len(S) < 2:
        return False
    if len(S) <= t.ell + 1:
        return t.is_dependent(S)
    return all(t.is_dependent(J) for J in combinations(S, t.ell + 1))


def circuits_by_walk(t):
    """Minimal dependent subsets of [n] with a common affine point, by
    testing every subset of [n] of size at most ell+1."""
    out = []
    for size in range(2, min(t.ell + 1, t.n) + 1):
        for S in combinations(range(1, t.n + 1), size):
            if not t.is_dependent(S) or t.has_empty_intersection(S):
                continue
            if any(set(C) < set(S) for C in out):
                continue
            out.append(S)
    return sorted(out)


def broken_circuits(t):
    """Each circuit of `orlik_solomon.circuits` with its minimum removed,
    sorted and listed once: what the library's "breaking" table must be
    keyed by."""
    from osgm.orlik_solomon import circuits

    return sorted({C[1:] for C in circuits(t)})


def nbc_basis_by_filter(t, q):
    """Degree-q nbc basis by a direct filter: the q-subsets of [n] with a
    nonempty intersection and none of the walk's circuits, its minimum
    removed, inside."""
    broken = {C[1:] for C in circuits_by_walk(t)}
    return [S for S in combinations(range(1, t.n + 1), q)
            if not (len(S) >= 2 and t.has_empty_intersection(S))
            and not any(set(B) <= set(S) for B in broken)]


def breaking_circuit_by_scan(S, circuits):
    """(B, C) for a sorted set S: B the lexicographically least broken
    circuit inside S, C the first of the sorted circuits with C minus its
    minimum equal to B, found by scanning them; None when S holds none."""
    B = min((C[1:] for C in circuits if set(C[1:]) <= set(S)), default=None)
    return None if B is None else (B, next(C for C in circuits if C[1:] == B))


def reduce_by_scan(S, t, circuits=None):
    """e_S rewritten into the nbc basis without the library's table or memo:
    through `breaking_circuit_by_scan` on the walk's circuits, e_B replaced
    by the alternating sum of e_{C minus c} over c in B."""
    circuits = circuits_by_walk(t) if circuits is None else circuits
    if len(S) > t.ell or (len(S) >= 2 and t.has_empty_intersection(S)):
        return {}
    found = breaking_circuit_by_scan(S, circuits)
    if found is None:
        return {S: 1}
    B, C = found
    rest = tuple(j for j in S if j not in B)
    outer = _sort_sign(B + rest)[1]
    out = {}
    for i in range(1, len(C)):
        seq = C[:i] + C[i + 1:] + rest
        if len(set(seq)) == len(seq):
            M, inner = _sort_sign(seq)
            add_scaled(out, reduce_by_scan(M, t, circuits), (-1) ** (i + 1) * outer * inner)
    return out


def aomoto_rows_by_scan(t):
    """(bases, rows) of `aomoto.build_aomoto(t)` with no library sign code:
    the bases from `nbc_basis_by_filter`, and row T of degree q holding
    `reduce_by_scan` of e_j e_T, sorted and signed by `_sort_sign`, at the
    keys (col, j)."""
    circuits = circuits_by_walk(t)
    bases = [nbc_basis_by_filter(t, q) for q in range(t.ell + 1)]
    rows = []
    for q in range(t.ell):
        col = {U: k for k, U in enumerate(bases[q + 1])}
        mat = []
        for T in bases[q]:
            row = {}
            for j in range(1, t.n + 1):
                if j not in T:
                    M, sgn = _sort_sign((j,) + T)
                    for U, c in reduce_by_scan(M, t, circuits).items():
                        row[col[U], j] = sgn * c
            mat.append(row)
        rows.append(mat)
    return bases, rows


def projection_by_scan(t, q):
    """`orlik_solomon.projection_matrix` from `nbc_basis_by_filter` and
    `reduce_by_scan`."""
    col = {T: i for i, T in enumerate(nbc_basis_by_filter(t, q))}
    circuits = circuits_by_walk(t)
    return [{col[U]: c for U, c in reduce_by_scan(S, t, circuits).items()}
            for S in combinations(range(1, t.n + 1), q)]


def dep_star_by_walk(t):
    """Starred sets of every size 2..n+1, by testing every subset of [n+1]."""
    return {q: [S for S in combinations(range(1, t.n + 2), q) if is_starred(t, S)]
            for q in range(2, t.n + 2)}


def pencil_profile_by_walk(S, r, n, ell):
    """Starred sets of the pencil type on (S, r), by testing every subset of
    [n+1] with `pencil_starred`."""
    from osgm.arrangement import pencil_starred

    return {K for q in range(2, n + 2) for K in combinations(range(1, n + 2), q)
            if pencil_starred(K, S, r, ell)}


def principal_dependence_by_walk(t_special, t_general):
    """Pencil recovery by whole-subset walks: starred sets of both types and
    the profile of every candidate (S, r) found by testing every subset."""
    from osgm.arrangement import compare_types, pencil_starred
    from osgm.gauss_manin import NotCovered

    if compare_types(t_special, t_general) != "t2_finer":
        raise ValueError("first type must have strictly more dependent sets")
    n, ell = t_special.n, t_special.ell
    star_sp, star_gen = dep_star_by_walk(t_special), dep_star_by_walk(t_general)
    sp_all = set().union(*star_sp.values())
    new = set()
    for q in star_sp:
        new.update(set(star_sp[q]) - set(star_gen[q]))
    found = [(S, r) for S in sorted(new) for r in range(1, min(ell, len(S) - 1) + 1)
             if all(pencil_starred(K, S, r, ell) for K in new)
             and pencil_profile_by_walk(S, r, n, ell) <= sp_all]
    if not found:
        raise NotCovered("no single pencil accounts for the degeneration")
    if len(found) > 1:
        raise NotCovered("principal dependence is not unique: %r" % (found,))
    return found[0]


def dense_rref(m):
    """Reduced row echelon form by full-width row operations, zeros
    included: the elimination the library's sparse kernel must reproduce.
    Returns (rows, pivot columns), zero rows kept at the bottom."""
    rows = [[Fraction(x) for x in row] for row in m]
    pivots = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        lead = rows[r][c]
        rows[r] = [x / lead for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def fraction_rref(m):
    """Reduced row echelon form of sparse rows, every step in Fraction
    arithmetic: the sparse kernel `osgm.linalg.rref` used before it
    eliminated over int, kept as the reference it must reproduce.

    Returns (rows, pivot_columns): the nonzero rows of the reduced form,
    in pivot order, each holding its pivot entry 1.  The input is not
    modified.
    """
    rows = [dict(r) for r in m if r]
    nrows = len(rows)
    pivots = []
    r = 0
    for c in sorted(set().union(*rows)):
        for i in range(r, nrows):
            if c in rows[i]:
                break
        else:
            continue
        prow = rows[i]
        rows[i] = rows[r]
        rows[r] = prow
        # left of c the pivot row is zero: earlier columns are cleared or
        # had no nonzero entry in the rows not yet used as pivots
        inv = Fraction(1) / prow.pop(c)
        support = {j: b * inv for j, b in prow.items()}
        prow.update(support)
        prow[c] = Fraction(1)
        for row in rows:
            if c in row and row is not prow:
                add_scaled(row, support, -row.pop(c))
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows[:r], pivots


def weights_nonresonant_by_subset_sums(t, lam):
    """The sufficient nonresonance test with each condition's weight sum
    taken as a Fraction: no singleton or starred dependent set may sum to
    a nonnegative integer."""
    from osgm.aomoto import nonresonance_conditions

    for S in nonresonance_conditions(t):
        s = fraction_subset_sum(lam.values, S)
        if s.denominator == 1 and s >= 0:
            return False
    return True


def dense_left_null_space(m):
    """A basis of {v : v @ m = 0} for a dense matrix, one vector per free
    column of `dense_rref` of the transpose; a matrix of zero width is
    killed by every vector."""
    nrows = len(m)
    red, piv = dense_rref([list(col) for col in zip(*m)])
    basis = []
    for free in (j for j in range(nrows) if j not in piv):
        v = [Fraction(int(j == free)) for j in range(nrows)]
        for row, p in zip(red, piv):
            v[p] = -row[free]
        basis.append(v)
    return basis


def class_coords_by_solving(h, q, vec):
    """Class coordinates of the sparse vector vec by the solving route:
    reduce modulo the coboundaries with a fresh elimination, then solve for
    a combination of the representatives, each divided by its pivot entry
    here.  None when vec is not a cocycle."""
    from osgm.linalg import rref, solve_row_combination

    rows, pivots = rref(reduced(h.cob_rows[q]))
    reps = reduced(h.rep_rows[q])
    return solve_row_combination(reps, echelon_reduce(vec, rows, pivots))


def rows_at(rows, lam, nvars):
    """Sparse rows of linear forms keyed (col, j) at the Fraction point
    lam, entry by entry through `form_value`, as sparse rows of Fractions."""
    return [{col: v for col, f in row.items() if (v := form_value(f, lam))}
            for row in form_rows(rows, nvars)]


def gm_by_solving(e, lam, q, h):
    """`gm_endomorphism` by the dense route: degree q of e specialized
    entry by entry at lam, each representative of h times it, and the
    class coordinates of each image from `class_coords_by_solving`."""
    zero = Fraction(0)
    m = mat_evaluate(e.mats[q], lam.values)
    images = dense_product(dense(reduced(h.rep_rows[q]), len(m), zero), m, zero)
    return [class_coords_by_solving(h, q, sparse_vector(img)) for img in images]


def boundary_at(cx, lam, q):
    """The differential of the complex cx leaving degree q at the weights
    lam, as sparse rows of Fractions (empty rows at the top)."""
    if q >= len(cx.rows):
        return [{} for _ in cx.bases[q]]
    return rows_at(cx.rows[q], lam.values, cx.t.n)


def cohomology_by_two_eliminations(t, lam):
    """(dims, reps, rep_pivots, cobound, cob_pivots) of `os_cohomology` by
    two eliminations per degree: the Fraction differential through
    `image_and_kernel`, its rows divided by their pivots here, then the
    closed cochains reduced by the coboundaries of the degree below with
    `echelon_reduce` and echelonized by a second `rref`."""
    from osgm.aomoto import build_aomoto
    from osgm.linalg import image_and_kernel, rref

    c = build_aomoto(t)
    dims, reps, rep_pivots, cobound, cob_pivots = [], [], [], [], []
    cob_rows, cob_piv = [], []
    for q in range(t.ell + 1):
        cobound.append(cob_rows)
        cob_pivots.append(cob_piv)
        if q < t.ell:
            img, img_piv, closed, closed_piv = image_and_kernel(boundary_at(c, lam, q))
            closed = divided_by_pivots(closed, closed_piv)
            canon, piv = rref([echelon_reduce(z, cob_rows, cob_piv) for z in closed])
            cob_rows, cob_piv = divided_by_pivots(img, img_piv), img_piv
        else:
            taken = set(cob_piv)
            piv = [j for j in range(len(c.bases[q])) if j not in taken]
            canon = [{j: Fraction(1)} for j in piv]
        dims.append(len(canon))
        reps.append(canon)
        rep_pivots.append(piv)
    return dims, reps, rep_pivots, cobound, cob_pivots


def cohomology_reps_by_elimination(t, lam):
    """Representative classes of the specialized Aomoto complex and their
    pivots, per degree, by dense elimination throughout: closed cochains
    from the null space of the transposed differential, reduced modulo
    the echelonized coboundaries, then echelonized.  The representatives
    are dense rows."""
    from osgm.aomoto import build_aomoto

    c = build_aomoto(t)
    out = []
    for q in range(t.ell + 1):
        size = len(c.bases[q])
        closed = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
        if q < t.ell:
            closed = dense_left_null_space(
                [[form_value(e, lam.values) for e in row] for row in c.boundary[q]])
        cob, cob_piv = [], []
        if q:
            d = [[form_value(e, lam.values) for e in row] for row in c.boundary[q - 1]]
            cob, cob_piv = dense_rref(d)
        reduced = []
        for v in closed:
            for row, p in zip(cob, cob_piv):
                f = v[p]
                v = [a - f * b for a, b in zip(v, row)]
            reduced.append(v)
        reps, piv = dense_rref(reduced)
        out.append((reps[:len(piv)], piv))
    return out


# ---- symbolic products by evaluation -----------------------------------------
# Every entry of a product of two linear-form matrices is a quadratic form
# with no linear or constant part.  Its value at e_j is the coefficient of
# y_j^2, and its value at e_j + e_k adds the coefficient of y_j y_k, so a
# quadratic form that vanishes at all of these points is zero.  The routes
# below decide the library's exact symbolic identities that way, through
# rational matrices only.


def quadratic_value(f, point):
    """Value of a `Quadratic` at a rational point, from its coefficients."""
    return sum((c * point[j - 1] * point[k - 1] for (j, k), c in f.terms.items()),
               Fraction(0))


def probe_points(n):
    """The points e_j and e_j + e_k (j < k) of Q^n."""
    units = [tuple(Fraction(int(i == j)) for i in range(n)) for j in range(n)]
    return units + [tuple(a + b for a, b in zip(units[j], units[k]))
                    for j, k in combinations(range(n), 2)]


def _specialize(m, point):
    return [[form_value(f, point) for f in row] for row in m]


def products_agree_by_evaluation(a, b, c, d, n):
    """Whether a @ b equals c @ d, for linear-form matrices in n variables,
    decided by comparing the specialized products at every probe point."""
    zero = Fraction(0)
    return all(
        dense_product(_specialize(a, p), _specialize(b, p), zero)
        == dense_product(_specialize(c, p), _specialize(d, p), zero)
        for p in probe_points(n))


def chain_failure_by_evaluation(cx, mats):
    """First degree q where W_q D_q != D_q W_{q+1}, or None, with every
    identity decided at the probe points."""
    n = cx.t.n
    for q in range(len(mats) - 1):
        d = cx.boundary[q]
        if not products_agree_by_evaluation(mats[q], d, d, mats[q + 1], n):
            return q
    return None


def spectrum_check_by_evaluation(e, S):
    """`spectrum_check` at the probe points: (True, None), or (False, the
    first degree and row-major entry where M (M - y_S I) is nonzero at some
    probe point)."""
    n = e.cx.t.n
    zero = Fraction(0)
    for q, m in enumerate(e.mats):
        bad = set()
        for p in probe_points(n):
            ys = sum((-sum(p) if j == n + 1 else p[j - 1] for j in S), zero)
            spec = _specialize(m, p)
            shifted = [[x - ys if i == k else x for k, x in enumerate(row)]
                       for i, row in enumerate(spec)]
            prod = dense_product(spec, shifted, zero)
            bad.update((i, k) for i, row in enumerate(prod) for k, x in enumerate(row) if x)
        if bad:
            i, k = min(bad)
            return False, {"degree": q, "row": i, "col": k}
    return True, None


# ---- helpers that used to live in the library ---------------------------------
# Only the tests use these, so they live here.


def coset_reduce(v, basis):
    """Canonical representative of the dense vector v modulo the row span
    of the dense matrix basis, by `dense_rref`.

    Reduces v so its entries vanish at every pivot column of the span;
    two vectors reduce to the same result iff they differ by an element
    of the span.
    """
    v = list(v)
    if not basis:
        return v
    rows, pivots = dense_rref(basis)
    for row, p in zip(rows, pivots):
        f = v[p]
        if f:
            v = [a - f * b for a, b in zip(v, row)]
    return v


def echelon_reduce(v, rows, pivots):
    """The sparse vector v minus the combination of rows that clears every
    pivot column.

    `rows` and `pivots` are the nonzero rows of a reduced row echelon form
    and their pivot columns, as `rref` returns them; the coefficient of
    row i is the entry of v at its pivot, since no other row touches that
    column.  The result is empty exactly when v lies in the row span.
    """
    v = dict(v)
    for row, p in zip(rows, pivots):
        f = v.get(p)
        if f:
            # row[p] is 1, so this also clears the pivot entry of v
            add_scaled(v, row, -f)
    return v


def divided_by_pivots(rows, pivots):
    """Sparse rows each divided by its entry at its pivot, as Fractions:
    the reduced rows that the int rows of `image_and_kernel` stand for."""
    return [{j: Fraction(x) / row[p] for j, x in row.items()} for row, p in zip(rows, pivots)]


def reduced(rows):
    """The reduced rows a {pivot: int_row} dict of `CohomologyData` stands
    for, by `divided_by_pivots`."""
    return divided_by_pivots(rows.values(), rows)


def identity_matrix(n):
    """The dense n x n identity over Fraction."""
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def fraction_subset_sum(values, S):
    """lambda_S as a Fraction from the weights `values` of hyperplanes
    1..n, index n+1 standing for minus their sum."""
    n = len(values)
    return sum((values[j - 1] if j <= n else -sum(values) for j in S), Fraction(0))


def form_value(f, lam):
    """Value of a `LinearForm` at a point, lam a sequence of nvars
    Fractions."""
    if len(lam) != f.nvars:
        raise ValueError("expected %d values, got %d" % (f.nvars, len(lam)))
    return sum((c * lam[j - 1] for j, c in f.terms.items()), Fraction(0))


def mat_evaluate(m, lam):
    """Specialize a dense matrix of linear forms at a rational point,
    zero entries included."""
    return [[form_value(entry, lam) for entry in row] for row in m]


def multiply(x, y, t):
    """Product in the Orlik-Solomon algebra of t; degrees past ell truncate
    to zero."""
    from osgm.orlik_solomon import os_reduce, wedge

    prod = {}
    for S1, c1 in x.items():
        for S2, c2 in y.items():
            if len(S1) + len(S2) > t.ell:
                continue
            w = wedge(tuple(S1), tuple(S2))
            if w is None:
                continue
            M, sgn = w
            c = c1 * c2 * sgn
            s = prod.get(M, 0) + c
            if s:
                prod[M] = s
            else:
                prod.pop(M, None)
    return os_reduce(prod, t)


def multiplicity(S, a):
    """|S| minus the rank of the rows of S in the realization a."""
    if not S:
        raise ValueError("multiplicity of the empty set is undefined")
    return len(S) - subset_rank(a, S)


# ---- the dense route for chain endomorphisms ---------------------------------
# The library keeps every chain endomorphism and boundary as sparse rows.
# The routes below are the dense list-of-lists construction it replaced:
# every entry stored, zeros included, and every product taken entry by
# entry over the full shape.


def sparse_vector(v):
    """The sparse row {col: entry} of a dense vector, zero entries dropped."""
    return {j: c for j, c in enumerate(v) if c}


def sparse(m):
    """Sparse rows {col: entry} of a dense matrix, zero entries dropped."""
    return [sparse_vector(row) for row in m]


def sparse_rows(mats):
    """Per-degree int rows keyed (col, j) of a list of dense matrices of
    linear forms, the form `ChainEndomorphism` takes."""
    return [key_rows(sparse(m)) for m in mats]


def dense_omega_tilde(S, n, ell):
    """Dense matrices of the basic endomorphism of S, from the closed form
    on the closure classes, with every zero entry stored."""
    from osgm.aomoto import build_aomoto
    from osgm.arrangement import generic_type
    from osgm.gauss_manin import _closure_images, _rows_containing

    S = tuple(sorted(S))
    cx = build_aomoto(generic_type(n, ell))
    zero = Form.zero(n)
    mats = [[[zero] * len(b) for _ in b] for b in cx.bases]
    for U, image in _closure_images(S, n, cx.index).items():
        for T, c in _rows_containing(U, n):
            row = mats[len(U)][cx.index[len(U)][T]]
            for (j, k), f in image.items():
                row[j] = row[j] + Form.variable(k, n) * (f * c)
    return mats


def dense_weighted_sum(terms, n, ell):
    """Dense matrices of sum of m * omega_K over the terms {K: m}."""
    from osgm.aomoto import build_aomoto
    from osgm.arrangement import generic_type

    cx = build_aomoto(generic_type(n, ell))
    zero = Form.zero(n)
    mats = [[[zero] * len(b) for _ in b] for b in cx.bases]
    for K in sorted(terms):
        m = terms[K]
        for acc, part in zip(mats, dense_omega_tilde(K, n, ell)):
            for acc_row, row in zip(acc, part):
                for j, c in enumerate(row):
                    if c:
                        acc_row[j] = acc_row[j] + (c if m == 1 else c * m)
    return mats


def checked_term_sum(terms, n, ell):
    """Sparse rows of sum of m * omega_K over the terms {K: m}, by the
    two-stage route: each omega_K is built on its own and checked against
    the differential, then m times its rows are added in."""
    from osgm.aomoto import build_aomoto
    from osgm.arrangement import generic_type
    from osgm.gauss_manin import omega_tilde

    rows = [[{} for _ in b] for b in build_aomoto(generic_type(n, ell)).bases]
    for K in sorted(terms):
        for acc, part in zip(rows, omega_tilde(K, n, ell).rows):
            for acc_row, row in zip(acc, part):
                for j, c in row.items():
                    s = acc_row.pop(j, 0) + terms[K] * c
                    if s:
                        acc_row[j] = s
    return rows


def dense_induce_on_type(mats, t):
    """Dense matrices of a generic endomorphism pushed down to the type t,
    raising `NotCovered` for the first degree whose relations it does not
    send into the relation span."""
    from osgm.aomoto import build_aomoto
    from osgm.arrangement import generic_type
    from osgm.gauss_manin import NotCovered
    from osgm.orlik_solomon import projection_matrix

    zero = Form.zero(t.n)
    mats = lift(mats)
    gen_bases = build_aomoto(generic_type(t.n, t.ell)).bases
    cx = build_aomoto(t)
    out = []
    for q in range(t.ell + 1):
        width = len(cx.bases[q])
        proj = [[row.get(j, 0) for j in range(width)] for row in projection_matrix(t, q)]
        for v in dense_left_null_space(proj):
            image = dense_product([v], mats[q], zero)[0]
            if any(dense_product([image], proj, zero)[0]):
                raise NotCovered("not a valid covering datum: degree-%d relations "
                                 "are not preserved" % q)
        index = {T: i for i, T in enumerate(gen_bases[q])}
        out.append([dense_product([mats[q][index[T]]], proj, zero)[0] for T in cx.bases[q]])
    return out


def dense_chain_failure(cx, mats):
    """First degree q where W_q D_q != D_q W_{q+1} as dense matrices of
    quadratic forms, or None."""
    boundary = lift(cx.boundary)
    mats = lift(mats)
    for q in range(len(mats) - 1):
        d = boundary[q]
        if dense_product(mats[q], d, Quadratic()) != dense_product(d, mats[q + 1], Quadratic()):
            return q
    return None


def dense_spectrum_check(mats, S, n):
    """`spectrum_check` on dense matrices: (True, None), or (False, the
    first degree and row-major entry where M (M - y_S I) is nonzero)."""
    ys = Form.subset_sum(tuple(S), n)
    for q, m in enumerate(lift(mats)):
        shifted = [[c - ys if i == j else c for j, c in enumerate(row)]
                   for i, row in enumerate(m)]
        for i, row in enumerate(dense_product(m, shifted, Quadratic())):
            for j, c in enumerate(row):
                if c:
                    return False, {"degree": q, "row": i, "col": j}
    return True, None


# ---- the form route of the library's checks ------------------------------------
# The library's chain, descent and spectrum checks as they ran on sparse
# rows {col: Form}, products of two forms summed as Quadratics, and the
# eigenvalue report as it ran on Fraction matrices.  The int rows keyed
# (col, j) must give the same verdicts.


def chain_failure_by_forms(cx, rows):
    """First degree q where W_q D_q != D_q W_{q+1}, or None, comparing the
    sparse products of {col: Form} rows."""
    n = cx.t.n
    for q in range(len(rows) - 1):
        d = form_rows(cx.rows[q], n)
        if matmul(form_rows(rows[q], n), d) != matmul(d, form_rows(rows[q + 1], n)):
            return q
    return None


def induce_by_forms(e, t):
    """The rows keyed (col, j) of `induce_on_type(e, t)` by the form route,
    per degree: M = W_nbc P, with W P = P M checked on {col: Form} rows,
    raising `NotCovered` for the first degree where it fails."""
    from osgm.aomoto import build_aomoto
    from osgm.gauss_manin import NotCovered
    from osgm.orlik_solomon import projection_matrix

    cx = build_aomoto(t)
    out = []
    for q in range(t.ell + 1):
        proj = projection_matrix(t, q)
        w = form_rows(e.rows[q], t.n)
        index = {T: i for i, T in enumerate(e.cx.bases[q])}
        induced = matmul([w[index[T]] for T in cx.bases[q]], proj)
        if matmul(w, proj) != matmul(proj, induced):
            raise NotCovered("not a valid covering datum: degree-%d relations "
                             "are not preserved" % q)
        out.append(key_rows(induced))
    return out


def _quadratic_defect(m, s):
    """The first entry (row, col) in row-major order where M (M - s*I) is
    nonzero, or None; M sparse rows of Forms or Fractions."""
    shifted = [dict(row) for row in m]
    if s:
        for i, row in enumerate(shifted):
            add_scaled(row, {i: s}, -1)
    for i, row in enumerate(matmul(m, shifted)):
        if row:
            return i, min(row)
    return None


def spectrum_check_by_forms(e, S):
    """`spectrum_check` on {col: Form} rows, with Quadratic products."""
    n = e.cx.t.n
    ys = Form.subset_sum(tuple(S), n)
    for q, rows in enumerate(e.rows):
        bad = _quadratic_defect(form_rows(rows, n), ys)
        if bad is not None:
            return False, {"degree": q, "row": bad[0], "col": bad[1]}
    return True, None


def spectrum_report_by_fractions(e, S, r, lam):
    """`spectrum_report` on Fraction matrices: each degree specialized at
    lam entry by entry, M (M - lambda_S I) formed over Fraction, and
    rank M taken from the Fraction rows."""
    from osgm.gauss_manin import eigenspace_dims
    from osgm.linalg import rank

    n = e.cx.t.n
    S = tuple(sorted(S))
    lam_s = fraction_subset_sum(lam.values, S)
    if lam_s == 0:
        return {"lambda_S": "0", "message": "spectrum theorem inapplicable: lambda_S = 0",
                "degrees": []}
    degrees = []
    for q, rows in enumerate(e.rows):
        d0, ds = eigenspace_dims(n, len(S), r, q)
        m = [{col: v for col, f in row.items() if (v := form_value(f, lam.values))}
             for row in form_rows(rows, n)]
        ok = _quadratic_defect(m, lam_s) is None
        if ok:
            rk = rank(m)
            ok = rk == ds and len(m) - rk == d0
        degrees.append({"degree": q, "lambda_S": str(lam_s), "d0": d0, "dS": ds,
                        "verified": ok})
    return {"lambda_S": str(lam_s), "degrees": degrees}
