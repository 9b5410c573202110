"""Connection matrices for one-parameter degenerations of the weighted complex.

A degeneration is recorded either as a pair of combinatorial types (the
special one having strictly more dependent sets) or as a pencil datum (S, r):
the hyperplanes indexed by S fall into a common rank-r subspace while
everything else stays generic.  Each newly dependent set K contributes a
basic endomorphism of the generic weight complex, and their sum, weighted by
how far K drops in rank, commutes with the differential.  Pushing the sum
down to a type's own complex and specializing the weights gives the exact
matrix of the connection on cohomology.

Everything acts on row vectors: a map with matrix M sends x to x @ M, so
composition reads left to right and the chain condition in degree q is
W_q @ D_q == D_q @ W_{q+1}.

Every symbolic matrix is kept as sparse int rows keyed (col, j), the
coefficient of y_j at column col, as in `osgm.linalg`: the chain condition
and M (M - y_S I) = 0 compare products keyed (col, j, k), and descent
compares W P with P M keyed (col, j).
"""

from fractions import Fraction
from itertools import combinations
from math import comb

from .aomoto import build_aomoto, os_cohomology
from .arrangement import (
    check_pencil_rank,
    compare_types,
    dep_star,
    generic_type,
    pencil_profile,
    pencil_starred,
)
from .linalg import add_scaled, evaluate_int, form_matmul, matmul
from .orlik_solomon import insertions, projection_matrix, wedge
from .poly import LinearForm, dense_forms


class NotCovered(ValueError):
    """A mathematical precondition fails: a map that does not descend to the
    type, a closed class sent off the closed classes, or no unique pencil."""


# The relabeling action below is not used by the library: tests/oracles.py
# conjugates leading-set endomorphisms through it to cross-check the closed
# form of omega_tilde.  It stays here because the benchmark tracer in
# perfbench/child.py looks up `SigmaAction.__init__` in this module by name.


class SigmaAction:
    """Relabeling of the projective closure acting on the generic complex.

    `images[i-1]` is where index i goes; index n+1 is the extra hyperplane
    at infinity.  The action is semilinear: coefficients transform by
    `subst`, y_j -> y_images(j), where y_{n+1} stands for minus the sum of
    the others, and the degree-p monomials by rows[p], int rows keyed col
    (row T holds the image of e_T).

    The map is written in closed form.  The closure classes are relabeled,
    f_i -> f_a with a = images(i), and e_i = f_i - f_{n+1}, so with
    m = images(n+1) and e_{n+1} = 0 in the affine chart, e_i -> e_a - e_m.
    Since e_m squares to zero, e_T goes to e_sigma(T) minus the sum over i
    of e_sigma(T) with its i-th factor sigma(t_i) replaced by e_m: at most
    |T| + 1 terms, each of them sorted with its sign, and dropped when it
    holds n+1.  The terms are distinct monomials, so every entry is +-1.
    """

    def __init__(self, images, n, ell, validate=True):
        images = tuple(int(i) for i in images)
        if sorted(images) != list(range(1, n + 2)):
            raise ValueError("images must be a bijection of 1..%d" % (n + 1))
        self.images = images
        self.n = n
        self.ell = ell
        # y_j -> y_images(j), as {k: coefficient of y_k}
        self.subst = {j: {a: 1} if a <= n else {k: -1 for k in range(1, n + 1)}
                      for j, a in enumerate(images[:n], start=1)}
        self.rows = [self._degree_rows(p) for p in range(ell + 1)]
        if validate:
            self._check_chain()

    def _degree_rows(self, p):
        n, m = self.n, self.images[self.n]
        index = {T: k for k, T in enumerate(combinations(range(1, n + 1), p))}
        rows = [{} for _ in index]
        for T, row in zip(index, rows):
            image = tuple(self.images[t - 1] for t in T)
            for seq, c in [(image, 1)] + [(image[:i] + (m,) + image[i + 1:], -1)
                                          for i in range(p)]:
                if n + 1 not in seq:
                    U, sgn = wedge((), seq)
                    row[index[U]] = c * sgn
        return rows

    def _check_chain(self):
        cx = build_aomoto(generic_type(self.n, self.ell))
        for p in range(self.ell):
            twisted = [{} for _ in cx.rows[p]]
            for acc, row in zip(twisted, cx.rows[p]):
                for (col, j), c in row.items():
                    add_scaled(acc, {(col, k): x for k, x in self.subst[j].items()}, c)
            if form_matmul(twisted, self.rows[p + 1]) != matmul(self.rows[p], cx.rows[p]):
                raise AssertionError("relabeling fails to intertwine the differential")


class ChainEndomorphism:
    """Degreewise square matrices of linear forms in the weights that
    commute with the differential.  With `validate` the identity
    W_q D_q = D_q W_{q+1} is checked exactly, both sides keyed (col, j, k).

    Each degree is kept as sparse int rows, rows[q][i] = {(col, j): c},
    the nonzero coefficient c of y_j at column col, so building, summing,
    checking and specializing cost in proportion to the nonzeros and run
    in int arithmetic: `evaluate_int` specializes a degree at the weights'
    int point N = D * lam, and only `gm_endomorphism` divides by D, in the
    entries of its matrices.  `checked` records whether the identity was
    checked on construction; `mats` is the dense view.

    Instances are treated as immutable once built; sums and induced maps
    always allocate fresh rows.
    """

    def __init__(self, cx, rows, validate=True):
        self.cx = cx
        self.rows = rows
        n = cx.t.n
        for q, m in enumerate(rows):
            size = len(cx.bases[q])
            if (len(m) != size or not all(isinstance(row, dict) for row in m)
                    or not set().union(*m) <= {(c, j) for c in range(size)
                                               for j in range(1, n + 1)}):
                raise ValueError("degree-%d rows are not %d sparse rows of width %d"
                                 % (q, size, size))
        if validate:
            self._check_chain()
        self.checked = validate

    @property
    def mats(self):
        """Dense square matrices of linear forms, per degree: a view built on
        demand for the tests and the benchmark's tracer; the command line
        and the demos print from `rows`."""
        return [dense_forms(m, len(m), self.cx.t.n) for m in self.rows]

    def _check_chain(self):
        for q in range(len(self.rows) - 1):
            d = self.cx.rows[q]
            if form_matmul(self.rows[q], d) != form_matmul(d, self.rows[q + 1]):
                raise ValueError("matrices do not commute with the differential "
                                 "in degree %d" % q)


def _boundary_terms(S):
    """Alternating-sign facets of a sorted tuple: [(S minus a spot, sign)]."""
    return [
        (S[:a] + S[a + 1:], 1 if a % 2 == 0 else -1)
        for a in range(len(S))
    ]


def _clean_subset(S, n):
    S = tuple(int(j) for j in S)
    if len(set(S)) != len(S):
        raise ValueError("repeated index in %r" % (S,))
    if len(S) < 2:
        raise ValueError("a dependence needs at least two hyperplanes")
    if not all(1 <= j <= n + 1 for j in S):
        raise ValueError("indices must lie in 1..%d" % (n + 1))
    return tuple(sorted(S))


def _closure_images(K, n, index):
    """Images of the closure monomials of degree at most ell that the
    endomorphism of K does not kill, index[p] numbering the affine
    monomials of degree p <= ell.

    Keyed by closure monomial U; each image is a sparse int row keyed
    (col, j), the coefficient of y_j at the affine monomial numbered col,
    already stripped of the closure monomials that contain n+1; y_{n+1} is
    -1 on every y_j.  A wedge sign is that of moving j to its place in a
    sorted tuple, see `insertions`.
    """
    p = len(K) - 1
    if p >= len(index):
        return {}
    bnd = [(V, s) for V, s in _boundary_terms(K) if n + 1 not in V]
    cols = [(index[p][V], s) for V, s in bnd]
    images = {}
    for a, j in enumerate(K):
        sgn = -1 if a % 2 else 1
        yj = [(j, sgn)] if j <= n else [(k, -sgn) for k in range(1, n + 1)]
        images[K[:a] + K[a + 1:]] = {(col, k): s * c for col, s in cols for k, c in yj}
    if p + 1 < len(index):
        # omega wedge the boundary, one term y_j e_j at a time; for one j
        # the products e_j e_V are distinct monomials, so nothing cancels
        images[K] = {(index[p + 1][W], j): -s if a % 2 else s
                     for V, s in bnd for a, j, W in insertions(V, n)}
    return images


def _rows_containing(U, n):
    """Affine monomials e_T whose closure expansion has an f_U term, with
    its coefficient.

    e_T = prod over t in T of (f_t - f_{n+1}); swapping t for f_{n+1}
    and moving it last costs the sign (-1)^(|T| - position of t).
    """
    if U[-1] != n + 1:
        return [(U, 1)]
    return [(T, -1 if (len(U) - a) % 2 else 1) for a, _, T in insertions(U[:-1], n)]



def omega_tilde(S, n, ell):
    """Basic endomorphism of the generic complex attached to a subset S.

    Written down from its closed form on the closure classes f_1..f_{n+1}
    (affine e_j = f_j - f_{n+1}, weighted form omega = sum y_j f_j with
    y_{n+1} = -(y_1 + ... + y_n)): f_{S minus j} goes to the sign of
    (j, S minus j) times y_j times the boundary of f_S, f_S goes to omega
    wedge the boundary of f_S, and every other closure monomial dies.  It is
    the one-term sum, built fresh and checked against the differential once
    on each call; `tests/oracles.py` keeps the older route, conjugating the
    leading-set endomorphism through a relabeling, as a cross-check.
    """
    return _weighted_sum({_clean_subset(S, n): 1}, n, ell)


def pencil_sum_terms(S, r, n, ell):
    """Dependent sets of the pencil type on (S, r) with their multiplicities.

    Keyed by the subsets of [n+1] of size at most ell+1 that the pencil
    forces to be dependent; the value is how far the subset's rank drops.
    `pencil_profile` lists K as A + B, A in S, |A| >= r+1, |B| <= ell - r:
    K has rank r + |B|, so it drops by |A| - r.
    """
    S = _clean_subset(S, n)
    check_pencil_rank(S, r, ell)
    forced = sorted(pencil_profile(S, r, n, ell, top=ell + 1), key=lambda K: (len(K), K))
    return {K: len(set(K).intersection(S)) - r for K in forced}


def _weighted_sum(terms, n, ell):
    """Sum of m times omega_K over the terms {K: m}, written in one pass.

    Each closed-form image of a closure monomial is added, scaled by m,
    straight into the affine rows whose closure expansion holds that
    monomial; only the finished sum is checked against the differential.
    """
    cx = build_aomoto(generic_type(n, ell))
    rows = [[{} for _ in b] for b in cx.bases]
    index = [{T: i for i, T in enumerate(b)} for b in cx.bases]
    for K, m in sorted(terms.items()):
        for U, image in _closure_images(K, n, index).items():
            p = len(U)
            for T, c in _rows_containing(U, n):
                add_scaled(rows[p][index[p][T]], image, m * c)
    return ChainEndomorphism(cx, rows, validate=True)


def omega_tilde_sum(S, r, n, ell):
    """Connection endomorphism of the pencil degeneration on (S, r)."""
    return _weighted_sum(pencil_sum_terms(S, r, n, ell), n, ell)


def _rank_in_type(K, t):
    """Matroid rank of K read off the type's dependent-set data."""
    top = min(len(K), t.ell + 1)
    for size in range(top, 1, -1):
        for J in combinations(K, size):
            if not t.is_dependent(J):
                return size
    return min(len(K), 1)


def relative_multiplicities(t_special, t_general):
    """Sets dependent in the first type but not the second, with their
    rank drop measured in the special type.

    t_special is the degenerate position (more dependent sets); the types
    must be strictly comparable or the pair is rejected.
    """
    if compare_types(t_special, t_general) != "t2_finer":
        raise ValueError("first type must have strictly more dependent sets")
    out = {}
    for q in sorted(t_special.dep):
        gen = set(t_general.dep.get(q, []))
        for K in t_special.dep[q]:
            if K not in gen:
                out[K] = len(K) - _rank_in_type(K, t_special)
    return out


def omega_tilde_pair(t_special, t_general):
    """Connection endomorphism of a degeneration given by two types."""
    n, ell = t_general.n, t_general.ell
    return _weighted_sum(relative_multiplicities(t_special, t_general), n, ell)


def induce_on_type(e, t):
    """Push an endomorphism of the generic complex down to a type's complex.

    The generic monomials map onto the type's basis by rewriting modulo its
    relations, the projection P.  P sends each nbc monomial to itself, so
    the induced map is M = W_nbc P, with W_nbc the rows of W at the nbc
    monomials, and W descends exactly when it sends every relation into the
    relation span, that is when W P = P M.  That identity is checked degree
    by degree and reported as an invalid covering when it fails.  Row i of
    W P is row i of W times P, so M is read off the one product W P at the
    nbc rows.  P is an int matrix, so W P is a `form_matmul` and P M a plain
    `matmul`, both keyed (col, j).

    M needs no chain check of its own when W had one: P is a chain map,
    D_q P_{q+1} = P_q D'_q, so P_q (M_q D'_q - D'_q M_{q+1}) = W_q D_q P_{q+1}
    - D_q W_{q+1} P_{q+1} = 0, and the nbc rows of P_q are the identity.
    """
    if (t.n, t.ell) != (e.cx.t.n, e.cx.t.ell):
        raise ValueError("type does not live on the endomorphism's (n, ell)")
    cx = build_aomoto(t)
    rows = []
    for q in range(t.ell + 1):
        proj = projection_matrix(t, q)
        index = {T: i for i, T in enumerate(e.cx.bases[q])}
        wp = form_matmul(e.rows[q], proj)
        induced = [wp[index[T]] for T in cx.bases[q]]
        if wp != matmul(proj, induced):
            raise NotCovered(
                "not a valid covering datum: degree-%d relations "
                "are not preserved" % q)
        rows.append(induced)
    return ChainEndomorphism(cx, rows, validate=not e.checked)


def gm_endomorphism(e, lam, q, h=None):
    """Matrix of the induced action on degree-q cohomology at weights lam.

    Rows give the image of each cohomology class in the class basis; pass a
    precomputed cohomology object to avoid recomputing it per degree.
    A representative z stands for z / a, a its pivot entry, and the map is
    evaluated over int at N = D * lam, so the int image of z is a * D times
    the image at lam.  All representatives go through one product per
    degree; a zero image is a row holding one shared Fraction(0), which is
    immutable, and `int_coords` divides any other by a * D, one Fraction
    per entry.
    """
    lam.check_length(e.cx.t.n)
    if not 0 <= q < len(e.rows):
        raise ValueError("degree %d out of range 0..%d" % (q, len(e.rows) - 1))
    if h is None:
        h = os_cohomology(e.cx.t, lam)
    reps = h.rep_rows[q]
    images = matmul(reps.values(), evaluate_int(e.rows[q], lam.nums, e.cx.t.n))
    out, zero = [], Fraction(0)
    for (p, z), w in zip(reps.items(), images):
        coords = h.int_coords(q, w, z[p] * lam.d) if w else [zero] * h.dims[q]
        if coords is None:
            raise NotCovered("image of a closed class is not closed in degree %d" % q)
        out.append(coords)
    return out


def principal_dependence(t_special, t_general):
    """The unique pencil (S, r) whose new dependences are exactly the
    difference of the two types.

    Both inclusions are enforced: every set the pencil forces must be
    dependent in the special type, and every newly dependent set must be
    forced by the pencil.  Degenerations that fail to come from a single
    pencil are rejected.  A strictly finer special type always has a new
    dependent set of size at most ell+1, so there is a candidate S.
    """
    if compare_types(t_special, t_general) != "t2_finer":
        raise ValueError("first type must have strictly more dependent sets")
    n, ell = t_special.n, t_special.ell
    star_sp = dep_star(t_special)
    star_gen = dep_star(t_general)
    sp_all = set().union(*star_sp.values())
    new = set()
    for q in star_sp:
        new.update(set(star_sp[q]) - set(star_gen.get(q, [])))
    found = []
    for S in sorted(new):
        for r in range(1, min(ell, len(S) - 1) + 1):
            # the pencil must force every new set, and the special type must
            # hold every set the pencil forces; stop at the first one missing
            if (all(pencil_starred(K, S, r, ell) for K in new)
                    and all(K in sp_all for K in pencil_profile(S, r, n, ell))):
                found.append((S, r))
    if not found:
        raise NotCovered("no single pencil accounts for the degeneration")
    if len(found) > 1:
        raise NotCovered("principal dependence is not unique: %r" % (found,))
    return found[0]


def eigenspace_dims(n, s, r, q):
    """Predicted multiplicities (d_0, d_S) of the two eigenvalues of the
    pencil endomorphism in degree q, for |S| = s hyperplanes of n falling
    to rank r."""
    if not 2 <= s <= n:
        raise ValueError("s must lie in 2..n")
    if not 1 <= r <= s - 1:
        raise ValueError("r must lie in 1..s-1")
    if q < 0:
        raise ValueError("q must be nonnegative")

    def c(a, b):
        return comb(a, b) if 0 <= b <= a else 0

    cross = c(s - 1, r) * c(n - s, q - r)
    d0 = sum(c(s, p) * c(n - s, q - p) for p in range(0, r + 1)) - cross
    ds = sum(c(s, p) * c(n - s, q - p) for p in range(r + 1, min(q, s) + 1)) + cross
    return d0, ds


def _square_defect(m, diag, product):
    """The rows of M (M - s I), M sparse rows and diag[i] row i of s I:
    {(i, j): c} for a form s = sum c y_j under `form_matmul`, {i: s} for an
    int s under `matmul`."""
    shifted = [dict(row) for row in m]
    for row, d in zip(shifted, diag):
        add_scaled(row, d, -1)
    return product(m, shifted)


def spectrum_check(e, S):
    """Symbolically verify M (M - y_S I) = 0 in each degree.

    y_S is the sum of the variables indexed by S (index n+1 contributing
    minus the total).  Returns (True, None) or (False, witness) with the
    first failing degree and entry in row-major order: the product's rows
    are keyed (col, j, k), so the least key of a nonzero row names its
    first nonzero column.
    """
    ys = LinearForm.subset_sum(tuple(S), e.cx.t.n).terms.items()
    for q, m in enumerate(e.rows):
        diag = [{(i, j): c for j, c in ys} for i in range(len(m))]
        for i, row in enumerate(_square_defect(m, diag, form_matmul)):
            if row:
                return False, {"degree": q, "row": i, "col": min(row)[0]}
    return True, None


def spectrum_report(e, S, r, lam):
    """Specialized eigenvalue summary at lam of the pencil endomorphism
    e = `omega_tilde_sum(S, r, n, ell)`.

    Per degree: the two predicted multiplicities and whether the
    specialized M satisfies M (M - lambda_S I) = 0 with rank M = dS and
    rank (M - lambda_S I) = d0.  A zero lambda_S collapses the two
    eigenvalues and the prediction does not apply.

    All of it runs over int: with D the weights' common denominator,
    M_N = D M(lambda) is the int matrix `evaluate_int` gives at N = D lambda
    and s_N = D lambda_S is an int, M_N (M_N - s_N I) = D^2 M (M - lambda_S I),
    and rank M_N = rank M.

    Neither rank needs an elimination.  Once M_N (M_N - s_N I) = 0 is
    checked with s_N nonzero, the minimal polynomial of M_N divides
    x (x - s_N), whose roots 0 and s_N are distinct and rational, so M_N is
    diagonalizable over Q with eigenvalues in {0, s_N}.  The eigenvalue s_N
    then has multiplicity rank M_N, so tr M_N = s_N rank M_N, and the
    eigenvalue 0 has multiplicity size - rank M_N = rank (M_N - s_N I).
    So rank M_N is tr M_N / s_N, an exact quotient, which is asserted.
    """
    n = e.cx.t.n
    lam.check_length(n)
    S = _clean_subset(S, n)
    lam_s = lam.subset_sum(S)
    if lam_s == 0:
        return {
            "lambda_S": "0",
            "message": "spectrum theorem inapplicable: lambda_S = 0",
            "degrees": [],
        }
    s = lam_s.numerator * (lam.d // lam_s.denominator)
    degrees = []
    for q in range(len(e.rows)):
        d0, ds = eigenspace_dims(n, len(S), r, q)
        m = evaluate_int(e.rows[q], lam.nums, n)
        ok = not any(_square_defect(m, [{i: s} for i in range(len(m))], matmul))
        if ok:
            rk, rest = divmod(sum(row.get(i, 0) for i, row in enumerate(m)), s)
            assert not rest, "trace of M_N is not a multiple of s_N in degree %d" % q
            ok = rk == ds and len(m) - rk == d0
        degrees.append({
            "degree": q,
            "lambda_S": str(lam_s),
            "d0": d0,
            "dS": ds,
            "verified": ok,
        })
    return {"lambda_S": str(lam_s), "degrees": degrees}
