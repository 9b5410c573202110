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
"""

from fractions import Fraction
from itertools import combinations
from math import comb

from .aomoto import build_aomoto, os_cohomology
from .arrangement import (
    compare_types,
    dep_star,
    generic_type,
    multiplicity_pencil,
    pencil_profile,
    pencil_starred,
)
from .linalg import add_scaled, dense, evaluate_rows, matmul, rank
from .orlik_solomon import projection_matrix, wedge
from .poly import LinearForm, format_rational


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
    at infinity.  The action is semilinear: coefficients transform by the
    substitution y_i -> y_images(i), where y_{n+1} stands for minus the sum
    of the others, and the degree-p monomials transform by mats[p] (row T
    holds the coordinates of the image of e_T).  When the relabeling moves
    some index to n+1, the image generator leaves the affine chart and is
    rewritten through the relation that the n+1 closure classes sum to
    zero, which is where the rational (not just permutation) matrices come
    from.
    """

    def __init__(self, images, n, ell, validate=True):
        images = tuple(int(i) for i in images)
        if sorted(images) != list(range(1, n + 2)):
            raise ValueError("images must be a bijection of 1..%d" % (n + 1))
        self.images = images
        self.n = n
        self.ell = ell
        self.subst = {}
        for j in range(1, n + 1):
            m = images[j - 1]
            if m == n + 1:
                self.subst[j] = LinearForm.subset_sum((n + 1,), n)
            else:
                self.subst[j] = LinearForm.variable(m, n)
        self.mats = [self._degree_matrix(p) for p in range(ell + 1)]
        if validate:
            self._check_chain()

    def _gen_image(self, i):
        """Coordinates of the image of e_i in the affine generators."""
        coords = [Fraction(0)] * self.n
        target = self.images[i - 1]
        m_inf = self.images[self.n]
        if m_inf == self.n + 1:
            coords[target - 1] = Fraction(1)
        elif target == self.n + 1:
            coords[m_inf - 1] = Fraction(-1)
        else:
            coords[target - 1] = Fraction(1)
            coords[m_inf - 1] -= Fraction(1)
        return coords

    def _degree_matrix(self, p):
        if p == 0:
            return [[Fraction(1)]]
        n = self.n
        subsets = list(combinations(range(1, n + 1), p))
        index = {T: k for k, T in enumerate(subsets)}
        gen = [self._gen_image(i) for i in range(1, n + 1)]
        out = []
        for T in subsets:
            acc = {(): Fraction(1)}
            for i in T:
                nxt = {}
                for mono, c in acc.items():
                    for m in range(1, n + 1):
                        cm = gen[i - 1][m - 1]
                        if not cm:
                            continue
                        w = wedge(mono, (m,))
                        if w is None:
                            continue
                        U, sgn = w
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
        return out

    def _check_chain(self):
        cx = build_aomoto(generic_type(self.n, self.ell))
        mats = [[{j: c for j, c in enumerate(row) if c} for row in m] for m in self.mats]
        for p in range(self.ell):
            twisted = [{j: self.substitute(c) for j, c in row.items()} for row in cx.rows[p]]
            if matmul(twisted, mats[p + 1]) != matmul(mats[p], cx.rows[p]):
                raise AssertionError("relabeling fails to intertwine the differential")

    def substitute(self, f):
        return f.substitute(self.subst)

    def subst_mat(self, m):
        return [[self.substitute(c) for c in row] for row in m]

    def inverse(self):
        inv = [0] * (self.n + 1)
        for i, m in enumerate(self.images, start=1):
            inv[m - 1] = i
        return SigmaAction(tuple(inv), self.n, self.ell, validate=False)


class ChainEndomorphism:
    """Degreewise square matrices of linear forms in the weights that
    commute with the differential.  With `validate` the identity
    W_q D_q = D_q W_{q+1} is checked exactly: both sides are sparse
    products of matrices of linear forms, with quadratic forms as entries.

    Each degree is kept as sparse rows, rows[q][i] = {col: nonzero form},
    so building, summing, checking and specializing cost in proportion to
    the nonzeros.  The library's maps have integer coefficients, so all of
    that runs in int arithmetic.  `mats` is the dense view, built on
    demand for printing.

    Instances are treated as immutable once built; sums and induced maps
    always allocate fresh rows, so cached copies can be shared freely.
    """

    def __init__(self, cx, rows, validate=True):
        self.cx = cx
        self.rows = rows
        for q, m in enumerate(rows):
            size = len(cx.bases[q])
            if (len(m) != size or not all(isinstance(row, dict) for row in m)
                    or not set().union(*m) <= set(range(size))):
                raise ValueError("degree-%d rows are not %d sparse rows of width %d"
                                 % (q, size, size))
        if validate:
            self._check_chain()

    @property
    def mats(self):
        """Dense square matrices of linear forms, per degree."""
        zero = LinearForm.zero(self.cx.t.n)
        return [dense(m, len(m), zero) for m in self.rows]

    def _check_chain(self):
        for q in range(len(self.rows) - 1):
            d = self.cx.rows[q]
            if matmul(self.rows[q], d) != matmul(d, self.rows[q + 1]):
                raise ValueError("matrices do not commute with the differential "
                                 "in degree %d" % q)

    def specialize(self, lam, q):
        """Degree q at a concrete weight vector, as sparse rows of
        Fractions; only the nonzero forms are evaluated."""
        return evaluate_rows(self.rows[q], lam.values)


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


def _closure_images(K, n):
    """Images of the closure monomials that the endomorphism of K does
    not kill.

    Keyed by closure monomial U; each image is {affine monomial: entry},
    already stripped of the closure monomials that contain n+1.
    """
    bnd = [(V, s) for V, s in _boundary_terms(K) if n + 1 not in V]
    images = {}
    for j in K:
        U = tuple(t for t in K if t != j)
        _, sgn = wedge((j,), U)
        yj = LinearForm.subset_sum((j,), n) * sgn
        images[U] = {V: yj * s for V, s in bnd}
    top = {}
    for j in range(1, n + 1):
        # omega wedge the boundary, one term y_j e_j at a time
        wedged = [(wedge((j,), V), s) for V, s in bnd if j not in V]
        add_scaled(top, {W: s * sgn for (W, sgn), s in wedged}, LinearForm.variable(j, n))
    images[K] = top
    return images


def _rows_containing(U, n):
    """Affine monomials e_T whose closure expansion has an f_U term, with
    its coefficient.

    e_T = prod over t in T of (f_t - f_{n+1}); swapping t for f_{n+1}
    and moving it last costs the sign (-1)^(|T| - position of t).
    """
    if U[-1] != n + 1:
        return [(U, 1)]
    V = U[:-1]
    out = []
    for t in range(1, n + 1):
        if t not in V:
            T = tuple(sorted(V + (t,)))
            out.append((T, -1 if (len(T) - T.index(t)) % 2 else 1))
    return out


def omega_tilde(S, n, ell):
    """Basic endomorphism of the generic complex attached to a subset S.

    Written down from its closed form on the closure classes f_1..f_{n+1}
    (affine e_j = f_j - f_{n+1}, weighted form omega = sum y_j f_j with
    y_{n+1} = -(y_1 + ... + y_n)): f_{S minus j} goes to the sign of
    (j, S minus j) times y_j times the boundary of f_S, f_S goes to omega
    wedge the boundary of f_S, and every other closure monomial dies.  An
    affine row e_T is expanded into closure monomials, mapped, and read
    back by dropping the monomials that contain n+1, so only rows whose
    expansion meets S or S minus j are nonzero.  The result is kept in the
    store of `generic_type(n, ell)` and re-checked against the differential
    on construction; `tests/oracles.py` keeps the older route, conjugating
    the leading-set endomorphism through a relabeling, as a cross-check.
    """
    S = _clean_subset(S, n)
    g = generic_type(n, ell)
    built = g.derived("omega_tilde", lambda _: {})
    if S in built:
        return built[S]
    cx = build_aomoto(g)
    rows = [[{} for _ in b] for b in cx.bases]
    index = [{T: i for i, T in enumerate(b)} for b in cx.bases]
    for U, image in _closure_images(S, n).items():
        p = len(U)
        if p > ell:
            continue
        image = {index[p][V]: f for V, f in image.items()}
        for T, c in _rows_containing(U, n):
            add_scaled(rows[p][index[p][T]], image, c)
    built[S] = ChainEndomorphism(cx, rows, validate=True)
    return built[S]


def pencil_sum_terms(S, r, n, ell):
    """Dependent sets of the pencil type on (S, r) with their multiplicities.

    Keyed by the subsets of [n+1] of size at most ell+1 that the pencil
    forces to be dependent; the value is how far the subset's rank drops.
    """
    S = _clean_subset(S, n)
    if not 1 <= r <= min(ell, len(S) - 1):
        raise ValueError("pencil rank r out of range")
    forced = sorted(pencil_profile(S, r, n, ell, top=ell + 1), key=lambda K: (len(K), K))
    return {K: multiplicity_pencil(K, S, r, ell, n) for K in forced}


def _weighted_sum(terms, n, ell):
    cx = build_aomoto(generic_type(n, ell))
    rows = [[{} for _ in b] for b in cx.bases]
    for K, m in sorted(terms.items()):
        for acc, part in zip(rows, omega_tilde(K, n, ell).rows):
            for acc_row, row in zip(acc, part):
                if row:
                    add_scaled(acc_row, row, m)
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
    by degree and reported as an invalid covering when it fails.
    """
    if (t.n, t.ell) != (e.cx.t.n, e.cx.t.ell):
        raise ValueError("type does not live on the endomorphism's (n, ell)")
    cx = build_aomoto(t)
    rows = []
    for q in range(t.ell + 1):
        proj = projection_matrix(t, q)
        index = {T: i for i, T in enumerate(e.cx.bases[q])}
        induced = matmul([e.rows[q][index[T]] for T in cx.bases[q]], proj)
        if matmul(e.rows[q], proj) != matmul(proj, induced):
            raise NotCovered(
                "not a valid covering datum: degree-%d relations "
                "are not preserved" % q)
        rows.append(induced)
    return ChainEndomorphism(cx, rows, validate=True)


def gm_endomorphism(e, lam, q, h=None):
    """Matrix of the induced action on degree-q cohomology at weights lam.

    Rows give the image of each cohomology class in the class basis; pass a
    precomputed cohomology object to avoid recomputing it per degree.
    """
    if not 0 <= q < len(e.rows):
        raise ValueError("degree out of range")
    if h is None:
        h = os_cohomology(e.cx.t, lam)
    out = []
    for img in matmul(h.reps[q], e.specialize(lam, q)):
        coords = h.class_coords(q, img)
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


def _quadratic_defect(m, s):
    """The first entry (row, col) in row-major order where M (M - s*I) is
    nonzero, or None when the product vanishes; M is sparse rows."""
    shifted = [dict(row) for row in m]
    if s:
        for i, row in enumerate(shifted):
            add_scaled(row, {i: s}, -1)
    for i, row in enumerate(matmul(m, shifted)):
        if row:
            return i, min(row)
    return None


def spectrum_check(e, S):
    """Symbolically verify M (M - y_S I) = 0 in each degree.

    y_S is the sum of the variables indexed by S (index n+1 contributing
    minus the total).  Returns (True, None) or (False, witness) with the
    first failing degree and entry.
    """
    n = e.cx.t.n
    ys = LinearForm.subset_sum(tuple(S), n)
    for q, m in enumerate(e.rows):
        bad = _quadratic_defect(m, ys)
        if bad is not None:
            return False, {"degree": q, "row": bad[0], "col": bad[1]}
    return True, None


def spectrum_report(e, S, r, lam):
    """Specialized eigenvalue summary at lam of the pencil endomorphism
    e = `omega_tilde_sum(S, r, n, ell)`.

    Per degree: the two predicted multiplicities and whether the
    specialized M satisfies M (M - lambda_S I) = 0 with rank M = dS and
    rank (M - lambda_S I) = d0.  Once the relation holds with lambda_S
    nonzero, the second rank is size - rank M: the image of M lies in the
    kernel of M - lambda_S I, and the two differ by -lambda_S I.  A zero
    lambda_S collapses the two eigenvalues and the prediction does not apply.
    """
    n = e.cx.t.n
    S = _clean_subset(S, n)
    lam_s = lam.subset_sum(S)
    if lam_s == 0:
        return {
            "lambda_S": "0",
            "message": "spectrum theorem inapplicable: lambda_S = 0",
            "degrees": [],
        }
    degrees = []
    for q in range(len(e.rows)):
        d0, ds = eigenspace_dims(n, len(S), r, q)
        m = e.specialize(lam, q)
        ok = _quadratic_defect(m, lam_s) is None
        if ok:
            rk = rank(m)
            ok = rk == ds and len(m) - rk == d0
        degrees.append({
            "degree": q,
            "lambda_S": format_rational(lam_s),
            "d0": d0,
            "dS": ds,
            "verified": ok,
        })
    return {"lambda_S": format_rational(lam_s), "degrees": degrees}
