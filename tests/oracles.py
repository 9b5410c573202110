# Independent oracles used across test files.  These deliberately avoid the
# library's own elimination and reduction code so that every derived number
# has a second route.

from fractions import Fraction
from itertools import combinations
from math import lcm

from osgm.poly import LinearForm


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
        rows_full = [arr.row(j) for j in S]
        rows_coef = [r[1:] for r in rows_full]
        return frac_rank(rows_coef) == frac_rank(rows_full)

    def dependent(S):
        return frac_rank([arr.row(j) for j in S]) < len(S)

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
    zero = LinearForm.zero(n)
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
                row[idx[V]] = row[idx[V]] + LinearForm.variable(j, n) * (sgn * b)
    if k <= ell:
        idx = index[k]
        row = mats[k][idx[s0]]
        for U, b in bnd:
            for j in range(1, n + 1):
                if j not in U:
                    V, sgn = _sort_sign((j,) + U)
                    row[idx[V]] = row[idx[V]] + LinearForm.variable(j, n) * (b * sgn)
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


def omega_tilde_by_conjugation(S, n, ell, sigma=None):
    """Matrices of the basic endomorphism of S by the relabeling route.

    A relabeling sigma of [n+1] carrying 1..|S| onto sorted S (the
    order-preserving one unless given) conjugates the leading-set
    endomorphism into place: inverse action, then the coefficient
    substitution, then the action.  Any such sigma must give the same
    matrices.
    """
    from osgm.gauss_manin import SigmaAction, sigma_for

    S = tuple(sorted(S))
    images = tuple(sigma) if sigma is not None else sigma_for(S, n)
    if images[:len(S)] != S:
        raise ValueError("sigma must carry 1..%d onto sorted S" % len(S))
    base = leading_set_omega(len(S), n, ell)
    act = SigmaAction(images, n, ell, validate=False)
    inv = act.inverse()
    zero = LinearForm.zero(n)
    return [
        dense_product(dense_product(inv.mats[p], act.subst_mat(base[p]), zero), act.mats[p], zero)
        for p in range(ell + 1)
    ]


def _integer_rows(rows):
    # scaling a row keeps every rank, so clear each row's denominators
    out = []
    for row in rows:
        m = lcm(*(Fraction(x).denominator for x in row))
        out.append([int(Fraction(x) * m) for x in row])
    return out


def affine_empty_by_rank(a):
    """Subsets of [n] of sizes 2..ell+1 with no common affine point, sorted,
    found by comparing the rank of the coefficient rows with that of the
    full rows for every such subset."""
    def empty(S):
        full = _integer_rows(a.row(j) for j in S)
        return bareiss_rank([r[1:] for r in full]) < bareiss_rank(full)

    return sorted(S for q in range(2, min(a.ell + 1, a.n) + 1)
                  for S in combinations(range(1, a.n + 1), q) if empty(S))


def generic_type_by_rank(n, ell):
    """The generic type on the moment-curve rows (1, j, .., j^ell), found by
    rank-testing every stored subset, for dependence and affine emptiness
    alike, instead of from the closed form."""
    from osgm.arrangement import Arrangement, CombinatorialType

    rows = [tuple(Fraction(j) ** k for k in range(ell + 1)) for j in range(1, n + 1)]
    a = Arrangement(ell, n, rows)
    dep = {q: [S for S in combinations(range(1, n + 2), q)
               if bareiss_rank([a.row(j) for j in S]) < q]
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
    a combination of the representatives.  None when vec is not a
    cocycle."""
    from osgm.linalg import echelon_reduce, rref, solve_row_combination

    rows, pivots = rref(h.cobound[q])
    return solve_row_combination(h.reps[q], echelon_reduce(vec, rows, pivots))


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
                [[e.evaluate(lam.values) for e in row] for row in c.boundary[q]])
        cob, cob_piv = [], []
        if q:
            d = [[e.evaluate(lam.values) for e in row] for row in c.boundary[q - 1]]
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
    return [[f.evaluate(point) for f in row] for row in m]


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


def identity_matrix(n):
    """The dense n x n identity over Fraction."""
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_evaluate(m, lam):
    """Specialize a dense matrix of linear forms at a rational point,
    zero entries included."""
    return [[entry.evaluate(lam) for entry in row] for row in m]


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
    return len(S) - a.subset_rank(S)


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
    """Per-degree sparse rows of a list of dense matrices, the form
    `ChainEndomorphism` takes."""
    return [sparse(m) for m in mats]


def dense_omega_tilde(S, n, ell):
    """Dense matrices of the basic endomorphism of S, from the closed form
    on the closure classes, with every zero entry stored."""
    from osgm.aomoto import build_aomoto
    from osgm.arrangement import generic_type
    from osgm.gauss_manin import _closure_images, _rows_containing

    S = tuple(sorted(S))
    cx = build_aomoto(generic_type(n, ell))
    zero = LinearForm.zero(n)
    mats = [[[zero] * len(b) for _ in b] for b in cx.bases]
    index = [{T: i for i, T in enumerate(b)} for b in cx.bases]
    for U, image in _closure_images(S, n).items():
        p = len(U)
        if p > ell:
            continue
        for T, c in _rows_containing(U, n):
            row = mats[p][index[p][T]]
            for V, f in image.items():
                j = index[p][V]
                row[j] = row[j] + f * c
    return mats


def dense_weighted_sum(terms, n, ell):
    """Dense matrices of sum of m * omega_K over the terms {K: m}."""
    from osgm.aomoto import build_aomoto
    from osgm.arrangement import generic_type

    cx = build_aomoto(generic_type(n, ell))
    zero = LinearForm.zero(n)
    mats = [[[zero] * len(b) for _ in b] for b in cx.bases]
    for K in sorted(terms):
        m = terms[K]
        for acc, part in zip(mats, dense_omega_tilde(K, n, ell)):
            for acc_row, row in zip(acc, part):
                for j, c in enumerate(row):
                    if c:
                        acc_row[j] = acc_row[j] + (c if m == 1 else c * m)
    return mats


def dense_induce_on_type(mats, t):
    """Dense matrices of a generic endomorphism pushed down to the type t,
    raising `NotCovered` for the first degree whose relations it does not
    send into the relation span."""
    from osgm.aomoto import build_aomoto
    from osgm.arrangement import generic_type
    from osgm.gauss_manin import NotCovered
    from osgm.orlik_solomon import projection_matrix

    zero = LinearForm.zero(t.n)
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
    from osgm.poly import Quadratic

    boundary = cx.boundary
    for q in range(len(mats) - 1):
        d = boundary[q]
        if dense_product(mats[q], d, Quadratic()) != dense_product(d, mats[q + 1], Quadratic()):
            return q
    return None


def dense_spectrum_check(mats, S, n):
    """`spectrum_check` on dense matrices: (True, None), or (False, the
    first degree and row-major entry where M (M - y_S I) is nonzero)."""
    from osgm.poly import Quadratic

    ys = LinearForm.subset_sum(tuple(S), n)
    for q, m in enumerate(mats):
        shifted = [[c - ys if i == j else c for j, c in enumerate(row)]
                   for i, row in enumerate(m)]
        for i, row in enumerate(dense_product(m, shifted, Quadratic())):
            for j, c in enumerate(row):
                if c:
                    return False, {"degree": q, "row": i, "col": j}
    return True, None
