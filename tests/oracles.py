# Independent oracles used across test files.  These deliberately avoid the
# library's own elimination and reduction code so that every derived number
# has a second route.

from fractions import Fraction
from itertools import combinations

from osgm.poly import Polynomial


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
    zero = Polynomial.zero(n)
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
                row[idx[V]] = row[idx[V]] + Polynomial.variable(j, n) * (sgn * b)
    if k <= ell:
        idx = index[k]
        row = mats[k][idx[s0]]
        for U, b in bnd:
            for j in range(1, n + 1):
                if j not in U:
                    V, sgn = _sort_sign((j,) + U)
                    row[idx[V]] = row[idx[V]] + Polynomial.variable(j, n) * (b * sgn)
    return mats


def _product(a, b, zero):
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
    zero = Polynomial.zero(n)
    return [
        _product(_product(inv.mats[p], act.subst_mat(base[p]), zero), act.mats[p], zero)
        for p in range(ell + 1)
    ]
