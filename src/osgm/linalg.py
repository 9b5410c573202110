"""Exact linear algebra over Fraction, row-vector convention.

All matrices are lists of lists.  Linear maps act on row vectors,
v -> v @ M, so the kernel of a map is the left null space of its matrix
and images are spanned by rows.  Everything is done with rational
Gaussian elimination; nothing here is numerical.
"""

from fractions import Fraction


def rref(m):
    """Reduced row echelon form.

    Returns (rows, pivot_columns).  The input is not modified.  Zero rows
    are kept at the bottom so the output has the same shape as the input.
    """
    rows = [list(r) for r in m]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(m):
    return len(rref(m)[1])


def kernel_basis(m):
    """Basis of {v : v @ m = 0}, echelonized, leading entries 1.

    The result is canonical: it is the reduced row echelon form of the
    left null space, so equal subspaces give equal bases.
    """
    nrows = len(m)
    if nrows == 0:
        return []
    # left null space of m = standard null space of transpose(m)
    t = [[m[i][j] for i in range(nrows)] for j in range(len(m[0]))]
    rows, pivots = rref(t)
    pivset = set(pivots)
    basis = []
    for free in range(nrows):
        if free in pivset:
            continue
        v = [Fraction(0)] * nrows
        v[free] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -rows[i][free]
        basis.append(v)
    rows, _ = rref(basis)
    return [r for r in rows if any(r)]


def coset_reduce(v, basis):
    """Canonical representative of v modulo the row span of basis.

    Reduces v so its entries vanish at every pivot column of the span;
    two vectors reduce to the same result iff they differ by an element
    of the span.
    """
    v = list(v)
    if not basis:
        return v
    rows, pivots = rref(basis)
    for i, p in enumerate(pivots):
        if v[p]:
            f = v[p]
            v = [a - f * b for a, b in zip(v, rows[i])]
    return v


def solve_row_combination(rows, w):
    """Coefficients x with x @ rows == w, or None if w is not in the span.

    Free coefficients are set to zero, so the answer is deterministic.
    """
    k = len(rows)
    if k == 0:
        return [] if not any(w) else None
    ncols = len(rows[0])
    # solve transpose(rows) @ x = w by augmented elimination
    aug = [[rows[i][j] for i in range(k)] + [w[j]] for j in range(ncols)]
    red, pivots = rref(aug)
    if k in pivots:
        return None
    x = [Fraction(0)] * k
    for i, p in enumerate(pivots):
        x[p] = red[i][k]
    return x


def matmul(a, b, zero):
    """Matrix product; `zero` supplies the additive identity of the ring."""
    if not a or not b:
        return []
    ncols = len(b[0])
    # nonzero entries of each row of b, collected the first time a row is used
    support = [None] * len(b)
    out = []
    for row in a:
        acc = [zero] * ncols
        for k, x in enumerate(row):
            if not x:
                continue
            nz = support[k]
            if nz is None:
                nz = support[k] = [(j, y) for j, y in enumerate(b[k]) if y]
            for j, y in nz:
                acc[j] = acc[j] + x * y
        out.append(acc)
    return out


def mat_evaluate(m, lam):
    """Specialize a polynomial matrix at a rational weight vector."""
    return [[entry.evaluate(lam) for entry in row] for row in m]


def identity_matrix(n):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def zero_matrix(nrows, ncols, zero):
    return [[zero] * ncols for _ in range(nrows)]
