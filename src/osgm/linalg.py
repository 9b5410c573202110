"""Exact linear algebra over Fraction, row-vector convention.

Elimination works on dense matrices, lists of lists.  Products work on
sparse rows: a matrix is a list of rows {col: entry} holding its nonzero
entries only, and `dense` builds the list-of-lists view of one.  Linear
maps act on row vectors, v -> v @ M, so the kernel of a map is the left
null space of its matrix and images are spanned by rows.  Everything is
done with rational Gaussian elimination; nothing here is numerical.
"""

from fractions import Fraction


def rref(m):
    """Reduced row echelon form.

    Returns (rows, pivot_columns).  The input is not modified.  Zero rows
    are kept at the bottom so the output has the same shape as the input.
    Row operations touch only the nonzero entries of the pivot row: the
    entries it would add zero to are left as they are.
    """
    rows = [list(r) for r in m]
    if not rows:
        return [], []
    nrows, ncols = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        # left of c the pivot row is zero: earlier columns are cleared or
        # had no nonzero entry in the rows not yet used as pivots
        inv = Fraction(1) / prow[c]
        support = []
        for j in range(c + 1, ncols):
            if prow[j]:
                prow[j] = prow[j] * inv
                support.append((j, prow[j]))
        prow[c] = Fraction(1)
        for i in range(nrows):
            row = rows[i]
            f = row[c]
            if i != r and f:
                for j, b in support:
                    row[j] = row[j] - f * b
                row[c] = Fraction(0)
        pivots.append(c)
        r += 1
        if r == nrows:
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
    rows, pivots = rref(basis)
    return rows[:len(pivots)]


def echelon_reduce(v, rows, pivots):
    """v minus the combination of rows that clears every pivot column.

    `rows` and `pivots` are the nonzero rows of a reduced row echelon form
    and their pivot columns, as `rref` returns them; the coefficient of
    row i is the entry of v at its pivot, since no other row touches that
    column.  The result is zero exactly when v lies in the row span.
    """
    v = list(v)
    for row, p in zip(rows, pivots):
        f = v[p]
        if f:
            for j in range(p, len(v)):
                b = row[j]
                if b:
                    v[j] = v[j] - f * b
    return v


def solve_row_combination(rows, w):
    """Coefficients x with x @ rows == w, or None if w is not in the span.

    Free coefficients are set to zero, so the answer is deterministic.
    The library reads class coordinates off pivots instead; the test suite
    solves through this as a cross-check, and the benchmark tracer in
    perfbench/child.py looks it up here by name.
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


def matmul(a, b):
    """Product of two matrices given as sparse rows {col: entry}, as sparse
    rows with zero sums dropped, so two products are equal exactly when
    their row dicts are.

    Only nonzero pairs are multiplied, so the cost follows the nonzeros,
    not the shape.  Entries may be ints, Fractions or linear forms (the
    product of two forms is a `Quadratic`); integer entries keep the whole
    product in int arithmetic.
    """
    out = []
    for row in a:
        if not row:
            out.append({})
            continue
        acc = {}
        for k, x in row.items():
            for j, y in b[k].items():
                s = acc.get(j)
                acc[j] = x * y if s is None else s + x * y
        out.append({j: s for j, s in acc.items() if s})
    return out


def evaluate_rows(rows, lam):
    """Specialize sparse rows of linear forms at a rational weight vector,
    evaluating only the stored entries; zero values are dropped."""
    out = []
    for row in rows:
        vals = {}
        for j, f in row.items():
            v = f.evaluate(lam)
            if v:
                vals[j] = v
        out.append(vals)
    return out


def dense(rows, ncols, zero):
    """The list-of-lists view of sparse rows, `zero` off their support."""
    return [[row.get(j, zero) for j in range(ncols)] for row in rows]


def identity_matrix(n):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
