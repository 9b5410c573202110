"""Exact linear algebra over Fraction, row-vector convention.

A matrix is a list of sparse rows {col: entry} holding its nonzero
entries only, so two rows are equal exactly when their dicts are.
Elimination and products both work on that form, and every sum of scaled
rows goes through `add_scaled`, which is where that invariant is kept;
`dense` builds the list-of-lists view of a matrix for printing.  Linear maps
act on row vectors, v -> v @ M, so the kernel of a map is the left null
space of its matrix and images are spanned by rows.  Everything is done
with rational Gaussian elimination; nothing here is numerical.
"""

from fractions import Fraction

_ONE = Fraction(1)


def add_scaled(acc, row, f):
    """Add f times the sparse row `row` into the sparse row `acc`, in place.

    f must be nonzero.  Entries that cancel are deleted and a product of
    nonzero ints, Fractions or linear forms is never zero, so `acc` stores
    no zero as long as `row` stores none.
    """
    for j, b in row.items():
        s = acc.get(j)
        if s is None:
            acc[j] = f * b
        else:
            s = s + f * b
            if s:
                acc[j] = s
            else:
                del acc[j]


def rref(m):
    """Reduced row echelon form of sparse rows.

    Returns (rows, pivot_columns): the nonzero rows of the reduced form,
    in pivot order, each holding its pivot entry 1.  The form is unique,
    so equal row spaces give equal results.  The input is not modified.
    Row operations touch only the nonzero entries of the pivot row, and
    never its pivot column, which is set rather than computed.
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
        inv = _ONE / prow.pop(c)
        support = {j: b * inv for j, b in prow.items()}
        prow.update(support)
        prow[c] = _ONE
        for row in rows:
            if c in row and row is not prow:
                add_scaled(row, support, -row.pop(c))
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows[:r], pivots


def rank(m):
    return len(rref(m)[1])


def image_and_kernel(m):
    """One elimination of [M | I]: (rows, pivots, kernel).

    `rows` and `pivots` are the reduced row echelon form of M, as `rref`
    gives them; `kernel` is the reduced row echelon basis of the left null
    space {v : v @ M = 0}.  Row i of M carries the unit vector e_i in a
    block right of M's columns, so each reduced row records the
    combination of M's rows it is; the rows whose pivot falls in that
    block are zero on M, and they are the kernel.
    """
    width = 1 + max((max(row) for row in m if row), default=-1)
    aug = []
    for i, row in enumerate(m):
        row = dict(row)
        row[width + i] = 1
        aug.append(row)
    red, piv = rref(aug)
    r = sum(p < width for p in piv)
    rows = [{j: x for j, x in row.items() if j < width} for row in red[:r]]
    kernel = [{j - width: x for j, x in row.items()} for row in red[r:]]
    return rows, piv[:r], kernel


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


def solve_row_combination(rows, w):
    """Coefficients x with x @ rows == w, or None if w is not in the span.

    `rows` are sparse rows and `w` a sparse vector; x is a list with one
    coefficient per row.  Free coefficients are set to zero, so the answer
    is deterministic.  The library reads class coordinates off pivots
    instead; the test suite solves through this as a cross-check, and the
    benchmark tracer in perfbench/child.py looks it up here by name.
    """
    k = len(rows)
    # solve transpose(rows) @ x = w by augmented elimination
    aug = {}
    for i, row in enumerate(rows):
        for j, x in row.items():
            aug.setdefault(j, {})[i] = x
    for j, x in w.items():
        aug.setdefault(j, {})[k] = x
    red, pivots = rref(list(aug.values()))
    if k in pivots:
        return None
    x = [Fraction(0)] * k
    for row, p in zip(red, pivots):
        x[p] = row.get(k, Fraction(0))
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
        acc = {}
        for k, x in row.items():
            add_scaled(acc, b[k], x)
        out.append(acc)
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
