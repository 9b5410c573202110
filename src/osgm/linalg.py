"""Exact linear algebra over the rationals, row-vector convention.

A matrix is a list of sparse rows {col: entry} holding its nonzero
entries only, so two rows are equal exactly when their dicts are.
Elimination and products both work on that form, and every sum of scaled
rows goes through `add_scaled`, which is where that invariant is kept;
`form_matmul` alone drops its zero sums at the end of each row.
Linear maps act on row vectors, v -> v @ M, so the kernel of a map is the
left null space of its matrix and images are spanned by rows.
Elimination clears each row's denominators once and then runs
fraction-free over int (`_integer_echelon`), taking as each pivot row the
sparsest row that can serve; Fractions appear only where the returned
rows are divided by their pivots.

A matrix of linear forms in the weights y_1..y_n is kept as sparse int
rows keyed (col, j), the coefficient of y_j in the entry at column col.
A product of two of them (`form_matmul`) has rows keyed (col, j, k),
j <= k, the coefficient of y_j y_k: each entry is a quadratic form, zero
exactly when all its coefficients are, so comparing the rows compares the
products exactly.  Times an int matrix on the right the keys stay
(col, j); times one on the left it is a plain `matmul`.  Specializing
has one route: a weight vector clears its denominators once
(`clear_denominators`, in `aomoto.Weights`), a matrix of forms is grouped
by column once (`by_column`, kept by the complex or endomorphism that
owns it), and `evaluate_int` evaluates that layout at the int point
N = D * lam, so a specialized map is D times its value at lam, in int.
Nothing here is numerical, modular or probabilistic.
"""

from fractions import Fraction
from math import gcd, lcm


def clear_denominators(xs):
    """(D, [D*x for x in xs]) for a sequence of ints and Fractions: D is
    the least common multiple of their denominators (1 when there are
    none), so every D*x is an int."""
    d = lcm(*(x.denominator for x in xs))
    return d, [x.numerator * (d // x.denominator) for x in xs]


def add_scaled(acc, row, f):
    """Add f times the sparse row `row` into the sparse row `acc`, in place.

    f must be nonzero.  Entries that cancel are deleted and a product of
    nonzero ints or Fractions is never zero, so `acc` stores no zero as
    long as `row` stores none.
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


def _integer_echelon(m):
    """Gauss-Jordan elimination of sparse rows over int: (rows, pivots),
    one int row per pivot column, in pivot order, each zero at every other
    pivot.  Each row is first scaled to a primitive int row, which changes
    neither its span nor its reduced form: an int row is read with one `gcd`
    of its values and copied whole when that content is 1, and a row holding
    a Fraction, which `gcd` refuses, has its denominators cleared first.  A
    pivot a clears the entry b of a row as (a/g) row - (b/g) prow with
    g = gcd(a, b), and the row is divided by its content again, so its
    entries stay small.  The pivot row of column c is, of the rows not yet
    used that hold c, the one with the fewest entries (the first on a tie),
    since clearing c adds it to every other row holding c.  The reduced
    form is unique, so that choice moves only the fill: each returned row is
    the primitive int multiple, up to sign, of the same reduced row, at the
    same pivot.  The input is not modified.
    """
    rows, cols = [], set()
    for row in m:
        if row:
            try:
                g = gcd(*row.values())
            except TypeError:  # a Fraction among the entries
                row = dict(zip(row, clear_denominators(list(row.values()))[1]))
                g = gcd(*row.values())
            rows.append({j: x // g for j, x in row.items()} if g > 1 else row.copy())
            cols.update(row)
    nrows = len(rows)
    pivots = []
    r = 0
    for c in sorted(cols):
        i, size = None, None
        for k in range(r, nrows):
            row = rows[k]
            if c in row and (i is None or len(row) < size):
                i, size = k, len(row)
        if i is None:
            continue
        prow = rows[i]
        rows[i] = rows[r]
        rows[r] = prow
        # the pivot column is cleared by deleting it, not by computing zeros
        a = prow.pop(c)
        for row in rows:
            b = row.pop(c, None)
            if b is None or row is prow:
                continue
            g = gcd(a, b)
            f = a // g
            if f != 1:
                for j in row:
                    row[j] *= f
            add_scaled(row, prow, -(b // g))
            g = gcd(*row.values())
            if g > 1:
                for j in row:
                    row[j] //= g
        prow[c] = a
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows[:r], pivots


def rref(m):
    """Reduced row echelon form of sparse rows: (rows, pivot_columns), the
    rows of `_integer_echelon` divided by their pivots, as Fractions.  The
    form is unique, so equal row spaces give equal results.  The input is
    not modified.
    """
    rows, pivots = _integer_echelon(m)
    return [{j: Fraction(x, row[p]) for j, x in row.items()}
            for row, p in zip(rows, pivots)], pivots


def rank(m):
    """The number of pivots of the integer echelon form of sparse rows."""
    return len(_integer_echelon(m)[1])


def image_and_kernel(m, d=1):
    """One integer elimination of d * [M | I], where m holds the rows of
    d * M: (rows, pivots, kernel, kernel_pivots).

    Each row is an int row of `_integer_echelon` standing for row / row[pivot]:
    so divided, `rows` and `pivots` are `rref` of M, and `kernel` is the reduced
    basis of the left null space {v : v @ M = 0}.  Row i of m carries d times
    the unit vector e_i in a block right of M's columns, so each reduced row
    records the combination of M's rows it is; the rows whose pivot falls in
    that block are zero on M, and they are the kernel.

    The results do not depend on d.  For a rational M, pass its common
    denominator d and the int rows d * M: row i is then d * [M_i | e_i],
    and `_integer_echelon` divides it by its content to the same primitive
    row it makes of [M_i | e_i], so the elimination runs as from the
    rational rows.  A block of 1 would leave d * M_i | e_i, whose content
    is 1, up to d times larger than that row.
    """
    width = 1 + max((max(row) for row in m if row), default=-1)
    red, piv = _integer_echelon([{**row, width + i: d} for i, row in enumerate(m)])
    r = sum(p < width for p in piv)
    rows = [{j: x for j, x in row.items() if j < width} for row in red[:r]]
    kernel = [{j - width: x for j, x in row.items()} for row in red[r:]]
    return rows, piv[:r], kernel, [p - width for p in piv[r:]]


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
    """Product of two matrices given as sparse rows, as sparse rows with
    zero sums dropped, so two products are equal exactly when their row
    dicts are.

    The entries of a are ints or Fractions; the rows of b may be keyed by
    column or by (col, j), so an int matrix times a matrix of linear forms
    is a matmul too.  Only nonzero pairs are multiplied, so the cost
    follows the nonzeros, not the shape, and int entries keep the whole
    product in int arithmetic.
    """
    out = []
    for row in a:
        acc = {}
        for k, x in row.items():
            add_scaled(acc, b[k], x)
        out.append(acc)
    return out


def form_matmul(a, b):
    """Product of a matrix of linear forms, rows keyed (i, j), with the
    matrix b: with int rows keyed col the product's rows are keyed
    (col, j), with rows of forms keyed (col, k) they are keyed (col, j, k)
    with j <= k, see the module docstring.  Each row sums every product
    into one dict and drops its zero sums once at the end, which is twice
    as fast here as deleting them as they cancel in `add_scaled`.
    """
    out = []
    for row in a:
        acc = {}
        get = acc.get
        for (i, j), x in row.items():
            for key, y in b[i].items():
                if key.__class__ is int:
                    key = (key, j)
                else:
                    c, k = key
                    key = (c, j, k) if j <= k else (c, k, j)
                acc[key] = get(key, 0) + x * y
        out.append({key: v for key, v in acc.items() if v})
    return out


def by_column(rows):
    """The evaluation layout of sparse rows of linear forms keyed (col, j):
    per row, a tuple of (col, ((j, c), ...)), the terms of each stored entry
    gathered under its column, columns in the order the row first holds
    them.  A complex or an endomorphism builds it once (`layouts`), and
    `evaluate_int` reads it at every weight."""
    out = []
    for row in rows:
        cols = {}
        for (col, j), c in row.items():
            if col in cols:
                cols[col] += ((j, c),)
            else:
                cols[col] = ((j, c),)
        out.append(tuple(cols.items()))
    return out


def evaluate_int(layout, nums, nvars):
    """Sparse rows of linear forms in nvars variables, in the layout of
    `by_column`, at the point nums, as sparse rows {col: value}; zero values
    are dropped.  An entry takes the value sum c_j nums_j, an int for int
    coefficients and int nums."""
    if len(nums) != nvars:
        raise ValueError("expected %d values, got %d" % (nvars, len(nums)))
    if not any(layout):
        return [{} for _ in layout]  # a zero map, as induced maps often are
    point = (0,) + tuple(nums)
    out = []
    for row in layout:
        vals = {}
        for col, terms in row:
            v = 0
            for j, c in terms:
                v += c * point[j]
            if v:
                vals[col] = v
        out.append(vals)
    return out
