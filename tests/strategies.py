# Hypothesis strategies for small combinatorial types, realized and
# user-asserted, for pairs of types that may be a degeneration, and for
# linear forms in the weights and matrices of them.

from fractions import Fraction
from itertools import combinations

from hypothesis import strategies as st

from osgm.arrangement import Arrangement, CombinatorialType, generic_type
from oracles import Form, pencil_realization, type_from_json


def _moment(t, width):
    return [Fraction(t) ** k for k in range(width)]


def pencils_realization(n, ell, pencils):
    """Rows of n hyperplanes in C^ell where the members of each (S, r) in
    `pencils` (disjoint subsets of [n]) lie in their own rank-r subspace,
    spanned by moment rows at nodes past n, and every other row is the
    moment row at its own index.  With one pencil on S inside [n] this is
    `pencil_realization`."""
    rows = [_moment(j, ell + 1) for j in range(1, n + 1)]
    node = n + 1
    for S, r in pencils:
        base = [_moment(node + k, ell + 1) for k in range(r)]
        node += r
        for j in S:
            w = _moment(j, r)
            rows[j - 1] = [sum(w[k] * base[k][c] for k in range(r)) for c in range(ell + 1)]
    return Arrangement(ell, n, [tuple(row) for row in rows])


@st.composite
def integer_arrangements(draw):
    """Small-integer rows, so repeated and proportional rows, parallel
    hyperplanes and concurrences all turn up.  Not necessarily essential."""
    ell = draw(st.integers(1, 3))
    n = draw(st.integers(2, 6))
    rows = []
    for _ in range(n):
        row = draw(st.lists(st.integers(-2, 2), min_size=ell + 1, max_size=ell + 1))
        if not any(row[1:]):
            row[1] = 1
        rows.append(tuple(Fraction(x) for x in row))
    return Arrangement(ell, n, rows)


@st.composite
def special_arrangements(draw):
    """Small-integer rows in special position by construction: each row
    after the first is fresh, a multiple of an earlier row (a repeated
    hyperplane), an earlier coefficient part with a new constant term (a
    parallel class), or a hyperplane through one common point."""
    ell = draw(st.integers(1, 3))
    n = draw(st.integers(2, 7))
    point = draw(st.lists(st.integers(-2, 2), min_size=ell, max_size=ell))

    def coefficients():
        c = draw(st.lists(st.integers(-2, 2), min_size=ell, max_size=ell))
        return c if any(c) else [1] + c[1:]

    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(["fresh", "repeated", "parallel", "concurrent"]))
        if kind == "fresh" or not rows:
            row = [draw(st.integers(-2, 2))] + coefficients()
        elif kind == "repeated":
            scale = draw(st.sampled_from([1, -1, 2, Fraction(1, 2)]))
            row = [scale * x for x in draw(st.sampled_from(rows))]
        elif kind == "parallel":
            row = [draw(st.integers(-2, 2))] + list(draw(st.sampled_from(rows))[1:])
        else:
            c = coefficients()
            row = [-sum(x * p for x, p in zip(c, point))] + c
        rows.append(tuple(Fraction(x) for x in row))
    return Arrangement(ell, n, rows)


@st.composite
def wide_arrangements(draw):
    """Rows in the special positions of `special_arrangements` with wide
    entries: ints up to +-10^12 and Fractions with denominators up to
    10^6, at ell up to 5, so null vectors have large contents to divide
    out.  n runs from ell, where the largest subset is [n] itself and
    smaller than ell+1, to ell+4.  Not necessarily essential."""
    ell = draw(st.integers(1, 5))
    n = draw(st.integers(ell, ell + 4))
    entry = st.one_of(st.just(0), st.integers(-10**12, 10**12),
                      st.fractions(-10**12, 10**12, max_denominator=10**6))
    point = draw(st.lists(entry, min_size=ell, max_size=ell))

    def coefficients():
        c = draw(st.lists(entry, min_size=ell, max_size=ell))
        return c if any(c) else [1] + c[1:]

    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(["fresh", "repeated", "parallel", "concurrent"]))
        if kind == "fresh" or not rows:
            row = [draw(entry)] + coefficients()
        elif kind == "repeated":
            scale = draw(entry.filter(bool))
            row = [scale * x for x in draw(st.sampled_from(rows))]
        elif kind == "parallel":
            row = [draw(entry)] + list(draw(st.sampled_from(rows))[1:])
        else:
            c = coefficients()
            row = [-sum(x * p for x, p in zip(c, point))] + c
        rows.append(tuple(Fraction(x) for x in row))
    return Arrangement(ell, n, rows)


@st.composite
def pencil_arrangements(draw, count=1):
    """Realizations of pencil types with `count` disjoint pencils; a single
    pencil may contain the hyperplane at infinity."""
    ell = draw(st.integers(1, 3))
    n = draw(st.integers(2 * count, 7))
    free = list(range(1, n + 2 if count == 1 else n + 1))
    pencils = []
    for _ in range(count):
        S = tuple(sorted(draw(st.lists(st.sampled_from(free), min_size=2,
                                       max_size=min(len(free), 5), unique=True))))
        r = draw(st.integers(1, min(ell, len(S) - 1)))
        if n + 1 in S and r == 1:
            S = tuple(j for j in S if j <= n)
            if len(S) < 2:
                S = (1, 2)
        pencils.append((S, r))
        free = [j for j in free if j not in S]
        if len(free) < 2:
            break
    if count == 1:
        (S, r), = pencils
        return pencil_realization(n, ell, S, r)
    return pencils_realization(n, ell, pencils)


def upward_closure(n, ell, seeds):
    """The smallest dependent family, in the stored grades 2..ell+1, that
    holds the seed sets and every superset of a dependent set."""
    dep = {q: set() for q in range(2, min(ell + 1, n + 1) + 1)}
    for K in seeds:
        if len(K) in dep:
            dep[len(K)].add(tuple(sorted(K)))
    for q in sorted(dep):
        if q + 1 in dep:
            for K in dep[q]:
                for j in range(1, n + 2):
                    if j not in K:
                        dep[q + 1].add(tuple(sorted(K + (j,))))
    return dep


@st.composite
def _seed_sets(draw, n, ell, max_size):
    sizes = list(range(2, min(ell + 1, n + 1) + 1))
    out = []
    for _ in range(draw(st.integers(0, max_size))):
        q = draw(st.sampled_from(sizes))
        out.append(tuple(sorted(draw(st.lists(st.integers(1, n + 1), min_size=q,
                                              max_size=q, unique=True)))))
    return out


def _asserted_type(n, ell, seeds, empty):
    """A user-asserted type read from its JSON record."""
    dep = upward_closure(n, ell, seeds)
    return type_from_json({
        "n": n, "ell": ell,
        "dep": {str(q): [list(K) for K in sorted(fam)] for q, fam in dep.items()},
        "affine_empty": [list(S) for S in empty],
    })


@st.composite
def asserted_types(draw):
    ell = draw(st.integers(1, 3))
    n = draw(st.integers(2, 6))
    seeds = draw(_seed_sets(n, ell, 4))
    empty = [S for S in combinations(range(1, n + 1), 2) if draw(st.booleans())]
    return _asserted_type(n, ell, seeds, empty)


def realized_types():
    return st.one_of(integer_arrangements(), pencil_arrangements(1),
                     pencil_arrangements(2)).map(CombinatorialType.from_arrangement)


@st.composite
def type_pairs(draw):
    """(special, general) on one (n, ell), usually a degeneration and often
    with a general type that is not generic; some pairs are not comparable
    at all, and some need more than one pencil."""
    kind = draw(st.sampled_from(["asserted", "pencils", "generic", "collision"]))
    if kind == "asserted":
        ell = draw(st.integers(1, 3))
        n = draw(st.integers(2, 6))
        general = draw(_seed_sets(n, ell, 2))
        special = general + draw(_seed_sets(n, ell, 3))
        return _asserted_type(n, ell, special, []), _asserted_type(n, ell, general, [])
    if kind == "pencils":
        ell = draw(st.integers(1, 3))
        n = draw(st.integers(4, 7))
        S1 = tuple(sorted(draw(st.lists(st.integers(1, n), min_size=2, max_size=min(4, n - 2),
                                        unique=True))))
        rest = [j for j in range(1, n + 1) if j not in S1]
        S2 = tuple(sorted(draw(st.lists(st.sampled_from(rest), min_size=2,
                                        max_size=min(len(rest), 4), unique=True))))
        p1 = (S1, draw(st.integers(1, min(ell, len(S1) - 1))))
        p2 = (S2, draw(st.integers(1, min(ell, len(S2) - 1))))
        general = pencils_realization(n, ell, [p1])
        special = pencils_realization(n, ell, [p1, p2])
    elif kind == "generic":
        special = draw(integer_arrangements())
        general = generic_type(special.n, special.ell).realization
    else:
        # one row moved onto another: a collision inside a non-generic type
        general = draw(integer_arrangements())
        i, j = draw(st.lists(st.integers(1, general.n), min_size=2, max_size=2, unique=True))
        rows = list(general.rows)
        rows[i - 1] = rows[j - 1]
        special = Arrangement(general.ell, general.n, rows)
    return (CombinatorialType.from_arrangement(special),
            CombinatorialType.from_arrangement(general))


@st.composite
def infinity_pencil_pairs(draw):
    """(special, general): a pencil through the hyperplane at infinity
    against the generic type."""
    ell = draw(st.integers(2, 3))
    n = draw(st.integers(3, 6))
    S = draw(st.lists(st.integers(1, n), min_size=2, max_size=4, unique=True))
    S = tuple(sorted(S)) + (n + 1,)
    r = draw(st.integers(2, min(ell, len(S) - 1)))
    return (CombinatorialType.from_arrangement(pencil_realization(n, ell, S, r)),
            generic_type(n, ell))


def realized_type_pairs():
    """The pairs of `type_pairs` built from realizations, and pencils
    through infinity."""
    return st.one_of(type_pairs().filter(lambda pair: pair[0].realization is not None),
                     infinity_pencil_pairs())


def small_rationals():
    return st.fractions(min_value=-5, max_value=5, max_denominator=4)


def linear_forms(n, max_terms=3):
    """Linear forms in y_1..y_n with a few small rational coefficients."""
    return st.dictionaries(st.integers(1, n), small_rationals(), max_size=max_terms).map(
        lambda terms: Form(n, terms))


def linear_form_matrices(n, rows, cols):
    return st.lists(st.lists(linear_forms(n), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)
