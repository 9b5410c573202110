"""Realization matrices and dependent-set combinatorics.

An arrangement of n affine hyperplanes in C^ell is stored as the n x (ell+1)
matrix of rows (b0, b1, ..., bell), hyperplane j being the zero set of
b0 + b1*u1 + ... + bell*uell.  Index n+1 always refers to the hyperplane at
infinity with the implicit row (1, 0, ..., 0); it is never part of the input.

Dependence of a subset of [n+1] means linear dependence of the corresponding
rows.  A dependent set is "starred" when the hyperplanes of the projective
closure actually share a point, i.e. when the rows have rank at most ell.
For sets of size at most ell+1 dependence already forces this, so the star
filter only thins out the larger sets.

A realization's type comes from one depth-first walk over the subsets of
[n], in `combinations` order, up to size min(ell+1, n), and no
elimination.  Rows are stored as ints with the constant b0 last, in
column ell, and the walk carries for each subset S a primitive int basis
of the null space N(S) = {v : row . v = 0 for every row of S}, starting
from the unit basis at the empty set.  The row space of S is N(S)^perp.
Adding row j takes one dot product d_m = row_j . v_m per basis vector:

- If every d_m is zero, row_j lies in N(S)^perp, the row space of S, so
  N(S + j) = N(S) and the rank stays.
- Otherwise, with i the first index where d_i != 0, the vectors
  w_m = d_i v_m - d_m v_i for m != i, each divided by its content, are a
  basis of N(S + j).  Each lies in N(S), and row_j . w_m =
  d_i d_m - d_m d_i = 0.  They are independent, since v_m appears in w_m
  alone, with the coefficient d_i != 0.  And there are |N(S)| - 1 of
  them, which is the dimension of N(S + j) now that row_j is outside
  N(S)^perp.

So rank T = ell+1 - |N(T)|, and T is dependent when that is less than
|T|: exactly when its parent is, or when every d_m is zero.  Row j is
the zero set of row_j . (u, 1), so T has a common affine point u exactly
when some v in N(T) has v_ell != 0 (scale it to 1), that is when some
basis vector is nonzero at column ell.  So T is empty exactly when every
vector of N(T) is zero at column ell, which says e_ell lies in N(T)^perp,
the row space of T (Rouche-Capelli).  Infinity's row is e_ell, so
S + {n+1} is dependent when S is dependent or empty; for a singleton
that is a row with no coefficient part.  A leaf, of size min(ell+1, n),
builds no basis: it reads only column ell of each w_m, and under an
independent parent of size ell, where N(S) is one vector, it costs one
dot product.

Repeated hyperplanes are valid input.  Two identical rows i, j (or rows
that are multiples of each other) make {i, j} a dependent pair, the rank-1
pencil on two hyperplanes: the type of a collision, which `osgm gm` can
recover from a pair of files or take as `--pencil i,j 1`.
"""

import json
import sys
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import gcd
from operator import mul

from .linalg import clear_denominators, rank
from .orlik_solomon import insertions
from .poly import parse_rational


def _whole_number(data, key):
    """data[key] as an int: booleans, strings and fractional floats are
    refused rather than read as 1, 0, parsed or truncated."""
    x = data[key]
    if type(x) is not int and not (type(x) is float and x.is_integer()):
        raise ValueError("%s must be an integer, not %r" % (key, x))
    return int(x)


def read_json(path):
    """The JSON document in a file; bytes that are not UTF-8, text that is
    not JSON, nesting too deep for the parser, or a number past Python's
    limit on the digits int() converts, is a ValueError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as e:
            raise ValueError("%s: not UTF-8 text: %s" % (path, e)) from None
        except json.JSONDecodeError as e:
            raise ValueError("%s: not valid JSON: %s" % (path, e)) from None
        except RecursionError:
            raise ValueError("%s: JSON nested too deeply to parse" % path) from None
        except ValueError:  # the only other ValueError json raises on reading
            raise ValueError("%s: a number has more than %d digits, Python's limit for "
                             "int conversion" % (path, sys.get_int_max_str_digits())) from None


class Arrangement:

    __slots__ = ("n", "ell", "rows", "_int_rows")

    def __init__(self, ell, n, rows):
        self.ell = ell
        self.n = n
        self.rows = rows
        # dense int rows with the same span, for the type's walk: each row
        # times its common denominator, the constant moved last to column ell
        self._int_rows = [b[1:] + b[:1] for b in (clear_denominators(r)[1] for r in rows)]

    @classmethod
    def from_json(cls, data):
        """Build from {"ell": int, "n": int, "rows": [["b0",...,"bell"],...]}.

        Raises ValueError naming the offending row on malformed entries,
        and rejects non-hyperplane rows and non-essential arrangements.
        """
        try:
            ell = _whole_number(data, "ell")
            n = _whole_number(data, "n")
            raw = data["rows"]
        except (KeyError, TypeError) as e:
            raise ValueError("arrangement file needs ell, n and rows") from e
        if ell < 1:
            raise ValueError("ell must be at least 1")
        if not isinstance(raw, (list, tuple)):
            raise ValueError("rows must be a list")
        if len(raw) != n:
            raise ValueError("expected %d rows, found %d" % (n, len(raw)))
        rows = []
        for i, entry in enumerate(raw, start=1):
            if not isinstance(entry, (list, tuple)) or len(entry) != ell + 1:
                raise ValueError("row %d: expected a list of %d entries" % (i, ell + 1))
            try:
                row = tuple(parse_rational(str(x)) for x in entry)
            except ValueError as e:
                raise ValueError("row %d: %s" % (i, e)) from e
            if not any(row[1:]):
                raise ValueError("row %d: coefficient part is zero, not a hyperplane" % i)
            rows.append(row)
        arr = cls(ell, n, rows)
        if rank([{k: x for k, x in enumerate(r[:ell]) if x} for r in arr._int_rows]) < ell:
            raise ValueError("arrangement is not essential: coefficient rank < ell")
        return arr

    @classmethod
    def from_file(cls, path):
        return cls.from_json(read_json(path))

    def to_json(self):
        return {"ell": self.ell, "n": self.n,
                "rows": [[str(x) for x in row] for row in self.rows]}


class CombinatorialType:
    """The graded family of dependent subsets of [n+1], with the extra
    affine data needed by the Orlik-Solomon side (which subsets of [n] have
    empty intersection).

    Types built from a realization carry it as a witness; user-asserted
    types are accepted after a monotonicity check but flagged, since
    realizability is not decided here.  A type is immutable once built, so
    everything derived from it lives in its store (see `derived`).
    """

    def __init__(self, n, ell, dep, affine_empty, realization=None):
        self.n = n
        self.ell = ell
        # sizes >= ell+2 are dependent outright, so only 2..ell+1 is stored;
        # a set listed twice is stored once
        self.dep = {}
        for q in range(2, min(ell + 1, n + 1) + 1):
            self.dep[q] = sorted({tuple(sorted(S)) for S in dep.get(q, [])})
        self.affine_empty = sorted({tuple(sorted(S)) for S in affine_empty})
        self.realization = realization
        # membership tables; dep and affine_empty are never reassigned
        self._dep_sets = {q: frozenset(fam) for q, fam in self.dep.items()}
        self._empty_set = frozenset(self.affine_empty)
        self._validate()
        self._store = {}  # filled by derived()

    def derived(self, key, build):
        """`build(self)`, computed on first use and kept as long as the type.

        Each module fills the keys of the data it owns.  Values are shared:
        callers treat them as read-only, except memo tables built empty.
        Every key holds data of the combinatorics alone (starred sets,
        circuits, reductions, the Aomoto complex), so equal types may share
        one store: a realized type with no dependent set up to size ell+1
        is generic, its affine-empty sets are the (ell+1)-sets, and it uses
        `generic_type`'s store.
        """
        if key not in self._store:
            self._store[key] = build(self)
        return self._store[key]

    def _validate(self):
        universe = range(1, self.n + 2)
        for q, fam in self.dep.items():
            for S in fam:
                if len(S) != q or len(set(S)) != q or not all(j in universe for j in S):
                    raise ValueError("bad dependent set %r in grade %d" % (S, q))
        for S in self.affine_empty:
            if self.n + 1 in S:
                raise ValueError("affine data may not mention the infinity row")
        # any superset (within sizes <= ell+1) of a dependent set is dependent
        for q in sorted(self.dep):
            if q + 1 not in self.dep:
                break
            bigger = self._dep_sets[q + 1]
            for S in self.dep[q]:
                for _, _, sup in insertions(S, self.n + 1):
                    if sup not in bigger:
                        raise ValueError(
                            "dependent set %r has independent superset %r" % (S, sup)
                        )

    @classmethod
    def from_arrangement(cls, a):
        """The type of a realization, by the null-space walk of the module
        docstring, which also proves it.  Each subset T of [n] of size
        1..min(ell+1, n) takes one dot product of its last row with each
        basis vector of its parent's null space N(S), and a pivot on the
        first nonzero one gives the basis of N(T) without elimination.
        T is dependent when rank T = ell+1 - |N(T)| < |T|, and has no
        common affine point when N(T) is zero at column ell, the
        constant's column."""
        n, ell, rows = a.n, a.ell, a._int_rows
        top = min(ell + 1, n)
        dep = {q: [] for q in range(2, min(ell + 1, n + 1) + 1)}
        empty = []

        def walk(S, basis, dependent):
            # the children T = S + (j,) of S, N(S) = span of `basis`
            size = len(S) + 1
            leaf = size == top
            for j in range(S[-1] + 1 if S else 1, n + 1):
                row, T = rows[j - 1], S + (j,)
                dots = [sum(map(mul, row, v)) for v in basis]
                for i, di in enumerate(dots):
                    if di:
                        break
                else:
                    di = 0
                if not di:  # row j is in the span of S: N(T) = N(S)
                    child, T_dependent = basis, True
                    T_empty = not any(v[ell] for v in basis)
                elif leaf:  # only column ell of N(T) is read
                    T_dependent = dependent
                    vi = basis[i][ell]
                    T_empty = len(basis) == 1 or all(
                        di * v[ell] == d * vi for v, d in zip(basis, dots))
                else:
                    child, T_dependent = [], dependent
                    vi = basis[i]
                    for m, (v, d) in enumerate(zip(basis, dots)):
                        if m != i:
                            w = [di * x - d * y for x, y in zip(v, vi)]
                            g = gcd(*w)
                            child.append([x // g for x in w] if g > 1 else w)
                    T_empty = not any(w[ell] for w in child)
                if size >= 2:
                    if T_dependent:
                        dep[size].append(T)
                    if T_empty:
                        empty.append(T)
                if size <= ell and (T_dependent or T_empty):
                    dep[size + 1].append(T + (n + 1,))
                if not leaf:
                    walk(T, child, T_dependent)

        walk((), [[int(k == m) for k in range(ell + 1)] for m in range(ell + 1)], False)
        t = cls(n, ell, dep, empty, realization=a)
        if not any(t.dep.values()):  # the generic type; see `derived`
            t._store = generic_type(n, ell)._store
        return t

    def is_dependent(self, S):
        S = tuple(sorted(S))
        return len(S) >= self.ell + 2 or S in self._dep_sets.get(len(S), ())

    def has_empty_intersection(self, S):
        """Affine-intersection test for S a subset of [n], |S| <= ell."""
        return tuple(sorted(S)) in self._empty_set


@cache
def generic_type(n, ell):
    """Type of n hyperplanes in general position in C^ell, one per (n, ell).

    Written from its closed form: any ell+1 rows of the moment-curve
    witness (1, j, ..., j^ell) are independent, so dep is empty in all
    stored grades and exactly the (ell+1)-fold affine intersections are
    empty.  `tests/oracles.py` rank-tests the witness as a cross-check.
    """
    rows = [tuple(Fraction(j) ** k for k in range(ell + 1)) for j in range(1, n + 1)]
    return CombinatorialType(n, ell, {}, combinations(range(1, n + 1), ell + 1),
                             realization=Arrangement(ell, n, rows))


def dep_star(t):
    """Graded family of starred dependent subsets, for all sizes 2..n+1.

    A starred set has a common point in the projective closure.  Up to size
    ell+1 that is plain dependence; beyond it, K is starred exactly when
    every (ell+1)-subset is dependent, that is when every (|K|-1)-subset is
    starred.  So each grade above ell+1 grows from the one below, by
    extending each starred set with a larger index, and comes out sorted.
    """
    return t.derived("dep_star", _dep_star)


def _dep_star(t):
    star = {}
    for q in range(2, t.n + 2):
        if q <= t.ell + 1:
            star[q] = list(t.dep[q])
            continue
        below = set(star[q - 1])
        star[q] = [
            K + (j,)
            for K in star[q - 1]
            for j in range(K[-1] + 1, t.n + 2)
            # dropping j gives K itself; drop every other element in turn
            if all(K[:i] + K[i + 1:] + (j,) in below for i in range(q - 1))
        ]
    return star


def compare_types(t1, t2):
    """Set-inclusion comparison of the dependent families.

    Returns "equal", "t1_finer" (t1's dependencies are a proper subset of
    t2's, so t2 is a degeneration of t1), "t2_finer", or "incomparable".
    The covering relation is not decided.
    """
    if (t1.n, t1.ell) != (t2.n, t2.ell):
        raise ValueError("types live on different (n, ell): (%d, %d) and (%d, %d)"
                         % (t1.n, t1.ell, t2.n, t2.ell))
    le = all(t1._dep_sets[q] <= t2._dep_sets[q] for q in t1.dep)
    ge = all(t1._dep_sets[q] >= t2._dep_sets[q] for q in t1.dep)
    if le and ge:
        return "equal"
    if le:
        return "t1_finer"
    if ge:
        return "t2_finer"
    return "incomparable"


def pencil_starred(K, S, r, ell):
    """Whether K is a starred dependent set of the pencil type built on
    (S, r): |K & S| >= r+1 and |K - S| <= ell - r, the rule that
    `pencil_profile` derives from the rank of K."""
    K, S = set(K), set(S)
    return len(K & S) >= r + 1 and len(K - S) <= ell - r


def pencil_profile(S, r, n, ell):
    """The forced sets of the pencil type on (S, r): its dependent sets of
    2..ell+1 elements, as sorted tuples, in no particular order.

    Write K = A + B with A inside S and B outside.  With the rows of S in
    a generic rank-r subspace and every other row generic, K has rank
    min(ell+1, min(|A|, r) + |B|), and K is starred when that rank is at
    most min(|K|-1, ell): dependent, with a common point in the projective
    closure.  The right side is at most ell, so this is
    min(|A|, r) + |B| <= |A| + |B| - 1 and <= ell, that is |A| >= r+1 and
    |B| <= ell - r, which |K| <= ell+1 already implies.  The sets are
    listed straight from that; `pencil_starred` tests one K of any size.
    """
    S = tuple(sorted(S))
    rest = [j for j in range(1, n + 2) if j not in S]
    for a in range(r + 1, min(len(S), ell + 1) + 1):
        for b in range(min(ell + 1 - a, len(rest)) + 1):
            for A in combinations(S, a):
                for B in combinations(rest, b):
                    yield tuple(sorted(A + B))


def check_pencil_rank(S, r, ell):
    """Refuse a pencil rank r outside 1..min(ell, |S| - 1), naming r and
    that range."""
    top = min(ell, len(S) - 1)
    if not 1 <= r <= top:
        raise ValueError("pencil rank %d out of range 1..%d" % (r, top))

