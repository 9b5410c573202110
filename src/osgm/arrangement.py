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

Repeated hyperplanes are valid input.  Two identical rows i, j (or rows
that are multiples of each other) make {i, j} a dependent pair, the rank-1
pencil on two hyperplanes: the type of a collision, which `osgm gm` can
recover from a pair of files or take as `--pencil i,j 1`.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations

from .linalg import rank
from .poly import parse_rational, format_rational


def _whole_number(data, key):
    """data[key] as an int; booleans and fractional floats are refused
    rather than read as 1, 0 or truncated."""
    x = data[key]
    if isinstance(x, bool) or (isinstance(x, float) and not x.is_integer()):
        raise ValueError("%s must be an integer, not %r" % (key, x))
    return int(x)


def _coefficients(rows):
    """Sparse closure rows without their constant terms."""
    return [{k: x for k, x in r.items() if k} for r in rows]


class Arrangement:

    __slots__ = ("n", "ell", "rows", "_sparse")

    def __init__(self, ell, n, rows):
        self.ell = ell
        self.n = n
        self.rows = rows
        # the closure rows, infinity last, wrapped once as sparse rows for `rank`
        self._sparse = ([{k: x for k, x in enumerate(r) if x} for r in rows]
                        + [{0: Fraction(1)}])

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
        except (KeyError, TypeError, OverflowError) as e:
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
        if rank(_coefficients(arr._sparse[:n])) < ell:
            raise ValueError("arrangement is not essential: coefficient rank < ell")
        return arr

    @classmethod
    def from_file(cls, path):
        import json

        with open(path) as fh:
            return cls.from_json(json.load(fh))

    def to_json(self):
        return {
            "ell": self.ell,
            "n": self.n,
            "rows": [[format_rational(x) for x in row] for row in self.rows],
        }

    def row(self, j):
        """Row of the projective closure matrix, 1-based; j = n+1 is infinity."""
        if j == self.n + 1:
            return (Fraction(1),) + (Fraction(0),) * self.ell
        return self.rows[j - 1]

    def subset_rank(self, S):
        return rank([self._sparse[j - 1] for j in S])

    def is_dependent(self, S):
        return self.subset_rank(S) < len(S)

    def affine_nonempty(self, S):
        """Whether the hyperplanes of S (subset of [n]) share an affine point."""
        full = [self._sparse[j - 1] for j in S]
        return rank(_coefficients(full)) == rank(full)


def dependent_subsets(a, q):
    """All dependent q-subsets of [n+1], sorted."""
    if q < 2 or q > a.n + 1:
        raise ValueError("subset size must be between 2 and n+1")
    return [S for S in combinations(range(1, a.n + 2), q) if a.is_dependent(S)]


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
        self._validate()
        # membership tables; dep and affine_empty are never reassigned
        self._dep_sets = {q: frozenset(fam) for q, fam in self.dep.items()}
        self._empty_set = frozenset(self.affine_empty)
        self._store = {}  # filled by derived()

    def derived(self, key, build):
        """`build(self)`, computed on first use and kept as long as the type.

        Each module fills the keys of the data it owns.  Values are shared:
        callers treat them as read-only, except memo tables built empty.
        """
        if key not in self._store:
            self._store[key] = build(self)
        return self._store[key]

    @property
    def backed_by_realization(self):
        return self.realization is not None

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
            bigger = set(self.dep[q + 1])
            for S in self.dep[q]:
                rest = set(range(1, self.n + 2)) - set(S)
                for j in rest:
                    sup = tuple(sorted(S + (j,)))
                    if sup not in bigger:
                        raise ValueError(
                            "dependent set %r has independent superset %r" % (S, sup)
                        )

    @classmethod
    def from_arrangement(cls, a):
        dep = {}
        for q in range(2, min(a.ell + 1, a.n + 1) + 1):
            dep[q] = dependent_subsets(a, q)
        dependent = set().union(*dep.values())
        # emptiness matters up to size ell+1: a dependent set of that size
        # with no common affine point contributes e_S, not a circuit.  For
        # independent S the coefficient rows have rank rank(S + infinity) - 1,
        # so S is empty exactly when adding infinity makes it dependent,
        # which always happens at size ell+1.  Only dependent S need ranks.
        empty = []
        for q in range(2, min(a.ell + 1, a.n) + 1):
            for S in combinations(range(1, a.n + 1), q):
                if S in dependent:
                    if not a.affine_nonempty(S):
                        empty.append(S)
                elif q == a.ell + 1 or S + (a.n + 1,) in dependent:
                    empty.append(S)
        return cls(a.n, a.ell, dep, empty, realization=a)

    def is_dependent(self, S):
        S = tuple(sorted(S))
        if len(S) >= self.ell + 2:
            return True
        return S in self._dep_sets.get(len(S), ())

    def has_empty_intersection(self, S):
        """Affine-intersection test for S a subset of [n], |S| <= ell."""
        return tuple(sorted(S)) in self._empty_set

    def to_json(self):
        return {
            "n": self.n,
            "ell": self.ell,
            "dep": {str(q): [list(S) for S in fam] for q, fam in self.dep.items()},
            "affine_empty": [list(S) for S in self.affine_empty],
        }

    @classmethod
    def from_json(cls, data):
        dep = {int(q): [tuple(S) for S in fam] for q, fam in data["dep"].items()}
        empty = [tuple(S) for S in data["affine_empty"]]
        return cls(data["n"], data["ell"], dep, empty)


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
        raise ValueError("types live on different (n, ell)")
    le = all(set(t1.dep[q]) <= set(t2.dep[q]) for q in t1.dep)
    ge = all(set(t1.dep[q]) >= set(t2.dep[q]) for q in t1.dep)
    if le and ge:
        return "equal"
    if le:
        return "t1_finer"
    if ge:
        return "t2_finer"
    return "incomparable"


def pencil_rank(K, S, r, ell):
    """Rank of the rows of K when the rows of S lie in a generic rank-r
    subspace and everything else is generic."""
    K, S = set(K), set(S)
    return min(ell + 1, min(len(K & S), r) + len(K - S))


def pencil_starred(K, S, r, ell):
    """Whether K is a starred dependent set of the pencil type built on (S, r).

    For |K| <= ell+1 this reduces to |K & S| >= r+1; larger sets need the
    rank form, which also enforces the common-point condition.
    """
    if len(K) < 2:
        return False
    return pencil_rank(K, S, r, ell) <= min(len(K) - 1, ell)


def pencil_profile(S, r, n, ell, top=None):
    """The starred sets of the pencil type on (S, r), as sorted tuples of at
    most `top` elements (all sizes by default), in no particular order.

    Write K = A + B with A inside S and B outside.  `pencil_starred` asks
    min(ell+1, min(|A|, r) + |B|) <= min(|K|-1, ell); the right side is at
    most ell, so this is min(|A|, r) + |B| <= |A| + |B| - 1 and <= ell, that
    is |A| >= r+1 and |B| <= ell - r.  The sets are listed straight from
    that, without looking at any other subset of [n+1].
    """
    S = tuple(sorted(S))
    rest = [j for j in range(1, n + 2) if j not in S]
    top = n + 1 if top is None else top
    for a in range(r + 1, min(len(S), top) + 1):
        for b in range(min(ell - r, len(rest), top - a) + 1):
            for A in combinations(S, a):
                for B in combinations(rest, b):
                    yield tuple(sorted(A + B))


def multiplicity_pencil(K, S, r, ell, n):
    """Multiplicity |K| - rank of K in the pencil type on (S, r)."""
    if not 1 <= r <= min(ell, len(S) - 1):
        raise ValueError("pencil rank r out of range")
    if not set(K) <= set(range(1, n + 2)):
        raise ValueError("K must be a subset of [n+1]")
    return len(K) - pencil_rank(K, S, r, ell)


def pencil_realization(n, ell, S, r):
    """Explicit rational arrangement of the pencil type on (S, r).

    Hyperplane j gets the moment row (1, t_j, ..., t_j^ell) at node t_j = j;
    members of S are replaced by combinations (1, t_j, ..., t_j^(r-1)) of r
    fixed moment rows, so any r of them are independent and everything else
    stays generic.  The infinity row is the moment row at node 0, which is
    why a pencil containing n+1 forces node 0 into the pencil's row space
    and needs r >= 2 to keep the members honest affine hyperplanes.
    """
    S = tuple(sorted(S))
    if not 1 <= r <= min(ell, len(S) - 1):
        raise ValueError("pencil rank r out of range")
    if not set(S) <= set(range(1, n + 2)):
        raise ValueError("S must be a subset of [n+1]")
    if n + 1 in S and r == 1:
        raise ValueError("a rank-1 pencil through infinity is not an affine arrangement")

    def moment(t, width):
        return [Fraction(t) ** k for k in range(width)]

    # base rows of the pencil's subspace; node 0 is included exactly when
    # the infinity hyperplane belongs to the pencil
    base_nodes = ([0] if n + 1 in S else [n + 1]) + [n + 1 + k for k in range(1, r)]
    base = [moment(c, ell + 1) for c in base_nodes]
    rows = []
    for j in range(1, n + 1):
        if j in S:
            w = moment(j, r)
            row = [sum(w[k] * base[k][c] for k in range(r)) for c in range(ell + 1)]
        else:
            row = moment(j, ell + 1)
        rows.append(tuple(row))
    # built directly: the witness matrix for a pencil type need not be
    # essential (e.g. every hyperplane in one rank-1 pencil), and the
    # closed-form agreement test covers exactly those ranks
    return Arrangement(ell, n, rows)
