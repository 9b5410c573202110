"""Exterior algebra modulo the relations of a combinatorial type.

Elements are dicts {sorted index tuple: coefficient}; coefficients may be
ints, Fractions or linear forms in the weights, the code only adds them and
scales them by integers.  The
quotient has a monomial basis indexed by the subsets that contain no broken
circuit and have a nonempty affine intersection, and os_reduce rewrites any
element into that basis.
"""

from itertools import combinations

from .linalg import add_scaled


def wedge(t1, t2):
    """Concatenate two strictly increasing tuples: (sorted tuple, sign),
    or None when an index repeats."""
    if set(t1) & set(t2):
        return None
    seq = t1 + t2
    sign = 1
    # count inversions of the concatenation
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            if seq[a] > seq[b]:
                sign = -sign
    return tuple(sorted(seq)), sign


def circuits(t):
    """Minimal dependent subsets of [n] with a common affine point, sorted."""
    return t.derived("circuits", _circuits)


def _circuits(t):
    # the stored dependent sets inside [n], smallest first, lexicographic
    out = []
    for size in range(2, min(t.ell + 1, t.n) + 1):
        for S in t.dep[size]:
            if S[-1] > t.n or t.has_empty_intersection(S):
                continue
            if any(set(C) <= set(S) for C in out):
                continue
            out.append(S)
    return sorted(out)


def broken_circuits(t):
    """Each circuit with its minimum removed, sorted."""
    return t.derived("broken_circuits", lambda t: sorted({C[1:] for C in circuits(t)}))


def nbc_basis(t, q):
    """Degree-q monomial basis: no broken circuit inside, nonempty
    intersection, lexicographic order."""
    if q < 0 or q > t.ell:
        raise ValueError("degree must be between 0 and ell")
    broken = broken_circuits(t)
    out = []
    for S in combinations(range(1, t.n + 1), q):
        if len(S) >= 2 and t.has_empty_intersection(S):
            continue
        if any(set(B) <= set(S) for B in broken):
            continue
        out.append(S)
    return out


def betti_numbers(t):
    return [len(nbc_basis(t, q)) for q in range(t.ell + 1)]


def _reduce_monomial(S, t):
    # memoized rewriting of a single monomial into the nbc basis
    cache = t.derived("reductions", lambda _: {})
    if S in cache:
        return cache[S]
    if len(S) > t.ell:
        # every monomial of degree past ell lies in the ideal: a set that
        # large is dependent or has empty intersection, either way it dies
        cache[S] = {}
        return {}
    if len(S) >= 2 and t.has_empty_intersection(S):
        cache[S] = {}
        return {}
    # the lexicographically smallest broken circuit inside S, if any
    B = next((B for B in broken_circuits(t) if set(B) <= set(S)), None)
    if B is None:
        cache[S] = {S: 1}
        return cache[S]
    rest = tuple(j for j in S if j not in B)
    _, outer = wedge(B, rest)
    # circuit relation through the first (so smallest-k) circuit (k, B):
    # e_B = sum over c in B of +/- e_{(k,B) minus c}
    out = {}
    C = next(C for C in circuits(t) if C[1:] == B)
    for i in range(1, len(C)):
        piece = C[:i] + C[i + 1:]
        w = wedge(piece, rest)
        if w is None:
            continue
        M, inner = w
        add_scaled(out, _reduce_monomial(M, t), (-1) ** (i + 1) * outer * inner)
    cache[S] = out
    return out


def os_reduce(x, t):
    """Rewrite an element of the free exterior algebra into the nbc basis."""
    out = {}
    for S, coeff in x.items():
        if coeff:
            add_scaled(out, _reduce_monomial(tuple(S), t), coeff)
    return out


def projection_matrix(t, q):
    """Matrix of the quotient map in degree q as sparse rows {col: entry}:
    rows run over all q-subsets of [n] in lexicographic order, columns over
    the nbc basis.  The entries are ints: the rewriting only adds relations
    with coefficients +-1."""
    col = {T: i for i, T in enumerate(nbc_basis(t, q))}
    return [{col[U]: c for U, c in _reduce_monomial(S, t).items()}
            for S in combinations(range(1, t.n + 1), q)]
