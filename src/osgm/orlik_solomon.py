"""Exterior algebra modulo the relations of a combinatorial type.

Elements are dicts {sorted index tuple: coefficient}; coefficients are
ints or Fractions, or anything else the code can add and scale by integers.
`reduce_monomial` rewrites a monomial through the first circuit behind the
least broken circuit it contains, and drops it when it has an empty affine
intersection or degree past ell.  The quotient's monomial basis, the nbc
basis, is the set of monomials that rewriting fixes: those with a nonempty
intersection and no broken circuit inside.

The exterior algebra's two sign rules are computed here and nowhere else.
For sorted V and j not in V, e_j e_V = (-1)^a e_W, W the sorted union and
a the number of members of V below j (`insertions`); the boundary of e_S
is the sum over a of (-1)^a e_{S minus s_a}, the same rule read back
(`facets`).
"""

from itertools import combinations, islice

from .linalg import add_scaled


def wedge(t1, t2):
    """Concatenate two tuples of indices: (sorted tuple, sign of the
    sorting permutation), or None when an index repeats."""
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


def insertions(V, n):
    """(s, j, W) for each j in 1..n not in the sorted tuple V, by
    increasing j: e_j e_V = s e_W, W sorted."""
    a = 0
    for j in range(1, n + 1):
        if a < len(V) and V[a] == j:
            a += 1
        else:
            yield (-1 if a % 2 else 1), j, V[:a] + (j,) + V[a:]


def facets(S):
    """(s, j, V) for each j in the sorted tuple S, in order, V = S minus j:
    e_j e_V = s e_S, so the boundary of e_S is the sum of s e_V."""
    for a, j in enumerate(S):
        yield (-1 if a % 2 else 1), j, S[:a] + S[a + 1:]


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


def _breaking(t):
    # each broken circuit B, sorted, with e_B as [(sign, facet)]: the boundary
    # of its first circuit C = (k, B), smallest k, is zero and begins with e_B
    # (circuits come sorted; walking them backwards writes that C last)
    first = {C[1:]: C for C in reversed(circuits(t))}
    return {B: [(-s, V) for s, _, V in islice(facets(first[B]), 1, None)] for B in sorted(first)}


def nbc_basis(t, q):
    """Degree-q monomial basis, lexicographic: the q-subsets the rewriting
    fixes, which are those with a nonempty intersection and no broken
    circuit inside."""
    if q < 0 or q > t.ell:
        raise ValueError("degree must be between 0 and ell")
    return [S for S in combinations(range(1, t.n + 1), q)
            if reduce_monomial(S, t) == {S: 1}]


def betti_numbers(t):
    return [len(nbc_basis(t, q)) for q in range(t.ell + 1)]


def reduce_monomial(S, t):
    """The monomial e_S, S a sorted tuple, rewritten into the nbc basis as
    {nbc monomial: int}; memoized per type."""
    cache = t.derived("reductions", lambda _: {})
    if S not in cache:
        cache[S] = _reduce(S, t)
    return cache[S]


def _reduce(S, t):
    # every monomial of degree past ell lies in the ideal: a set that large
    # is dependent or has empty intersection, either way it dies
    if len(S) > t.ell or (len(S) >= 2 and t.has_empty_intersection(S)):
        return {}
    # the lexicographically smallest broken circuit inside S, if any
    breaking = t.derived("breaking", _breaking)
    B = next((B for B in breaking if set(B) <= set(S)), None)
    if B is None:
        return {S: 1}
    rest = tuple(j for j in S if j not in B)
    _, outer = wedge(B, rest)
    # e_B rewritten through the circuit relation of `_breaking`
    out = {}
    for s, V in breaking[B]:
        w = wedge(V, rest)
        if w is not None:
            M, inner = w
            add_scaled(out, reduce_monomial(M, t), s * outer * inner)
    return out


def os_reduce(x, t):
    """Rewrite an element of the free exterior algebra into the nbc basis."""
    out = {}
    for S, coeff in x.items():
        if coeff:
            add_scaled(out, reduce_monomial(tuple(S), t), coeff)
    return out


def projection_matrix(t, q):
    """Matrix of the quotient map in degree q as sparse rows {col: entry}:
    rows run over all q-subsets of [n] in lexicographic order, columns over
    the nbc basis.  The entries are ints: the rewriting only adds relations
    with coefficients +-1."""
    col = {T: i for i, T in enumerate(nbc_basis(t, q))}
    return [{col[U]: c for U, c in reduce_monomial(S, t).items()}
            for S in combinations(range(1, t.n + 1), q)]
