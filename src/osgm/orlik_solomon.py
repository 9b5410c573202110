"""Exterior algebra modulo the relations of a combinatorial type.

Elements are dicts {sorted index tuple: coefficient}; coefficients are
ints or Fractions, or anything else the code can add and scale by integers.
`reduce_monomial` rewrites a monomial through the first circuit behind the
least broken circuit it contains, and drops it when it has an empty affine
intersection or degree past ell.  The quotient's monomial basis, the nbc
basis, is the set of monomials that rewriting fixes: those with a nonempty
intersection and no broken circuit inside.
"""

from itertools import combinations

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
    """(a, j, V with j inserted at position a) for each j in 1..n not in
    the sorted tuple V, by increasing j: e_j e_V = (-1)^a e_W for the
    returned W, since a counts the members of V below j."""
    a = 0
    for j in range(1, n + 1):
        if a < len(V) and V[a] == j:
            a += 1
        else:
            yield a, j, V[:a] + (j,) + V[a:]


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
    # each broken circuit B, sorted, with the first circuit (k, B), the one
    # with the smallest k: circuits come sorted, and walking them backwards
    # writes the first circuit of each B last
    return dict(sorted({C[1:]: C for C in reversed(circuits(t))}.items()))


def broken_circuits(t):
    """Each circuit with its minimum removed, sorted."""
    return list(t.derived("breaking", _breaking))


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
    # circuit relation through the first (so smallest-k) circuit (k, B):
    # e_B = sum over c in B of +/- e_{(k,B) minus c}
    C = breaking[B]
    out = {}
    for i in range(1, len(C)):
        w = wedge(C[:i] + C[i + 1:], rest)
        if w is not None:
            M, inner = w
            add_scaled(out, reduce_monomial(M, t), (-1) ** (i + 1) * outer * inner)
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
