"""Seeded inputs for the benchmark ladder, built without importing osgm.

Every arrangement and weight vector is written from first principles with
`fractions.Fraction`, so a change to the library cannot shift the workload.
The same seed always gives the same files and argument lists.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import comb

# 1/p weights draw their denominators from one band of primes, so that the
# size of every exact rational the program meets barely depends on the seed
PRIMES = [p for p in range(31, 200) if all(p % d for d in range(2, 14))]

SELBERG = [(0, 1, 0), (-1, 1, 0), (0, 0, 1), (-1, 0, 1), (0, 1, -1)]
SELBERG_DEGENERATE = [(0, 1, 0), (-1, 1, 0), (0, 0, 1), (0, 0, 1), (0, 0, 1)]
SELBERG_PENCIL = ((3, 4, 5), 1)

SCAN_OPS = 120
SCAN_DENOMINATOR = 1009
SCAN_NUMERATOR = 60


def moment(t, width):
    return [Fraction(t) ** k for k in range(width)]


def generic_rows(n, ell):
    """Moment-curve rows (1, j, .., j^ell): any ell+1 projective rows are
    independent."""
    return [moment(j, ell + 1) for j in range(1, n + 1)]


def pencil_rows(n, ell, pencils):
    """Rows of hyperplanes whose pencils S fall to rank r, everything else
    generic.

    `pencils` is a list of (S, r) with disjoint S inside [n].  As in the
    library's pencil realization, member j of a pencil gets the combination
    (1, j, .., j^(r-1)) of r moment rows at nodes beyond n; each further
    pencil takes its own block of nodes.
    """
    rows = generic_rows(n, ell)
    node = n + 1
    for S, r in pencils:
        base = [moment(node + k, ell + 1) for k in range(r)]
        node += r
        for j in S:
            w = moment(j, r)
            rows[j - 1] = [sum(w[k] * base[k][c] for k in range(r))
                           for c in range(ell + 1)]
    return rows


def frac_rank(m):
    m = [list(row) for row in m]
    rank = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][c] / m[rank][c]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def dependent_sets(rows, ell):
    """Dependent subsets of size 2..ell+1 of the projective closure [n+1]."""
    n = len(rows)
    closure = list(rows) + [moment(0, ell + 1)]
    return {
        K for q in range(2, ell + 2) for K in combinations(range(1, n + 2), q)
        if frac_rank([closure[j - 1] for j in K]) < q
    }


def pencil_forced(pencils, ell):
    """Subsets of size <= ell+1 that the pencils force to be dependent."""
    out = set()
    for S, r in pencils:
        for q in range(r + 1, ell + 2):
            out.update(combinations(S, q))
    return out


def draw_pencils(rng, n, ell, shape):
    """Disjoint pencils of the given (size, rank) list, redrawn until the
    realization has no dependence beyond the ones the pencils force."""
    while True:
        pool = list(range(1, n + 1))
        rng.shuffle(pool)
        pencils, at = [], 0
        for size, r in shape:
            pencils.append((tuple(sorted(pool[at:at + size])), r))
            at += size
        rows = pencil_rows(n, ell, pencils)
        if dependent_sets(rows, ell) == pencil_forced(pencils, ell):
            return pencils, rows


def prime_weights(rng, n):
    return [Fraction(1, p) for p in rng.sample(PRIMES, n)]


def scan_weights(rng, n, S, count):
    """Weight vectors for the scan: three quarters generic, one quarter
    resonant, all of the form k/SCAN_DENOMINATOR.

    One prime denominator keeps the exact arithmetic the same size for
    every vector, so the scan's cost hardly depends on the seed.  Generic
    numerators lie in 1..SCAN_NUMERATOR, so every subset sum the
    nonresonance test checks (never all n+1 weights) is a nonzero rational
    of absolute value below 1, never an integer: the weights pass the test.  Resonant vectors
    vanish off S and sum to zero on S, a local system that is trivial
    around the pencil's point.
    """
    assert n * SCAN_NUMERATOR < SCAN_DENOMINATOR
    out = []
    for i in range(count):
        if i % 4 == 3:
            vals = [Fraction(0)] * n
            head = [rng.choice((-1, 1)) * rng.randint(1, SCAN_NUMERATOR) for _ in S[1:]]
            for j, k in zip(S, head + [-sum(head)]):
                vals[j - 1] = Fraction(k, SCAN_DENOMINATOR)
            out.append(("resonant", vals))
        else:
            vals = [Fraction(rng.randint(1, SCAN_NUMERATOR), SCAN_DENOMINATOR) for _ in range(n)]
            out.append(("generic", vals))
    return out


def euler_top(n, ell):
    """|chi| of n generic hyperplanes in C^ell."""
    return abs(sum((-1) ** q * comb(n, q) for q in range(ell + 1)))


def arrangement_json(rows, ell):
    return {"ell": ell, "n": len(rows),
            "rows": [[str(Fraction(x)) for x in row] for row in rows]}


def weights_arg(vals):
    return ",".join(str(v) for v in vals)


def _set_arg(S):
    return ",".join(str(j) for j in S)


class Op:
    """One CLI invocation and what its output must satisfy."""

    def __init__(self, name, argv, expect):
        self.name = name
        self.argv = argv
        self.expect = expect


def _gm_pencil_op(name, path, n, ell, S, r, lam):
    return Op(name, ["gm", path, "--pencil", _set_arg(S), str(r),
                     "--weights", weights_arg(lam), "--json"],
              {"kind": "gm", "S": list(S), "r": r, "lam_S": str(sum(lam[j - 1] for j in S)),
               "dims": [0] * ell + [euler_top(n, ell)]})


# Rung sizes.  pencil-cli runs (7,3) and (10,2) instead of (8,3) and (12,2):
# on a machine whose speed swings with other tenants' load, halving a pass
# doubles the passes a run gets.  pair-cli keeps (15,2); at (13,2) `rref`
# already outweighs the subset walks that workload exists to measure.
PENCIL_TOP = (7, 3)      # gm r=1, gm r=2 and spectrum r=1, |S| = 4
PENCIL_PLANE = (10, 2)   # gm r=2, |S| = 4
PAIR_PLANE = (15, 2)     # five concurrent lines against a generic type
REFUSAL_PLANE = (10, 2)  # two independent triple points


def pencil_cli(seed, write):
    """`write(name, data)` stores a JSON input file and returns its path."""
    rng = random.Random("pencil-cli:%d" % seed)
    (n3, ell3), (n2, ell2) = PENCIL_TOP, PENCIL_PLANE
    selberg = write("selberg.json", arrangement_json(SELBERG, 2))
    top = write("generic-%d-%d.json" % (n3, ell3), arrangement_json(generic_rows(n3, ell3), ell3))
    plane = write("generic-%d-%d.json" % (n2, ell2), arrangement_json(generic_rows(n2, ell2), ell2))
    S5, r5 = SELBERG_PENCIL
    lam5, lam3, lam2 = prime_weights(rng, 5), prime_weights(rng, n3), prime_weights(rng, n2)
    S3a = tuple(sorted(rng.sample(range(1, n3 + 1), 4)))
    S3b = tuple(sorted(rng.sample(range(1, n3 + 1), 4)))
    S2 = tuple(sorted(rng.sample(range(1, n2 + 1), 4)))
    selberg_op = _gm_pencil_op("gm-selberg", selberg, 5, 2, S5, r5, lam5)
    # the Selberg type is not generic: H^2 has dimension |chi| = 2
    selberg_op.expect["dims"] = [0, 0, 2]
    spectrum = Op("spectrum-%d-%d-r1" % (n3, ell3),
                  ["spectrum", top, "--pencil", _set_arg(S3a), "1",
                   "--weights", weights_arg(lam3), "--json"],
                  {"kind": "spectrum", "S": list(S3a), "r": 1, "n": n3, "ell": ell3})
    return [
        selberg_op,
        _gm_pencil_op("gm-%d-%d-r1" % (n3, ell3), top, n3, ell3, S3a, 1, lam3),
        _gm_pencil_op("gm-%d-%d-r2" % (n3, ell3), top, n3, ell3, S3b, 2, lam3),
        _gm_pencil_op("gm-%d-%d-r2" % (n2, ell2), plane, n2, ell2, S2, 2, lam2),
        spectrum,
    ]


def pair_cli(seed, write):
    rng = random.Random("pair-cli:%d" % seed)
    (n, ell), (n10, ell10) = PAIR_PLANE, REFUSAL_PLANE
    selberg = write("selberg.json", arrangement_json(SELBERG, 2))
    degenerate = write("selberg-degenerate.json", arrangement_json(SELBERG_DEGENERATE, 2))
    general = write("generic-%d-%d.json" % (n, ell), arrangement_json(generic_rows(n, ell), ell))
    general10 = write("generic-%d-%d.json" % (n10, ell10),
                      arrangement_json(generic_rows(n10, ell10), ell10))
    [(S, r)], rows = draw_pencils(rng, n, ell, [(5, ell)])
    special = write("pencil-%d-%d.json" % (n, ell), arrangement_json(rows, ell))
    _, rows10 = draw_pencils(rng, n10, ell10, [(3, ell10), (3, ell10)])
    two = write("two-pencils-%d-%d.json" % (n10, ell10), arrangement_json(rows10, ell10))
    lam5, lam, lam10 = prime_weights(rng, 5), prime_weights(rng, n), prime_weights(rng, n10)
    S5, r5 = SELBERG_PENCIL

    def gm_pair(name, general, special, lam, S, r, dims):
        return Op(name, ["gm", general, special, "--weights", weights_arg(lam), "--json"],
                  {"kind": "gm", "S": list(S), "r": r,
                   "lam_S": str(sum(lam[j - 1] for j in S)), "dims": dims})

    return [
        gm_pair("pair-selberg", selberg, degenerate, lam5, S5, r5, [0, 0, 2]),
        gm_pair("pair-%d-%d" % (n, ell), general, special, lam, S, r,
                [0] * ell + [euler_top(n, ell)]),
        # the pencil has rank ell, so its dependences are the subsets of S
        # of size ell+1 and more
        Op("deps-%d-%d" % (n, ell), ["deps", special, "--json"],
           {"kind": "deps", "n": n, "ell": ell, "S": list(S)}),
        Op("refuse-two-pencils-%d-%d" % (n10, ell10),
           ["gm", general10, two, "--weights", weights_arg(lam10), "--json"],
           {"kind": "refusal"}),
    ]


def weight_scan(seed, write):
    """One (8,2) type with four concurrent lines and the scan's weights."""
    rng = random.Random("weight-scan:%d" % seed)
    n, ell = 8, 2
    [(S, r)], rows = draw_pencils(rng, n, ell, [(4, 2)])
    weights = scan_weights(rng, n, S, SCAN_OPS)
    path = write("scan.json", {
        "arrangement": arrangement_json(rows, ell),
        "S": list(S), "r": r,
        "weights": [{"kind": kind, "values": [str(v) for v in vals]}
                    for kind, vals in weights],
    })
    # one point of multiplicity |S| replaces C(|S|, 2) double points
    betti = [1, n, comb(n, 2) - comb(len(S), 2) + len(S) - 1]
    return path, {"S": list(S), "r": r, "betti": betti, "weights": weights}


def main():
    """Print the inputs a seed gives, for inspection."""
    import argparse

    p = argparse.ArgumentParser(description=main.__doc__)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    files = {}

    def write(name, data):
        files[name] = data
        return name

    for build in (pencil_cli, pair_cli):
        for op in build(args.seed, write):
            print(op.name, " ".join(op.argv))
    _, info = weight_scan(args.seed, write)
    print("weight-scan S=%s r=%d betti=%s" % (info["S"], info["r"], info["betti"]))


if __name__ == "__main__":
    main()
