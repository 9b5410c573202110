"""Correctness checks on the program's outputs, in the benchmark's own
Fraction and integer arithmetic.  Each check returns a list of reasons the
output is wrong; an empty list means the op passed."""

import json
from fractions import Fraction
from itertools import combinations
from math import comb, lcm


def _euler(dims):
    return sum((-1) ** q * d for q, d in enumerate(dims))


def quadratic_failures(mats, lam_s):
    """Degrees q whose matrix W fails W.W = lam_s.W.

    With D the common denominator of W and A = D.W an integer matrix, the
    identity is b.(A.A) = a.D.A for lam_s = a/b, checked exactly in ints.
    """
    lam_s = Fraction(lam_s)
    bad = []
    for q, rows in enumerate(mats):
        w = [[Fraction(x) for x in row] for row in rows]
        if any(len(row) != len(w) for row in w):
            bad.append("degree %d matrix is not square" % q)
            continue
        den = lcm(1, *(x.denominator for row in w for x in row))
        a = [[x.numerator * (den // x.denominator) for x in row] for row in w]
        lhs_scale, rhs_scale = lam_s.denominator, lam_s.numerator * den
        for i, row in enumerate(a):
            prod = [0] * len(a)
            for k, x in enumerate(row):
                if x:
                    for j, y in enumerate(a[k]):
                        if y:
                            prod[j] += x * y
            if any(lhs_scale * p != rhs_scale * y for p, y in zip(prod, row)):
                bad.append("degree %d: W.W != lambda_S.W at row %d" % (q, i))
                break
    return bad


def check_cli(expect, code, out, err):
    """Check one CLI call against what its generated input implies."""
    if "Traceback" in err:
        return ["traceback on stderr"]
    if expect["kind"] == "refusal":
        if code != 3 or "no single pencil" not in err:
            return ["expected exit 3 with 'no single pencil', got %d: %s" % (code, err.strip())]
        return []
    if code != 0:
        return ["exit code %d: %s" % (code, err.strip())]
    try:
        data = json.loads(out)
    except ValueError:
        return ["--json output does not parse"]
    if expect["kind"] == "gm":
        return _check_gm(expect, data)
    if expect["kind"] == "spectrum":
        return _check_spectrum(expect, data)
    return _check_deps(expect, data)


def _check_gm(expect, data):
    bad = []
    if (data["S"], data["r"]) != (expect["S"], expect["r"]):
        bad.append("pencil (%s, %s) != generated (%s, %s)"
                   % (data["S"], data["r"], expect["S"], expect["r"]))
    if data["dims"] != expect["dims"]:
        bad.append("dims %s != %s" % (data["dims"], expect["dims"]))
    for q, m in data["gm"].items():
        if len(m) != data["dims"][int(q)]:
            bad.append("degree %s action is %dx%d, H^%s has dimension %d"
                       % (q, len(m), len(m), q, data["dims"][int(q)]))
    mats = [data["gm"][q] for q in sorted(data["gm"], key=int)]
    bad += quadratic_failures(mats, expect["lam_S"])
    bad += _check_report(data["spectrum"], expect["lam_S"])
    return bad


def _check_report(report, lam_s):
    if Fraction(report["lambda_S"]) != Fraction(lam_s):
        return ["spectrum lambda_S %s != %s" % (report["lambda_S"], lam_s)]
    if not report["degrees"] or not all(d["verified"] for d in report["degrees"]):
        return ["spectrum report not verified in every degree"]
    return []


def _check_spectrum(expect, data):
    bad = []
    if (data["S"], data["r"]) != (expect["S"], expect["r"]):
        bad.append("pencil echoed as (%s, %s)" % (data["S"], data["r"]))
    if data["symbolic"] is not True:
        bad.append("symbolic identity M(M - y_S) = 0 reported false")
    n = expect["n"]
    for q in range(expect["ell"] + 1):
        if sum(data["dims"][str(q)]) != comb(n, q):
            bad.append("degree %d multiplicities do not add up to C(%d,%d)" % (q, n, q))
    lam_s = data.get("spectrum", {}).get("lambda_S")
    if lam_s is None:
        return bad + ["no spectrum report at the given weights"]
    return bad + _check_report(data["spectrum"], lam_s)


def _check_deps(expect, data):
    """Dependences of the pencil file: exactly the sets the pencil forces."""
    S, ell = expect["S"], expect["ell"]
    bad = []
    for q in range(2, ell + 2):
        want = [list(K) for K in combinations(S, q)] if q > 2 else []
        if data["dep"][str(q)] != want:
            bad.append("Dep_%d differs from the generated pencil" % q)
    for q in range(2, expect["n"] + 2):
        want = [list(K) for K in combinations(S, q)] if q > 2 else []
        if data["dep_star"].get(str(q), []) != want:
            bad.append("Dep*_%d differs from the generated pencil" % q)
    return bad


def check_scan_op(kind, lam, S, betti, record):
    """One weight of the scan: Euler characteristic, the nonresonance
    verdict, top-degree concentration when nonresonant, and W.W = lam_S.W."""
    dims, bad = record["dims"], []
    if _euler(dims) != _euler(betti):
        bad.append("Euler characteristic of dims %s != that of betti %s" % (dims, betti))
    if record["nonresonant"] != (kind == "generic"):
        bad.append("nonresonance verdict %s for %s weights" % (record["nonresonant"], kind))
    if record["nonresonant"] and any(dims[:-1]):
        bad.append("nonresonant weights with cohomology below the top: %s" % dims)
    for q, m in enumerate(record["gm"]):
        if len(m) != dims[q]:
            bad.append("degree %d action is %dx%d, H^%d has dimension %d"
                       % (q, len(m), len(m), q, dims[q]))
    lam_s = sum((lam[j - 1] for j in S), Fraction(0))
    return bad + quadratic_failures(record["gm"], lam_s)
