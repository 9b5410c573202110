"""Command line front end.

Loads arrangement files, dispatches one operation, and prints either an
aligned human-readable table or the JSON records the library defines.
Exit codes: 0 on success, 2 for input/validation problems, 3 when a
mathematical precondition fails (a map that does not descend, or a
degeneration with no unique pencil behind it).
"""

import argparse
import json
import os
import sys

from .aomoto import (
    Weights,
    build_aomoto,
    in_resonance,
    os_cohomology,
    weights_nonresonant,
)
from .arrangement import Arrangement, CombinatorialType, dep_star
from .gauss_manin import (
    eigenspace_dims,
    gm_endomorphism,
    induce_on_type,
    omega_tilde_pair,
    omega_tilde_sum,
    principal_dependence,
    spectrum_check,
    spectrum_report,
)
from .orlik_solomon import betti_numbers, nbc_basis
from .poly import format_rational

_MATH_FAILURE_MARKERS = ("covering datum", "not unique", "single pencil")


def _load_type(path):
    return CombinatorialType.from_arrangement(Arrangement.from_file(path))


def _parse_weights(text, n):
    if os.path.exists(text):
        with open(text) as fh:
            data = json.load(fh)
        if not isinstance(data, dict) or "weights" not in data:
            raise ValueError('weights file needs a "weights" list')
        values = data["weights"]
    else:
        values = [tok.strip() for tok in text.split(",")]
    if len(values) != n:
        raise ValueError("expected %d weights, found %d" % (n, len(values)))
    return Weights(values)


def _parse_pencil(pair, n):
    s_text, r_text = pair
    try:
        S = tuple(int(tok) for tok in s_text.split(","))
        r = int(r_text)
    except ValueError:
        raise ValueError("--pencil wants comma-separated indices and an integer rank")
    return tuple(sorted(S)), r


def _fmt_set(S):
    return "{%s}" % ",".join(str(j) for j in S)


def _fmt_table(rows):
    cells = [[str(x) for x in row] for row in rows]
    if not cells or not cells[0]:
        return ["  (empty)"]
    widths = [max(len(r[j]) for r in cells) for j in range(len(cells[0]))]
    return [
        "  [ " + "   ".join(c.rjust(w) for c, w in zip(row, widths)) + " ]"
        for row in cells
    ]


def _poly_matrix_json(m):
    return [[entry.to_json() for entry in row] for row in m]


def _rational_matrix_json(m):
    return [[format_rational(c) for c in row] for row in m]


def _fmt_os_element(elem):
    if not elem:
        return "0"
    parts = []
    for T in sorted(elem):
        c = elem[T]
        if T:
            body = "a%s" % _fmt_set(T)
            if abs(c) != 1:
                body = "%s*%s" % (format_rational(abs(c)), body)
        else:
            body = format_rational(abs(c))
        sign = "- " if c < 0 else ("+ " if parts else "")
        parts.append(sign + body)
    return " ".join(parts)


def _os_element_json(elem):
    return [
        {"subset": list(T), "coefficient": format_rational(elem[T])}
        for T in sorted(elem)
    ]


def cmd_deps(args):
    t = _load_type(args.file)
    star = dep_star(t)
    dep_qs = [args.degree] if args.degree is not None else sorted(t.dep)
    star_qs = [args.degree] if args.degree is not None else sorted(star)
    if args.json:
        print(json.dumps({
            "n": t.n,
            "ell": t.ell,
            "dep": {str(q): [list(S) for S in t.dep.get(q, [])] for q in dep_qs},
            "dep_star": {str(q): [list(S) for S in star.get(q, [])] for q in star_qs},
        }, indent=2))
        return
    print("n = %d, ell = %d (index %d is the hyperplane at infinity)"
          % (t.n, t.ell, t.n + 1))
    for q in dep_qs:
        fam = t.dep.get(q, [])
        print("Dep_%d: %s" % (q, " ".join(_fmt_set(S) for S in fam) or "(none)"))
    for q in star_qs:
        fam = star.get(q, [])
        print("Dep*_%d: %s" % (q, " ".join(_fmt_set(S) for S in fam) or "(none)"))


def cmd_betti(args):
    t = _load_type(args.file)
    b = betti_numbers(t)
    if args.json:
        print(json.dumps({"betti": b}))
        return
    print("betti numbers, degrees 0..%d: %s" % (t.ell, " ".join(str(x) for x in b)))


def _degree_list(args, ell):
    if args.degree is None:
        return list(range(ell + 1))
    if not 0 <= args.degree <= ell:
        raise ValueError("degree must lie in 0..%d" % ell)
    return [args.degree]


def cmd_nbc(args):
    t = _load_type(args.file)
    degrees = _degree_list(args, t.ell)
    if args.json:
        print(json.dumps(
            {str(q): [list(T) for T in nbc_basis(t, q)] for q in degrees},
            indent=2))
        return
    for q in degrees:
        basis = nbc_basis(t, q)
        text = " ".join(_fmt_set(T) for T in basis) or "(empty)"
        print("degree %d (%d elements): %s" % (q, len(basis), text))


def cmd_aomoto(args):
    t = _load_type(args.file)
    cx = build_aomoto(t)
    if args.json:
        print(json.dumps({
            "bases": {str(q): [list(T) for T in cx.bases[q]]
                      for q in range(t.ell + 1)},
            "boundary": {str(q): _poly_matrix_json(cx.boundary[q])
                         for q in range(t.ell)},
        }, indent=2))
        return
    for q in range(t.ell):
        print("boundary leaving degree %d (%dx%d):"
              % (q, len(cx.bases[q]), len(cx.bases[q + 1])))
        for line in _fmt_table(cx.boundary[q]):
            print(line)


def cmd_cohomology(args):
    t = _load_type(args.file)
    lam = _parse_weights(args.weights, t.n)
    h = os_cohomology(t, lam)
    degrees = _degree_list(args, t.ell)
    if args.json:
        print(json.dumps({
            "dims": h.dims,
            "classes": {
                str(q): [_os_element_json(h.element(q, k)) for k in range(h.dims[q])]
                for q in degrees
            },
        }, indent=2))
        return
    print("cohomology dimensions, degrees 0..%d: %s"
          % (t.ell, " ".join(str(d) for d in h.dims)))
    for q in degrees:
        for k in range(h.dims[q]):
            print("H^%d class %d: %s" % (q, k + 1, _fmt_os_element(h.element(q, k))))


def cmd_resonance(args):
    t = _load_type(args.file)
    lam = _parse_weights(args.weights, t.n)
    h = os_cohomology(t, lam)
    ok = weights_nonresonant(t, lam)
    if args.json:
        data = {"dims": h.dims, "nonresonant": ok}
        if args.degree is not None:
            data["in_resonance"] = in_resonance(t, lam, args.degree, 1, h=h)
        print(json.dumps(data))
        return
    print("cohomology dimensions, degrees 0..%d: %s"
          % (t.ell, " ".join(str(d) for d in h.dims)))
    print("nonresonance test (sufficient condition): %s"
          % ("passed" if ok else "failed"))
    if args.degree is not None:
        q = args.degree
        print("degree %d carries cohomology: %s"
              % (q, "yes" if in_resonance(t, lam, q, 1, h=h) else "no"))


def _print_spectrum_lines(report):
    if report.get("message"):
        print(report["message"])
        return
    print("spectrum at these weights: lambda_S = %s" % report["lambda_S"])
    for entry in report["degrees"]:
        print("  degree %d: d0 = %d, dS = %d, %s"
              % (entry["degree"], entry["d0"], entry["dS"],
                 "verified" if entry["verified"] else "FAILED"))


def cmd_gm(args):
    t = _load_type(args.file)
    n, ell = t.n, t.ell
    if (args.file2 is None) == (args.pencil is None):
        raise ValueError("supply either a second arrangement file or --pencil S r")
    lam = _parse_weights(args.weights, n)
    if args.pencil is not None:
        S, r = _parse_pencil(args.pencil, n)
        e = pencil_e = omega_tilde_sum(S, r, n, ell)
    else:
        t2 = _load_type(args.file2)
        S, r = principal_dependence(t2, t)
        e = omega_tilde_pair(t2, t)
        pencil_e = None
    ind = induce_on_type(e, t)
    h = os_cohomology(t, lam)
    degrees = _degree_list(args, ell)
    gm = {q: gm_endomorphism(ind, lam, q, h=h) for q in degrees}
    report = spectrum_report(S, r, lam, n, ell, e=pencil_e)
    if args.json:
        print(json.dumps({
            "S": list(S),
            "r": r,
            "omega": {str(q): _poly_matrix_json(ind.mats[q])
                      for q in range(ell + 1)},
            "weights": lam.to_json(),
            "dims": h.dims,
            "gm": {str(q): _rational_matrix_json(gm[q]) for q in degrees},
            "spectrum": report,
        }, indent=2))
        return
    print("pencil (S, r): S = %s, r = %d" % (_fmt_set(S), r))
    for q in range(ell + 1):
        size = len(ind.mats[q])
        print("induced connection matrix, degree %d (%dx%d):" % (q, size, size))
        for line in _fmt_table(ind.mats[q]):
            print(line)
    print("weights: %s" % ", ".join(lam.to_json()))
    print("cohomology dimensions: %s" % " ".join(str(d) for d in h.dims))
    for q in degrees:
        if not gm[q]:
            print("action on H^%d: zero-dimensional" % q)
            continue
        print("action on H^%d (%dx%d):" % (q, len(gm[q]), len(gm[q])))
        for line in _fmt_table([[format_rational(c) for c in row] for row in gm[q]]):
            print(line)
    _print_spectrum_lines(report)


def cmd_spectrum(args):
    t = _load_type(args.file)
    n, ell = t.n, t.ell
    if args.pencil is None:
        raise ValueError("spectrum needs --pencil S r")
    S, r = _parse_pencil(args.pencil, n)
    e = omega_tilde_sum(S, r, n, ell)
    ok, witness = spectrum_check(e, S)
    dims = {q: eigenspace_dims(n, len(S), r, q) for q in range(ell + 1)}
    report = None
    if args.weights is not None:
        lam = _parse_weights(args.weights, n)
        report = spectrum_report(S, r, lam, n, ell, e=e)
    if args.json:
        data = {
            "S": list(S),
            "r": r,
            "symbolic": ok,
            "witness": witness,
            "dims": {str(q): list(dims[q]) for q in range(ell + 1)},
        }
        if report is not None:
            data["spectrum"] = report
        print(json.dumps(data, indent=2))
        return
    print("pencil (S, r): S = %s, r = %d" % (_fmt_set(S), r))
    if ok:
        print("symbolic identity M(M - y_S*I) = 0: holds in every degree")
    else:
        print("symbolic identity M(M - y_S*I) = 0: FAILS at degree %d, entry (%d, %d)"
              % (witness["degree"], witness["row"], witness["col"]))
    print("predicted multiplicities (eigenvalue 0, eigenvalue y_S):")
    for q in range(ell + 1):
        print("  degree %d: d0 = %d, dS = %d" % (q, dims[q][0], dims[q][1]))
    if report is not None:
        _print_spectrum_lines(report)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="osgm",
        description="Exact computations with hyperplane arrangements: "
                    "dependent sets, nbc bases, weighted cohomology, and "
                    "connection matrices of degenerations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, file2=False, weights=None, pencil=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="arrangement JSON file")
        if file2:
            p.add_argument("file2", nargs="?", default=None,
                           help="degenerate arrangement JSON file")
        p.add_argument("--degree", type=int, default=None,
                       help="restrict output to one degree")
        if weights is not None:
            p.add_argument("--weights", required=weights,
                           help='rationals "a/b,c/d,..." or a JSON file '
                                'with a "weights" list')
        if pencil:
            p.add_argument("--pencil", nargs=2, metavar=("S", "R"), default=None,
                           help='degenerating subset "i,j,k" and its rank')
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        p.set_defaults(func=func)
        return p

    add("deps", cmd_deps, "dependent subsets of the projective closure, by size")
    add("betti", cmd_betti, "dimensions of the algebra in each degree")
    add("nbc", cmd_nbc, "monomial basis in each degree")
    add("aomoto", cmd_aomoto, "symbolic boundary matrices of the weight complex")
    add("cohomology", cmd_cohomology,
        "cohomology dimensions and classes at given weights", weights=True)
    add("resonance", cmd_resonance,
        "resonance report at given weights", weights=True)
    add("gm", cmd_gm,
        "connection matrices of a degeneration and their action on cohomology",
        file2=True, weights=True, pencil=True)
    add("spectrum", cmd_spectrum,
        "eigenvalue structure of a pencil degeneration",
        weights=False, pencil=True)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ValueError, OSError) as e:
        text = str(e)
        print("error: %s" % text, file=sys.stderr)
        if any(marker in text for marker in _MATH_FAILURE_MARKERS):
            return 3
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
