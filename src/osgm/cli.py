"""Command line front end.

Loads arrangement files, dispatches one operation, and prints either an
aligned human-readable table or the JSON records the library defines.
The matrices of `gm` and `aomoto` and the sets of `deps` are written one
row at a time, byte for byte as a dense table and `json.dumps(..., indent=2)`
would print them: only nonzero entries become text, a table takes its column
widths from them, and JSON goes out in pieces of about 64 kB.
Exit codes: 0 on success, 1 when stdout is closed before the output is
written, 2 for input/validation problems, 3 when a mathematical
precondition fails and the library raises `NotCovered` (a map that does
not descend, or a degeneration with no unique pencil behind it), 130 when
interrupted by SIGINT (Ctrl-C), with no traceback.
"""

import argparse
import json
import os
import sys
from collections.abc import Iterator
from functools import cache
from itertools import combinations

from .aomoto import (
    Weights,
    build_aomoto,
    in_resonance,
    os_cohomology,
    weights_nonresonant,
)
from .arrangement import Arrangement, CombinatorialType, compare_types, dep_star, read_json
from .gauss_manin import (
    NotCovered,
    eigenspace_dims,
    gm_endomorphism,
    induce_on_type,
    omega_tilde_sum,
    principal_dependence,
    spectrum_check,
    spectrum_report,
)
from .linalg import by_column
from .orlik_solomon import betti_numbers, nbc_basis
from .poly import format_form


def _load_type(path):
    return CombinatorialType.from_arrangement(Arrangement.from_file(path))


def _parse_weights(text, n):
    if os.path.exists(text):
        data = read_json(text)
        if not isinstance(data, dict) or not isinstance(data.get("weights"), list):
            raise ValueError('weights file needs a "weights" list')
        values = data["weights"]
    else:
        values = [tok.strip() for tok in text.split(",")]
    if len(values) != n:
        raise ValueError("expected %d weights, found %d" % (n, len(values)))
    return Weights(values)


def _parse_pencil(pair):
    s_text, r_text = pair
    try:
        S = tuple(int(tok) for tok in s_text.split(","))
        r = int(r_text)
    except ValueError:
        raise ValueError("--pencil wants comma-separated indices and an integer rank")
    return tuple(sorted(S)), r


def _fmt_set(S):
    return "{%s}" % ",".join(str(j) for j in S)


def _write_table(rows, ncols):
    """Write a matrix given as sparse rows {col: text} as aligned lines, "0"
    off their support, each column as wide as its widest entry: the widths
    come from the texts in one pass, and each line is written once built."""
    if not rows or not ncols:
        print("  (empty)")
        return
    widths = [1] * ncols
    for row in rows:
        for k, text in row.items():
            widths[k] = max(widths[k], len(text))
    zeros = ["0".rjust(w) for w in widths]
    for row in rows:
        cells = zeros.copy()
        for k, text in row.items():
            cells[k] = text.rjust(widths[k])
        sys.stdout.write("  [ " + "   ".join(cells) + " ]\n")


def _form_texts(layout):
    """A matrix of forms in the layout of `by_column` as rows {col: text}."""
    return [{col: format_form(terms) for col, terms in row} for row in layout]


# JSON pieces as `json.dumps(value, indent=2)` prints them: `pad` is the indent
# of the line opening a list or dict; list items come rendered at pad + 2.

def _joined(items, sep, head, tail, empty):
    """Pieces of head + sep.join(items) + tail, or `empty` when there are
    no items, each cut once its items reach 64 kB."""
    batch, size, lead = [], 0, head
    for item in items:
        if size >= 1 << 16:
            yield lead + sep.join(batch)
            batch, size, lead = [], 0, sep
        batch.append(item)
        size += len(item)
    yield lead + sep.join(batch) + tail if batch else empty


def _jlist(items, pad):
    return _joined(items, ",\n", "[\n", "\n" + pad + "]", "[]")


def _dumps(value, pad):
    return json.dumps(value, indent=2).replace("\n", "\n" + pad)


def _jdict(pairs, pad):
    """A dict from (key, value) pairs; a value that is an iterator holds
    pieces rendered at indent pad + 2, any other is dumped."""
    sep = "{\n"
    for key, value in pairs:
        yield '%s%s  "%s": ' % (sep, pad, key)
        yield from value if isinstance(value, Iterator) else [_dumps(value, pad + "  ")]
        sep = ",\n"
    yield "{}" if sep == "{\n" else "\n" + pad + "}"


def _matrix_json(rows, pad):
    """A matrix from its rows, each the list of its rendered entries."""
    return _jlist((pad + "  " + "".join(_jlist(row, pad + "  ")) for row in rows), pad)


def _forms_json(layout, ncols, nvars, pad):
    """A matrix of forms in the layout of `by_column`: each form is the
    list of its terms {"coefficient", "exponents"}, by ascending j.  Every
    zero form is one shared "[]" line, and each term is rendered once."""
    cpad, tpad = pad + "    ", pad + "      "

    @cache
    def term(j, c):
        expo = [int(k == j) for k in range(1, nvars + 1)]
        return tpad + _dumps({"coefficient": str(c), "exponents": expo}, tpad)

    def cells(row):
        out = [cpad + "[]"] * ncols
        for col, terms in row:
            out[col] = cpad + "".join(_jlist([term(j, c) for j, c in sorted(terms)], cpad))
        return out

    return _matrix_json(map(cells, layout), pad)


def _rationals_json(m, pad):
    cell, zero = pad + '    "%s"', pad + '    "0"'  # every zero entry shares one cell
    return _matrix_json(([cell % c if c else zero for c in row] for row in m), pad)


def _sets_json(fam, q):
    """A family of q-sets as the value of a key at indent 2."""
    fmt = "      [\n" + ",\n".join(["        %d"] * q) + "\n      ]"
    return _jlist((fmt % S for S in fam), "    ")


def _fmt_os_element(elem):
    if not elem:
        return "0"
    parts = []
    for T in sorted(elem):
        c = elem[T]
        if T:
            body = "a%s" % _fmt_set(T)
            if abs(c) != 1:
                body = "%s*%s" % (abs(c), body)
        else:
            body = str(abs(c))
        sign = "- " if c < 0 else ("+ " if parts else "")
        parts.append(sign + body)
    return " ".join(parts)


def _os_element_json(elem):
    return [{"subset": list(T), "coefficient": str(elem[T])} for T in sorted(elem)]


def cmd_deps(args):
    t = _load_type(args.file)
    if args.degree is not None and not 2 <= args.degree <= t.n + 1:
        raise ValueError("degree must lie in 2..%d" % (t.n + 1))
    star = dep_star(t)
    dep_qs = [args.degree] if args.degree is not None else sorted(t.dep)
    star_qs = [args.degree] if args.degree is not None else sorted(star)
    # t.dep stops at ell+1; every larger subset of [n+1] is dependent, generated here
    dep = {q: t.dep[q] if q in t.dep else combinations(range(1, t.n + 2), q)
           for q in dep_qs}
    if args.json:
        sys.stdout.writelines(_jdict([
            ("n", t.n),
            ("ell", t.ell),
            ("dep", _jdict([(str(q), _sets_json(dep[q], q)) for q in dep_qs], "  ")),
            ("dep_star", _jdict([(str(q), _sets_json(star.get(q, []), q))
                                 for q in star_qs], "  ")),
        ], ""))
        print()
        return
    print("n = %d, ell = %d (index %d is the hyperplane at infinity)"
          % (t.n, t.ell, t.n + 1))
    for label, qs, fams in (("Dep", dep_qs, dep), ("Dep*", star_qs, star)):
        for q in qs:
            fmt, head = "{%s}" % ",".join(["%d"] * q), "%s_%d: " % (label, q)
            sys.stdout.writelines(_joined((fmt % S for S in fams.get(q, [])), " ", head,
                                          "\n", head + "(none)\n"))


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
    widths = [len(b) for b in cx.bases]
    # each boundary grouped here: `cx.layouts` would check D^2 = 0 first
    if args.json:
        sys.stdout.writelines(_jdict([
            ("bases", {str(q): [list(T) for T in cx.bases[q]] for q in range(t.ell + 1)}),
            ("boundary", _jdict((
                (str(q), _forms_json(by_column(rows), widths[q + 1], t.n, "    "))
                for q, rows in enumerate(cx.rows)), "  ")),
        ], ""))
        print()
        return
    for q in range(t.ell):
        print("boundary leaving degree %d (%dx%d):" % (q, widths[q], widths[q + 1]))
        _write_table(_form_texts(by_column(cx.rows[q])), widths[q + 1])


def cmd_cohomology(args):
    t = _load_type(args.file)
    lam = _parse_weights(args.weights, t.n)
    degrees = _degree_list(args, t.ell)
    h = os_cohomology(t, lam)
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
    # checked before any work, so a bad degree leaves stdout empty
    degrees = _degree_list(args, t.ell)
    h = os_cohomology(t, lam)
    ok = weights_nonresonant(t, lam)
    carries = None if args.degree is None else in_resonance(t, lam, degrees[0], 1, h=h)
    if args.json:
        data = {"dims": h.dims, "nonresonant": ok}
        if carries is not None:
            data["in_resonance"] = carries
        print(json.dumps(data))
        return
    print("cohomology dimensions, degrees 0..%d: %s"
          % (t.ell, " ".join(str(d) for d in h.dims)))
    print("nonresonance test (sufficient condition): %s"
          % ("passed" if ok else "failed"))
    if carries is not None:
        print("degree %d carries cohomology: %s" % (args.degree, "yes" if carries else "no"))


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
    degrees = _degree_list(args, ell)  # refused before the second file is read
    # a pair of files is recovered to its pencil; then both forms run one route
    if args.pencil is not None:
        S, r = _parse_pencil(args.pencil)
    else:
        special = _load_type(args.file2)
        if compare_types(t, special) != "t1_finer":
            raise ValueError("the second file, %s, must have strictly more dependent sets "
                             "than the first, %s" % (args.file2, args.file))
        S, r = principal_dependence(special, t)
    e = omega_tilde_sum(S, r, n, ell)
    ind = induce_on_type(e, t)
    h = os_cohomology(t, lam)
    gm = {q: gm_endomorphism(ind, lam, q, h=h) for q in degrees}
    report = spectrum_report(e, S, r, lam)
    if args.json:
        sys.stdout.writelines(_jdict([
            ("S", list(S)),
            ("r", r),
            ("omega", _jdict([(str(q), _forms_json(m, len(m), n, "    "))
                              for q, m in enumerate(ind.layouts)], "  ")),
            ("weights", lam.to_json()),
            ("dims", h.dims),
            ("gm", _jdict([(str(q), _rationals_json(gm[q], "    ")) for q in degrees], "  ")),
            ("spectrum", report),
        ], ""))
        print()
        return
    print("pencil (S, r): S = %s, r = %d" % (_fmt_set(S), r))
    for q, m in enumerate(ind.layouts):
        print("induced connection matrix, degree %d (%dx%d):" % (q, len(m), len(m)))
        _write_table(_form_texts(m), len(m))
    print("weights: %s" % ", ".join(lam.to_json()))
    print("cohomology dimensions: %s" % " ".join(str(d) for d in h.dims))
    for q in degrees:
        if not gm[q]:
            print("action on H^%d: zero-dimensional" % q)
            continue
        print("action on H^%d (%dx%d):" % (q, len(gm[q]), len(gm[q])))
        _write_table([{k: str(c) for k, c in enumerate(row) if c} for row in gm[q]],
                     len(gm[q]))
    _print_spectrum_lines(report)


def cmd_spectrum(args):
    t = _load_type(args.file)
    n, ell = t.n, t.ell
    if args.pencil is None:
        raise ValueError("spectrum needs --pencil S r")
    S, r = _parse_pencil(args.pencil)
    if S == tuple(range(1, n + 2)):
        # y_{n+1} = -(y_1 + ... + y_n), so y_S = 0; refused before the sum is built
        raise ValueError("spectrum theorem inapplicable: --pencil S holds all %d "
                         "hyperplanes, so y_S = 0" % (n + 1))
    lam = None if args.weights is None else _parse_weights(args.weights, n)
    e = omega_tilde_sum(S, r, n, ell)
    ok, witness = spectrum_check(e, S)
    dims = {q: eigenspace_dims(n, len(S), r, q) for q in range(ell + 1)}
    report = None if lam is None else spectrum_report(e, S, r, lam)
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

    def add(name, func, help_text, file2=False, weights=None, pencil=False, degree=True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="arrangement JSON file")
        if file2:
            p.add_argument("file2", nargs="?", default=None,
                           help="degenerate arrangement JSON file")
        if degree:
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
    add("betti", cmd_betti, "dimensions of the algebra in each degree", degree=False)
    add("nbc", cmd_nbc, "monomial basis in each degree")
    add("aomoto", cmd_aomoto, "symbolic boundary matrices of the weight complex",
        degree=False)
    add("cohomology", cmd_cohomology,
        "cohomology dimensions and classes at given weights", weights=True)
    add("resonance", cmd_resonance,
        "resonance report at given weights", weights=True)
    add("gm", cmd_gm,
        "connection matrices of a degeneration and their action on cohomology",
        file2=True, weights=True, pencil=True)
    add("spectrum", cmd_spectrum,
        "eigenvalue structure of a pencil degeneration",
        weights=False, pencil=True, degree=False)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse reads a token that starts with "-" as an option unless it is a
    # plain number, so "--weights -1/2,..." is passed as "--weights=-1/2,...";
    # "--w" and longer prefixes abbreviate --weights wherever it is taken
    for i in range(len(argv) - 1, 0, -1):
        flag, value = argv[i - 1], argv[i]
        if (len(flag) > 2 and "--weights".startswith(flag)
                and value[:1] == "-" and value[1:2].isdigit()):
            argv[i - 1:i + 1] = [flag + "=" + value]
    args = _build_parser().parse_args(argv)
    try:
        args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: send what is still buffered to devnull,
        # so that the flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 3 if isinstance(e, NotCovered) else 2
    except KeyboardInterrupt:
        return 130
    return 0


if __name__ == "__main__":
    sys.exit(main())
