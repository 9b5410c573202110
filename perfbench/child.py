"""Child process of the benchmark: one traced CLI call, or one weight-scan pass.

    python3 perfbench/child.py cli  OP_ID TRACE_OUT -- osgm-argv...
    python3 perfbench/child.py scan INPUT RESULTS TRACE_OUT|-

`cli` runs `osgm.cli.main(argv)` with the tracer installed (untraced CLI ops
run `python -m osgm.cli` directly).  `scan` builds the weight-scan type and
its induced pencil endomorphism, then runs every weight vector through
`os_cohomology`, `weights_nonresonant` and `gm_endomorphism`, writing
timings and outputs to RESULTS.  Tracing wraps public functions of
`osgm.*` from outside; nothing inside the library changes.
"""

import json
import sys
import time
from fractions import Fraction

# Functions that get a span, as (module, attribute); "Class.method" names a
# method or classmethod, reported under the class name.
SPANNED = [
    ("cli", "main"),
    ("arrangement", "CombinatorialType.from_arrangement"),
    ("arrangement", "dep_star"),
    ("orlik_solomon", "nbc_basis"),
    ("orlik_solomon", "projection_matrix"),
    ("orlik_solomon", "os_reduce"),
    ("aomoto", "build_aomoto"),
    ("aomoto", "os_cohomology"),
    ("aomoto", "weights_nonresonant"),
    ("gauss_manin", "omega_tilde"),
    ("gauss_manin", "omega_tilde_sum"),
    ("gauss_manin", "omega_tilde_pair"),
    ("gauss_manin", "SigmaAction.__init__"),
    ("gauss_manin", "ChainEndomorphism.__init__"),
    ("gauss_manin", "induce_on_type"),
    ("gauss_manin", "gm_endomorphism"),
    ("gauss_manin", "principal_dependence"),
    ("gauss_manin", "spectrum_report"),
    ("linalg", "rref"),
    ("linalg", "matmul"),
    ("linalg", "solve_row_combination"),
]
MODULES = ["cli", "arrangement", "orlik_solomon", "aomoto", "gauss_manin", "linalg", "poly"]
# spans whose arguments or results feed a work counter, see Tracer._note
NOTED = {"linalg.rref", "orlik_solomon.nbc_basis", "aomoto.build_aomoto",
         "gauss_manin.omega_tilde", "gauss_manin.omega_tilde_sum",
         "gauss_manin.omega_tilde_pair", "gauss_manin.induce_on_type"}


# An 8x8 Hilbert matrix: eliminating it exercises the same big-integer
# Fraction arithmetic as the program's own rref.
REFERENCE = [[Fraction(1, i + j + 1) for j in range(8)] for i in range(8)]


def reference_seconds():
    """Wall time of a fixed exact elimination done three times, about 2 ms.

    The benchmark's yardstick for the machine's current speed: it never
    changes between commits, so an op's time divided by it is the op's cost
    with the host's load swings taken out."""
    t0 = time.perf_counter()
    for _ in range(3):
        m = [list(row) for row in REFERENCE]
        for c in range(len(m)):
            for i in range(c + 1, len(m)):
                f = m[i][c] / m[c][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return time.perf_counter() - t0


def span_name(module, attr):
    return "%s.%s" % (module, attr.split(".")[0] if "__init__" in attr else attr.split(".")[-1])


def _type_key(t):
    return (t.n, t.ell, tuple((q, tuple(f)) for q, f in sorted(t.dep.items())),
            tuple(t.affine_empty))


class Tracer:
    """Spans and counters kept in memory and written out once at the end.

    A span is (op, id, parent, name, start, end, covered_end, raised):
    `end` closes the call itself, `covered_end` also covers the tracer's
    own bookkeeping after it, so the parent's self time excludes both.
    """

    def __init__(self):
        self.op = 0
        self.spans = []
        self.current = -1
        self.next_id = 0
        self.counts = {"arrangement.pencil_starred.calls": 0,
                       "arrangement.pencil_starred.hits": 0,
                       "orlik_solomon.basis_size": 0,
                       "linalg.rref.cells": 0,
                       "poly.nnz": 0,
                       "poly.terms": 0}
        self.distinct = {"aomoto.build_aomoto": set(), "gauss_manin.omega_tilde": set()}

    def _poly_counts(self, mats):
        for m in mats:
            for row in m:
                for p in row:
                    if p:
                        self.counts["poly.nnz"] += 1
                        self.counts["poly.terms"] += len(p.terms)

    def _note(self, name, args, result):
        if name == "linalg.rref":
            m = args[0]
            self.counts["linalg.rref.cells"] += len(m) * len(m[0]) if m else 0
        elif name == "orlik_solomon.nbc_basis":
            self.counts["orlik_solomon.basis_size"] += len(result)
        elif name == "aomoto.build_aomoto":
            self.distinct[name].add(_type_key(args[0]))
            self._poly_counts(result.boundary)
        elif name == "gauss_manin.omega_tilde":
            S, n, ell = args[:3]
            self.distinct[name].add((tuple(sorted(S)), n, ell))
        elif name in ("gauss_manin.omega_tilde_sum", "gauss_manin.omega_tilde_pair",
                      "gauss_manin.induce_on_type"):
            self._poly_counts(result.mats)

    def wrap(self, fn, name):
        clock = time.perf_counter
        spans = self.spans
        noted = name in NOTED

        def traced(*args, **kwargs):
            parent = self.current
            sid = self.next_id
            self.next_id = sid + 1
            self.current = sid
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                self.current = parent
                spans.append((self.op, sid, parent, name, t0, t1, t1, True))
                raise
            t1 = clock()
            self.current = parent
            if noted:
                self._note(name, args, result)
            spans.append((self.op, sid, parent, name, t0, t1, clock(), False))
            return result

        traced.__wrapped__ = fn
        return traced

    def count_pencil_starred(self, fn):
        counts = self.counts

        def counted(K, S, r, ell):
            hit = fn(K, S, r, ell)
            counts["arrangement.pencil_starred.calls"] += 1
            if hit:
                counts["arrangement.pencil_starred.hits"] += 1
            return hit

        return counted

    def install(self):
        """Replace each target in every osgm module that binds it."""
        import importlib

        mods = {m: importlib.import_module("osgm." + m) for m in MODULES}
        replace = {}
        for module, attr in SPANNED:
            owner = mods[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                name = span_name(module, attr)
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self.wrap(raw.__func__, name)))
                else:
                    setattr(cls, meth, self.wrap(raw, name))
                continue
            fn = getattr(owner, attr)
            replace[id(fn)] = (fn, self.wrap(fn, span_name(module, attr)))
        starred = mods["arrangement"].pencil_starred
        replace[id(starred)] = (starred, self.count_pencil_starred(starred))
        for mod in mods.values():
            for key, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, key, hit[1])

    def dump(self, path):
        counts = dict(self.counts)
        for name, keys in self.distinct.items():
            counts[name + ".distinct"] = len(keys)
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": counts}, fh)


def run_cli(op_id, trace_out, argv):
    tracer = Tracer()
    tracer.op = int(op_id)
    tracer.install()
    from osgm import cli

    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(trace_out)
    return code


def _matrix_json(m):
    return [[str(c) for c in row] for row in m]


def run_scan(input_path, results_path, trace_out):
    tracer = None
    if trace_out != "-":
        tracer = Tracer()
        tracer.install()
    from osgm.aomoto import Weights, os_cohomology, weights_nonresonant
    from osgm.arrangement import Arrangement, CombinatorialType
    from osgm.gauss_manin import gm_endomorphism, induce_on_type, omega_tilde_sum
    from osgm.orlik_solomon import betti_numbers

    with open(input_path) as fh:
        data = json.load(fh)
    t = CombinatorialType.from_arrangement(Arrangement.from_json(data["arrangement"]))
    ind = induce_on_type(omega_tilde_sum(tuple(data["S"]), data["r"], t.n, t.ell), t)
    betti = betti_numbers(t)
    weights = [Weights([Fraction(v) for v in w["values"]]) for w in data["weights"]]
    ready = time.monotonic()
    clock = time.perf_counter
    outputs = []
    for i, lam in enumerate(weights, start=1):
        if tracer is not None:
            tracer.op = i
        ref = reference_seconds()
        t0 = clock()
        h = os_cohomology(t, lam)
        nonres = weights_nonresonant(t, lam)
        gm = [gm_endomorphism(ind, lam, q, h=h) for q in range(t.ell + 1)]
        outputs.append((clock() - t0, ref, h.dims, nonres, gm))
    done = time.monotonic()
    with open(results_path, "w") as fh:
        json.dump({
            "ready": ready, "done": done, "betti": betti,
            "ops": [{"s": s, "ref": ref, "dims": dims, "nonresonant": nonres,
                     "gm": [_matrix_json(m) for m in gm]}
                    for s, ref, dims, nonres, gm in outputs],
        }, fh)
    if tracer is not None:
        tracer.dump(trace_out)
    return 0


def main(argv):
    if len(argv) >= 4 and argv[0] == "cli" and argv[3] == "--":
        return run_cli(argv[1], argv[2], argv[4:])
    if len(argv) == 4 and argv[0] == "scan":
        return run_scan(*argv[1:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
