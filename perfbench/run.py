"""Benchmark ladder for osgm: whole CLI runs and the library's weight scan.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/` of that checkout.  Workloads (see perfbench/LADDER.md):

  pencil-cli   `osgm gm/spectrum --pencil` on generic types: omega assembly
  pair-cli     `osgm gm GENERAL SPECIAL`, `deps` and a refusal: pencil recovery
  weight-scan  one process scanning 120 weights: cohomology and GM action

The loop is closed with one client: one op runs at a time, each in a child
process, and the next starts when it ends.  With --trace 0 the run reports
end-to-end metrics, times in units of a fixed yardstick computation timed
alongside the ops; with --trace 1 it alternates traced and untraced passes
and reports per-layer metrics taken by wrapping osgm's public functions.
Every op's output is checked; the last stdout line is one JSON object.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import sys
import threading
import time
from math import ceil
from pathlib import Path

import checks
import child
import gen

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
HARD_LIMIT_S = 170.0
SETUP_PROBES = 2  # per pass, so that the probes spread over the run
REF_SAMPLES = 5   # yardstick runs before and after each CLI op

WORKLOADS = {
    "pencil-cli": {"build": gen.pencil_cli, "predicted": "gauss_manin"},
    "pair-cli": {"build": gen.pair_cli, "predicted": "gauss_manin.principal_dependence"},
    "weight-scan": {"build": None, "predicted": "linalg.rref"},
}

SPAN_NAMES = [child.span_name(m, a) for m, a in child.SPANNED]
LAYER_MODULES = [m for m in child.MODULES if any(n.startswith(m + ".") for n in SPAN_NAMES)]


class Run:
    """Child processes, op outcomes and the clock of one benchmark run."""

    def __init__(self, work):
        self.work = work
        self.started = time.monotonic()
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.attempted = 0
        self.failures = []
        self.verdicts = {}
        self.rss_mb = []
        self.count = 0

    def spawn(self, args):
        """Run `python3 args...` to completion; returns (code, out, err,
        monotonic start, wall seconds).  The child's peak RSS is kept."""
        self.count += 1
        out_path = self.work / ("child-%d.out" % self.count)
        err_path = self.work / ("child-%d.err" % self.count)
        argv = [sys.executable] + args
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            actions = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                       (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
                       (os.POSIX_SPAWN_CLOSE, 0)]
            t0 = time.monotonic()
            pid = os.posix_spawn(sys.executable, argv, self.env, file_actions=actions)
            timer = threading.Timer(max(0.0, self.started + HARD_LIMIT_S - t0), _kill, (pid,))
            timer.start()
            reaped = False
            try:
                _, status, usage = os.wait4(pid, 0)
                reaped = True
            finally:
                timer.cancel()
                if not reaped:
                    _kill(pid)
                    os.waitpid(pid, 0)
            wall = time.monotonic() - t0
        self.rss_mb.append(usage.ru_maxrss / 1024.0)
        out = out_path.read_bytes()
        err = err_path.read_bytes().decode("utf-8", "replace")
        out_path.unlink()
        err_path.unlink()
        return os.waitstatus_to_exitcode(status), out, err, t0, wall

    def record(self, name, key, check):
        """Count one attempted op; `check()` gives its failure reasons and
        runs once per distinct output, since equal outputs get equal verdicts."""
        self.attempted += 1
        digest = hashlib.sha256(repr(key).encode()).hexdigest()
        if digest not in self.verdicts:
            self.verdicts[digest] = check()
        for reason in self.verdicts[digest]:
            self.failures.append("%s: %s" % (name, reason))

    def time_left(self):
        return self.started + HARD_LIMIT_S - time.monotonic()


def _kill(pid):
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def nearest_rank(values, p):
    values = sorted(values)
    return values[max(0, ceil(p * len(values)) - 1)]


def loop(seconds, pass_fn):
    """Closed loop: at least two passes, back to back, until the next one
    would end more than half a pass past `seconds`."""
    start = time.monotonic()
    walls = []
    while True:
        walls.append(pass_fn())
        elapsed = time.monotonic() - start
        if len(walls) >= 2 and elapsed + walls[-1] / 2 > seconds:
            return walls


# ---- the CLI workloads -------------------------------------------------

def cli_setup(run, selberg, samples):
    """Time `osgm betti --json`, interpreter start plus imports; `samples`
    None makes an untimed warm-up call for the file and bytecode caches."""
    for _ in range(SETUP_PROBES if samples is not None else 1):
        code, out, err, _, wall = run.spawn(["-m", "osgm.cli", "betti", selberg, "--json"])
        run.record("betti", (code, out, err), lambda: _check_betti(code, out, err))
        if samples is not None:
            samples.append(wall)


def _check_betti(code, out, err):
    if code != 0 or "Traceback" in err:
        return ["betti exit %d: %s" % (code, err.strip())]
    if json.loads(out) != {"betti": [1, 5, 6]}:
        return ["Selberg betti numbers wrong: %s" % out[:80]]
    return []


def cli_pass(run, ops, per_op, traces=None):
    """Run every op once; `traces` is a list to collect trace files into,
    or None for plain `python -m osgm.cli` calls."""
    start = time.monotonic()
    outputs, refs = [], []
    for i, op in enumerate(ops):
        if traces is None:
            args = ["-m", "osgm.cli"] + op.argv
        else:
            trace_path = run.work / ("trace-%d.json" % run.count)
            args = [str(HERE / "child.py"), "cli", str(i), str(trace_path), "--"] + op.argv
            traces.append(trace_path)
        refs += [child.reference_seconds() for _ in range(REF_SAMPLES)]
        code, out, err, _, wall = run.spawn(args)
        refs += [child.reference_seconds() for _ in range(REF_SAMPLES)]
        outputs.append((op, code, out, err, wall))
        if run.time_left() <= 0:
            break
    wall = time.monotonic() - start
    ref = statistics.median(refs)
    for op, code, out, err, op_wall in outputs:
        per_op.setdefault(op.name, []).append((op_wall, ref))
        run.record(op.name, (op.name, code, out, err),
                   lambda: checks.check_cli(op.expect, code, out.decode(), err))
    return wall


def write_inputs(work):
    def write(name, data):
        path = work / name
        path.write_text(json.dumps(data))
        return str(path)
    return write


# ---- the weight scan ---------------------------------------------------

def scan_pass(run, input_path, info, setup, per_op, traces=None):
    results = run.work / "scan-results.json"
    trace = "-"
    if traces is not None:
        trace = str(run.work / ("trace-%d.json" % run.count))
        traces.append(Path(trace))
    code, _, err, t0, wall = run.spawn([str(HERE / "child.py"), "scan", input_path,
                                        str(results), trace])
    if code != 0 or "Traceback" in err:
        run.record("scan", (code, err),
                   lambda: ["scan child exit %d: %s" % (code, err.strip()[-400:])])
        return wall
    data = json.loads(results.read_text())
    results.unlink()
    setup.append(data["ready"] - t0)
    run.record("scan-betti", data["betti"],
               lambda: [] if data["betti"] == info["betti"] else
               ["betti %s != %s from the construction" % (data["betti"], info["betti"])])
    ref = statistics.median(rec["ref"] for rec in data["ops"])
    for i, ((kind, lam), rec) in enumerate(zip(info["weights"], data["ops"])):
        per_op.setdefault(i, []).append((rec["s"], ref))
        run.record("weight-%d" % i, (i, rec["dims"], rec["nonresonant"], rec["gm"]),
                   lambda: checks.check_scan_op(kind, lam, info["S"], data["betti"], rec))
    if len(data["ops"]) != len(info["weights"]):
        run.record("scan", len(data["ops"]), lambda: ["scan stopped early"])
    return data["done"] - t0


# ---- per-layer aggregation ---------------------------------------------

def layer_metrics(trace_files):
    """Per-layer numbers of one traced pass from its children's trace files."""
    calls = {n: 0 for n in SPAN_NAMES}
    total = {n: 0.0 for n in SPAN_NAMES}
    self_s = {n: 0.0 for n in SPAN_NAMES}
    raised = {m: 0 for m in LAYER_MODULES}
    counts = {}
    omega_terms = 0
    for path in trace_files:
        data = json.loads(Path(path).read_text())
        Path(path).unlink()
        covered = {}
        names = {}
        for _, sid, parent, name, t0, t1, t2, _ in data["spans"]:
            covered[parent] = covered.get(parent, 0.0) + (t2 - t0)
            names[sid] = name
        for _, sid, parent, name, t0, t1, _, err in data["spans"]:
            calls[name] += 1
            total[name] += t1 - t0
            self_s[name] += (t1 - t0) - covered.get(sid, 0.0)
            raised[name.split(".")[0]] += err
            if name == "gauss_manin.omega_tilde" and names.get(parent) in (
                    "gauss_manin.omega_tilde_sum", "gauss_manin.omega_tilde_pair"):
                omega_terms += 1
        for key, value in data["counts"].items():
            counts[key] = counts.get(key, 0) + value
    out = {}
    for n in SPAN_NAMES:
        out[n + ".calls"] = calls[n]
        out[n + ".total_s"] = total[n]
        out[n + ".self_s"] = self_s[n]
    for m in LAYER_MODULES:
        out[m + ".self_s"] = sum(self_s[n] for n in SPAN_NAMES if n.startswith(m + "."))
        out[m + ".raised"] = raised[m]
    starred = counts.get("arrangement.pencil_starred.calls", 0)
    out["arrangement.pencil_starred.calls"] = starred
    out["arrangement.pencil_starred.hit_ratio"] = (
        counts.get("arrangement.pencil_starred.hits", 0) / starred if starred else 0.0)
    for key in ("orlik_solomon.basis_size", "aomoto.build_aomoto.distinct",
                "gauss_manin.omega_tilde.distinct", "linalg.rref.cells",
                "poly.nnz", "poly.terms"):
        out[key] = counts.get(key, 0)
    out["gauss_manin.omega_terms"] = omega_terms
    return out


def is_count(name):
    return not name.endswith("_s") and not name.endswith("hit_ratio")


def per_layer_units(name):
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("hit_ratio") else "count"


# ---- driver ------------------------------------------------------------

def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "osgm" / "cli.py").is_file():
        print("error: no osgm sources at %s; run from a full checkout" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # the runner, its yardstick and every child share one CPU, so that the
    # yardstick meets the same contention as the ops it scales
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work = ROOT / ".perfbench_work" / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    work.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def measure(args, work):
    run = Run(work)
    write = write_inputs(work)
    spec = WORKLOADS[args.workload]
    setup, per_op = [], {}
    if spec["build"] is not None:
        ops = spec["build"](args.seed, write)
        selberg = str(work / "selberg.json")
        cli_setup(run, selberg, None)

        def one_pass(traces=None):
            cli_setup(run, selberg, setup)
            return cli_pass(run, ops, per_op, traces)
    else:
        input_path, info = gen.weight_scan(args.seed, write)

        def one_pass(traces=None):
            return scan_pass(run, input_path, info, setup, per_op, traces)

    lines = []
    if args.trace:
        metrics = traced_run(args, run, one_pass, spec, lines)
    else:
        walls = loop(args.seconds, one_pass)
        if not setup or not per_op:
            print("error: no op completed; %s" % "; ".join(run.failures[:5]), file=sys.stderr)
            return 1
        # The host's speed swings by up to 1.85x over minutes with other
        # tenants' load, so each op's time is divided by the median yardstick
        # of its pass; raw seconds are printed too
        norm = [statistics.median(w / r for w, r in v) for v in per_op.values()]
        raw = [statistics.median(w for w, _ in v) for v in per_op.values()]
        refs = [r for v in per_op.values() for _, r in v]
        n_ops = len(refs)
        values = [
            ("wall_ref", sum(norm), "ref", len(walls)),
            ("setup_s", statistics.median(setup), "s", len(setup)),
            ("peak_rss_mb", max(run.rss_mb), "MB", len(run.rss_mb)),
            ("op_p50_ref", nearest_rank(norm, 0.5), "ref", n_ops),
            ("op_p90_ref", nearest_rank(norm, 0.9), "ref", n_ops),
        ]
        metrics = {}
        for name, value, unit, n in values:
            metrics[name] = {"value": value, "unit": unit}
            lines.append("%-12s %12.6f %-5s n=%d" % (name, value, unit, n))
        scan_setup = statistics.median(setup) if spec["build"] is None else 0.0
        for name, value, unit, n in [
                ("wall_s", sum(raw) + scan_setup, "s", len(walls)),
                ("op_p50_s", nearest_rank(raw, 0.5), "s", n_ops),
                ("op_p90_s", nearest_rank(raw, 0.9), "s", n_ops),
                ("ref_s", statistics.median(refs), "s", n_ops)]:
            lines.append("%-12s %12.6f %-5s n=%d" % (name, value, unit, n))
        if spec["build"] is not None:
            for name, samples in per_op.items():
                lines.append("  op %-24s median %9.4f s  %9.2f ref  n=%d" % (
                    name, statistics.median(w for w, _ in samples),
                    statistics.median(w / r for w, r in samples), len(samples)))
    error_rate = len(run.failures) / run.attempted if run.attempted else 1.0
    lines.append("%-12s %12.6f %-5s n=%d" % ("error_rate", error_rate, "1", run.attempted))
    for reason in run.failures[:20]:
        lines.append("FAILED %s" % reason)
    print("workload %s seed %d python %s" % (args.workload, args.seed, sys.version.split()[0]))
    for line in lines:
        print(line)
    print(json.dumps({"correct": not run.failures, "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": metrics}))
    return 0


def traced_run(args, run, one_pass, spec, lines):
    """Alternate traced and untraced passes; per-layer numbers are medians
    over the traced passes, counts must repeat exactly between them."""
    traced, untraced, layers = [], [], []
    start = time.monotonic()
    while True:
        if len(traced) <= len(untraced):
            traces = []
            traced.append(one_pass(traces))
            layers.append(layer_metrics(traces))
            last = traced[-1]
        else:
            untraced.append(one_pass())
            last = untraced[-1]
        elapsed = time.monotonic() - start
        if len(traced) >= 2 and untraced and elapsed + last / 2 > args.seconds:
            break
    metrics = {}
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        if is_count(name) and len(set(values)) > 1:
            lines.append("FLAG count %s differs between traced passes: %s" % (name, values))
        value = values[0] if is_count(name) else statistics.median(values)
        metrics[name] = {"value": value, "unit": per_layer_units(name)}
    overhead = min(traced) - min(untraced)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    mod_self = {m: metrics[m + ".self_s"]["value"] for m in LAYER_MODULES}
    fn_self = {n: metrics[n + ".self_s"]["value"] for n in SPAN_NAMES}
    top_mod = max(mod_self, key=mod_self.get)
    top_fn = max(fn_self, key=fn_self.get)
    predicted = spec["predicted"]
    verdict = "matches" if predicted in (top_mod, top_fn) else "MISMATCH with"
    lines.append("traced passes %d (fastest %.3f s), untraced %d (fastest %.3f s), overhead %.3f s"
                 % (len(traced), min(traced), len(untraced), min(untraced), overhead))
    lines.append("top self-time layer %s (%.3f s), top function %s (%.3f s); %s prediction %s"
                 % (top_mod, mod_self[top_mod], top_fn, fn_self[top_fn], verdict, predicted))
    for name in sorted(fn_self, key=fn_self.get, reverse=True)[:8]:
        lines.append("  self %-40s %9.4f s  calls %d" % (
            name, fn_self[name], metrics[name + ".calls"]["value"]))
    return metrics


if __name__ == "__main__":
    sys.exit(main())
