"""Regenerate the golden CLI outputs in this directory.

Run from the repository root with the library on the path:

    PYTHONPATH=src python tests/golden/make_golden.py

Each case in CASES is run through `osgm.cli.main` in-process; its stdout
goes to `<name>.out` and its argv and exit code to `cases.json`.  Each
script in demos/ is run in a fresh interpreter, and its stdout goes to
`demos/<script>.out`.  Only regenerate when an output change is intended:
`tests/test_golden.py` compares the current outputs with these files byte
for byte.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

SEL = "data/selberg.json"
DEG = "data/selberg-degenerate.json"
NONRES = "1/2,1/3,1/5,1/7,1/11"
RES = "1,2,2,1,-3"
# a negative first weight, passed as its own token after --weights
NEGFIRST = "-1/2,1/3,1/5,1/7,1/11"
# lambda_S = 0 on S = {3,4,5}: the spectrum prediction does not apply
FLAT = "1/2,1/3,1,-1/2,-1/2"
INPUTS = "tests/golden/inputs/"
# lines 1..5 through one point: starred sets of sizes 4 and 5 above ell+1
FIVE = INPUTS + "five-concurrent.json"
GEN8 = INPUTS + "generic-8-2.json"
NONRES8 = "1/2,1/3,1/5,1/7,1/11,1/13,1/17,1/19"
# rows 2 and 4 are the same line
REP = INPUTS + "repeated-row.json"
GEN5 = INPUTS + "generic-5-2.json"
# ten generic lines: two-digit variables, and the pencil through the line
# at infinity gives multi-term forms over all ten of them
GEN10 = INPUTS + "generic-10-2.json"
NONRES10 = "1/2,1/3,1/5,1/7,1/11,1/13,1/17,1/19,1/23,1/29"
# pencil_realization(8, 2, (1,2,3,4), 2): lines 1..4 through one point,
# the shape the benchmark's weight scan runs on
FOUR = INPUTS + "four-fold-8-2.json"
K1009 = "1/1009,2/1009,3/1009,5/1009,7/1009,11/1009,13/1009,17/1009"
# 1/p for the eight primes from 999961 up: a common denominator near 10^48
P6 = "1/999961,1/999979,1/999983,1/1000003,1/1000033,1/1000037,1/1000039,1/1000081"
# zero off S = {1,2,3,4} and summing to zero on it: resonant in degree 1
RES4 = "1/1009,-1/1009,2/999983,-2/999983,0,0,0,0"
# seven generic planes in C^3: a degree-3 block, and a rank-2 pencil whose
# forms have coefficients other than +-1
GEN73 = INPUTS + "generic-7-3.json"
NONRES7 = "1/2,1/3,1/5,1/7,1/11,1/13,1/17"
# pencil_realization(6, 3, (1,2,3,4), 2): four planes through one line,
# every boundary rectangular
PEN63 = INPUTS + "pencil-6-3.json"

CASES = [
    ("deps", ["deps", SEL]),
    ("deps-json", ["deps", SEL, "--json"]),
    ("deps-degree3", ["deps", SEL, "--degree", "3"]),
    ("deps-degenerate-json", ["deps", DEG, "--json"]),
    ("betti", ["betti", SEL]),
    ("betti-json", ["betti", SEL, "--json"]),
    ("nbc", ["nbc", SEL]),
    ("nbc-json", ["nbc", SEL, "--json"]),
    ("nbc-degree1", ["nbc", SEL, "--degree", "1"]),
    ("aomoto", ["aomoto", SEL]),
    ("aomoto-json", ["aomoto", SEL, "--json"]),
    ("cohomology-nonres", ["cohomology", SEL, "--weights", NONRES]),
    ("cohomology-nonres-json", ["cohomology", SEL, "--weights", NONRES, "--json"]),
    ("cohomology-res", ["cohomology", SEL, "--weights", RES]),
    ("cohomology-res-json", ["cohomology", SEL, "--weights", RES, "--json"]),
    ("cohomology-res-degree1", ["cohomology", SEL, "--weights", RES, "--degree", "1"]),
    # zero weights: H^0 survives and prints its class
    ("cohomology-zero", ["cohomology", SEL, "--weights", "0,0,0,0,0"]),
    ("cohomology-negative-first", ["cohomology", SEL, "--weights", NEGFIRST]),
    ("resonance-nonres", ["resonance", SEL, "--weights", NONRES, "--degree", "1"]),
    ("resonance-nonres-json", ["resonance", SEL, "--weights", NONRES, "--json"]),
    ("resonance-res", ["resonance", SEL, "--weights", RES, "--degree", "1"]),
    ("resonance-res-json",
     ["resonance", SEL, "--weights", RES, "--degree", "2", "--json"]),
    ("gm-pencil-nonres", ["gm", SEL, "--pencil", "3,4,5", "1", "--weights", NONRES]),
    ("gm-pencil-nonres-json",
     ["gm", SEL, "--pencil", "3,4,5", "1", "--weights", NONRES, "--json"]),
    ("gm-pencil-res", ["gm", SEL, "--pencil", "3,4,5", "1", "--weights", RES]),
    ("gm-pencil-res-json",
     ["gm", SEL, "--pencil", "3,4,5", "1", "--weights", RES, "--json"]),
    ("gm-pencil-rank2", ["gm", SEL, "--pencil", "3,4,6", "2", "--weights", NONRES]),
    ("gm-pencil-flat", ["gm", SEL, "--pencil", "3,4,5", "1", "--weights", FLAT]),
    ("gm-pencil-not-covering",
     ["gm", SEL, "--pencil", "1,2,6", "1", "--weights", NONRES]),
    ("gm-pair-nonres", ["gm", SEL, DEG, "--weights", NONRES]),
    ("gm-pair-nonres-json", ["gm", SEL, DEG, "--weights", NONRES, "--json"]),
    ("gm-pair-res", ["gm", SEL, DEG, "--weights", RES]),
    ("gm-pair-res-json", ["gm", SEL, DEG, "--weights", RES, "--json"]),
    ("gm-pair-degree2", ["gm", SEL, DEG, "--weights", NONRES, "--degree", "2"]),
    ("gm-pair-reversed", ["gm", DEG, SEL, "--weights", NONRES]),
    ("spectrum", ["spectrum", SEL, "--pencil", "3,4,5", "1"]),
    ("spectrum-json", ["spectrum", SEL, "--pencil", "3,4,5", "1", "--json"]),
    ("spectrum-nonres",
     ["spectrum", SEL, "--pencil", "3,4,5", "1", "--weights", NONRES]),
    ("spectrum-nonres-json",
     ["spectrum", SEL, "--pencil", "3,4,5", "1", "--weights", NONRES, "--json"]),
    ("spectrum-res", ["spectrum", SEL, "--pencil", "3,4,5", "1", "--weights", RES]),
    ("spectrum-res-json",
     ["spectrum", SEL, "--pencil", "3,4,5", "1", "--weights", RES, "--json"]),
    ("spectrum-flat-json",
     ["spectrum", SEL, "--pencil", "3,4,5", "1", "--weights", FLAT, "--json"]),
    ("spectrum-rank2", ["spectrum", SEL, "--pencil", "3,4,6", "2", "--weights", NONRES]),
    ("deps-five-concurrent", ["deps", FIVE]),
    ("deps-five-concurrent-json", ["deps", FIVE, "--json"]),
    ("gm-pair-five-concurrent", ["gm", GEN8, FIVE, "--weights", NONRES8]),
    ("gm-pair-five-concurrent-json", ["gm", GEN8, FIVE, "--weights", NONRES8, "--json"]),
    ("deps-repeated", ["deps", REP]),
    ("deps-repeated-json", ["deps", REP, "--json"]),
    ("gm-pencil-repeated", ["gm", REP, "--pencil", "2,4", "1", "--weights", NONRES]),
    ("gm-pair-repeated", ["gm", GEN5, REP, "--weights", NONRES]),
    ("gm-pair-repeated-json", ["gm", GEN5, REP, "--weights", NONRES, "--json"]),
    ("aomoto-generic10", ["aomoto", GEN10]),
    ("aomoto-generic10-json", ["aomoto", GEN10, "--json"]),
    ("gm-pencil-generic10",
     ["gm", GEN10, "--pencil", "2,10,11", "1", "--weights", NONRES10]),
    ("gm-pencil-generic10-json",
     ["gm", GEN10, "--pencil", "2,10,11", "1", "--weights", NONRES10, "--json"]),
    ("spectrum-generic10", ["spectrum", GEN10, "--pencil", "2,10,11", "1"]),
    ("cohomology-four-fold-json", ["cohomology", FOUR, "--weights", K1009, "--json"]),
    ("gm-pencil-four-fold-json",
     ["gm", FOUR, "--pencil", "1,2,3,4", "2", "--weights", P6, "--json"]),
    ("spectrum-four-fold", ["spectrum", FOUR, "--pencil", "1,2,3,4", "2", "--weights", P6]),
    ("resonance-four-fold-json", ["resonance", FOUR, "--weights", RES4, "--json"]),
    # every 4-subset of [6] is dependent when ell = 2
    ("deps-degree4", ["deps", SEL, "--degree", "4"]),
    ("deps-degree4-json", ["deps", SEL, "--degree", "4", "--json"]),
    # H^1 vanishes at these weights: one "gm" key holding an empty matrix
    ("gm-pencil-degree1-json",
     ["gm", SEL, "--pencil", "3,4,5", "1", "--weights", NONRES, "--degree", "1", "--json"]),
    ("gm-pencil-generic7-3",
     ["gm", GEN73, "--pencil", "1,2,3,4", "2", "--weights", NONRES7]),
    ("gm-pencil-generic7-3-json",
     ["gm", GEN73, "--pencil", "1,2,3,4", "2", "--weights", NONRES7, "--json"]),
    ("aomoto-pencil6-3", ["aomoto", PEN63]),
    ("aomoto-pencil6-3-json", ["aomoto", PEN63, "--json"]),
    # past ell+1 every set is dependent; the sets are generated, not stored
    ("deps-generic8-degree5", ["deps", GEN8, "--degree", "5"]),
    ("deps-generic8-degree5-json", ["deps", GEN8, "--degree", "5", "--json"]),
]


def run_case(argv):
    """(exit code, stdout) of one in-process CLI run from the repo root."""
    from osgm.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def main():
    os.chdir(ROOT)
    manifest = []
    for name, argv in CASES:
        code, out = run_case(argv)
        (HERE / (name + ".out")).write_text(out)
        manifest.append({"name": name, "argv": argv, "exit": code})
    (HERE / "cases.json").write_text(json.dumps(manifest, indent=1) + "\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    demos = sorted((ROOT / "demos").glob("*.py"))
    for demo in demos:
        out = subprocess.run([sys.executable, str(demo)], env=env, check=True,
                             stdout=subprocess.PIPE).stdout
        (HERE / "demos" / (demo.stem + ".out")).write_bytes(out)
    print("wrote %d cases and %d demos" % (len(manifest), len(demos)), file=sys.stderr)


if __name__ == "__main__":
    main()
