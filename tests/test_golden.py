"""Byte-for-byte CLI and demo outputs on the bundled data files.

The expected stdout and exit codes in tests/golden/, and each demo's
stdout in tests/golden/demos/, were recorded with
`tests/golden/make_golden.py`; a refactoring that keeps outputs unchanged
must keep every case here passing without regenerating them.
"""

import json
import os
import subprocess
import sys

import pytest

from golden import make_golden
from golden.make_golden import HERE, ROOT, run_case

CASES = json.loads((HERE / "cases.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_output(case, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, out = run_case(case["argv"])
    assert code == case["exit"]
    assert out == (HERE / (case["name"] + ".out")).read_text()


def test_recorded_cases_match_the_generator():
    # a case added to make_golden.CASES but not recorded in cases.json
    # would never run here; names and argv agree, in the same order
    assert [(c["name"], c["argv"]) for c in CASES] == \
        [(name, argv) for name, argv in make_golden.CASES]


DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output(demo):
    # each demo runs as a user runs it, in a fresh interpreter from the repo root
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (HERE / "demos" / (demo.stem + ".out")).read_bytes()


@pytest.mark.parametrize("name", ["gm-pencil-nonres-json", "gm-pair-nonres-json"])
def test_benchmark_tracer_runs_a_golden_case(name, tmp_path):
    # perfbench/child.py wraps osgm functions by name and reads the dense
    # .mats/.boundary views; a target renamed or deleted fails here
    case = next(c for c in CASES if c["name"] == name)
    trace = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"),
                           "cli", "0", str(trace), "--", *case["argv"]],
                          cwd=ROOT, env=env, capture_output=True, timeout=120)
    assert proc.returncode == case["exit"] == 0, proc.stderr.decode()
    assert proc.stdout == (HERE / (name + ".out")).read_bytes()
    names = {span[3] for span in json.loads(trace.read_text())["spans"]}
    assert {"cli.main", "gauss_manin.gm_endomorphism"} <= names
