"""Byte-for-byte CLI outputs on the bundled data files.

The expected stdout and exit codes in tests/golden/ were recorded with
`tests/golden/make_golden.py`; a refactoring that keeps outputs unchanged
must keep every case here passing without regenerating them.
"""

import json

import pytest

from golden.make_golden import HERE, ROOT, run_case

CASES = json.loads((HERE / "cases.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_output(case, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, out = run_case(case["argv"])
    assert code == case["exit"]
    assert out == (HERE / (case["name"] + ".out")).read_text()
