import json
from pathlib import Path

from osgm.aomoto import build_aomoto
from osgm.arrangement import Arrangement, CombinatorialType
from osgm.cli import main
from osgm.poly import Polynomial

DATA = Path(__file__).resolve().parents[1] / "data"
SELBERG = str(DATA / "selberg.json")
DEGENERATE = str(DATA / "selberg-degenerate.json")
NONRES = "1/2,1/3,1/5,1/7,1/11"
RES = "1,2,2,1,-3"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_deps_table(capsys):
    code, out, _ = run(capsys, "deps", SELBERG)
    assert code == 0
    assert "Dep_2: (none)" in out
    assert "Dep_3: {1,2,6} {1,3,5} {2,4,5} {3,4,6}" in out
    assert "Dep*_3: {1,2,6} {1,3,5} {2,4,5} {3,4,6}" in out


def test_deps_degree_flag_json(capsys):
    code, out, _ = run(capsys, "deps", SELBERG, "--degree", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["dep"] == {"3": [[1, 2, 6], [1, 3, 5], [2, 4, 5], [3, 4, 6]]}
    assert data["dep_star"]["3"] == [[1, 2, 6], [1, 3, 5], [2, 4, 5], [3, 4, 6]]


def test_deps_names_bad_row(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "ell": 2, "n": 2,
        "rows": [["1/0", "1", "0"], ["0", "0", "1"]],
    }))
    code, _, err = run(capsys, "deps", str(bad))
    assert code == 2
    assert "row 1" in err


def test_betti_json(capsys):
    code, out, _ = run(capsys, "betti", SELBERG, "--json")
    assert code == 0
    assert json.loads(out) == {"betti": [1, 5, 6]}


def test_nbc_degree(capsys):
    code, out, _ = run(capsys, "nbc", SELBERG, "--degree", "2", "--json")
    assert code == 0
    assert json.loads(out) == {
        "2": [[1, 3], [1, 4], [1, 5], [2, 3], [2, 4], [2, 5]]
    }


def test_aomoto_json_round_trips(capsys):
    code, out, _ = run(capsys, "aomoto", SELBERG, "--json")
    assert code == 0
    data = json.loads(out)
    t = CombinatorialType.from_arrangement(Arrangement.from_file(SELBERG))
    cx = build_aomoto(t)
    for q in range(t.ell):
        parsed = [
            [Polynomial.from_json(rec, t.n) for rec in row]
            for row in data["boundary"][str(q)]
        ]
        assert parsed == cx.boundary[q]


def test_cohomology_resonant_dims(capsys):
    code, out, _ = run(capsys, "cohomology", SELBERG, "--weights", RES, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["dims"] == [0, 1, 3]
    assert len(data["classes"]["1"]) == 1


def test_resonance_reports(capsys):
    code, out, _ = run(capsys, "resonance", SELBERG, "--weights", NONRES, "--json")
    assert code == 0
    assert json.loads(out) == {"dims": [0, 0, 2], "nonresonant": True}
    code, out, _ = run(capsys, "resonance", SELBERG, "--weights", RES,
                       "--degree", "1")
    assert code == 0
    assert "failed" in out
    assert "degree 1 carries cohomology: yes" in out


def test_gm_two_routes_print_identically(capsys):
    code1, out1, _ = run(capsys, "gm", SELBERG, DEGENERATE, "--weights", NONRES)
    code2, out2, _ = run(capsys, "gm", SELBERG, "--pencil", "3,4,5", "1",
                         "--weights", NONRES)
    assert code1 == 0 and code2 == 0
    assert out1 == out2
    assert "pencil (S, r): S = {3,4,5}, r = 1" in out1
    assert "167/385" in out1
    assert "verified" in out1


def test_gm_json_records(capsys):
    code, out, _ = run(capsys, "gm", SELBERG, "--pencil", "3,4,5", "1",
                       "--weights", NONRES, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["S"] == [3, 4, 5] and data["r"] == 1
    assert data["dims"] == [0, 0, 2]
    assert data["gm"]["2"] == [["167/385", "0"], ["0", "167/385"]]
    assert len(data["omega"]["2"]) == 6
    assert all(entry["verified"] for entry in data["spectrum"]["degrees"])


def test_gm_needs_exactly_one_degeneration(capsys):
    code, _, err = run(capsys, "gm", SELBERG, "--weights", NONRES)
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "gm", SELBERG, DEGENERATE, "--pencil", "3,4,5",
                       "1", "--weights", NONRES)
    assert code == 2


def test_gm_rejects_multi_pencil_degeneration(tmp_path, capsys):
    general = tmp_path / "general.json"
    general.write_text(json.dumps({
        "ell": 2, "n": 4,
        "rows": [["1", "1", "1"], ["1", "2", "4"], ["1", "3", "9"],
                 ["1", "4", "16"]],
    }))
    special = tmp_path / "special.json"
    special.write_text(json.dumps({
        "ell": 2, "n": 4,
        "rows": [["0", "1", "0"], ["0", "1", "0"], ["0", "0", "1"],
                 ["0", "0", "1"]],
    }))
    code, _, err = run(capsys, "gm", str(general), str(special),
                       "--weights", "1,1,1,1")
    assert code == 3
    assert "pencil" in err


def test_spectrum_symbolic_and_inapplicable(capsys):
    code, out, _ = run(capsys, "spectrum", SELBERG, "--pencil", "3,4,5", "1")
    assert code == 0
    assert "holds in every degree" in out
    assert "degree 2: d0 = 3, dS = 7" in out
    code, out, _ = run(capsys, "spectrum", SELBERG, "--pencil", "3,4,5", "1",
                       "--weights", "1,1,-2,1,1")
    assert code == 0
    assert "spectrum theorem inapplicable: lambda_S = 0" in out


def test_weights_accepted_from_file(tmp_path, capsys):
    wfile = tmp_path / "weights.json"
    wfile.write_text(json.dumps({"weights": NONRES.split(",")}))
    _, inline, _ = run(capsys, "cohomology", SELBERG, "--weights", NONRES)
    code, from_file, _ = run(capsys, "cohomology", SELBERG, "--weights", str(wfile))
    assert code == 0
    assert from_file == inline


def test_weights_length_checked(capsys):
    code, _, err = run(capsys, "cohomology", SELBERG, "--weights", "1/2,1/3")
    assert code == 2
    assert "expected 5 weights" in err


def test_malformed_rows_exit_2_without_traceback(tmp_path, capsys):
    for rows, message in [(5, "rows must be a list"),
                          ([1, 2], "row 1: expected a list of 2 entries")]:
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"ell": 1, "n": 2, "rows": rows}))
        code, out, err = run(capsys, "betti", str(bad))
        assert code == 2
        assert message in err
        assert "Traceback" not in err
        assert out == ""


def test_resonance_degree_reads_the_computed_cohomology(capsys, monkeypatch):
    import osgm.aomoto
    import osgm.cli

    calls = []
    real = osgm.aomoto.os_cohomology

    def counted(t, lam):
        calls.append(1)
        return real(t, lam)

    monkeypatch.setattr(osgm.cli, "os_cohomology", counted)
    monkeypatch.setattr(osgm.aomoto, "os_cohomology", counted)
    code, out, _ = run(capsys, "resonance", SELBERG, "--weights", RES,
                       "--degree", "2", "--json")
    assert code == 0
    assert json.loads(out) == {"dims": [0, 1, 3], "nonresonant": False,
                               "in_resonance": True}
    code, out, _ = run(capsys, "resonance", SELBERG, "--weights", NONRES,
                       "--degree", "1")
    assert code == 0
    assert out == ("cohomology dimensions, degrees 0..2: 0 0 2\n"
                   "nonresonance test (sufficient condition): passed\n"
                   "degree 1 carries cohomology: no\n")
    assert len(calls) == 2
    # an out-of-range degree keeps the library's message and exit code
    code, out, err = run(capsys, "resonance", SELBERG, "--weights", RES,
                         "--degree", "3", "--json")
    assert code == 2 and out == ""
    assert "need 0 <= q <= ell and m >= 1" in err
