import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from osgm import cli
from osgm.aomoto import build_aomoto
from osgm.arrangement import Arrangement, CombinatorialType
from osgm.cli import main
from osgm.linalg import by_column
from osgm.poly import dense_forms
from oracles import fmt_table, form_matrix_json, rational_matrix_json

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "data"
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
        assert data["boundary"][str(q)] == form_matrix_json(cx.boundary[q])


def written_table(rows, ncols):
    """The lines `cli._write_table` writes for sparse rows of texts."""
    out = io.StringIO()
    with redirect_stdout(out):
        cli._write_table(rows, ncols)
    return out.getvalue().splitlines()


def gm_texts(m):
    """The texts `gm` gives a dense matrix: its nonzero entries only."""
    return [{k: str(c) for k, c in enumerate(row) if c} for row in m]


nonzero_rationals = st.one_of(
    st.integers(-12, 12), st.fractions(min_value=-5, max_value=5, max_denominator=7)
).filter(bool).map(lambda c: c.numerator if c.denominator == 1 else c)


@given(data=st.data())
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_sparse_writer_matches_the_dense_route(data):
    # the matrices gm and aomoto print, written from rows keyed (col, j),
    # against json.dumps(indent=2) of the dense tree and the dense table;
    # empty rows, zero-size degrees, rectangular shapes, Fraction coefficients
    draw = data.draw
    nvars = draw(st.integers(1, 4))
    shapes = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1,
                           max_size=3))
    degrees = []
    for nrows, ncols in shapes:
        keys = st.tuples(st.integers(0, max(ncols - 1, 0)), st.integers(1, nvars))
        rows = [draw(st.dictionaries(keys, nonzero_rationals, max_size=6)) if ncols else {}
                for _ in range(nrows)]
        degrees.append((rows, ncols))
        dense_view = dense_forms(rows, ncols, nvars)
        assert written_table(cli._form_texts(by_column(rows)), ncols) == fmt_table(dense_view)
    size = draw(st.integers(0, 3))
    gm = [draw(st.lists(st.just(0) | nonzero_rationals, min_size=size, max_size=size))
          for _ in range(size)]
    assert written_table(gm_texts(gm), size) == fmt_table(gm)
    small = {"lambda_S": "1/2", "degrees": [{"degree": 0, "verified": True}]}
    tree = {
        "S": [1, 2],
        "omega": {str(q): form_matrix_json(dense_forms(rows, ncols, nvars))
                  for q, (rows, ncols) in enumerate(degrees)},
        "gm": {"0": rational_matrix_json(gm)},
        "empty": {},
        "spectrum": small,
    }
    written = "".join(cli._jdict([
        ("S", [1, 2]),
        ("omega", cli._jdict([(str(q), cli._forms_json(by_column(rows), ncols, nvars, "    "))
                              for q, (rows, ncols) in enumerate(degrees)], "  ")),
        ("gm", cli._jdict([("0", cli._rationals_json(gm, "    "))], "  ")),
        ("empty", cli._jdict([], "  ")),
        ("spectrum", small),
    ], ""))
    assert written == json.dumps(tree, indent=2)


@pytest.mark.parametrize("sizes, npieces", [
    ([], 1),
    ([70000], 1),                # one item larger than a piece
    ([70000, 5, 6], 2),
    ([65535, 1], 1),             # exactly 64 kB and nothing after it
    ([65535, 1, 1], 2),          # cut at exactly 64 kB
    ([65534, 1, 1], 1),          # one byte short of the cut
    ([65535, 2, 1], 2),          # cut past 64 kB
    ([10] * 20000, 4),           # many small items: 6554 per piece
])
def test_joined_cuts_pieces_by_size(sizes, npieces):
    items = [chr(97 + i % 26) * size for i, size in enumerate(sizes)]
    for sep, head, tail, empty in ((",\n", "[\n", "\n  ]", "[]"),
                                   (" ", "Dep_7: ", "\n", "Dep_7: (none)\n")):
        pieces = list(cli._joined(iter(items), sep, head, tail, empty))
        assert "".join(pieces) == (head + sep.join(items) + tail if items else empty)
        assert len(pieces) == npieces


class _Sink:
    """A stdout that throws the bytes away."""

    def write(self, text):
        return len(text)

    def writelines(self, pieces):
        for _ in pieces:
            pass


def _dense_rows(size):
    """Dense rows of a size x size matrix with three nonzeros a row, one
    row at a time, as `gm_endomorphism` returns them."""
    for i in range(size):
        row = [Fraction(0)] * size
        for k, c in ((i, Fraction(i + 1, 7)), ((7 * i + 3) % size, Fraction(-i, i + 2)),
                     ((13 * i + 5) % size, Fraction(3))):
            row[k] = c
        yield row


# Peak traced memory of writing the 2000 x 2000 matrix below, measured on
# Python 3.11.7, x86-64: 1.08 MB as a text table and 0.36 MB as --json
# rationals.  The writer that built every line of a table before printing it,
# and joined 4096 rows into one piece of JSON, peaked at 44 MB and 149 MB on
# the same input (the table from the same nonzero texts).
WRITER_PEAK_LIMIT = 4 * 2 ** 20


def test_writer_peak_memory_stays_at_one_row(monkeypatch):
    size = 2000
    monkeypatch.setattr(sys, "stdout", _Sink())
    peaks = []
    for write in (lambda: cli._write_table(gm_texts(_dense_rows(size)), size),
                  lambda: sys.stdout.writelines(
                      cli._rationals_json(_dense_rows(size), "    "))):
        tracemalloc.start()
        try:
            write()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < WRITER_PEAK_LIMIT, peaks


def test_deps_past_ell_plus_one_streams_every_set(capsys, tmp_path):
    # a degree past ell+1 lists all C(n+1, q) sets, generated as they are
    # written; 6435 sets span more than one 64 kB piece of the writer
    path = tmp_path / "generic-14-2.json"
    path.write_text(json.dumps({"ell": 2, "n": 14,
                                "rows": [[1, j, j * j] for j in range(1, 15)]}))
    sets = list(combinations(range(1, 16), 7))
    code, out, _ = run(capsys, "deps", str(path), "--degree", "7", "--json")
    assert code == 0
    assert out == json.dumps({"n": 14, "ell": 2, "dep": {"7": [list(S) for S in sets]},
                              "dep_star": {"7": []}}, indent=2) + "\n"
    code, out, _ = run(capsys, "deps", str(path), "--degree", "7")
    assert code == 0
    assert out.splitlines()[1:] == [
        "Dep_7: " + " ".join("{%s}" % ",".join(map(str, S)) for S in sets),
        "Dep*_7: (none)"]


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


def test_gm_refuses_a_bad_degree_before_recovering_the_pencil(tmp_path, capsys):
    # the special file is a (6,2) type no single pencil accounts for, so a
    # degree checked after the recovery would exit 3 on the pair form
    general = tmp_path / "general.json"
    general.write_text(json.dumps(
        {"ell": 2, "n": 6, "rows": [[j ** k for k in range(3)] for j in range(1, 7)]}))
    special = tmp_path / "special.json"
    special.write_text(json.dumps({"ell": 2, "n": 6, "rows": [
        ["0", "1", "0"], ["1", "1", "0"], ["2", "1", "0"],
        ["0", "0", "1"], ["1", "0", "1"], ["2", "0", "1"]]}))
    weights = ["--weights", "1/2,1/3,1/5,1/7,1/11,1/13", "--degree", "9"]
    for route in ([str(special)], ["--pencil", "1,2,3", "1"]):
        assert run(capsys, "gm", str(general), *route, *weights) == (
            2, "", "error: degree must lie in 0..2\n")


def test_spectrum_symbolic_and_inapplicable(capsys):
    code, out, _ = run(capsys, "spectrum", SELBERG, "--pencil", "3,4,5", "1")
    assert code == 0
    assert "holds in every degree" in out
    assert "degree 2: d0 = 3, dS = 7" in out
    code, out, _ = run(capsys, "spectrum", SELBERG, "--pencil", "3,4,5", "1",
                       "--weights", "1,1,-2,1,1")
    assert code == 0
    assert "spectrum theorem inapplicable: lambda_S = 0" in out



def test_spectrum_refuses_a_pencil_on_every_hyperplane_before_the_sum(capsys, monkeypatch):
    import osgm.cli

    # a repeated or out-of-range index keeps its message
    code, out, err = run(capsys, "spectrum", SELBERG, "--pencil", "1,2,3,4,5,6,6", "1")
    assert (code, out, err) == (2, "", "error: repeated index in (1, 2, 3, 4, 5, 6, 6)\n")
    code, out, err = run(capsys, "spectrum", SELBERG, "--pencil", "1,2,3,4,5,7", "1")
    assert (code, out, err) == (2, "", "error: indices must lie in 1..6\n")
    # gm reports the collapsed eigenvalues and succeeds
    code, out, _ = run(capsys, "gm", SELBERG, "--pencil", "1,2,3,4,5,6", "1",
                       "--weights", NONRES)
    assert code == 0 and "spectrum theorem inapplicable: lambda_S = 0" in out

    def refuse(*args):
        raise AssertionError("pencil sum built")

    monkeypatch.setattr(osgm.cli, "omega_tilde_sum", refuse)
    for extra in ([], ["--weights", NONRES], ["--json"]):
        code, out, err = run(capsys, "spectrum", SELBERG, "--pencil", "1,2,3,4,5,6", "1",
                             *extra)
        assert (code, out) == (2, "")
        assert err == ("error: spectrum theorem inapplicable: --pencil S holds all 6 "
                       "hyperplanes, so y_S = 0\n")


def test_spectrum_without_a_pencil_exits_2(capsys):
    for extra in ([], ["--weights", NONRES], ["--json"]):
        assert run(capsys, "spectrum", SELBERG, *extra) == (
            2, "", "error: spectrum needs --pencil S r\n")


def test_gm_pair_route_builds_one_sum_through_the_pencil(capsys, monkeypatch):
    # the pair is recovered to (S, r), then the pencil route runs: one sum
    # per run, shared by the induced map and the spectrum report
    import osgm.cli
    import osgm.gauss_manin

    sums = []
    real = osgm.gauss_manin._weighted_sum

    def counted(terms, n, ell):
        sums.append(sorted(terms))
        return real(terms, n, ell)

    def refuse(*args):
        raise AssertionError("pair sum built")

    monkeypatch.setattr(osgm.gauss_manin, "_weighted_sum", counted)
    for module in (osgm.gauss_manin, osgm.cli):
        monkeypatch.setattr(module, "omega_tilde_pair", refuse, raising=False)
    for extra in ([], ["--json"]):
        sums.clear()
        code, by_pair, _ = run(capsys, "gm", SELBERG, DEGENERATE, "--weights", NONRES, *extra)
        assert code == 0
        assert sums == [sorted(osgm.gauss_manin.pencil_sum_terms((3, 4, 5), 1, 5, 2))]
        code, by_pencil, _ = run(capsys, "gm", SELBERG, "--pencil", "3,4,5", "1",
                                 "--weights", NONRES, *extra)
        assert code == 0 and by_pair == by_pencil
        assert len(sums) == 2


def test_repeated_hyperplanes_read_as_a_collision(tmp_path, capsys):
    # identical rows 2 and 4 are valid input: the dependent pair {2,4}, the
    # rank-1 pencil on two hyperplanes
    rows = [["1", str(j), str(j * j)] for j in range(1, 6)]
    generic = tmp_path / "generic.json"
    generic.write_text(json.dumps({"ell": 2, "n": 5, "rows": rows}))
    rows[3] = rows[1]
    repeated = tmp_path / "repeated.json"
    repeated.write_text(json.dumps({"ell": 2, "n": 5, "rows": rows}))
    code, out, err = run(capsys, "deps", str(repeated))
    assert code == 0 and not err
    assert "Dep_2: {2,4}" in out
    code, by_pencil, err = run(capsys, "gm", str(repeated), "--pencil", "2,4", "1",
                               "--weights", NONRES)
    assert code == 0 and not err
    assert by_pencil.startswith("pencil (S, r): S = {2,4}, r = 1")
    code, by_pair, err = run(capsys, "gm", str(generic), str(repeated), "--weights", NONRES)
    assert code == 0 and not err
    assert by_pair.startswith("pencil (S, r): S = {2,4}, r = 1")

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


def test_non_integer_ell_and_n_exit_2_naming_the_field(tmp_path, capsys):
    selberg = json.loads(Path(SELBERG).read_text())
    bad = tmp_path / "bad.json"
    for key, value in [("ell", 2.9), ("ell", True), ("n", 5.5), ("n", False),
                       ("ell", float("nan")), ("ell", "2"), ("n", "x")]:
        bad.write_text(json.dumps(dict(selberg, **{key: value})))
        code, out, err = run(capsys, "betti", str(bad))
        assert code == 2 and out == ""
        assert "%s must be an integer, not %r" % (key, value) in err
        assert "Traceback" not in err
    # an integral float still names the integer it spells
    bad.write_text(json.dumps(dict(selberg, ell=2.0, n=5.0)))
    assert run(capsys, "betti", str(bad))[:2] == run(capsys, "betti", SELBERG)[:2]


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
    # an out-of-range degree is refused as nbc, cohomology and gm refuse
    # it, before any cohomology is computed
    code, out, err = run(capsys, "resonance", SELBERG, "--weights", RES,
                         "--degree", "3", "--json")
    assert code == 2 and out == ""
    assert err == "error: degree must lie in 0..2\n"
    assert len(calls) == 2


def test_exit_code_follows_the_exception_type(tmp_path, monkeypatch, capsys):
    # messages that merely mention a mathematical failure are input errors
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "betti", "no single pencil.json")
    assert code == 2 and out == "" and "no single pencil.json" in err
    code, out, err = run(capsys, "cohomology", SELBERG,
                         "--weights", "1,2,3,4,covering datum")
    assert code == 2 and out == "" and "covering datum" in err
    # a map that does not descend raises NotCovered, with its message intact
    code, out, err = run(capsys, "gm", SELBERG, "--pencil", "1,2,6", "1",
                         "--weights", NONRES)
    assert code == 3 and out == ""
    assert err == ("error: not a valid covering datum: degree-2 relations "
                   "are not preserved\n")


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="int() converts text of any length")
def test_over_long_integer_literals_exit_2_naming_the_digit_limit(tmp_path):
    # a valid literal past Python's limit on the digits int() converts names
    # that limit and echoes 20 characters; a bare JSON number past it names
    # the file it is in
    limit = sys.get_int_max_str_digits()
    long = "1" * (limit + 1)
    over = "has more than %d digits, Python's limit for int conversion\n" % limit
    literal = "rational literal '%s'... (%d characters) %s" % ("1" * 20, len(long), over)
    code, out, err = run_quiet(["cohomology", SELBERG, "--weights", long + ",1,1,1,1"])
    assert (code, out, err) == (2, "", "error: weight 1: " + literal)
    rows = '[["%s", 1, 2], [0, 1, 0], [0, 0, 1], [1, 1, 1], [2, 1, 3]]' % long
    arr = tmp_path / "long-entry.json"
    arr.write_text('{"ell": 2, "n": 5, "rows": %s}' % rows)
    code, out, err = run_quiet(["betti", str(arr)])
    assert (code, out, err) == (2, "", "error: row 1: " + literal)
    for name, text, argv in [
            ("long-number.json", '{"ell": 2, "n": 5, "rows": %s}' % rows.replace('"', ""),
             ["betti"]),
            ("long-weights.json", '{"weights": [%s, 1, 1, 1, 1]}' % long,
             ["cohomology", SELBERG, "--weights"])]:
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run_quiet(argv + [str(path)])
        assert (code, out, err) == (2, "", "error: %s: a number %s" % (path, over))


def test_malformed_weights_file_exits_2_naming_the_entry(tmp_path, capsys):
    wfile = tmp_path / "weights.json"
    for weights, message in [([None, 2, 3, 4, 5], "weight 1 is not a rational number: None"),
                             ([1, {"a": 1}, 3, 4, 5], "weight 2 is not a rational number"),
                             ([1, 2, [3], 4, 5], "weight 3 is not a rational number"),
                             ([True, 2, 3, 4, 5], "weight 1 is not a rational number: True"),
                             ([1, 2, 3, 4, False], "weight 5 is not a rational number: False"),
                             ([0.1, 2, 3, 4, 5], "weight 1 is not a rational number: 0.1"),
                             ([1, 1.5, 3, 4, 5], "weight 2 is not a rational number: 1.5"),
                             (5, 'weights file needs a "weights" list')]:
        wfile.write_text(json.dumps({"weights": weights}))
        code, out, err = run(capsys, "cohomology", SELBERG, "--weights", str(wfile))
        assert code == 2 and out == ""
        assert message in err and "Traceback" not in err


def test_gm_builds_each_type_complex_once(capsys, monkeypatch):
    import osgm.aomoto
    from osgm.arrangement import generic_type

    built = []
    real = osgm.aomoto._build_aomoto

    def counted(t):
        built.append((t.n, t.ell, tuple(t.affine_empty),
                      tuple((q, tuple(f)) for q, f in sorted(t.dep.items()))))
        return real(t)

    monkeypatch.setattr(osgm.aomoto, "_build_aomoto", counted)
    for argv in (["gm", SELBERG, "--pencil", "3,4,5", "1"],
                 ["gm", SELBERG, DEGENERATE]):
        # start without the generic (5, 2) complex other tests may have built
        generic_type.cache_clear()
        built.clear()
        code, _, _ = run(capsys, *argv, "--weights", NONRES, "--json")
        assert code == 0
        # the Selberg type and the generic type, one complex each
        assert len(built) == len(set(built)) == 2


def test_gm_prints_from_the_layouts_it_evaluated(capsys, monkeypatch):
    # printing groups no row by column on its own: a gm run calls `by_column`
    # exactly as often as the cohomology, the GM action and the spectrum alone
    import osgm.aomoto
    import osgm.gauss_manin
    import osgm.linalg
    import osgm.poly
    from osgm.aomoto import Weights, os_cohomology
    from osgm.gauss_manin import (gm_endomorphism, induce_on_type, omega_tilde_sum,
                                  spectrum_report)

    calls = []
    real = osgm.linalg.by_column

    def counted(rows):
        calls.append(len(rows))
        return real(rows)

    for module in (osgm.linalg, osgm.aomoto, osgm.gauss_manin, osgm.poly, osgm.cli):
        monkeypatch.setattr(module, "by_column", counted)
    t = CombinatorialType.from_arrangement(Arrangement.from_file(SELBERG))
    lam = Weights(NONRES.split(","))
    e = omega_tilde_sum((3, 4, 5), 1, t.n, t.ell)
    ind = induce_on_type(e, t)
    h = os_cohomology(t, lam)
    for q in range(t.ell + 1):
        gm_endomorphism(ind, lam, q, h=h)
    spectrum_report(e, (3, 4, 5), 1, lam)
    alone = sorted(calls)
    assert alone
    for fmt in ([], ["--json"]):
        calls.clear()
        code, out, _ = run(capsys, "gm", SELBERG, "--pencil", "3,4,5", "1",
                           "--weights", NONRES, *fmt)
        assert code == 0 and out
        assert sorted(calls) == alone, fmt


# ---- malformed input never ends in a traceback --------------------------------

_scalars = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                     st.floats(), st.text(max_size=4),
                     st.sampled_from(["1/2", "-3", "1/0", "x/2", ""]))
_junk = st.recursive(_scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=3),
    st.dictionaries(st.text(max_size=3), inner, max_size=3)), max_leaves=6)


_bad_numbers = st.one_of(st.booleans(),
                         st.floats().filter(lambda x: not x.is_integer()))


def _break(draw, data, places):
    """Replace one of `places` (a top-level key, or a (list, index) pair) in
    data by junk, or the whole document; "intact" leaves it as it is."""
    spot = draw(st.sampled_from(["intact", "document"] + list(range(len(places)))))
    if spot == "document":
        return draw(_junk)
    if spot != "intact":
        owner, key = places[spot]
        owner[key] = draw(_junk)
    return data


@given(data=st.data(), command=st.sampled_from([
    ["deps", "--json"], ["betti"], ["nbc"], ["aomoto", "--json"],
    ["cohomology", "--weights"], ["resonance", "--degree", "1", "--weights"],
    ["gm", "--pencil", "1,2", "1", "--weights"],
    ["spectrum", "--pencil", "1,2", "1", "--json", "--weights"]]))
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
def test_malformed_files_exit_cleanly(data, command):
    import contextlib
    import io
    import tempfile

    draw = data.draw
    ell = draw(st.integers(1, 2))
    n = draw(st.integers(ell, 4))
    # moment-curve rows (c, j, .., j^ell), scaled per entry: mostly generic,
    # sometimes parallel, coincident or not a hyperplane at all
    rows = [[draw(st.sampled_from(["0", "1", "-1/2"]))]
            + [str(j ** k * draw(st.sampled_from([1, -1, 2, 0]))) for k in range(1, ell + 1)]
            for j in range(1, n + 1)]
    arrangement = {"ell": ell, "n": n, "rows": rows}
    weights = {"weights": [draw(st.sampled_from(["1/2", "-1/3", "2", "0", 3]))
                           for _ in range(n)]}
    # at most one place in the two files is broken; a boolean or a
    # fractional float where a count or a weight is read must exit 2
    expect_2 = False
    target = draw(st.sampled_from(["arrangement", "weights", "number"]))
    if target == "arrangement":
        arrangement = _break(draw, arrangement, [(arrangement, "ell"), (arrangement, "n"),
                                                 (arrangement, "rows"), (rows, 0), (rows[0], 0)])
    elif target == "weights":
        weights = _break(draw, weights, [(weights, "weights"), (weights["weights"], 0)])
    else:
        owner, key = draw(st.sampled_from([(arrangement, "ell"), (arrangement, "n"),
                                           (weights["weights"], 0)]))
        owner[key] = draw(_bad_numbers)
        expect_2 = owner is arrangement or "--weights" in command
    with tempfile.TemporaryDirectory() as tmp:
        afile, wfile = Path(tmp) / "a.json", Path(tmp) / "w.json"
        afile.write_text(json.dumps(arrangement))
        wfile.write_text(json.dumps(weights))
        argv = [command[0], str(afile)] + command[1:]
        if argv[-1] == "--weights":
            argv.append(str(wfile))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in ((2,) if expect_2 else (0, 2, 3))
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == (err.getvalue() == "")


# ---- command-line arguments ---------------------------------------------------


def run_quiet(argv):
    """(exit code, stdout, stderr) of an in-process run; argparse refuses
    arguments by raising SystemExit."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


def test_degree_is_refused_where_it_is_not_read():
    for argv in (["betti", SELBERG], ["aomoto", SELBERG],
                 ["spectrum", SELBERG, "--pencil", "3,4,5", "1"]):
        code, out, err = run_quiet(argv + ["--degree", "7"])
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --degree 7" in err


def test_deps_refuses_degree_outside_the_subset_sizes():
    for degree in ("-3", "0", "1", "7"):
        code, out, err = run_quiet(["deps", SELBERG, "--degree", degree])
        assert (code, out, err) == (2, "", "error: degree must lie in 2..6\n")
    for degree in ("2", "6"):
        code, out, _ = run_quiet(["deps", SELBERG, "--degree", degree])
        assert code == 0
        assert "Dep_%s: " % degree in out


def test_deps_lists_every_subset_above_ell_plus_one():
    # the type stores dependent sets up to size ell+1; every larger subset
    # of [n+1] is dependent, and deps lists each one
    for q in (4, 5, 6):
        subsets = list(combinations(range(1, 7), q))
        code, out, err = run_quiet(["deps", SELBERG, "--degree", str(q)])
        assert (code, err) == (0, "")
        assert out.splitlines()[1:] == [
            "Dep_%d: %s" % (q, " ".join("{%s}" % ",".join(map(str, S)) for S in subsets)),
            "Dep*_%d: (none)" % q]
        code, out, err = run_quiet(["deps", SELBERG, "--degree", str(q), "--json"])
        assert (code, err) == (0, "")
        assert json.loads(out)["dep"] == {str(q): [list(S) for S in subsets]}
        assert json.loads(out)["dep_star"] == {str(q): []}


def test_resonance_refuses_a_bad_degree_before_printing():
    for flags in ([], ["--json"]):
        code, out, err = run_quiet(["resonance", SELBERG, "--weights", RES,
                                    "--degree", "9"] + flags)
        assert (code, out, err) == (2, "", "error: degree must lie in 0..2\n")


def test_weight_errors_name_the_weight():
    for weights, message in (
            ("1/2,x,1/5,1/7,1/11", "error: weight 2: not a rational literal: 'x'\n"),
            ("1/0,1/3,1/5,1/7,1/11",
             "error: weight 1: zero denominator in rational literal: '1/0'\n")):
        code, out, err = run_quiet(["cohomology", SELBERG, "--weights", weights])
        assert (code, out, err) == (2, "", message)


NEGATIVE_FIRST = "-1/2,1/3,1/5,1/7,1/11"


@pytest.mark.parametrize("argv", [
    ["cohomology", SELBERG],
    ["resonance", SELBERG, "--degree", "2"],
    ["gm", SELBERG, "--pencil", "3,4,5", "1"],
    ["spectrum", SELBERG, "--pencil", "3,4,5", "1"],
], ids=lambda argv: argv[0])
def test_negative_first_weight_runs_as_its_own_token(argv):
    # argparse alone reads "-1/2,..." after --weights as an option and
    # refuses the call; it runs exactly as the "--weights=-1/2,..." form
    for extra in ([], ["--json"]):
        joined = run_quiet(argv + ["--weights=" + NEGATIVE_FIRST] + extra)
        assert joined[0] == 0 and joined[2] == ""
        assert run_quiet(argv + ["--weights", NEGATIVE_FIRST] + extra) == joined
        assert run_quiet(argv + ["--weig", NEGATIVE_FIRST] + extra) == joined
    # an option after --weights is still no value for it
    code, out, err = run_quiet(argv + ["--weights", "--json"])
    assert (code, out) == (2, "")
    assert "argument --weights: expected one argument" in err


FUZZ = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def _argv(command, pencil_s, pencil_r, degree, weights):
    """argv of one subcommand on the Selberg file with the given tokens."""
    return {
        "deps": ["deps", SELBERG, "--degree", degree],
        "nbc": ["nbc", SELBERG, "--degree", degree],
        "cohomology": ["cohomology", SELBERG, "--weights", weights, "--degree", degree],
        "resonance": ["resonance", SELBERG, "--weights", weights, "--degree", degree],
        "gm": ["gm", SELBERG, "--pencil", pencil_s, pencil_r, "--weights", weights,
               "--degree", degree],
        "spectrum": ["spectrum", SELBERG, "--pencil", pencil_s, pencil_r,
                     "--weights", weights],
    }[command]


COMMANDS = ["deps", "nbc", "cohomology", "resonance", "gm", "spectrum"]


@FUZZ
@given(command=st.sampled_from(COMMANDS), pencil_s=st.text(max_size=10),
       pencil_r=st.text(max_size=4), degree=st.text(max_size=4),
       weights=st.text(max_size=24))
def test_arbitrary_argument_text_exits_cleanly(command, pencil_s, pencil_r, degree, weights):
    code, out, err = run_quiet(_argv(command, pencil_s, pencil_r, degree, weights))
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    assert (code == 0) == (err == "")
    assert code == 0 or out == ""


NOT_INTEGERS = ["x", "3.5", "1/2", "0x3", "1e2", "3-", ""]
NOT_RATIONALS = ["x", "1.5", "1/2/3", "1/x", "", "1/0", "-3/0"]


@st.composite
def malformed_arguments(draw):
    """A valid call on the Selberg file with exactly one token broken."""
    command = draw(st.sampled_from(COMMANDS))
    S = draw(st.lists(st.integers(1, 6), min_size=2, max_size=4, unique=True))
    r = draw(st.integers(1, min(2, len(S) - 1)))
    weights = [str(draw(st.fractions(max_denominator=9))) for _ in range(5)]
    degree = draw(st.integers(2, 6) if command == "deps" else st.integers(0, 2))
    spots = {"deps": ["degree"], "nbc": ["degree"],
             "cohomology": ["degree", "weights"], "resonance": ["degree", "weights"],
             "gm": ["degree", "weights", "S", "r"], "spectrum": ["weights", "S", "r"]}
    spot = draw(st.sampled_from(spots[command]))
    items = [str(j) for j in S]
    if spot == "degree":
        degree = draw(st.one_of(
            st.sampled_from(NOT_INTEGERS),
            st.sampled_from([-1, 7, 100] if command == "deps" else [-1, 3, 100])))
    elif spot == "weights":
        kind = draw(st.sampled_from(["item", "count"]))
        if kind == "item":
            weights[draw(st.integers(0, 4))] = draw(st.sampled_from(NOT_RATIONALS))
        else:
            weights = weights[:-1] if draw(st.booleans()) else weights + ["1/2"]
    elif spot == "S":
        kind = draw(st.sampled_from(["not an integer", "repeated", "out of range",
                                     "too few"]))
        if kind == "not an integer":
            items[draw(st.integers(0, len(items) - 1))] = draw(st.sampled_from(NOT_INTEGERS))
        elif kind == "repeated":
            items.insert(draw(st.integers(0, len(items))), draw(st.sampled_from(items)))
        elif kind == "out of range":
            items[draw(st.integers(0, len(items) - 1))] = draw(st.sampled_from(["0", "-1", "7"]))
        else:
            items = items[:1]
    else:
        r = draw(st.one_of(st.sampled_from(NOT_INTEGERS),
                           st.sampled_from([-1, 0, 3, len(S)]).filter(
                               lambda v: not 1 <= v <= min(2, len(S) - 1))))
    return _argv(command, ",".join(items), str(r), str(degree), ",".join(weights))


@FUZZ
@given(argv=malformed_arguments())
def test_malformed_arguments_exit_2(argv):
    code, out, err = run_quiet(argv)
    assert (code, out) == (2, "")
    assert err.startswith(("error: ", "usage: "))
    assert "Traceback" not in err


def test_pencil_rank_out_of_range_names_r_and_the_range(capsys):
    for command in ("gm", "spectrum"):
        for S, r, top in [("3,4,5", "0", 2), ("3,4,5", "3", 2), ("3,4", "2", 1)]:
            for extra in ([], ["--json"]):
                argv = [command, SELBERG, "--pencil", S, r, "--weights", NONRES, *extra]
                assert run(capsys, *argv) == (
                    2, "", "error: pencil rank %s out of range 1..%d\n" % (r, top))


def test_bad_degree_and_weights_are_refused_before_the_sum(tmp_path, capsys, monkeypatch):
    import osgm.cli

    def refuse(*args):
        raise AssertionError("pencil sum or cohomology built")

    monkeypatch.setattr(osgm.cli, "omega_tilde_sum", refuse)
    monkeypatch.setattr(osgm.cli, "os_cohomology", refuse)
    for argv, message in [
            (["gm", SELBERG, "--pencil", "3,4,5", "1", "--weights", NONRES, "--degree", "9"],
             "degree must lie in 0..2"),
            (["cohomology", SELBERG, "--weights", NONRES, "--degree", "9"],
             "degree must lie in 0..2"),
            (["resonance", SELBERG, "--weights", NONRES, "--degree", "-1"],
             "degree must lie in 0..2"),
            (["gm", SELBERG, DEGENERATE, "--weights", NONRES, "--degree", "-1"],
             "degree must lie in 0..2"),
            (["spectrum", SELBERG, "--pencil", "3,4,5", "1", "--weights", "1,2"],
             "expected 5 weights, found 2"),
            (["spectrum", SELBERG, "--pencil", "3,4,5", "1", "--weights", "1,2,x,4,5"],
             "weight 3: not a rational literal: 'x'")]:
        for extra in ([], ["--json"]):
            assert run(capsys, *argv, *extra) == (2, "", "error: %s\n" % message)
    # so is a pair with no single pencil, before its (S, r) is sought
    general = tmp_path / "general.json"
    general.write_text(json.dumps({"ell": 2, "n": 4, "rows": [
        ["1", str(j), str(j * j)] for j in range(1, 5)]}))
    special = tmp_path / "special.json"
    special.write_text(json.dumps({"ell": 2, "n": 4, "rows": [
        ["0", "1", "0"], ["0", "1", "0"], ["0", "0", "1"], ["0", "0", "1"]]}))
    code, out, err = run(capsys, "gm", str(general), str(special),
                         "--weights", "1,1,1,1", "--degree", "9")
    assert (code, out, err) == (2, "", "error: degree must lie in 0..2\n")


def test_deeply_nested_json_exits_2_naming_the_file(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    rows = tmp_path / "rows.json"
    rows.write_text('{"ell": 2, "n": 5, "rows": %s}' % ("[" * 100000 + "]" * 100000))
    for argv, path in [(["betti", str(deep)], deep),
                       (["betti", str(rows)], rows),
                       (["cohomology", SELBERG, "--weights", str(deep)], deep)]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: %s: JSON nested too deeply to parse\n" % path


def test_invalid_json_exits_2_naming_the_file(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    bad = tmp_path / "bad.json"
    bad.write_text("{weights")
    cases = [(["betti", str(empty)], empty, "Expecting value: line 1 column 1 (char 0)"),
             (["cohomology", SELBERG, "--weights", str(bad)], bad,
              "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)")]
    if os.path.exists(os.devnull):
        cases.append((["betti", os.devnull], os.devnull,
                      "Expecting value: line 1 column 1 (char 0)"))
    for argv, path, detail in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: %s: not valid JSON: %s\n" % (path, detail)


def test_non_utf8_file_exits_2_naming_the_file(tmp_path, capsys):
    # the same bytes as an arrangement file and as a --weights file
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe\x7b")
    detail = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    for argv in (["betti", str(bad)], ["cohomology", SELBERG, "--weights", str(bad)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: %s: not UTF-8 text: %s\n" % (bad, detail)


def test_interrupt_exits_130_without_traceback(monkeypatch, capsys):
    # Ctrl-C while a command runs, as in a long `deps --degree` listing
    def interrupted(args):
        print("Dep_2: (none)")
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_deps", interrupted)
    code, out, err = run(capsys, "deps", SELBERG)
    assert (code, out, err) == (130, "Dep_2: (none)\n", "")


def test_gm_pair_errors_name_the_files(tmp_path, capsys):
    # the degenerate type is the second file; swapped or equal files say so
    for general, special in [(DEGENERATE, SELBERG), (SELBERG, SELBERG)]:
        code, out, err = run(capsys, "gm", general, special, "--weights", NONRES)
        assert (code, out) == (2, "")
        assert err == ("error: the second file, %s, must have strictly more dependent "
                       "sets than the first, %s\n" % (special, general))
    plane = tmp_path / "plane.json"
    plane.write_text(json.dumps({"ell": 2, "n": 6, "rows": [
        [str(j), str(j * j), "1"] for j in range(1, 7)]}))
    code, out, err = run(capsys, "gm", SELBERG, str(plane), "--weights", NONRES)
    assert (code, out) == (2, "")
    assert err == "error: types live on different (n, ell): (5, 2) and (6, 2)\n"


def test_traced_child_prints_as_the_cli_and_counts_every_form(tmp_path):
    # perfbench/child.py runs the CLI under its tracer, which reads `.terms`
    # off every entry of the dense views after each sum and induced map
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = ["gm", SELBERG, "--pencil", "3,4,5", "1", "--weights", NONRES, "--json"]
    trace = tmp_path / "trace.json"
    traced = subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"), "cli", "0",
                             str(trace), "--"] + argv, env=env, capture_output=True, timeout=120)
    plain = subprocess.run([sys.executable, "-m", "osgm.cli"] + argv, env=env,
                           capture_output=True, timeout=120)
    assert traced.returncode == 0, traced.stderr.decode()
    assert plain.returncode == 0, plain.stderr.decode()
    assert traced.stdout == plain.stdout
    counts = json.loads(trace.read_text())["counts"]
    assert (counts["poly.nnz"], counts["poly.terms"]) == (124, 156)


def test_the_benchmark_tracer_finds_every_name_it_wraps():
    # perfbench/child.py wraps library functions by (module, name); a move or
    # rename in osgm would make `perfbench/run.py --trace 1` fail
    import importlib
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    spec = importlib.util.spec_from_file_location("perfbench_child", path)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    names = list(child.SPANNED) + [("arrangement", "pencil_starred")]
    for module, attr in names:
        assert module in child.MODULES
        owner = importlib.import_module("osgm." + module)
        *cls, name = attr.split(".")
        if cls:
            owner = getattr(owner, cls[0])
        # Tracer.install reads methods from the class's own namespace
        assert name in vars(owner), (module, attr)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_1_quietly(unbuffered):
    # the reader goes away before anything is written, as `head` can;
    # exit 2 would claim malformed input, and Python's own report of the
    # failed flush at exit would land on stderr
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "osgm.cli", "cohomology", SELBERG, "--weights", NONRES],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""
