import json
from pathlib import Path

from hypothesis import given, settings, strategies as st

from osgm.aomoto import build_aomoto
from osgm.arrangement import Arrangement, CombinatorialType
from osgm.cli import main

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
        assert data["boundary"][str(q)] == [[f.to_json() for f in row]
                                            for row in cx.boundary[q]]


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
                       ("ell", float("nan"))]:
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
