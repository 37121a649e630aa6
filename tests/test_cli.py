import dataclasses
import hashlib
import json
import shutil
import subprocess
import time
from importlib import resources

import jsonschema
import pytest

from conftest import CLI_TIMEOUT_SECONDS
from tsprops import cli, graph, oracle
from tsprops.cli import main
from tsprops.core import GeneratorSet, Transformation
from tsprops.errors import EnumerationCapExceeded
from tsprops.formats import parse_generators, render_dfa, render_digraph, render_generators
from tsprops.properties import REGISTRY
from tsprops.reductions import DFA
from tsprops.report import ReportBuilder
from tsprops.witnesses import verify_witness


def gen_file(tmp_path, name, *maps):
    n = len(maps[0])
    gens = GeneratorSet(n, tuple(Transformation(n, m) for m in maps))
    path = tmp_path / name
    path.write_text(render_generators(gens))
    return str(path)


def dfa_file(tmp_path, name, n, initial, finals, *letters):
    d = DFA(n, initial, frozenset(finals),
            tuple(Transformation(n, m) for m in letters))
    path = tmp_path / name
    path.write_text(render_dfa(d))
    return str(path)


@pytest.fixture(scope="module")
def schema():
    ref = resources.files("tsprops") / "schema" / "report.schema.json"
    return json.loads(ref.read_text())


def test_check_true_false_exit_codes(tmp_path, capsys):
    consts = gen_file(tmp_path, "consts.txt", (1, 1, 1), (2, 2, 2))
    assert main(["check", consts, "--property", "right-zero"]) == 0
    assert "verdict:  TRUE" in capsys.readouterr().out

    sigma = gen_file(tmp_path, "sigma.txt", (2, 3, 1))
    assert main(["check", sigma, "--property", "nilpotent"]) == 1
    out = capsys.readouterr().out
    assert "verdict:  FALSE" in out
    assert "witness:" in out


def test_check_json_reports_validate(tmp_path, capsys, schema):
    sigma = gen_file(tmp_path, "sigma.txt", (2, 3, 1))
    for engine in ("structural", "oracle"):
        code = main(["check", sigma, "--property", "group",
                     "--engine", engine, "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, schema)
        assert report["engine"] == engine
        assert report["property"] == "group"

    code = main(["check", sigma, "--property", "r-trivial",
                 "--engine", "both", "--json"])
    assert code == 1
    combined = json.loads(capsys.readouterr().out)
    assert combined["agree"] is True
    jsonschema.validate(combined["structural"], schema)
    jsonschema.validate(combined["oracle"], schema)
    assert combined["oracle"]["property"] == "r-trivial"  # cli name, not key


@pytest.mark.parametrize("prop", sorted(REGISTRY))
def test_check_every_property_both_engines(tmp_path, capsys, schema, prop):
    path = gen_file(tmp_path, "mixed.txt", (2, 1, 3), (1, 1, 3))
    if REGISTRY[prop].structural is None:
        code = main(["check", path, "--property", prop,
                     "--engine", "oracle", "--json"])
        assert code in (0, 1)
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, schema)
        assert report["property"] == prop
        return
    code = main(["check", path, "--property", prop, "--engine", "both",
                 "--json"])
    assert code in (0, 1)
    combined = json.loads(capsys.readouterr().out)
    assert combined["agree"] is True
    for engine in ("structural", "oracle"):
        jsonschema.validate(combined[engine], schema)
        assert combined[engine]["property"] == prop
        assert combined[engine]["engine"] == engine


def test_check_bad_inputs(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("3\nnot a map line\n")
    assert main(["check", str(bad), "--property", "zero"]) == 2
    assert "error" in capsys.readouterr().err

    assert main(["check", str(tmp_path / "absent.txt"),
                 "--property", "zero"]) == 2
    capsys.readouterr()

    sigma = gen_file(tmp_path, "sigma.txt", (2, 3, 1))
    assert main(["check", sigma, "--property", "sparkly"]) == 3
    assert "unknown property" in capsys.readouterr().err


def test_check_aperiodic_is_oracle_only(tmp_path, capsys):
    sigma = gen_file(tmp_path, "sigma.txt", (2, 3, 1))
    assert main(["check", sigma, "--property", "aperiodic"]) == 3
    assert "no structural checker" in capsys.readouterr().err
    assert main(["check", sigma, "--property", "aperiodic",
                 "--engine", "both"]) == 3
    capsys.readouterr()
    assert main(["check", sigma, "--property", "aperiodic",
                 "--engine", "oracle"]) == 1
    collapse = gen_file(tmp_path, "c.txt", (1, 1, 2))
    assert main(["check", collapse, "--property", "aperiodic",
                 "--engine", "oracle"]) == 0
    capsys.readouterr()


def test_check_cap_gives_undecided(tmp_path, capsys):
    t3 = gen_file(tmp_path, "t3.txt", (2, 3, 1), (2, 1, 3), (1, 1, 3))
    code = main(["check", t3, "--property", "band", "--engine", "oracle",
                 "--cap", "5"])
    assert code == 4
    out = capsys.readouterr().out
    assert "UNDECIDED" in out and "enumeration-cap" in out

    code = main(["check", t3, "--property", "band", "--engine", "both",
                 "--cap", "5", "--json"])
    assert code == 4
    combined = json.loads(capsys.readouterr().out)
    # structural engine decided without enumerating; only the oracle gave up
    assert combined["structural"]["verdict"] == "FALSE"
    assert combined["oracle"]["verdict"] == "UNDECIDED"


@pytest.mark.parametrize("engine", ["structural", "oracle"])
def test_an_undecided_report_claims_the_time_spent(tmp_path, capsys,
                                                   monkeypatch, engine):
    # The clock starts before the check, not after the limit fired.
    def slow_limit(gens, cap):
        time.sleep(0.05)
        raise EnumerationCapExceeded(cap)

    if engine == "oracle":
        monkeypatch.setattr(oracle, "enumerate_semigroup", slow_limit)
    else:
        monkeypatch.setitem(REGISTRY, "band",
                            REGISTRY["band"]._replace(structural=slow_limit))
    sigma = gen_file(tmp_path, "sigma.txt", (2, 3, 1))
    assert main(["check", sigma, "--property", "band", "--engine", engine,
                 "--cap", "7", "--json"]) == 4
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "UNDECIDED"
    assert report["engine"] == engine
    assert report["witness"] == {"kind": "enumeration-cap", "cap": 7}
    assert report["elapsed_seconds"] >= 0.05


@pytest.mark.parametrize("prop, verdict", [("group", "TRUE"),
                                           ("band", "FALSE")])
def test_a_decided_oracle_report_claims_the_enumeration(tmp_path, capsys,
                                                        monkeypatch, prop,
                                                        verdict):
    # The clock starts before the element table is built.
    enumerate_semigroup = oracle.enumerate_semigroup

    def slow_enumeration(gens, cap):
        time.sleep(0.05)
        return enumerate_semigroup(gens, cap)

    monkeypatch.setattr(oracle, "enumerate_semigroup", slow_enumeration)
    sigma = gen_file(tmp_path, "sigma.txt", (2, 3, 1))
    code = main(["check", sigma, "--property", prop, "--engine", "oracle",
                 "--json"])
    assert code == (0 if verdict == "TRUE" else 1)
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == verdict
    assert report["property"] == prop and report["engine"] == "oracle"
    assert report["elapsed_seconds"] >= 0.05


def test_inverse_decides_regularity_as_regular_does(tmp_path, capsys):
    # A commutative set goes through the graph route for both properties,
    # so a cap below |S| leaves neither of them undecided.
    sigma = gen_file(tmp_path, "sigma.txt", (2, 3, 1))
    for prop in ("regular", "inverse"):
        assert main(["check", sigma, "--property", prop, "--cap", "2"]) == 0
        assert "verdict:  TRUE" in capsys.readouterr().out


def test_check_engine_disagreement_exit5(tmp_path, capsys, monkeypatch):
    def liar(gens, cap):
        return ReportBuilder("zero", gens, "structural").true(None)

    monkeypatch.setitem(REGISTRY, "zero",
                        REGISTRY["zero"]._replace(structural=liar))
    sigma = gen_file(tmp_path, "sigma.txt", (2, 3, 1))
    assert main(["check", sigma, "--property", "zero",
                 "--engine", "both"]) == 5
    assert "agreement: NO" in capsys.readouterr().out


def test_check_different_identity_sets_disagree(tmp_path, capsys,
                                                monkeypatch):
    # Both engines say TRUE; only the sets of identities tell them apart,
    # as they do in the sweeps.
    real = REGISTRY["left-identities"].structural

    def liar(gens, cap):
        report = real(gens, cap)
        witness = dict(report.witness,
                       identities=report.witness["identities"][:-1])
        return dataclasses.replace(report, witness=witness)

    monkeypatch.setitem(REGISTRY, "left-identities",
                        REGISTRY["left-identities"]._replace(structural=liar))
    sigma = gen_file(tmp_path, "sigma.txt", (1, 2), (2, 1))
    argv = ["check", sigma, "--property", "left-identities", "--engine", "both"]
    assert main(argv) == 5
    out = capsys.readouterr().out
    assert "verdict:  TRUE" in out and "agreement: NO" in out
    assert main(argv + ["--json"]) == 5
    combined = json.loads(capsys.readouterr().out)
    assert combined["agree"] is False
    assert (combined["structural"]["verdict"], combined["oracle"]["verdict"]) \
        == ("TRUE", "TRUE")


def test_cap_environment_variable(tmp_path, capsys, monkeypatch):
    for bad in ("banana", "0", "-3"):
        monkeypatch.setenv("TSPROPS_CAP", bad)
        with pytest.raises(SystemExit) as exc:
            main(["check", "whatever", "--property", "zero"])
        assert exc.value.code == 2, bad
        assert "--cap" in capsys.readouterr().err

    # Only the commands that take --cap read the variable, and an explicit
    # --cap overrides it.
    sigma = gen_file(tmp_path, "sigma.txt", (2, 3, 1))
    assert main(["identity", sigma, "--quasi", "x1 x2 = x2 x1"]) == 0
    assert main(["check", sigma, "--property", "zero", "--cap", "5"]) == 1
    capsys.readouterr()

    monkeypatch.setenv("TSPROPS_CAP", "5")
    t3 = gen_file(tmp_path, "t3.txt", (2, 3, 1), (2, 1, 3), (1, 1, 3))
    assert main(["check", t3, "--property", "band",
                 "--engine", "oracle"]) == 4
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["check", "SIGMA", "--property", "zero", "--engine", "oracle", "--cap", "0"],
    ["check", "SIGMA", "--property", "regular", "--cap", "0"],
    ["check", "SIGMA", "--property", "zero", "--cap", "two"],
    ["element", "SIGMA", "--mode", "inverse", "--target", "1", "--cap", "-5"],
    ["crosscheck", "--n", "0"],
    ["crosscheck", "--k", "0"],
    ["crosscheck", "--samples", "-3"],
    ["crosscheck", "--cap", "0"],
])
def test_numeric_options_out_of_range_exit_2(tmp_path, capsys, argv):
    sigma = gen_file(tmp_path, "sigma.txt", (2, 3, 1))
    with pytest.raises(SystemExit) as exc:
        main([sigma if arg == "SIGMA" else arg for arg in argv])
    assert exc.value.code == 2
    assert "error: argument --" in capsys.readouterr().err


NO_FILE = "error: [Errno 2] No such file or directory: '{ABSENT}'"
BAD_MAP = "error: line 2: expected 3 images, got 4"
NO_DFA = ("error: line 1: a DFA needs a state count, an initial line and a "
          "final line")


@pytest.mark.parametrize("argv, line", [
    (["check", "ABSENT", "--property", "zero"], NO_FILE),
    (["check", "BAD", "--property", "zero"], BAD_MAP),
    (["identity", "ABSENT", "--quasi", "x1 x2 = x2 x1"], NO_FILE),
    (["identity", "BAD", "--quasi", "x1 x2 = x2 x1"], BAD_MAP),
    (["identity", "SIGMA", "--quasi", "x1 x2 ="],
     "error: line 1: right word is empty"),
    (["element", "ABSENT", "--mode", "inverse", "--target", "1"], NO_FILE),
    (["element", "BAD", "--mode", "inverse", "--target", "1"], BAD_MAP),
    (["element", "SIGMA", "--mode", "inverse", "--target", "9"],
     "error: target index 9 outside 1..1"),
    (["element", "SIGMA", "--mode", "inverse", "--target-file", "ABSENT"],
     NO_FILE),
    (["element", "SIGMA", "--mode", "inverse", "--target-file", "BAD"],
     BAD_MAP),
    (["element", "SIGMA", "--mode", "inverse", "--target-file", "TWO"],
     "error: the target file must hold exactly one transformation"),
    (["element", "SIGMA", "--mode", "inverse", "--target-file", "SHORT"],
     "error: target degree 2 does not match instance degree 3"),
    (["reduce", "zero", "GARBAGE", "OUT"], NO_DFA),
    (["reduce", "nilpotent", "GARBAGE", "OUT"], NO_DFA),
    (["reduce", "regular", "GARBAGE", "OUT"], NO_DFA),
    (["reduce", "weak-inverse", "GARBAGE", "OUT"], NO_DFA),
    (["reduce", "rtrivial", "GARBAGE", "OUT"],
     "error: line 1: vertex-count line must be an integer, got 'states two'"),
    (["reduce", "zero", "ABSENT", "OUT"], NO_FILE),
])
def test_bad_input_lines(tmp_path, capsys, argv, line):
    """The exact stderr line and exit code 2 for each kind of bad input."""
    (tmp_path / "bad.txt").write_text("3\nnot a map line\n")
    (tmp_path / "garbage.txt").write_text("states two\n")
    files = {
        "ABSENT": str(tmp_path / "absent.txt"),
        "BAD": str(tmp_path / "bad.txt"),
        "GARBAGE": str(tmp_path / "garbage.txt"),
        "OUT": str(tmp_path / "out.txt"),
        "SIGMA": gen_file(tmp_path, "sigma.txt", (2, 3, 1)),
        "TWO": gen_file(tmp_path, "two.txt", (2, 1, 3), (1, 1, 1)),
        "SHORT": gen_file(tmp_path, "short.txt", (2, 1)),
    }
    assert main([files.get(arg, arg) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line.replace("{ABSENT}", files["ABSENT"]) + "\n"
    assert not (tmp_path / "out.txt").exists()


def test_identity_command(tmp_path, capsys, schema):
    sigma = gen_file(tmp_path, "sigma.txt", (2, 3, 1))
    assert main(["identity", sigma, "--quasi", "x1 x1 x1 x2 = x2"]) == 0
    capsys.readouterr()

    consts = gen_file(tmp_path, "consts.txt", (1, 1, 1), (2, 2, 2))
    assert main(["identity", consts, "--quasi", "x1 x2 = x2 x1",
                 "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, schema)
    assert report["witness"]["kind"] == "quasi-identity-counterexample"

    assert main(["identity", consts, "--quasi", "x1 x2 ="]) == 2
    assert "error" in capsys.readouterr().err


def test_element_command(tmp_path, capsys):
    sigma = gen_file(tmp_path, "sigma.txt", (2, 3, 1))
    assert main(["element", sigma, "--mode", "inverse", "--target", "1",
                 "--json"]) == 0
    outcome = json.loads(capsys.readouterr().out)
    assert outcome["result"] == "FOUND"
    assert outcome["witness"] == {"map": [3, 1, 2], "word": [1, 1]}

    collapse = gen_file(tmp_path, "c.txt", (1, 1, 2))
    assert main(["element", collapse, "--mode", "regularizer",
                 "--target", "1"]) == 1
    assert "result: NONE" in capsys.readouterr().out
    assert main(["element", collapse, "--mode", "weak-inverse",
                 "--target", "1"]) == 0
    capsys.readouterr()

    # Past --cap the search is UNDECIDED with a witness that replays.
    assert main(["element", collapse, "--mode", "regularizer",
                 "--target", "1", "--cap", "1", "--json"]) == 4
    outcome = json.loads(capsys.readouterr().out)
    assert outcome["result"] == "UNDECIDED"
    assert outcome["witness"] == {"kind": "enumeration-cap", "cap": 1}
    assert verify_witness(GeneratorSet.from_maps([(1, 1, 2)]),
                          outcome["witness"])
    assert main(["element", collapse, "--mode", "regularizer",
                 "--target", "1", "--cap", "1"]) == 4
    assert ('witness: {"cap": 1, "kind": "enumeration-cap"}'
            in capsys.readouterr().out)

    assert main(["element", sigma, "--mode", "inverse", "--target", "9"]) == 2
    capsys.readouterr()

    two = gen_file(tmp_path, "two.txt", (2, 1, 3), (1, 1, 1))
    assert main(["element", sigma, "--mode", "inverse",
                 "--target-file", two]) == 2
    assert "exactly one" in capsys.readouterr().err

    short = gen_file(tmp_path, "short.txt", (2, 1))
    assert main(["element", sigma, "--mode", "inverse",
                 "--target-file", short]) == 2
    assert "degree" in capsys.readouterr().err

    tfile = gen_file(tmp_path, "t.txt", (3, 1, 2))
    assert main(["element", sigma, "--mode", "inverse",
                 "--target-file", tfile]) == 0
    capsys.readouterr()


def test_reduce_zero_roundtrip(tmp_path, capsys):
    hot = dfa_file(tmp_path, "hot.dfa", 2, 1, {2}, (2, 2))
    out = str(tmp_path / "hot_gens.txt")
    assert main(["reduce", "zero", hot, out]) == 0
    assert f"wrote {out}" in capsys.readouterr().out
    text = (tmp_path / "hot_gens.txt").read_text()
    assert text.startswith("#")
    gens = parse_generators(text)
    assert gens.degree == 3 and len(gens) == 3
    assert main(["check", out, "--property", "zero", "--engine", "both"]) == 0
    capsys.readouterr()

    cold = dfa_file(tmp_path, "cold.dfa", 2, 1, {2}, (1, 1))
    assert main(["reduce", "zero", cold, out]) == 0
    capsys.readouterr()
    assert main(["check", out, "--property", "zero", "--engine", "both"]) == 1
    capsys.readouterr()


def test_reduce_nilpotent_and_errors(tmp_path, capsys):
    cold = dfa_file(tmp_path, "cold.dfa", 2, 1, {2}, (1, 1))
    out = str(tmp_path / "nil_gens.txt")
    assert main(["reduce", "nilpotent", cold, out]) == 0
    capsys.readouterr()
    assert main(["check", out, "--property", "nilpotent"]) == 0
    capsys.readouterr()

    trivial = dfa_file(tmp_path, "eps.dfa", 2, 1, {1}, (2, 2))
    assert main(["reduce", "nilpotent", trivial, out]) == 2
    assert "error" in capsys.readouterr().err

    garbage = tmp_path / "garbage.dfa"
    garbage.write_text("states two\n")
    assert main(["reduce", "zero", str(garbage), out]) == 2
    capsys.readouterr()


def test_reduce_rtrivial(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text(render_digraph(3, [(1, 2), (2, 3)]))
    out = str(tmp_path / "graph_gens.txt")
    assert main(["reduce", "rtrivial", str(graph), out]) == 0
    capsys.readouterr()
    assert main(["check", out, "--property", "r-trivial"]) == 0
    assert main(["check", out, "--property", "nilpotent"]) == 0
    capsys.readouterr()

    graph.write_text(render_digraph(2, [(1, 2), (2, 1)]))
    assert main(["reduce", "rtrivial", str(graph), out]) == 0
    capsys.readouterr()
    assert main(["check", out, "--property", "r-trivial"]) == 1
    assert main(["check", out, "--property", "idempotents-central"]) == 1
    capsys.readouterr()


def test_reduce_regular_and_weak_inverse(tmp_path, capsys):
    a = render_dfa(DFA(2, 1, frozenset({2}), (Transformation(2, (2, 2)),)))
    b = render_dfa(DFA(2, 1, frozenset({2}), (Transformation(2, (1, 1)),)))
    both = tmp_path / "pair.dfas"
    both.write_text(a + "\n" + b)
    out = str(tmp_path / "red_gens.txt")
    assert main(["reduce", "regular", str(both), out]) == 0
    capsys.readouterr()
    gens = parse_generators((tmp_path / "red_gens.txt").read_text())
    assert gens.names[-1] == "restart"

    single = tmp_path / "one.dfas"
    single.write_text(a)
    assert main(["reduce", "weak-inverse", str(single), out]) == 0
    lines = capsys.readouterr().out
    assert f"wrote {out}.target" in lines and f"wrote {out}" in lines
    target = parse_generators((tmp_path / "red_gens.txt.target").read_text())
    assert len(target) == 1 and target.degree == 3
    assert main(["element", out, "--mode", "weak-inverse",
                 "--target-file", out + ".target"]) == 0
    capsys.readouterr()

    # mismatched alphabets across the list
    c = render_dfa(DFA(2, 1, frozenset({2}),
                       (Transformation(2, (2, 2)), Transformation(2, (1, 2)))))
    both.write_text(a + "\n" + c)
    assert main(["reduce", "regular", str(both), out]) == 2
    capsys.readouterr()


def test_crosscheck_command_deterministic(capsys):
    args = ["crosscheck", "--n", "2", "--k", "1"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    summary = json.loads(first)
    assert summary["mode"] == "exhaustive"
    assert summary["instances"] == 4
    assert summary["disagreements"] == 0
    assert summary["n"] == 2 and summary["k"] == 1

    assert main(["crosscheck", "--samples", "5", "--seed", "3",
                 "--n", "3", "--k", "2"]) == 0
    randomized = json.loads(capsys.readouterr().out)
    assert randomized["mode"] == "random"
    assert randomized["samples"] == 5 and randomized["seed"] == 3


def test_crosscheck_past_the_cap_is_undecided(capsys):
    # A set past the cap counts as UNDECIDED for every swept property, and
    # the sweep goes on to the next set.
    assert main(["crosscheck", "--samples", "5", "--n", "4", "--k", "3",
                 "--cap", "10"]) == 4
    captured = capsys.readouterr()
    assert captured.err == ""
    summary = json.loads(captured.out)
    swept = {name for name, routes in REGISTRY.items()
             if routes.structural is not None}
    assert set(summary["verdict_counts"]) == swept
    for counts in summary["verdict_counts"].values():
        assert sum(counts.values()) == 5
        assert 0 < counts["UNDECIDED"] < 5
    assert summary["instances"] == 5
    assert summary["disagreements"] == 0
    assert summary["largest_semigroup"] <= 10


def test_crosscheck_disagreement_outranks_undecided(capsys, monkeypatch):
    def liar(gens, cap):
        return ReportBuilder("zero", gens, "structural").true(None)

    monkeypatch.setitem(REGISTRY, "zero",
                        REGISTRY["zero"]._replace(structural=liar))
    assert main(["crosscheck", "--samples", "5", "--n", "4", "--k", "3",
                 "--cap", "10"]) == 1
    summary = json.loads(capsys.readouterr().out)
    assert summary["disagreements"] > 0
    assert summary["verdict_counts"]["zero"]["UNDECIDED"] > 0


# The stdout of two sweeps, pinned byte for byte: a change that alters any
# verdict count, mismatch record or the JSON layout of ``crosscheck`` shows
# here.
@pytest.mark.parametrize("argv, sha256", [
    (["--samples", "300", "--seed", "20240817", "--n", "5", "--k", "3"],
     "20715e8bbec519a4268329aee08c7869bb7a0c12aaf6e5eca830a6f57fa9a321"),
    (["--samples", "0", "--n", "3", "--k", "2"],
     "5f07493d6e7ed7a2e0ee52b8016f0b3fad68c6b24ca63b18a618554ea4f5f7b1"),
], ids=["seeded", "exhaustive"])
def test_crosscheck_stdout_bytes(capsys, argv, sha256):
    assert main(["crosscheck", *argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_crosscheck_past_the_state_budget_is_undecided(capsys, monkeypatch):
    # A structural check past the state budget counts as UNDECIDED for its
    # own property, and the sweep goes on to the next property and set.
    monkeypatch.setattr(graph, "STATE_BUDGET", 3)
    assert main(["crosscheck", "--n", "2", "--k", "1"]) == 4
    captured = capsys.readouterr()
    assert captured.err == ""
    summary = json.loads(captured.out)
    assert summary["instances"] == 4
    assert summary["disagreements"] == 0
    for counts in summary["verdict_counts"].values():
        assert sum(counts.values()) == 4
    # right-zero searches the 2 * 2 point pairs, past a budget of 3;
    # commutative searches nothing and is decided on every set.
    assert summary["verdict_counts"]["right-zero"]["UNDECIDED"] > 0
    assert "UNDECIDED" not in summary["verdict_counts"]["commutative"]


def test_console_script_runs(tmp_path, cli_command):
    # the console script and ``python -m tsprops`` both enter through cli.main
    import tsprops.__main__
    assert tsprops.__main__.main is cli.main
    module_argv, env = cli_command
    exe = shutil.which("tsprops")
    argv = [exe] if exe is not None else module_argv
    path = gen_file(tmp_path, "consts.txt", (1, 1, 1), (2, 2, 2))
    done = subprocess.run(argv + ["check", path, "--property", "group",
                                  "--engine", "both"],
                          capture_output=True, text=True, env=env,
                          cwd=tmp_path, timeout=CLI_TIMEOUT_SECONDS)
    assert done.returncode == 1
    assert "agreement: yes" in done.stdout
