"""The command-line interface: payload shapes, exit codes, determinism."""

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from cfexplain import (
    CORE_KINDS,
    DERIVED_KINDS,
    PartialAssignment,
    Query,
    complement_instance,
    decide_exp,
    fixture_text,
    is_member,
    load_bundle,
    load_classifier_text,
    load_instance_text,
    load_theory_text,
)
from cfexplain.cli import main
from cfexplain.sat import BackendFailure, ExecBackend, SatOracle, core_literals_sat

from conftest import tool
from helpers import planted_cnf, rule_list


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv, expect=0):
    code, out, err = run_cli(capsys, *argv)
    assert code == expect, err
    return json.loads(out)


@pytest.fixture()
def vacation_files(tmp_path):
    paths = {}
    for src, name in (
        ("theory.json", "theory.json"),
        ("classifier.csv", "classifier.csv"),
        ("x1.json", "x1.json"),
        ("x2.json", "x2.json"),
    ):
        p = tmp_path / name
        p.write_text(fixture_text("vacation", src))
        paths[name] = str(p)
    return paths


# -- explain ---------------------------------------------------------------------


def test_explain_golden_json(capsys):
    payload = run_json(
        capsys, "explain", "--fixture", "vacation", "--query", "1", "--kind", "gnec"
    )
    assert payload == {
        "kind": "gNec",
        "count": 1,
        "truncated": False,
        "explanations": [{"t": "hot"}],
    }


def test_explain_empty_set_still_succeeds(capsys):
    payload = run_json(
        capsys, "explain", "--fixture", "vacation", "--query", "3", "--kind", "gnec"
    )
    assert payload["count"] == 0 and payload["explanations"] == []


def test_explain_kind_aliases_are_case_insensitive(capsys):
    a = run_json(
        capsys, "explain", "--fixture", "vacation", "--kind", "sNec", "--query", "2"
    )
    b = run_json(
        capsys, "explain", "--fixture", "vacation", "--kind", "SNEC", "--query", "2"
    )
    assert a == b
    assert a["explanations"] == [{"t": "mild"}, {"a": "climbing"}]


def test_explain_text_rendering(capsys):
    code, out, err = run_cli(
        capsys,
        "explain", "--fixture", "vacation", "--query", "1",
        "--kind", "gsuf", "--format", "text",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "kind: gSuf"
    assert lines[1] == "count: 8"
    assert "1. t=mild" in lines
    assert any(line.endswith("t=mild, a=climbing") for line in lines)


def test_explain_cap_and_uncapped(capsys):
    capped = run_json(
        capsys,
        "explain", "--fixture", "vacation", "--query", "1",
        "--kind", "gsuf", "--cap", "2",
    )
    assert capped["truncated"] is True and capped["count"] == 2
    full = run_json(
        capsys,
        "explain", "--fixture", "vacation", "--query", "1",
        "--kind", "gsuf", "--cap", "0",
    )
    assert full["truncated"] is False and full["count"] == 8
    assert full["explanations"][:2] == capped["explanations"]


def test_explain_from_custom_files_matches_fixture(capsys, vacation_files):
    via_files = run_json(
        capsys,
        "explain",
        "--theory", vacation_files["theory.json"],
        "--classifier", vacation_files["classifier.csv"],
        "--instance", vacation_files["x2.json"],
        "--kind", "snec",
    )
    via_fixture = run_json(
        capsys, "explain", "--fixture", "vacation", "--query", "2", "--kind", "snec"
    )
    assert via_files == via_fixture


def test_explain_derived_kinds_with_distance_options(capsys, tmp_path):
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps({"t": 5, "a": 1}))
    payload = run_json(
        capsys,
        "explain", "--fixture", "vacation", "--query", "3",
        "--kind", "distmin", "--distance", f"weighted:{weights}",
    )
    assert payload["explanations"] == [{"a": "skiing"}]

    payload = run_json(
        capsys,
        "explain", "--fixture", "vacation", "--query", "1",
        "--kind", "distcap", "--tau", "2",
    )
    assert payload["explanations"] == [{"t": "mild"}, {"t": "freezing"}]


def test_explain_is_byte_deterministic(capsys):
    args = ("explain", "--fixture", "bitcount", "--query", "2", "--kind", "csuf")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


# -- decide ------------------------------------------------------------------------


def test_decide_membership_both_ways(capsys):
    yes = run_json(
        capsys,
        "decide", "--fixture", "vacation", "--query", "2",
        "--kind", "snec", "--explanation", '{"t": "mild"}',
    )
    assert yes["member"] is True and yes["kind"] == "sNec"
    no = run_json(
        capsys,
        "decide", "--fixture", "vacation", "--query", "2",
        "--kind", "gnec", "--explanation", '{"t": "mild"}',
    )
    assert no["member"] is False


def test_decide_explanation_from_file(capsys, tmp_path):
    e = tmp_path / "e.json"
    e.write_text('{"t": "mild"}')
    payload = run_json(
        capsys,
        "decide", "--fixture", "vacation", "--query", "2",
        "--kind", "snec", "--explanation", f"@{e}",
    )
    assert payload["member"] is True


def test_decide_sat_path_counts_calls(capsys):
    b = load_bundle("majority")
    q = b.query(1)
    payload = run_json(
        capsys,
        "decide", "--fixture", "majority", "--query", "1",
        "--kind", "gsuf", "--explanation", '{"f1": "1", "f2": "1"}',
        "--count-oracle-calls",
    )
    import cfexplain

    want = is_member(
        "gSuf", q, cfexplain.PartialAssignment.from_dict(b.theory, {"f1": "1", "f2": "1"})
    )
    assert payload["member"] == want
    assert isinstance(payload["oracle_calls"], int)


def test_decide_text_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "decide", "--fixture", "vacation", "--query", "2",
        "--kind", "snec", "--explanation", '{"t": "mild"}',
        "--format", "text",
    )
    assert code == 0 and out == "member\n"


# -- find --------------------------------------------------------------------------


def test_find_on_boolean_formula_uses_zero_calls_for_strict_sufficiency(capsys):
    payload = run_json(
        capsys,
        "find", "--fixture", "majority", "--query", "2",
        "--kind", "ssuf", "--count-oracle-calls",
    )
    # query 2 is f1=0,f2=0,f3=1 (majority no); the complement flips the vote
    assert payload["found"] is True
    assert payload["explanation"] == {"f1": "1", "f2": "1", "f3": "0"}
    assert payload["oracle_calls"] == 0


def test_find_enumeration_fallback_on_tables(capsys):
    payload = run_json(
        capsys,
        "find", "--fixture", "vacation", "--query", "1", "--kind", "csuf",
    )
    assert payload == {
        "explanation": {"t": "mild"},
        "found": True,
        "kind": "cSuf",
    }


def test_find_reports_absence(capsys):
    payload = run_json(
        capsys,
        "find", "--fixture", "vacation", "--query", "3", "--kind", "gnec",
    )
    assert payload["found"] is False and payload["explanation"] is None
    code, out, _ = run_cli(
        capsys,
        "find", "--fixture", "vacation", "--query", "3",
        "--kind", "gnec", "--format", "text",
    )
    assert code == 0 and out == "none\n"


def test_find_with_exec_backend(capsys):
    payload = run_json(
        capsys,
        "find", "--fixture", "majority", "--query", "1", "--kind", "csuf",
        "--sat-backend", f"exec:{tool('package_solver.py')}",
    )
    assert payload["found"] is True


# -- core --------------------------------------------------------------------------


def test_core_goldens(capsys):
    beach = run_json(
        capsys, "core", "--fixture", "vacation", "--class", "beach"
    )
    assert beach == {"class": "beach", "core": {"t": "hot"}}
    mountain = run_json(
        capsys, "core", "--fixture", "vacation", "--class", "mountain"
    )
    assert mountain["core"] == {}


def test_core_methods_agree(capsys):
    scan = run_json(
        capsys,
        "core", "--fixture", "majority", "--class", "yes", "--method", "scan",
    )
    via_sat = run_json(
        capsys,
        "core", "--fixture", "majority", "--class", "yes", "--method", "sat",
    )
    assert scan == via_sat


def test_core_text_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "core", "--fixture", "vacation", "--class", "beach", "--format", "text",
    )
    assert code == 0 and out == "t=hot\n"


# -- audit -------------------------------------------------------------------------


def audit_args(*extra):
    return ("audit", "--builtin", "--budget", "80", "--seed", "0") + extra


def test_audit_builtin_clean_run(capsys):
    payload = run_json(capsys, *audit_args())
    assert payload["schema"] == 1
    assert payload["mismatch_count"] == 0
    assert payload["implication_breaks"] == []
    assert [p["explainer"] for p in payload["profiles"]] == [
        "gNec", "sNec", "gSuf", "sSuf", "cSuf",
    ]
    assert payload["query_count"] > 0
    assert payload["suite"] == "builtin(budget=80,seed=0)"


def test_audit_exit_code_two_on_mismatch(capsys, vacation_files):
    code, out, err = run_cli(
        capsys,
        "audit",
        "--theory", vacation_files["theory.json"],
        "--classifier", vacation_files["classifier.csv"],
        "--instance", vacation_files["x1.json"],
        "--explainer", "gNec",
    )
    # on the single beach query gNec succeeds, so the expected Success
    # violation never materializes: that is a profile mismatch
    assert code == 2
    payload = json.loads(out)
    assert payload["mismatch_count"] >= 1
    assert "Success" in payload["profiles"][0]["mismatches"]


def test_audit_selected_explainers_and_text_table(capsys):
    code, out, _ = run_cli(
        capsys,
        *audit_args(
            "--explainer", "cSuf", "--explainer", "constant-empty",
            "--format", "text",
        ),
    )
    assert code == 0
    head, *rows = out.splitlines()
    assert head.split() == ["cSuf", "constant-empty"]
    by_axiom = {row.split()[0]: row.split()[1:] for row in rows}
    assert by_axiom["Success"] == ["ok", "X"]
    assert by_axiom["Novelty"] == ["ok", "ok"]
    assert by_axiom["StrongValidity"] == ["X", "ok"]


def test_audit_external_explainer(capsys):
    payload = run_json(
        capsys,
        *audit_args(
            "--budget", "0",
            "--explainer", "constant-blank",
            "--external", sys.executable, tool("blank_explainer.py"),
        ),
    )
    names = [p["explainer"] for p in payload["profiles"]]
    assert names == ["constant-blank", "external"]
    patterns = {
        p["explainer"]: [v["verdict"] for v in p["verdicts"]]
        for p in payload["profiles"]
    }
    assert patterns["external"] == patterns["constant-blank"]


@pytest.mark.parametrize("shape", ["list", "object"])
def test_explanations_that_are_not_objects_are_a_bad_response(capsys, shape):
    code, out, err = run_cli(
        capsys,
        *audit_args(
            "--explainer", "constant-blank",
            "--external", sys.executable, tool("listy_explainer.py"), shape,
        ),
    )
    assert code == 1 and out == ""
    assert err.startswith("error: ExternalExplainerFailure: bad response line: ")
    assert err.endswith("(explanations must be a JSON array of JSON objects)\n")
    assert err.count("\n") == 1


@pytest.mark.parametrize("shape, reason", [
    ("truncated", "truncated must be true or false, not 'no'"),
    ("kind", "kind must be a string, not ['a']"),
    ("twice", "explanation {} is listed twice"),
    ("repeated", "key 'explanations' is repeated"),
], ids=["truncated", "kind", "twice", "repeated"])
def test_responses_that_would_be_misread_are_a_bad_response(capsys, shape, reason):
    code, out, err = run_cli(
        capsys,
        *audit_args(
            "--explainer", "constant-blank",
            "--external", sys.executable, tool("listy_explainer.py"), shape,
        ),
    )
    assert code == 1 and out == ""
    assert err.startswith("error: ExternalExplainerFailure: bad response line: ")
    assert err.endswith(f"({reason})\n") and err.count("\n") == 1


def test_a_deeply_nested_response_is_a_bad_response(capsys):
    code, out, err = run_cli(
        capsys,
        *audit_args(
            "--explainer", "constant-blank",
            "--external", sys.executable, tool("listy_explainer.py"), "deep",
        ),
    )
    assert code == 1 and out == ""
    assert err.startswith("error: ExternalExplainerFailure: bad response line: ")
    assert "recursion" in err and err.count("\n") == 1


def test_a_stalled_external_explainer_is_killed(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(sys.modules["cfexplain.audit"], "RESPONSE_SECONDS", 0.5)
    pid_file = tmp_path / "pid"
    code, out, err = run_cli(
        capsys,
        *audit_args(
            "--explainer", "constant-blank",
            "--external", sys.executable, tool("stalled_explainer.py"), str(pid_file),
        ),
    )
    assert code == 1 and out == ""
    assert err == (
        "error: ExternalExplainerFailure: no response within 0.5 s; explainer killed\n"
    )
    with pytest.raises(ProcessLookupError):  # killed and reaped
        os.kill(int(pid_file.read_text()), 0)


def test_audit_rejects_unknown_explainer(capsys):
    code, out, err = run_cli(capsys, *audit_args("--explainer", "zzz"))
    assert code == 1 and out == "" and "unknown explainer" in err


def test_audit_needs_a_suite(capsys):
    code, out, err = run_cli(capsys, "audit")
    assert code == 1 and out == "" and "error: DomainError" in err


# -- witness -----------------------------------------------------------------------


def test_witness_all_impossibility_sets_confirm(capsys):
    payload = run_json(capsys, "witness", "--all")
    rows = payload["witnesses"]
    assert [r["id"] for r in rows] == ["I1", "I2", "I3", "I4", "I5", "I6", "I7"]
    assert all(r["confirmed"] for r in rows)
    assert all(r["trace"] for r in rows)


def test_witness_single_id(capsys):
    payload = run_json(capsys, "witness", "--id", "I3")
    rows = payload["witnesses"]
    assert len(rows) == 1 and rows[0]["id"] == "I3"
    assert rows[0]["axioms"] == ["Success", "Novelty", "StrongValidity"]


def test_witness_compat(capsys):
    code, out, _ = run_cli(
        capsys, "witness", "--compat", "--budget", "80", "--seed", "0"
    )
    assert code == 0
    payload = json.loads(out)
    assert [w["name"] for w in payload["witnesses"]] == [
        "constant-empty", "constant-blank", "old-values", "gSuf", "cSuf",
    ]
    assert all(w["mismatches"] == [] for w in payload["witnesses"])


def test_witness_requires_a_mode(capsys):
    code, out, err = run_cli(capsys, "witness")
    assert code == 1 and out == "" and "error: DomainError" in err


def test_witness_unknown_id(capsys):
    code, out, err = run_cli(capsys, "witness", "--id", "I9")
    assert code == 1 and out == ""
    assert err == "error: DomainError: unknown impossibility set 'I9' (I1..I7)\n"


def test_witness_reports_are_json_only(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["witness", "--all", "--format", "text"])
    assert exc_info.value.code == 2
    assert "unrecognized arguments: --format text" in capsys.readouterr().err


# -- failure modes -------------------------------------------------------------------


def test_unknown_kind_fails_cleanly(capsys):
    code, out, err = run_cli(
        capsys, "explain", "--fixture", "vacation", "--kind", "mystery"
    )
    assert code == 1 and out == ""
    assert "error: DomainError" in err and "unknown kind" in err


def test_bad_fixture_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["explain", "--fixture", "zzz", "--kind", "gnec"])
    assert exc_info.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["explain", "--fixture", "vacation", "--kind", "csuf", "--cap", "-3"],
        ["audit", "--builtin", "--budget", "-1"],
        ["witness", "--compat", "--budget", "-1"],
    ],
)
def test_negative_counts_are_argparse_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument {argv[-2]}: must not be negative, got {argv[-1]}" in err


def test_missing_input_files_fail_cleanly(capsys, tmp_path):
    code, out, err = run_cli(
        capsys,
        "explain",
        "--theory", str(tmp_path / "absent.json"),
        "--classifier", str(tmp_path / "absent.csv"),
        "--instance", str(tmp_path / "absent2.json"),
        "--kind", "gnec",
    )
    assert code == 1 and out == "" and "error:" in err


def test_malformed_instance_fails_cleanly(capsys, tmp_path, vacation_files):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run_cli(
        capsys,
        "explain",
        "--theory", vacation_files["theory.json"],
        "--classifier", vacation_files["classifier.csv"],
        "--instance", str(bad),
        "--kind", "gnec",
    )
    assert code == 1 and out == ""


@pytest.mark.parametrize("which", ["theory", "instance"])
def test_non_object_json_file_fails_cleanly(capsys, tmp_path, vacation_files, which):
    bad = tmp_path / "list.json"
    bad.write_text("[]")
    files = {
        "theory": vacation_files["theory.json"],
        "instance": vacation_files["x1.json"],
        which: str(bad),
    }
    code, out, err = run_cli(
        capsys,
        "explain",
        "--theory", files["theory"],
        "--classifier", vacation_files["classifier.csv"],
        "--instance", files["instance"],
        "--kind", "gnec",
    )
    assert code == 1 and out == ""
    assert err.splitlines() == [
        f"error: ParseError: {which} file must hold a JSON object"
    ]


@pytest.mark.parametrize("fixture", ["vacation", "majority"])
@pytest.mark.parametrize("command", ["explain", "decide", "find"])
def test_distcap_threshold_must_not_be_negative_or_nan(capsys, fixture, command):
    argv = [command, "--fixture", fixture, "--kind", "distCap"]
    if command == "decide":
        e = load_bundle(fixture).query(1).instance.to_dict()
        argv += ["--explanation", json.dumps(e)]
    for tau in ("-1", "nan"):
        code, out, err = run_cli(capsys, *argv, "--tau", tau)
        assert code == 1 and out == "", tau
        assert err.splitlines() == [
            f"error: DistanceError: threshold must be >= 0, got {float(tau)}"
        ]
    code, out, err = run_cli(capsys, *argv, "--tau", "0")
    assert code == 0 and err == ""


@pytest.mark.parametrize("index", ["0", "99"])
def test_fixture_query_out_of_range_fails_cleanly(capsys, index):
    code, out, err = run_cli(
        capsys, "explain", "--fixture", "vacation", "--query", index, "--kind", "gnec"
    )
    assert code == 1 and out == ""
    assert err.splitlines() == [
        f"error: DomainError: query {index} is out of range 1..9 for bundle 'vacation'"
    ]


@pytest.mark.parametrize(
    "csv_text, message",
    [
        (
            "t,a,a,class\nhot,climbing,climbing,beach\n",
            "CSV header repeats column(s) ['a']",
        ),
        (
            "t,a,class\nhot,climbing,beach\nmild,climbing\n",
            "CSV line 3 has 2 field(s); the header has 3",
        ),
    ],
    ids=["repeated-header", "ragged-row"],
)
def test_malformed_table_csv_fails_cleanly(capsys, tmp_path, vacation_files, csv_text, message):
    bad = tmp_path / "bad.csv"
    bad.write_text(csv_text)
    code, out, err = run_cli(
        capsys,
        "explain",
        "--theory", vacation_files["theory.json"],
        "--classifier", str(bad),
        "--instance", vacation_files["x1.json"],
        "--kind", "gnec",
    )
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: ClassifierError: {message}"]


def test_unknown_literal_fails_cleanly(capsys):
    code, out, err = run_cli(
        capsys,
        "decide", "--fixture", "vacation", "--query", "1",
        "--kind", "snec", "--explanation", '{"t": "sweltering"}',
    )
    assert code == 1 and out == "" and "InvalidLiteral" in err


@pytest.mark.parametrize("raw", ["[1]", '"x"'])
def test_non_object_explanation_fails_cleanly(capsys, raw):
    code, out, err = run_cli(
        capsys,
        "decide", "--fixture", "vacation", "--query", "1",
        "--kind", "snec", "--explanation", raw,
    )
    assert code == 1 and out == ""
    assert err.splitlines() == [
        "error: ParseError: --explanation must hold a JSON object"
    ]


# -- JSON inputs: a repeated key is an error, not a silent read of its last value --

DEEP = 100_000  # nesting past any recursion limit of the JSON decoder


@pytest.mark.parametrize("which", ["theory", "instance"])
def test_a_repeated_key_in_a_json_file_fails_cleanly(capsys, tmp_path, vacation_files, which):
    theory_text = fixture_text("vacation", "theory.json").lstrip()
    texts = {  # read with the last value, each would run and exit 0
        "theory": '{"features": [{"name": "t", "domain": ["hot", "mild"]}], ' + theory_text[1:],
        "instance": '{"t": "hot", "t": "mild", "a": "reading"}',
    }
    bad = tmp_path / "repeated.json"
    bad.write_text(texts[which])
    files = {"theory": vacation_files["theory.json"], "instance": vacation_files["x1.json"]}
    files[which] = str(bad)
    code, out, err = run_cli(
        capsys,
        "explain",
        "--theory", files["theory"],
        "--classifier", vacation_files["classifier.csv"],
        "--instance", files["instance"],
        "--kind", "gnec",
    )
    key = {"theory": "features", "instance": "t"}[which]
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: ParseError: invalid JSON in {which}: key {key!r} is repeated"]


@pytest.mark.parametrize("raw, reason", [
    ('{"t": "hot", "t": "mild"}', "key 't' is repeated"),
    ('{"t": "hot" "a": "reading"}', "Expecting ',' delimiter (line 1, column 13)"),
    ("[" * DEEP + "]" * DEEP, "nested too deeply"),
], ids=["repeated", "malformed", "deep"])
def test_a_bad_json_explanation_fails_cleanly(capsys, tmp_path, raw, reason):
    at_file = tmp_path / "e.json"
    at_file.write_text(raw)
    for spec in (raw, f"@{at_file}"):
        code, out, err = run_cli(
            capsys,
            "decide", "--fixture", "vacation", "--query", "1",
            "--kind", "cSuf", "--explanation", spec,
        )
        assert code == 1 and out == ""
        assert err.splitlines() == [f"error: ParseError: invalid JSON in explanation: {reason}"]


@pytest.mark.parametrize("raw, reason", [
    ('{"t": 1, "t": 5, "a": 2}', "key 't' is repeated"),
    ('{"t": 1 "a": 2}', "Expecting ',' delimiter (line 1, column 9)"),
    ('{"t": ' * DEEP + "1" + "}" * DEEP, "nested too deeply"),
], ids=["repeated", "malformed", "deep"])
def test_a_bad_json_weights_file_fails_cleanly(capsys, tmp_path, raw, reason):
    weights = tmp_path / "w.json"
    weights.write_text(raw)
    code, out, err = run_cli(
        capsys,
        "explain", "--fixture", "vacation", "--query", "1",
        "--kind", "distmin", "--distance", f"weighted:{weights}",
    )
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: ParseError: invalid JSON in weights: {reason}"]


def test_incomplete_custom_input_reports_missing_flags(capsys, vacation_files):
    code, out, err = run_cli(
        capsys,
        "explain", "--theory", vacation_files["theory.json"], "--kind", "gnec",
    )
    assert code == 1 and out == ""
    assert "--classifier" in err and "--instance" in err


def test_a_lying_solver_is_caught(capsys):
    """A solver that answers every call with the all-false model is caught
    by the model check: each command that reaches it ends in one error line."""
    backend = ("--sat-backend", f"exec:{tool('lying_solver.py')}")
    commands = [
        ("find", "--fixture", "majority", "--query", "1", "--kind", kind, *backend)
        for kind in ("csuf", "gsuf", "cardmin")
    ] + [
        ("decide", "--fixture", "majority", "--query", "1", "--kind", "gsuf",
         "--explanation", '{"f2": "1", "f3": "1"}', *backend),
    ]
    for argv in commands:
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "", argv
        assert len(err.splitlines()) == 1, argv
        assert err.startswith("error: BackendFailure: ") and "falsifies clause" in err, argv
    # `core` has no --sat-backend flag; its SAT route is reached through the library
    oracle = SatOracle(ExecBackend(tool("lying_solver.py")))
    with pytest.raises(BackendFailure, match="falsifies clause"):
        core_literals_sat(load_bundle("majority").classifier, "yes", oracle)


def test_broken_sat_backend_fails_cleanly(capsys):
    code, out, err = run_cli(
        capsys,
        "find", "--fixture", "majority", "--query", "1", "--kind", "csuf",
        "--sat-backend", "exec:/nonexistent/solver",
    )
    assert code == 1 and out == "" and "BackendFailure" in err


# -- formulas past the truth-table cap ---------------------------------------------


def boolean_files(tmp_path, n, formula, rng):
    """Files for a theory of n boolean features f1..fn with classes T and
    F, the classifier 'classes: T,F' over ``formula``, and a random
    instance; their paths by flag name."""
    names = [f"f{i + 1}" for i in range(n)]
    theory = {"features": [{"name": f, "domain": ["0", "1"]} for f in names],
              "classes": ["T", "F"]}
    files = {
        "theory": json.dumps(theory),
        "classifier": "classes: T,F\n" + formula + "\n",
        "instance": json.dumps({f: rng.choice("01") for f in names}),
    }
    paths = {}
    for flag, text in files.items():
        path = tmp_path / f"{flag}.txt"
        path.write_text(text)
        paths[flag] = str(path)
    return paths


@pytest.fixture()
def wide_cnf_files(tmp_path):
    """A planted 3-CNF over 40 features (2^40 instances) and one instance."""
    rng = random.Random(40)
    return boolean_files(tmp_path, 40, planted_cnf(rng, 40, 80), rng)


def wide_query(paths) -> Query:
    theory = load_theory_text(Path(paths["theory"]).read_text())
    classifier = load_classifier_text(
        Path(paths["classifier"]).read_text(), theory, filename=paths["classifier"]
    )
    x = load_instance_text(Path(paths["instance"]).read_text(), theory)
    return Query(theory, classifier, x)


def wide_flags(paths, instance=True):
    flags = ["--theory", paths["theory"], "--classifier", paths["classifier"]]
    return flags + (["--instance", paths["instance"]] if instance else [])


@pytest.mark.parametrize("kind, budget", [("cSuf", 1), ("sNec", 1), ("sSuf", 0)])
def test_find_runs_past_the_view_cap(capsys, wide_cnf_files, kind, budget):
    payload = run_json(
        capsys, "find", *wide_flags(wide_cnf_files), "--kind", kind, "--count-oracle-calls"
    )
    assert payload["oracle_calls"] <= budget
    q = wide_query(wide_cnf_files)
    if payload["found"]:
        e = PartialAssignment.from_dict(q.theory, payload["explanation"])
        assert decide_exp(kind, q, e)
    else:
        assert kind == "sSuf"


def test_decide_runs_past_the_view_cap(capsys, wide_cnf_files):
    q = wide_query(wide_cnf_files)
    flipped = {f: str(1 - v) for f, v in zip(q.theory.features, q.instance.values)}
    payload = run_json(
        capsys, "decide", *wide_flags(wide_cnf_files), "--kind", "cSuf",
        "--explanation", json.dumps(flipped), "--count-oracle-calls",
    )
    assert payload["oracle_calls"] <= 1
    e = PartialAssignment.from_dict(q.theory, flipped)
    assert payload["member"] == (q.classifier.classify(e) != q.label)


def test_decide_takes_at_most_one_call_per_kind_at_64_features(capsys, tmp_path):
    """Every kind is decided with at most one oracle call on a planted 3-CNF
    over 64 features, on find cSuf's flip, on x's complement and on one
    literal of x."""
    rng = random.Random(64)
    paths = boolean_files(tmp_path, 64, planted_cnf(rng, 64, 128), rng)
    flip = run_json(capsys, "find", *wide_flags(paths), "--kind", "cSuf")["explanation"]
    x = wide_query(paths).instance.to_dict()
    complement = {f: str(1 - int(v)) for f, v in x.items()}
    literal = dict([next(iter(x.items()))])
    for e in (flip, complement, literal):
        for kind in CORE_KINDS + DERIVED_KINDS:
            payload = run_json(
                capsys, "decide", *wide_flags(paths), "--kind", kind,
                "--explanation", json.dumps(e), "--count-oracle-calls",
            )
            assert payload["oracle_calls"] <= 1, (kind, e)
            if kind == "cSuf" and e is flip:
                assert payload["member"]


def test_decide_accepts_the_featmin_that_find_returns(capsys, wide_cnf_files):
    found = run_json(capsys, "find", *wide_flags(wide_cnf_files), "--kind", "featMin")
    payload = run_json(
        capsys, "decide", *wide_flags(wide_cnf_files), "--kind", "featMin",
        "--explanation", json.dumps(found["explanation"]), "--count-oracle-calls",
    )
    assert payload["member"] and payload["oracle_calls"] <= 1


@pytest.mark.parametrize(
    "argv",
    [("explain", "--kind", "cSuf"), ("core", "--class", "T", "--method", "scan")],
)
def test_listing_past_the_view_cap_fails_cleanly(capsys, wide_cnf_files, argv):
    flags = wide_flags(wide_cnf_files, instance=argv[0] != "core")
    code, out, err = run_cli(capsys, argv[0], *flags, *argv[1:])
    assert code == 1 and out == ""
    assert err.splitlines() == [err.strip()]
    assert err.startswith("error: ClassifierError: ")


# -- long and deep formulas ---------------------------------------------------------


@pytest.mark.parametrize("kind, budget", [("cSuf", 1), ("sNec", 1), ("sSuf", 0)])
def test_find_on_a_long_rule_list(capsys, tmp_path, kind, budget):
    """1,200 terms of 8 literals over 12 features; this seed gives both classes."""
    rng = random.Random(1200)
    paths = boolean_files(tmp_path, 12, rule_list(rng), rng)
    payload = run_json(
        capsys, "find", *wide_flags(paths), "--kind", kind, "--count-oracle-calls"
    )
    assert payload["oracle_calls"] <= budget
    q = wide_query(paths)
    if payload["found"]:
        assert is_member(kind, q, PartialAssignment.from_dict(q.theory, payload["explanation"]))
    else:
        assert kind == "sSuf" and not is_member(kind, q, complement_instance(q.instance))


@pytest.mark.parametrize(
    "formula, code", [("!" * 3000 + "f1 | f2", 0), ("(" * 3000 + "f1 | f2", 1)],
    ids=["negations", "parentheses"],
)
def test_deep_formula_text_needs_no_recursion(capsys, tmp_path, formula, code):
    paths = boolean_files(tmp_path, 2, formula, random.Random(3))
    code_got, out, err = run_cli(capsys, "find", *wide_flags(paths), "--kind", "cSuf")
    assert code_got == code, err
    if code:
        assert out == "" and err == "error: ParseError: expected ')' (line 1, column 3008)\n"
    else:
        assert json.loads(out)["found"]


# -- console script -----------------------------------------------------------------


def test_python_m_cfexplain_runs_from_a_checkout():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "cfexplain", "explain", "--fixture", "vacation",
         "--query", "1", "--kind", "gNec"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["explanations"] == [{"t": "hot"}]


def test_console_script_end_to_end():
    exe = shutil.which("cfexplain")
    env = None
    if exe is None:
        # not installed: run the same entry point from the source tree
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        command = [sys.executable, "-m", "cfexplain.cli"]
    else:
        command = [exe]
    proc = subprocess.run(
        [*command, "explain", "--fixture", "vacation", "--kind", "gnec"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["explanations"] == [{"t": "hot"}]
