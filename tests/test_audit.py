"""Axiom checks, expected profiles, impossibility and compatibility witnesses."""

import os
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings

from cfexplain import (
    AXIOMS,
    EXPECTED_PROFILES,
    EXPLAINERS,
    FIXTURES,
    IMPOSSIBILITY_SETS,
    ExternalExplainer,
    ExternalExplainerFailure,
    PartialAssignment,
    Query,
    TableClassifier,
    audit,
    builtin_suite,
    c_suf,
    check_axiom,
    check_impossibility,
    classify_family,
    compatibility_witnesses,
    constant_blank,
    constant_empty,
    g_nec,
    impossibility_witness,
    instance_of_rank,
    is_derived_member,
    is_member,
    load_bundle,
    old_values,
    profile_inconsistencies,
    s_nec,
)
from cfexplain.audit import generated_probe_queries

from conftest import tool
from helpers import (
    load_reference,
    make_theory,
    multiclass_table_queries,
    reference_oracle,
    reference_old_values,
)


AUDITED = (
    "gNec", "sNec", "gSuf", "sSuf", "cSuf", "featMin", "cardMin", "distMin",
    "constant-empty", "constant-blank", "old-values",
)


@pytest.fixture(scope="module")
def suite():
    return builtin_suite(budget=300, seed=0)


@pytest.fixture(scope="module")
def profiles(suite):
    return {
        name: audit(EXPLAINERS[name], suite.queries, name=name, suite_name=suite.name)
        for name in AUDITED
    }


# -- the expected-profile table --------------------------------------------------------


def test_axioms_are_fixed_and_ordered():
    assert AXIOMS == (
        "Success",
        "NonTriviality",
        "Equivalence",
        "Feasibility",
        "Coreness",
        "ScepticalValidity",
        "Novelty",
        "StrongValidity",
        "WeakValidity",
    )
    for name in AUDITED:
        assert set(EXPECTED_PROFILES[name]) == set(AXIOMS)


def test_expected_profiles_have_zero_mismatches(profiles):
    for name, profile in profiles.items():
        assert profile.mismatches() == (), name


def test_every_violation_is_replayable(profiles):
    for name, profile in profiles.items():
        for verdict in profile.verdicts:
            if verdict.ok:
                assert verdict.counterexample is None
                continue
            cx = verdict.counterexample
            assert cx is not None and cx.detail
            replay = check_axiom(
                verdict.axiom, EXPLAINERS[name], list(cx.queries())
            )
            assert replay.violated, (name, verdict.axiom)


def test_no_implication_breaks(profiles):
    for name, profile in profiles.items():
        assert profile_inconsistencies(profile) == (), name


def test_verdict_vocabulary(profiles):
    p = profiles["gSuf"]
    assert p.verdict("Success").summary() == "no-violation-found"
    assert p.verdict("Feasibility").summary() == "violated"
    pattern = p.pattern()
    assert pattern["StrongValidity"] and not pattern["Coreness"]


def test_audit_json_shape(profiles):
    out = profiles["cSuf"].to_json_dict()
    assert out["explainer"] == "cSuf"
    assert [v["axiom"] for v in out["verdicts"]] == list(AXIOMS)
    assert out["mismatches"] == []
    violated = [v for v in out["verdicts"] if v["verdict"] == "violated"]
    assert violated and all("counterexample" in v for v in violated)


# -- single-query goldens ---------------------------------------------------------------


def test_strong_validity_counterexample_on_the_cinema_query():
    b = load_bundle("vacation")
    q3 = b.query(3)
    verdict = check_axiom("StrongValidity", c_suf, [q3])
    assert verdict.violated
    cx = verdict.counterexample
    assert cx.explanation == PartialAssignment.from_dict(
        b.theory, {"a": "skiing"}
    )
    # the witness extension keeps the class: mild skiing is also cinema, so
    # {a=skiing} is a flip recipe that is not strictly sufficient
    assert cx.witness == PartialAssignment.from_dict(
        b.theory, {"t": "mild", "a": "skiing"}
    )


def test_corner_snec_audit_flags_exactly_four_axioms():
    b = load_bundle("corner")
    profile = audit(s_nec, [b.query(1)], name="sNec")
    violated = {v.axiom for v in profile.verdicts if v.violated}
    assert violated == {
        "Coreness",
        "Novelty",
        "StrongValidity",
        "WeakValidity",
    }


def test_success_violation_lists_the_query():
    b = load_bundle("vacation")
    q2 = b.query(2)
    verdict = check_axiom("Success", g_nec, [q2])
    assert verdict.violated
    assert verdict.counterexample.query == q2
    assert verdict.counterexample.explanation is None


def test_equivalence_checked_across_equal_classifiers():
    # two structurally separate but extensionally equal classifiers
    import copy

    b1 = load_bundle("vacation")
    b2 = load_bundle("vacation")
    assert b1.classifier is not b2.classifier
    q3 = Query(b1.theory, b1.classifier, b1.instances[2])  # freezing reading
    q5 = Query(b2.theory, b2.classifier, b2.instances[4])  # freezing climbing
    assert q3.label == q5.label == "cinema"
    # sNec(q3) is empty, sNec(q5) is not: equivalence must notice even
    # though the two queries carry distinct classifier objects
    verdict = check_axiom("Equivalence", s_nec, [q3, q5])
    assert verdict.violated
    cx = verdict.counterexample
    assert cx.other_query is not None
    assert {cx.query, cx.other_query} == {q3, q5}
    # gNec output depends only on the class function, so it cannot differ
    assert check_axiom("Equivalence", g_nec, [q3, q5]).ok


def test_vacuous_axioms_on_empty_output():
    b = load_bundle("vacation")
    q2 = b.query(2)  # gNec(q2) is empty
    for axiom in AXIOMS:
        verdict = check_axiom(axiom, g_nec, [q2])
        if axiom == "Success":
            assert verdict.violated
        else:
            assert verdict.ok, axiom


# -- family classification ----------------------------------------------------------------


def test_family_tags(suite):
    expected = {
        "gNec": {"gNec", "sNec"},
        "sNec": {"sNec"},
        "gSuf": {"gSuf"},
        "sSuf": {"cSuf", "gSuf", "sSuf"},
        "cSuf": {"cSuf"},
        "constant-empty": {"gNec", "sNec", "gSuf", "sSuf", "cSuf"},
        "constant-blank": set(),
        "old-values": set(),
    }
    for name, want in expected.items():
        report = classify_family(EXPLAINERS[name], suite.queries)
        assert report.consistent, name
        assert report.inclusion_tags == frozenset(want), name
        assert report.to_json_dict()["consistent"] is True


# -- impossibility witnesses ----------------------------------------------------------------


def test_impossibility_sets_are_the_published_seven():
    assert IMPOSSIBILITY_SETS == {
        "I1": ("Success", "NonTriviality", "Coreness"),
        "I2": ("Success", "Feasibility", "ScepticalValidity"),
        "I3": ("Success", "Novelty", "StrongValidity"),
        "I4": ("Success", "NonTriviality", "Feasibility", "Novelty"),
        "I5": ("Success", "Feasibility", "WeakValidity"),
        "I6": ("Success", "NonTriviality", "Equivalence", "Feasibility"),
        "I7": ("Success", "NonTriviality", "Equivalence", "Novelty"),
    }


@pytest.mark.parametrize("set_id", sorted(IMPOSSIBILITY_SETS))
def test_impossibility_witnesses_confirm(set_id):
    w = impossibility_witness(set_id)
    assert w.set_id == set_id
    assert w.axioms == IMPOSSIBILITY_SETS[set_id]
    assert w.narrative
    confirmed, trace = check_impossibility(w)
    assert confirmed, trace
    assert trace


def test_impossibility_checked_on_other_queries():
    q1 = load_bundle("vacation").query(1)  # hot climbing: beach, core {t=hot}
    # the first passing assignment in canonical order refutes the set
    first = {"I1": "t=hot", "I2": "t=hot", "I3": "t=mild", "I6": "t=hot", "I7": "t=mild"}
    for set_id, e in first.items():
        w = replace(impossibility_witness(set_id), query=q1)
        if w.other_query is not None:
            w = replace(w, other_query=q1)
        confirmed, trace = check_impossibility(w)
        assert not confirmed, set_id
        assert trace.startswith(f"{e} passes "), (set_id, trace)
    # a pair shares members only when Equivalence binds a same-class pair
    i6 = impossibility_witness("I6")
    unbound = replace(i6, axioms=tuple(a for a in i6.axioms if a != "Equivalence"))
    assert not check_impossibility(unbound)[0]
    q2 = load_bundle("vacation").query(2)  # mild climbing: mountain
    assert q2.label != q1.label
    mixed = replace(impossibility_witness("I7"), query=q1, other_query=q2)
    assert not check_impossibility(mixed)[0]
    # I4 and I5 hold on any query
    for name in FIXTURES:
        for q in load_bundle(name).queries():
            for set_id in ("I4", "I5"):
                w = replace(impossibility_witness(set_id), query=q)
                assert check_impossibility(w)[0], (name, set_id, q.instance.render())


def test_impossibility_witness_unknown_id():
    with pytest.raises(KeyError):
        impossibility_witness("I8")


# -- the audit against the reference checker ----------------------------------------------

def _reference_finds_violation(ref, axiom, queries, oracles, outputs):
    """Brute force: any explanation, other query or witness instance that
    the reference checker counts as a violation of the axiom."""
    if axiom == "Success":
        return any(ref.violates(axiom, oracles[q], outputs[q], None, None) for q in queries)
    if axiom == "Equivalence":
        groups = {}
        for q in queries:
            masks = tuple(sorted(oracles[q].t.class_masks.items()))
            groups.setdefault((q.theory, masks), []).append(q)
        return any(
            ref.violates(axiom, oracles[q1], outputs[q1], e, None, oracles[q2], outputs[q2])
            for members in groups.values()
            for i, q1 in enumerate(members)
            for q2 in members[i + 1 :]
            for e in set(outputs[q1]) | set(outputs[q2])
        )
    for q in queries:
        oracle = oracles[q]
        witnesses = [None] + [oracle.t.instance(r) for r in range(oracle.t.rows)]
        for e in outputs[q]:
            if any(ref.violates(axiom, oracle, outputs[q], e, w) for w in witnesses):
                return True
    return False


def test_audit_verdicts_agree_with_the_reference_checker():
    """Every explainer on the fixture and witness queries plus seeded probes:
    each counterexample violates its axiom by the reference's definitions,
    and where the audit finds none, a brute force over the reference's
    outputs and every instance as witness finds none either."""
    ref = load_reference()
    queries = builtin_suite(budget=150, seed=20261018).queries
    oracles = {q: reference_oracle(ref, q) for q in queries}

    def values(a):
        return None if a is None else a.values

    for name, explainer in EXPLAINERS.items():
        profile = audit(explainer, queries, name=name)
        outputs = {q: oracles[q].explainer_output(name) for q in queries}
        for verdict in profile.verdicts:
            cx = verdict.counterexample
            if verdict.ok:
                assert not _reference_finds_violation(
                    ref, verdict.axiom, queries, oracles, outputs
                ), (name, verdict.axiom)
                continue
            other = cx.other_query
            assert ref.violates(
                verdict.axiom,
                oracles[cx.query],
                outputs[cx.query],
                values(cx.explanation),
                values(cx.witness),
                None if other is None else oracles[other],
                () if other is None else outputs[other],
            ), (name, verdict.axiom)


# -- compatibility witnesses -----------------------------------------------------------------


def test_compatibility_witnesses_audit_exactly(suite):
    for w in compatibility_witnesses():
        profile = audit(
            w.explainer, suite.queries, name=w.name, expected=w.expected_profile()
        )
        assert profile.mismatches() == (), w.name


def test_witness_explainers_shapes():
    q = load_bundle("corner").query(1)
    assert constant_empty(q).count == 0
    blank = constant_blank(q)
    assert blank.count == 1 and blank.explanations[0].is_empty
    ov = old_values(q)
    assert ov.count >= 1
    assert all(e.subset_of(q.instance) and not e.is_empty for e in ov)


@given(multiclass_table_queries())
@settings(max_examples=80, deadline=None)
def test_old_values_are_the_parts_other_classes_overwrite(query):
    ov = old_values(query)
    assert list(ov) == reference_old_values(query) and not ov.truncated


@pytest.mark.parametrize("name", FIXTURES)
def test_old_values_on_the_fixtures(name):
    bundle = load_bundle(name)
    for r in range(bundle.theory.instance_count()):
        q = Query(bundle.theory, bundle.classifier, instance_of_rank(bundle.theory, r))
        assert list(old_values(q)) == reference_old_values(q)


# -- the validities read the truth table ------------------------------------------------------


def test_the_validity_checks_classify_nothing(monkeypatch):
    """Weak Validity asks x's class on the truth table, as Strong and
    Sceptical Validity do: once each query's class is known, auditing the
    flip explainers and old-values, and deciding membership of the flips,
    classify no instance."""
    queries = [*load_bundle("vacation").queries(), *generated_probe_queries()[::25]]
    for q in queries:
        assert q.label  # x's own class, classified once and kept

    def refuse(self, x):
        raise AssertionError("an instance was classified")

    monkeypatch.setattr(TableClassifier, "classify", refuse)
    for name in ("cSuf", "featMin", "cardMin", "distMin"):
        audit(EXPLAINERS[name], queries, name=name)
    # old-values offers parts of x, so x itself is the Weak Validity witness
    cx = audit(old_values, queries).verdict("WeakValidity").counterexample
    assert cx.witness == cx.query.instance
    for q in queries:
        for e in c_suf(q):
            assert is_member("cSuf", q, e)
            assert is_derived_member("distCap", q, e, tau=e.size + 1)
            for kind in ("featMin", "cardMin", "distMin"):
                is_derived_member(kind, q, e)


# -- the built-in suite ------------------------------------------------------------------------


def test_builtin_suite_is_deterministic_and_seeded():
    a = builtin_suite(budget=120, seed=0)
    b = builtin_suite(budget=120, seed=0)
    c = builtin_suite(budget=120, seed=1)
    assert a.queries == b.queries and a.name == b.name
    assert c.queries != a.queries
    assert builtin_suite(budget=None).name == "builtin"


def test_builtin_suite_rejects_a_negative_budget():
    with pytest.raises(ValueError, match="budget must not be negative"):
        builtin_suite(budget=-1)
    # 0 and None both keep every generated probe
    assert builtin_suite(budget=0).queries == builtin_suite(budget=None).queries


def test_builtin_suite_always_carries_the_fixtures():
    small = builtin_suite(budget=10, seed=0)
    queries = set(small.queries)
    for name in ("vacation", "bitcount", "corner"):
        for q in load_bundle(name).queries():
            assert q in queries


# -- external explainers -----------------------------------------------------------------------


def test_external_explainer_audits_like_constant_blank():
    b = load_bundle("corner")
    queries = b.queries()
    with ExternalExplainer([sys.executable, tool("blank_explainer.py")]) as ext:
        external = audit(
            ext, queries, name="external",
            expected=EXPECTED_PROFILES["constant-blank"],
        )
    native = audit(constant_blank, queries, name="constant-blank")
    assert external.pattern() == native.pattern()
    assert external.mismatches() == ()


def test_external_explainer_protocol_violations():
    q = load_bundle("corner").query(1)
    with ExternalExplainer([sys.executable, tool("bad_explainer.py")]) as ext:
        with pytest.raises(ExternalExplainerFailure):
            ext(q)
    with ExternalExplainer([sys.executable, "-c", "pass"]) as ext:
        with pytest.raises(ExternalExplainerFailure):
            ext(q)
    with pytest.raises(ExternalExplainerFailure):
        ExternalExplainer(["/nonexistent/explainer"])


def test_an_explainer_that_reads_nothing_misses_the_deadline(monkeypatch, tmp_path):
    """A request larger than the pipe holds cannot block the write past the
    deadline: the explainer is killed and reaped."""
    monkeypatch.setattr(sys.modules["cfexplain.audit"], "RESPONSE_SECONDS", 0.5)
    theory = make_theory([3] * 8)
    labels = ["c0", "c1"] * (theory.instance_count() // 2) + ["c0"]
    q = Query(theory, TableClassifier(theory, labels), instance_of_rank(theory, 0))
    pid_file = tmp_path / "pid"
    argv = [sys.executable, tool("stalled_explainer.py"), str(pid_file)]
    with ExternalExplainer(argv) as ext:
        with pytest.raises(ExternalExplainerFailure, match="no response within 0.5 s"):
            ext(q)
        assert ext.proc.returncode is not None
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid_file.read_text()), 0)
