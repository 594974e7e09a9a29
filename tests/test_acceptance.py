"""End-to-end acceptance gate: one test per shipped guarantee.

Each test here states a user-visible promise of the package — worked-example
outputs, audit conformance, exhaustive small-space laws, solver-backed
differential agreement, and byte-level report determinism — and verifies it
end to end.  conftest.py prints a per-criterion PASS/FAIL summary after the
run.  Timing ceilings are asserted where a guarantee includes one.
"""

import hashlib
import io
import itertools
import json
import random
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from time import monotonic

from cfexplain import (
    AXIOMS,
    CORE_KINDS,
    EXPECTED_PROFILES,
    EXPLAINERS,
    IMPOSSIBILITY_SETS,
    PartialAssignment,
    SatOracle,
    audit,
    builtin_suite,
    c_suf,
    card_min,
    check_axiom,
    check_impossibility,
    compatibility_witnesses,
    complement_instance,
    core_literals,
    decide_exp,
    dist_min,
    distance_weighting,
    enumerate_instances,
    faithful_max,
    feat_min,
    find_exp,
    g_nec,
    g_suf,
    impossibility_witness,
    indicator_weighting,
    is_derived_member,
    is_member,
    load_bundle,
    profile_inconsistencies,
    ranking_from_weighting,
    s_nec,
    s_suf,
    size_weighting,
    subsets_of,
    substitute,
)
from cfexplain import cli
from cfexplain.audit import generated_probe_queries

from helpers import (
    random_assignment,
    random_boolean_query,
    random_novel,
    random_subset_of,
)

EXPLAIN = {"gNec": g_nec, "sNec": s_nec, "gSuf": g_suf, "sSuf": s_suf, "cSuf": c_suf}


def assignments(bundle, *specs):
    """Each spec is a mapping (literal form) or an int (1-based instance number)."""
    out = set()
    for spec in specs:
        if isinstance(spec, int):
            out.add(bundle.instances[spec - 1])
        else:
            out.add(PartialAssignment.from_dict(bundle.theory, spec))
    return frozenset(out)


def _render_set(es) -> str:
    return "{" + ", ".join(e.render() or "()" for e in sorted(es, key=lambda e: e.sort_key())) + "}"


# -- 1: the full worked vacation example, under one second -------------------------


def test_criterion_1():
    """Every tabulated output of the two-feature vacation example, in < 1 s.

    All deviations are collected before failing so the report lists each one.
    The tabulated feature-minimal / cardinality-minimal rows at queries 2 and 3
    coincide with the feature-minimal members of sSuf; the implemented
    definitions minimise over all class-changing flips (cSuf) instead, which
    additionally admits {t=freezing}/{a=skiing} at query 2 and {a=skiing} at
    query 3.  Those four value checks are pinned to the tabulated reference.
    """
    t0 = monotonic()
    b = load_bundle("vacation")
    q1, q2, q3 = b.query(1), b.query(2), b.query(3)
    failures: list[str] = []

    def check(label, got, want):
        got, want = frozenset(got), frozenset(want)
        if got != want:
            failures.append(f"{label}: got {_render_set(got)}, want {_render_set(want)}")

    check("gNec(q1)", g_nec(q1), assignments(b, {"t": "hot"}))
    check("gNec(q2)", g_nec(q2), frozenset())
    check("gNec(q3)", g_nec(q3), frozenset())

    check("sNec(q1)", s_nec(q1), assignments(b, {"t": "hot"}, 1))
    check("sNec(q2)", s_nec(q2), assignments(b, {"t": "mild"}, {"a": "climbing"}))
    check("sNec(q3)", s_nec(q3), frozenset())

    check(
        "gSuf(q1)",
        g_suf(q1),
        assignments(b, {"t": "mild"}, {"t": "freezing"}, 2, 3, 4, 5, 8, 9),
    )
    check(
        "gSuf(q2)",
        g_suf(q2),
        assignments(b, {"t": "hot"}, {"a": "reading"}, 1, 3, 5, 6, 7, 8, 9),
    )
    check("gSuf(q3)", g_suf(q3), assignments(b, {"t": "hot"}, 1, 2, 4, 6, 7))

    check(
        "sSuf(q1)",
        s_suf(q1),
        assignments(b, {"t": "mild"}, {"t": "freezing"}, 3, 4, 8, 9),
    )
    check("sSuf(q2)", s_suf(q2), assignments(b, {"t": "hot"}, {"a": "reading"}, 3, 6, 7))
    check("sSuf(q3)", s_suf(q3), assignments(b, {"t": "hot"}, 1, 2, 7))

    check(
        "cSuf(q1)",
        c_suf(q1),
        assignments(b, {"t": "mild"}, {"t": "freezing"}, 3, 4, 8, 9),
    )
    check(
        "cSuf(q2)",
        c_suf(q2),
        assignments(
            b, {"t": "hot"}, {"t": "freezing"}, {"a": "reading"}, {"a": "skiing"}, 3, 6, 7
        ),
    )
    check("cSuf(q3)", c_suf(q3), assignments(b, {"t": "hot"}, {"a": "skiing"}, 1, 2, 7))

    # class cores
    check("core(beach)", {core_literals(b.classifier, "beach")}, assignments(b, {"t": "hot"}))
    assert core_literals(b.classifier, "mountain").is_empty
    assert core_literals(b.classifier, "cinema").is_empty

    # minimal-flip selections: tabulated reference values
    check("featMin(q1)", feat_min(q1), assignments(b, {"t": "mild"}, {"t": "freezing"}))
    check("featMin(q2)", feat_min(q2), assignments(b, {"t": "hot"}, {"a": "reading"}))
    check("featMin(q3)", feat_min(q3), assignments(b, {"t": "hot"}))
    check("cardMin(q1)", card_min(q1), assignments(b, {"t": "mild"}, {"t": "freezing"}))
    check("cardMin(q2)", card_min(q2), assignments(b, {"t": "hot"}, {"a": "reading"}))
    check("cardMin(q3)", card_min(q3), assignments(b, {"t": "hot"}))

    # the two selections agree on every query of this example
    for i, q in enumerate((q1, q2, q3), start=1):
        check(f"cardMin(q{i}) == featMin(q{i})", card_min(q), frozenset(feat_min(q)))

    elapsed = monotonic() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    assert not failures, "worked-example deviations:\n" + "\n".join(failures)


# -- 2: the boolean appendix examples ----------------------------------------------


def test_criterion_2():
    """Cores and explanation sets of the small boolean examples, plus the
    single-query audit of sNec on the corner example."""
    bit = load_bundle("bitcount")
    t = bit.theory

    # cores: one per class of the bit-counting table
    assert core_literals(bit.classifier, "c1") == PartialAssignment.from_dict(
        t, {"f1": "0", "f2": "0"}
    )
    assert core_literals(bit.classifier, "c2").is_empty
    assert core_literals(bit.classifier, "c3") == PartialAssignment.from_dict(
        t, {"f1": "1", "f2": "1"}
    )

    # the asymmetric pair: both middle instances have empty sSuf but
    # mirror-image nonempty cSuf
    x2, x3 = bit.query(2), bit.query(3)
    assert frozenset(s_suf(x2)) == frozenset()
    assert frozenset(s_suf(x3)) == frozenset()
    assert frozenset(c_suf(x2)) == {
        PartialAssignment.from_dict(t, {"f1": "1"}),
        PartialAssignment.from_dict(t, {"f2": "0"}),
    }
    assert frozenset(c_suf(x3)) == {
        PartialAssignment.from_dict(t, {"f1": "0"}),
        PartialAssignment.from_dict(t, {"f2": "1"}),
    }

    # corner example: the lone cross-class instance pins sNec but not gNec
    corner = load_bundle("corner")
    q1 = corner.query(1)
    assert core_literals(corner.classifier, q1.label).is_empty
    assert frozenset(g_nec(q1)) == frozenset()
    assert frozenset(s_nec(q1)) == {
        PartialAssignment.from_dict(corner.theory, {"f1": "0"})
    }

    # auditing sNec on that single query flags exactly these four axioms
    profile = audit(s_nec, [q1], name="sNec", suite_name="corner-q1")
    flagged = {v.axiom for v in profile.verdicts if v.violated}
    assert flagged == {"Coreness", "Novelty", "StrongValidity", "WeakValidity"}


# -- 3: audit conformance on the built-in suite -------------------------------------


def test_criterion_3():
    """The five core explainers reproduce their expected axiom profiles on the
    full built-in suite, with no implication breaks, and every flagged cell is
    backed by a replayable counterexample."""
    suite = builtin_suite()
    for kind in CORE_KINDS:
        profile = audit(EXPLAINERS[kind], suite.queries, name=kind, suite_name=suite.name)
        assert [v.axiom for v in profile.verdicts] == list(AXIOMS)
        assert profile.expected is not None
        assert profile.pattern() == dict(EXPECTED_PROFILES[kind]), kind
        assert profile.mismatches() == ()
        assert profile_inconsistencies(profile) == ()
        for verdict in profile.verdicts:
            if not verdict.violated:
                continue
            cx = verdict.counterexample
            assert cx is not None, (kind, verdict.axiom)
            replay = check_axiom(verdict.axiom, EXPLAINERS[kind], list(cx.queries()))
            assert replay.violated, (kind, verdict.axiom)
            assert cx.detail


# -- 4: exhaustive laws over every small two-feature table --------------------------


def test_criterion_4():
    """Family inclusions, the deletion/substitution correspondence between gSuf
    and cSuf, the core characterisation of gNec, and the ranking-based
    reconstruction of all three minimal-flip selections — exhaustively over
    every surjective two-class table on two features with domains of size 2-3,
    at every query instance, in < 60 s."""
    t0 = monotonic()
    queries = generated_probe_queries()
    assert len(queries) == 5390
    assert len({q.classifier for q in queries}) == 648

    for q in queries:
        x = q.instance
        gnec = frozenset(g_nec(q))
        snec = frozenset(s_nec(q))
        gsuf = frozenset(g_suf(q))
        ssuf = frozenset(s_suf(q))
        csuf = frozenset(c_suf(q))

        # inclusions between the families; cSuf can never be empty
        assert gnec <= snec
        assert ssuf <= gsuf
        assert ssuf <= csuf
        assert csuf

        # deleting the query's own literals from gSuf yields exactly cSuf,
        # and writing a cSuf member into the instance lands back in gSuf
        assert csuf == {e.difference(x) for e in gsuf}
        for e in csuf:
            assert substitute(x, e) in gsuf

        # gNec is precisely the nonempty subsets of the class core
        core = core_literals(q.classifier, q.label)
        assert gnec == frozenset(subsets_of(core, min_size=1))

        # minimal-flip chain
        wf = frozenset(feat_min(q))
        assert frozenset(card_min(q)) <= wf <= csuf

        # each selection is the maximum of its preorder over all assignments
        assert wf == frozenset(
            faithful_max(q, ranking_from_weighting(indicator_weighting(q), "delta-feature-refined"))
        )
        assert frozenset(card_min(q)) == frozenset(
            faithful_max(q, ranking_from_weighting(size_weighting(q)))
        )
        assert frozenset(dist_min(q)) == frozenset(
            faithful_max(q, ranking_from_weighting(distance_weighting(q)))
        )

    elapsed = monotonic() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


# -- 5: impossibility witnesses and compatibility witnesses -------------------------


def test_criterion_5():
    """All seven impossibility sets machine-confirm on their witness
    constructions, and the five compatibility witnesses audit to exactly the
    axiom subsets they are built for."""
    assert sorted(IMPOSSIBILITY_SETS) == [f"I{i}" for i in range(1, 8)]
    for set_id in sorted(IMPOSSIBILITY_SETS):
        witness = impossibility_witness(set_id)
        assert witness.axioms == IMPOSSIBILITY_SETS[set_id]
        confirmed, trace = check_impossibility(witness)
        assert confirmed, set_id
        assert trace

    suite = builtin_suite()
    for w in compatibility_witnesses():
        profile = audit(
            w.explainer,
            suite.queries,
            name=w.name,
            suite_name=suite.name,
            expected=w.expected_profile(),
        )
        assert profile.mismatches() == (), w.name
        satisfied = {v.axiom for v in profile.verdicts if not v.violated}
        assert satisfied == set(w.satisfied), w.name


# -- 6: solver-backed decide/find against brute force --------------------------------

SAT_KINDS = ("gNec", "sNec", "gSuf", "sSuf", "cSuf", "featMin", "cardMin", "distMin", "distCap")
MEMBERSHIP_KINDS = SAT_KINDS[:5]
FIND_BUDGETS = {"sSuf": 0, "cSuf": 1, "gSuf": 1, "sNec": 1, "featMin": 1}


def _sample_candidates(rng, q):
    """A spread of membership candidates: subsets of x, novel, arbitrary."""
    x = q.instance
    return [
        PartialAssignment.empty(q.theory),
        x,
        complement_instance(x),
        random_subset_of(rng, x),
        random_novel(rng, x),
        random_assignment(rng, q.theory),
        random_assignment(rng, q.theory),
    ]


def _subsets_of_instance(x):
    """Every E with E ⊆ x: the complete candidate space for the necessity kinds."""
    idx = range(len(x.values))
    for keep in itertools.product((False, True), repeat=len(x.values)):
        yield PartialAssignment(
            x.theory, tuple(x.values[i] if keep[i] else None for i in idx)
        )


def _novel_assignments(x):
    """Every E sharing no literal with x (boolean domains): the complete
    candidate space for the flip-based kinds."""
    options = [(None, 1 - v) for v in x.values]
    for values in itertools.product(*options):
        yield PartialAssignment(x.theory, tuple(values))


def test_criterion_6():
    """decide agrees with brute-force membership on 200 random boolean
    formula classifiers of 3-12 features (>= 1,000 candidate pairs per kind),
    and find returns a verified member — or none exactly when the set is
    empty — within its advertised solver-call budget, in < 120 s."""
    t0 = monotonic()
    rng = random.Random(20260816)
    checks: Counter = Counter()
    queries = []
    for _ in range(200):
        n = rng.randint(3, 12)
        q = random_boolean_query(rng, n)
        queries.append(q)
        for e in _sample_candidates(rng, q):
            for kind in SAT_KINDS:
                got = decide_exp(kind, q, e)
                if kind in MEMBERSHIP_KINDS:
                    want = is_member(kind, q, e)
                else:
                    want = is_derived_member(kind, q, e)
                assert got == want, (kind, q.instance.render(), e.render())
                checks[kind] += 1
    assert all(checks[k] >= 1000 for k in SAT_KINDS), dict(checks)

    empty_seen: Counter = Counter()
    for q in queries:
        x = q.instance
        n = q.theory.n_features
        for kind in SAT_KINDS:
            oracle = SatOracle()
            got = find_exp(kind, q, oracle=oracle)
            if kind in FIND_BUDGETS:
                assert oracle.calls <= FIND_BUDGETS[kind], (kind, oracle.calls)
            elif kind == "gNec":
                assert oracle.calls <= n, (kind, oracle.calls)
            if got is not None:
                if kind in MEMBERSHIP_KINDS:
                    assert is_member(kind, q, got), (kind, got.render())
                else:
                    assert is_derived_member(kind, q, got), (kind, got.render())
                continue
            # none reported: verify emptiness over the complete candidate space
            empty_seen[kind] += 1
            if kind in ("gNec", "sNec"):
                assert not any(
                    is_member(kind, q, e) for e in _subsets_of_instance(x)
                ), kind
            elif kind == "gSuf":
                # a surjective classifier always has an opposite-class
                # instance, and every such instance belongs to gSuf
                assert not any(
                    q.classifier.classify(y) != q.label
                    for y in enumerate_instances(q.theory)
                ), "gSuf nonempty but find reported none"
            elif kind in ("sSuf", "cSuf"):
                assert not any(
                    is_member(kind, q, e) for e in _novel_assignments(x)
                ), kind
            else:
                assert not any(
                    is_derived_member(kind, q, e) for e in _novel_assignments(x)
                ), kind
    # both genuinely-empty branches must occur in the sample
    assert empty_seen["gNec"] > 0
    assert empty_seen["sSuf"] > 0

    elapsed = monotonic() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f}s"


# -- 7: byte-identical reports across repeated runs ----------------------------------


def _run_cli(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def test_criterion_7():
    """Repeated full-suite report runs produce byte-identical output."""
    for argv in (
        ["audit", "--builtin"],
        ["witness", "--all"],
        ["witness", "--compat"],
    ):
        code1, first = _run_cli(argv)
        code2, second = _run_cli(argv)
        assert code1 == code2 == 0, argv
        assert first == second, argv

    code, text = _run_cli(["audit", "--builtin"])
    report = json.loads(text)
    assert report["schema"] == 1
    assert report["mismatch_count"] == 0
    assert report["implication_breaks"] == []
    assert [p["explainer"] for p in report["profiles"]] == list(CORE_KINDS)


# The behavioural contract: these reports stay byte-identical across refactors.
CONTRACT_DIGESTS = {
    ("audit", "--builtin"): "7326930b3caab1154195e10c10da99ca66961c05584f1d7223f4e4be1a45ee84",
    ("witness", "--all"): "a0f8ffa1470588fd6b930b04eadf3851e5744b9a180e0d8b00299e1b8566fa26",
    ("witness", "--compat"): "d643611c9e97bf52d378e2825433bc2ebad3b6f4660fb9485210d6cf92f53e84",
}


def test_contract_digests_are_pinned():
    """The SHA-256 of each contract report's stdout is the pinned one."""
    for argv, digest in CONTRACT_DIGESTS.items():
        code, text = _run_cli(list(argv))
        assert code == 0, argv
        assert hashlib.sha256(text.encode()).hexdigest() == digest, argv
