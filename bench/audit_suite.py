"""audit_suite: the built-in audit, the witnesses and the ranking pass.

Each round runs ``audit --builtin --budget 0`` with every registered
explainer and ``witness --compat --budget 0`` through the CLI.  Between them
run ``witness --all`` and the ranking pass, each several times: for each
probe query of a seeded sample of the generated probes, ``faithful_max``
under the three weighting-induced rankings plus ``is_faithful``.  Tens of
thousands of tiny 2-feature queries, no file ingest, no formula, no SAT.
"""

from __future__ import annotations

import itertools
import json
import random
from functools import partial
from pathlib import Path

import reference
from harness import FAILED, Span, interleave

# The ranking pass takes about RANK_SAMPLE probe queries, drawn from each
# domain-size regime in proportion to its share of the probes, so every
# seed ranks the same mix.  Each round makes the pass RANK_PASSES times and
# `witness --all` WITNESS_REPEATS times: these calls take milliseconds, and
# their latencies spread widely, so their medians need many samples.  The
# passes take nearly as long as the audit and compat calls together (some
# 10 s a round), so that the ranking latencies cover much of the run, not a
# few short stretches of it.  A round takes about 18 s, so a 25 s run makes
# two rounds at any machine speed within a quarter of the usual one.
RANK_SAMPLE = 120
RANK_PASSES = 24
WITNESS_REPEATS = 20
REGIMES = ((2, 2), (2, 3), (3, 2), (3, 3))
PROBE_COUNT = 5390
WITNESS_IDS = ("I1", "I2", "I3", "I4", "I5", "I6", "I7")
COMPAT_COUNT = 5
LAYER = {k: "explain" for k in reference.CORE_KINDS}
LAYER.update({k: "derived" for k in ("featMin", "cardMin", "distMin")})


# The workload's own metrics: name -> (unit, category, operations, statistic).
METRICS = {
    "audit_pairs_per_s": ("1/s", "cli", ("cli.audit", "cli.compat"), "rate"),
    "rank_queries_per_s": ("1/s", "lib", ("session.rank",), "rate"),
}


class State:
    def __init__(self, seed: int):
        rng = random.Random(f"audit_suite:{seed}")
        self.indices, start = [], 0
        for sizes in REGIMES:
            rows = sizes[0] * sizes[1]
            count = ((1 << rows) - 2) * rows
            take = round(count * RANK_SAMPLE / PROBE_COUNT)
            self.indices += sorted(rng.sample(range(start, start + count), take))
            start += count


def generate(seed: int, workdir: Path) -> State:
    return State(seed)


def load(state: State, program) -> None:
    """The built-in suite's size, the sampled probe queries, their views."""
    a = program.audit
    state.names = list(a.EXPLAINERS)
    state.suite_size = len(a.builtin_suite(budget=0).queries)
    probes = a.generated_probe_queries()
    state.sample = [probes[i] for i in state.indices]
    for q in state.sample:
        program.classifier.class_view(q.classifier)


def probe_regime():
    """(sizes, labels, instance rank) of every probe query, in order: every
    two-class table on two features with domains of size 2 or 3 that uses
    both classes, at every instance."""
    for sizes in REGIMES:
        rows = sizes[0] * sizes[1]
        for pattern in range(1, (1 << rows) - 1):
            labels = ["c1" if (pattern >> r) & 1 else "c0" for r in range(rows)]
            for r in range(rows):
                yield sizes, labels, r


def prepare(state: State, run) -> None:
    wanted = set(state.indices)
    expected = {}
    for i, (sizes, labels, r) in enumerate(probe_regime()):
        if i in wanted:
            table = reference.Table.from_labels(sizes, labels)
            expected[i] = (labels, reference.Oracle(table, table.instance(r)))
    run.check(sum(1 for _ in probe_regime()) == PROBE_COUNT, "probe regime size")
    state.expected = []
    for i, q in zip(state.indices, state.sample):
        labels, oracle = expected[i]
        run.check(list(q.classifier.table) == labels and q.instance.values == oracle.x,
                  f"probe query {i} differs from the probe regime")
        state.expected.append(tuple(oracle.listing(k)[0] for k in ("featMin", "cardMin", "distMin")))


def audit_argv(names) -> list[str]:
    argv = ["audit", "--builtin", "--budget", "0"]
    for name in names:
        argv += ["--explainer", name]
    return argv


# -- checks -----------------------------------------------------------------------


def _assignment(features, domains, mapping):
    if mapping is None:
        return None
    values = [None] * len(features)
    for f, v in mapping.items():
        i = features.index(f)
        values[i] = domains[i].index(v)
    return tuple(values)


def _counterexample_violates(axiom: str, explainer: str, cx: dict) -> bool:
    q = cx["query"]
    features = [f["name"] for f in q["theory"]["features"]]
    domains = [f["domain"] for f in q["theory"]["features"]]
    sizes = [len(d) for d in domains]
    table_rows = {}
    for row in q["classifier"]["rows"]:
        table_rows[_assignment(features, domains, row["instance"])] = row["class"]
    labels = [table_rows[x] for x in itertools.product(*(range(d) for d in sizes))]
    table = reference.Table.from_labels(sizes, labels)
    oracle = reference.Oracle(table, _assignment(features, domains, q["instance"]))
    other = None
    other_output = ()
    if "other_instance" in cx:
        other = reference.Oracle(table, _assignment(features, domains, cx["other_instance"]))
        other_output = other.explainer_output(explainer)
    return reference.violates(
        axiom, oracle, oracle.explainer_output(explainer),
        _assignment(features, domains, cx["explanation"]),
        _assignment(features, domains, cx["witness"]),
        other, other_output,
    )


def check_audit(run, report: dict, names, suite_size: int, label: str) -> None:
    run.check(report["mismatch_count"] == 0, f"{label}: mismatch_count {report['mismatch_count']}")
    run.check(report["implication_breaks"] == [], f"{label}: implication breaks")
    run.check(report["query_count"] == suite_size, f"{label}: query_count {report['query_count']}")
    run.check([p["explainer"] for p in report["profiles"]] == list(names), f"{label}: profiles")
    for profile in report["profiles"]:
        for verdict in profile["verdicts"]:
            cx = verdict.get("counterexample")
            if cx is not None:
                run.check(_counterexample_violates(verdict["axiom"], profile["explainer"], cx),
                          f"{label}: {profile['explainer']} {verdict['axiom']} counterexample")


def check_compat(run, report: dict, label: str) -> None:
    rows = report["witnesses"]
    run.check(len(rows) == COMPAT_COUNT and all(r["mismatches"] == [] for r in rows),
              f"{label}: compatibility witnesses")


def check_witnesses(run, report: dict, label: str) -> None:
    rows = report["witnesses"]
    run.check([r["id"] for r in rows] == list(WITNESS_IDS) and all(r["confirmed"] for r in rows),
              f"{label}: impossibility witnesses")


def check_ranking(run, got, want, index: int) -> None:
    results, faithful = got
    for result, listed, kind in zip(results, want, ("featMin", "cardMin", "distMin")):
        run.check([e.values for e in result.explanations] == listed,
                  f"faithful_max for {kind} on probe {index}")
    run.check(faithful, f"is_faithful on probe {index}")


# -- rounds -----------------------------------------------------------------------


def _rankings(d, q):
    return (
        d.ranking_from_weighting(d.indicator_weighting(q), "delta-feature-refined"),
        d.ranking_from_weighting(d.size_weighting(q)),
        d.ranking_from_weighting(d.distance_weighting(q)),
    )


def _featmin_ranking(d):
    return lambda qq: d.ranking_from_weighting(d.indicator_weighting(qq), "delta-feature-refined")


def cli_round(state: State, run) -> None:
    """The CLI calls, with the repeats of ``witness --all`` and of the
    ranking pass spread between them, so that the short calls fall in many
    time windows of the round."""
    d = run.program.derived

    def audit_call():
        out, dt = run.cli_call("cli.audit", audit_argv(state.names))
        if out is not None:
            run.sample("cli", "cli.audit", "audit", dt, len(state.names) * state.suite_size)
            check_audit(run, json.loads(out), state.names, state.suite_size, "audit")

    def compat_call():
        out, dt = run.cli_call("cli.compat", ["witness", "--compat", "--budget", "0"])
        if out is not None:
            run.sample("cli", "cli.compat", "compat", dt, COMPAT_COUNT * state.suite_size)
            check_compat(run, json.loads(out), "compat")

    def witness_call():
        out, dt = run.cli_call("cli.witness", ["witness", "--all"])
        if out is not None:
            run.sample("cli", "cli.witness", "witness", dt, 0)
            check_witnesses(run, json.loads(out), "witness")

    def rank_call(i, q, want):
        got, dt = run.call("session.rank", lambda: _rank(d, q))
        if got is not FAILED:
            run.sample("lib", "session.rank", i, dt)
            check_ranking(run, got, want, i)

    ranks = [partial(rank_call, *op) for op in zip(state.indices, state.sample, state.expected)]
    short = interleave([witness_call] * WITNESS_REPEATS, ranks * RANK_PASSES)
    for call in interleave([audit_call, compat_call], short):
        call()


def _rank(d, q):
    results = [d.faithful_max(q, r) for r in _rankings(d, q)]
    return results, d.is_faithful(_featmin_ranking(d), q).ok


def replay_round(state: State, run) -> None:
    """The same operations, one public call per layer, each in a span."""
    program, tracer = run.program, run.tracer
    a, d = program.audit, program.derived

    def traced(name, explainer):
        span = f"{LAYER.get(name, 'audit')}.{name}"

        def call(q):
            index = tracer.begin(span)
            try:
                out = explainer(q)
            finally:
                tracer.end(index)
            tracer.count("explain.listed", out.count)
            return out

        return call

    def suite():
        with Span(tracer, "audit.suite_build"):
            s = a.builtin_suite(budget=0, seed=0)
        with Span(tracer, "classifier.view_build"):
            for q in s.queries:
                program.classifier.class_view(q.classifier)
        return s

    def audit_op():
        s = suite()
        profiles = []
        for name in state.names:
            with Span(tracer, "audit.audit"):
                profiles.append(a.audit(traced(name, a.EXPLAINERS[name]), s.queries,
                                        name=name, suite_name=s.name))
        tracer.count("audit.pairs", len(state.names) * len(s.queries))
        with Span(tracer, "cli.render"):
            breaks = [f"{p.explainer}: {b}" for p in profiles for b in a.profile_inconsistencies(p)]
            report = {
                "schema": 1, "suite": s.name, "query_count": len(s.queries),
                "profiles": [p.to_json_dict() for p in profiles],
                "mismatch_count": sum(len(p.mismatches()) for p in profiles),
                "implication_breaks": breaks,
            }
            return json.dumps(report, sort_keys=True, indent=2)

    def compat_op():
        s = suite()
        rows = []
        for w in a.compatibility_witnesses():
            with Span(tracer, "audit.audit"):
                profile = a.audit(traced(w.name, w.explainer), s.queries, name=w.name,
                                  suite_name=s.name, expected=w.expected_profile())
            rows.append((w, profile))
        tracer.count("audit.pairs", len(rows) * len(s.queries))
        with Span(tracer, "cli.render"):
            report = {"schema": 1, "suite": s.name, "witnesses": [
                {"name": w.name, "satisfied": sorted(w.satisfied), "mismatches": list(p.mismatches())}
                for w, p in rows]}
            return json.dumps(report, sort_keys=True, indent=2)

    def witness_op():
        with Span(tracer, "audit.witness"):
            checked = []
            for set_id in sorted(a.IMPOSSIBILITY_SETS):
                w = a.impossibility_witness(set_id)
                checked.append((w, *a.check_impossibility(w)))
        with Span(tracer, "cli.render"):
            rows = []
            for w, confirmed, trace in checked:
                row = w.to_json_dict()
                row["confirmed"] = confirmed
                row["trace"] = trace
                rows.append(row)
            return json.dumps({"schema": 1, "witnesses": rows}, sort_keys=True, indent=2)

    def rank_op(q):
        results = []
        for r in _rankings(d, q):
            with Span(tracer, "derived.faithful_max"):
                results.append(d.faithful_max(q, r))
        with Span(tracer, "derived.is_faithful"):
            faithful = d.is_faithful(_featmin_ranking(d), q).ok
        return results, faithful

    out = run.call("cli.audit", audit_op)[0]
    if out is not FAILED:
        check_audit(run, json.loads(out), state.names, state.suite_size, "replayed audit")
    out = run.call("cli.compat", compat_op)[0]
    if out is not FAILED:
        check_compat(run, json.loads(out), "replayed compat")
    out = run.call("cli.witness", witness_op)[0]
    if out is not FAILED:
        check_witnesses(run, json.loads(out), "replayed witness")
    for i, q, want in zip(state.indices, state.sample, state.expected):
        got = run.call("session.rank", lambda: rank_op(q))[0]
        if got is not FAILED:
            check_ranking(run, got, want, i)
