"""table_query: CLI explain/decide and an in-session membership mix on tables.

Each round runs, on every table slot of ``inputs.TABLE_SLOTS``, a CLI
``explain`` for each of the slot's explain kinds (default cap), a CLI
``decide`` for each of its decide kinds, and, on the Query built once in
set-up, ``is_member``/``is_derived_member`` for all nine kinds over the
slot's seeded candidate mix, ``SESSION_PASSES`` times, spread between the
CLI calls.  No SAT and no audit run here.
"""

from __future__ import annotations

import json
import random
from functools import partial
from pathlib import Path

import inputs
import reference
from harness import FAILED, Span, interleave, read

CAP = 10_000
# The session's membership tests run this many times a round: most take
# well under a millisecond, and their latencies spread widely, so their
# medians need many samples.  Two passes make a round of about 10 s, so
# that a 25 s run makes three rounds at any machine speed within a fifth of
# the usual one.
SESSION_PASSES = 2
DERIVED = ("featMin", "cardMin", "distMin", "distCap")
# candidate roles per kind in the session, and for the CLI decide calls
FLIP_SELECTIONS = ("featMin", "cardMin", "distMin")
SESSION_ROLES = {kind: ("member", "flip" if kind in FLIP_SELECTIONS else "member", "other", "other")
                 for kind in reference.KINDS}


# The workload's own metrics: name -> (unit, category, operations, statistic).
METRICS = {
    "table_explain_s": ("s", "cli", ("cli.explain",), "median"),
    "table_explain_p90_s": ("s", "cli", ("cli.explain",), "p90"),
    "table_decide_s": ("s", "cli", ("cli.decide",), "median"),
    "table_session_per_s": ("1/s", "lib", ("session.member",), "rate"),
}


class State:
    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(f"table_query:{seed}")
        self.inputs = [inputs.make_table(rng, slot) for slot in inputs.TABLE_SLOTS]
        for inp in self.inputs:
            inputs.write_table(inp, workdir)
        self.seed = seed


def generate(seed: int, workdir: Path) -> State:
    return State(seed, workdir)


def load(state: State, program) -> None:
    """The session's Queries, read through the loaders, views built."""
    state.queries = [_load_query(program, inp) for inp in state.inputs]
    for q in state.queries:
        program.classifier.class_view(q.classifier)


def _load_query(program, inp):
    b = program.bundles
    theory = b.load_theory_text(read(inp.paths["theory"]))
    clf = b.load_classifier_text(read(inp.paths["classifier"]), theory,
                                 filename=str(inp.paths["classifier"]))
    x = b.load_instance_text(read(inp.paths["instance"]), theory)
    return program.classifier.Query(theory, clf, x)


def _draw(rng, oracle: reference.Oracle, kind: str, role: str, sizes):
    """A candidate in one of three roles: ``member`` of the kind's set,
    ``flip`` (a cSuf member outside the set, which makes is_derived_member
    compute the flips just as a member does), or ``other`` (neither).  Fixed
    roles keep the session's cost from swinging with the seed."""
    if role == "member":
        listed = oracle.listing(kind, CAP)[0]
        if listed:
            return rng.choice(listed)
    if role == "flip":
        flips = oracle.flips()
        for _ in range(200):
            e = rng.choice(flips)
            if not oracle.member(kind, e):
                return e
    for _ in range(200):
        e = inputs.random_assignment(rng, sizes)
        if not oracle.member(kind, e) and not oracle.is_flip(e):
            break
    return e


def prepare(state: State, run) -> None:
    """Reference answers for every operation of a round (not timed)."""
    rng = random.Random(f"table_query:candidates:{state.seed}")
    PA = run.program.theory.PartialAssignment
    state.explain, state.decide, state.session = [], [], []
    for inp, q in zip(state.inputs, state.queries):
        oracle = reference.Oracle(inp.table, inp.x)
        run.check(q.label == oracle.c, f"{inp.name}: label {q.label} != {oracle.c}")
        for kind in inp.explain_kinds:
            listed, truncated = oracle.listing(kind, CAP)
            want = {"kind": kind, "count": len(listed), "truncated": truncated,
                    "explanations": [inputs.literal_dict(inp, e) for e in listed]}
            state.explain.append((inp, kind, want))
        for j, kind in enumerate(inp.decide_kinds):
            role = "member" if j % 2 == 0 else "flip" if kind in FLIP_SELECTIONS else "other"
            e = _draw(rng, oracle, kind, role, inp.sizes)
            state.decide.append((inp, kind, json.dumps(inputs.literal_dict(inp, e)),
                                 oracle.member(kind, e)))
        for kind in reference.KINDS:
            for role in SESSION_ROLES[kind]:
                e = _draw(rng, oracle, kind, role, inp.sizes)
                state.session.append((inp.name, q, kind, PA(q.theory, e), oracle.member(kind, e)))


def _argv(command: str, inp, kind: str) -> list[str]:
    return [command, "--theory", str(inp.paths["theory"]),
            "--classifier", str(inp.paths["classifier"]),
            "--instance", str(inp.paths["instance"]), "--kind", kind]


def _membership(program, kind: str):
    if kind in DERIVED:
        return program.derived.is_derived_member
    return program.explain.is_member


def cli_round(state: State, run) -> None:
    """The CLI calls, with the session's passes spread between them."""
    program = run.program

    def explain(i, inp, kind, want):
        out, dt = run.cli_call("cli.explain", _argv("explain", inp, kind))
        if out is not None:
            run.sample("cli", "cli.explain", ("explain", i), dt)
            run.check(json.loads(out) == want, f"explain {kind} on {inp.name}")

    def decide(i, inp, kind, candidate, want):
        out, dt = run.cli_call("cli.decide", _argv("decide", inp, kind) + ["--explanation", candidate])
        if out is not None:
            run.sample("cli", "cli.decide", ("decide", i), dt)
            run.check(json.loads(out)["member"] == want, f"decide {kind} {candidate} on {inp.name}")

    def member(i, name, q, kind, e, want):
        fn = _membership(program, kind)
        got, dt = run.call("session.member", lambda: fn(kind, q, e))
        if got is not FAILED:
            run.sample("lib", "session.member", ("member", i), dt)
            run.check(got == want, f"session {kind} {e.values} on {name}")

    anchors = [partial(explain, i, *op) for i, op in enumerate(state.explain)]
    anchors += [partial(decide, i, *op) for i, op in enumerate(state.decide)]
    fillers = [partial(member, i, *op) for i, op in enumerate(state.session)]
    for call in interleave(anchors, fillers * SESSION_PASSES):
        call()


def replay_round(state: State, run) -> None:
    """The same operations, one public call per layer, each in a span."""
    program, tracer = run.program, run.tracer
    b, c = program.bundles, program.classifier

    def ingest(inp, candidate=None):
        with Span(tracer, "bundles.load"):
            theory = b.load_theory_text(read(inp.paths["theory"]))
            clf = b.load_classifier_text(read(inp.paths["classifier"]), theory,
                                         filename=str(inp.paths["classifier"]))
            x = b.load_instance_text(read(inp.paths["instance"]), theory)
            e = None if candidate is None else program.theory.PartialAssignment.from_dict(
                theory, json.loads(candidate))
        tracer.count("bundles.rows", inp.table.rows)
        with Span(tracer, "classifier.query"):
            q = c.Query(theory, clf, x)
        with Span(tracer, "classifier.view_build"):
            c.class_view(clf)
        return q, e

    def explain(inp, kind):
        q, _ = ingest(inp)
        layer = "derived" if kind in DERIVED else "explain"
        with Span(tracer, f"{layer}.{kind}"):
            result = _listing(program, kind, q)
        tracer.count("explain.listed", result.count)
        with Span(tracer, "cli.render"):
            return json.dumps(result.to_json_dict(), sort_keys=True, indent=2)

    def decide(inp, kind, candidate):
        q, e = ingest(inp, candidate)
        layer = "derived" if kind in DERIVED else "explain"
        with Span(tracer, f"{layer}.is_member"):
            member = _membership(program, kind)(kind, q, e)
        with Span(tracer, "cli.render"):
            return json.dumps({"kind": kind, "explanation": e.to_dict(), "member": member},
                              sort_keys=True, indent=2)

    for inp, kind, want in state.explain:
        out = run.call("cli.explain", lambda: explain(inp, kind))[0]
        if out is not FAILED:
            run.check(json.loads(out) == want, f"replayed explain {kind} on {inp.name}")
    for inp, kind, candidate, want in state.decide:
        out = run.call("cli.decide", lambda: decide(inp, kind, candidate))[0]
        if out is not FAILED:
            run.check(json.loads(out)["member"] == want, f"replayed decide {kind} on {inp.name}")
    for q in state.queries:
        with Span(tracer, "classifier.core"):
            c.core_literals(q.classifier, q.label, method="scan")
        with Span(tracer, "theory.walk"):
            walked = sum(1 for _ in program.theory.novel_assignments(q.instance))
        tracer.count("theory.assignments", walked)
    for name, q, kind, e, want in state.session:
        layer = "derived" if kind in DERIVED else "explain"

        def member():
            with Span(tracer, f"{layer}.is_member"):
                return _membership(program, kind)(kind, q, e)

        got = run.call("session.member", member)[0]
        if got is not FAILED:
            run.check(got == want, f"replayed session {kind} {e.values} on {name}")


def _listing(program, kind: str, q):
    d = program.derived
    if kind == "featMin":
        return d.feat_min(q, cap=CAP)
    if kind == "cardMin":
        return d.card_min(q, cap=CAP)
    if kind == "distMin":
        return d.dist_min(q, distance=d.hamming, cap=CAP)
    if kind == "distCap":
        return d.dist_cap(q, distance=d.hamming, cap=CAP)
    return program.explain.generate(kind, q, cap=CAP)
