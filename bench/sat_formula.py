"""sat_formula: SAT-backed decide/find on boolean formula classifiers.

Each round runs, on every formula of ``inputs.FORMULA_SLOTS``, a CLI
``find`` for each of its CLI find kinds and a CLI ``decide`` for each of its
CLI decide kinds (on one of three candidates: x's complement, a part of x,
the flip ``find cSuf`` returned), both with ``--count-oracle-calls``; every
CLI call re-parses the formula and rebuilds the classifier.  Between these
calls, spread over the round, a library session on the Queries built once
in set-up calls ``find_exp`` and ``decide_exp`` (on all three candidates)
for each formula's session kinds.  Last come the kept-fault operations:
CLI ``find`` on the wide CNFs and on the long rule list, which fail today.
"""

from __future__ import annotations

import json
import random
from functools import partial
from pathlib import Path

import inputs
import reference
from harness import FAILED, Span, interleave, read

KINDS = reference.KINDS
FAULT_KINDS = ("cSuf", "sNec", "sSuf")


# The workload's own metrics: name -> (unit, category, operations, statistic).
METRICS = {
    "sat_cli_s": ("s", "cli", ("cli.find", "cli.decide"), "median"),
    "sat_session_s": ("s", "lib", ("session.find", "session.decide"), "median"),
    "sat_session_p90_s": ("s", "lib", ("session.find", "session.decide"), "p90"),
    "sat_session_per_s": ("1/s", "lib", ("session.find", "session.decide"), "rate"),
}


class State:
    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(f"sat_formula:{seed}")
        self.inputs = [inputs.make_formula(rng, slot, copy)
                       for slot in inputs.FORMULA_SLOTS for copy in range(slot[4])]
        self.faults = inputs.fault_inputs()
        for inp in self.inputs + self.faults:
            inputs.write_formula(inp, workdir)
        self.seed = seed


def generate(seed: int, workdir: Path) -> State:
    return State(seed, workdir)


def load(state: State, program) -> None:
    """The session's Queries, read through the loaders."""
    b = program.bundles
    state.queries = []
    for inp in state.inputs:
        theory = b.load_theory_text(read(inp.paths["theory"]))
        clf = b.load_classifier_text(read(inp.paths["classifier"]), theory,
                                     filename=str(inp.paths["classifier"]))
        x = b.load_instance_text(read(inp.paths["instance"]), theory)
        state.queries.append(program.classifier.Query(theory, clf, x))


def find_budget(kind: str, n: int) -> int:
    """Documented oracle-call budgets of ``find_exp``; cardMin, distMin and
    distCap deepen one flip size per call, so at most n calls."""
    if kind == "sSuf":
        return 0
    if kind in ("sNec", "gSuf", "cSuf", "featMin"):
        return 1
    return n


def decide_budget(kind: str, e) -> int:
    """``decide_exp`` makes at most one call, gNec one per literal of E."""
    return reference.size(e) if kind == "gNec" else 1


class Checker:
    """Reference answers for one formula: from its truth table when it has
    one, else (wide formulas) by evaluating the formula at single instances,
    which settles cSuf, sNec and sSuf for boolean features."""

    def __init__(self, inp):
        self.inp = inp
        self.oracle = None if inp.table is None else reference.Oracle(inp.table, inp.x)

    def member(self, kind: str, e) -> bool:
        if self.oracle is not None:
            return self.oracle.member(kind, e)
        x, truth = self.inp.x, self.inp.truth
        if kind == "cSuf":
            return reference.size(e) > 0 and reference.disjoint(e, x) and \
                truth(reference.overwrite(x, e)) != truth(x)
        if kind == "sNec":
            flipped = tuple(1 - v if ev is not None else v for v, ev in zip(x, e))
            return reference.size(e) > 0 and reference.subset(e, x) and truth(flipped) != truth(x)
        if kind == "sSuf" and reference.size(e) == len(x):
            return reference.disjoint(e, x) and truth(e) != truth(x)
        raise ValueError(f"cannot check {kind} without a truth table")

    def empty(self, kind: str) -> bool:
        """Is the kind's explanation set empty?  gNec: the class core is
        empty.  sSuf: no instance disagreeing with x on every feature leaves
        the class (each member extends to one, and such an instance is a
        member).  Every other kind is nonempty once another class exists."""
        x, truth = self.inp.x, self.inp.truth
        if kind == "sSuf":
            return truth(tuple(1 - v for v in x)) == truth(x)
        if kind == "gNec":
            return reference.size(self.oracle.t.core(self.oracle.c)) == 0
        return False


def _values(inp, mapping):
    if mapping is None:
        return None
    e = [None] * inp.n
    for f, v in mapping.items():
        e[int(f[1:])] = int(v)
    return tuple(e)


def check_find(run, checker, kind, found, calls, label) -> None:
    inp = checker.inp
    if found is None:
        run.check(checker.empty(kind), f"{label}: find {kind} found none on {inp.name}")
    else:
        run.check(checker.member(kind, found), f"{label}: find {kind} {found} on {inp.name}")
    run.check(calls <= find_budget(kind, inp.n), f"{label}: find {kind} made {calls} calls")


def prepare(state: State, run) -> None:
    """Reference answers and the three decide candidates (not timed)."""
    rng = random.Random(f"sat_formula:candidates:{state.seed}")
    sat = run.program.sat
    state.checkers, state.candidates = [], []
    for inp, q in zip(state.inputs, state.queries):
        checker = Checker(inp)
        run.check(q.label == checker.oracle.c, f"{inp.name}: label {q.label} != {checker.oracle.c}")
        flip = sat.find_exp("cSuf", q)
        run.check(flip is not None and checker.member("cSuf", flip.values), f"{inp.name}: cSuf flip")
        part = tuple(v if rng.random() < 0.5 else None for v in inp.x)
        if reference.size(part) == 0:
            part = (inp.x[0],) + (None,) * (inp.n - 1)
        complement = tuple(1 - v for v in inp.x)
        candidates = [complement, part, flip.values]
        kinds = set(inp.session_kinds) | set(inp.decide_kinds)
        expected = {(kind, i): checker.member(kind, e)
                    for kind in kinds for i, e in enumerate(candidates)}
        PA = run.program.theory.PartialAssignment
        state.checkers.append(checker)
        state.candidates.append(([PA(q.theory, e) for e in candidates], candidates, expected))
    state.fault_checkers = [Checker(inp) for inp in state.faults]


def _fault_op(inp) -> str:
    return "cli.find.long" if inp.table is not None else "cli.find.wide"


def _argv(command: str, inp, kind: str) -> list[str]:
    return [command, "--theory", str(inp.paths["theory"]),
            "--classifier", str(inp.paths["classifier"]),
            "--instance", str(inp.paths["instance"]), "--kind", kind,
            "--count-oracle-calls"]


def cli_round(state: State, run) -> None:
    """The CLI calls with the library session's calls spread between them,
    then the kept-fault operations.  Spreading the session over the round
    puts both kinds of call in many time windows, so that a slow spell of
    the machine hits few of either."""
    sat = run.program.sat

    def find(j, inp, checker, kind):
        out, dt = run.cli_call("cli.find", _argv("find", inp, kind))
        if out is not None:
            run.sample("cli", "cli.find", ("find", j, kind), dt)
            payload = json.loads(out)
            check_find(run, checker, kind, _values(inp, payload["explanation"]),
                       payload["oracle_calls"], "cli")

    def decide(j, inp, kind, i, candidate, want):
        text = json.dumps(inputs.literal_dict(inp, candidate))
        out, dt = run.cli_call("cli.decide", _argv("decide", inp, kind) + ["--explanation", text])
        if out is not None:
            run.sample("cli", "cli.decide", ("decide", j, kind), dt)
            payload = json.loads(out)
            run.check(payload["member"] == want, f"cli decide {kind} {text} on {inp.name}")
            run.check(payload["oracle_calls"] <= decide_budget(kind, candidate),
                      f"cli decide {kind} made {payload['oracle_calls']} calls")

    def session_find(j, q, checker, kind):
        oracle = sat.SatOracle()
        found, dt = run.call("session.find", lambda: sat.find_exp(kind, q, oracle=oracle))
        if found is not FAILED:
            run.sample("lib", "session.find", ("find", j, kind), dt)
            check_find(run, checker, kind, None if found is None else found.values,
                       oracle.calls, "session")

    def session_decide(j, q, name, kind, i, e, candidate, want):
        oracle = sat.SatOracle()
        member, dt = run.call("session.decide", lambda: sat.decide_exp(kind, q, e, oracle=oracle))
        if member is not FAILED:
            run.sample("lib", "session.decide", ("decide", j, kind, i), dt)
            run.check(member == want, f"session decide {kind} {e.values} on {name}")
            run.check(oracle.calls <= decide_budget(kind, candidate),
                      f"session decide {kind} made {oracle.calls} calls")

    anchors, fillers = [], []
    for j, (inp, q, checker, (objects, candidates, expected)) in enumerate(zip(
            state.inputs, state.queries, state.checkers, state.candidates)):
        anchors += [partial(find, j, inp, checker, kind) for kind in inp.find_kinds]
        for kind in inp.decide_kinds:
            i = KINDS.index(kind) % len(candidates)
            anchors.append(partial(decide, j, inp, kind, i, candidates[i], expected[(kind, i)]))
        fillers += [partial(session_find, j, q, checker, kind) for kind in inp.session_kinds]
        fillers += [partial(session_decide, j, q, inp.name, kind, i, e, candidates[i], expected[(kind, i)])
                    for kind in inp.session_kinds for i, e in enumerate(objects)]
    for call in interleave(anchors, fillers):
        call()
    for inp, checker in zip(state.faults, state.fault_checkers):
        for kind in FAULT_KINDS:
            out, dt = run.cli_call(_fault_op(inp), _argv("find", inp, kind))
            if out is not None:
                run.fault_ok.append(dt)
                payload = json.loads(out)
                check_find(run, checker, kind, _values(inp, payload["explanation"]),
                           payload["oracle_calls"], "fault")


class TimedBackend:
    """The built-in solver, each solve in a span, with its clauses and
    variables counted."""

    def __init__(self, backend, tracer):
        self.backend, self.tracer = backend, tracer

    def solve(self, clauses, n_vars):
        self.tracer.count("sat.oracle_calls")
        self.tracer.count("sat.clauses", len(clauses))
        self.tracer.count("sat.vars", n_vars)
        with Span(self.tracer, "sat.solve"):
            return self.backend.solve(clauses, n_vars)


def replay_round(state: State, run) -> None:
    """The same operations, one public call per layer, each in a span."""
    program, tracer = run.program, run.tracer
    b, c, f, sat = program.bundles, program.classifier, program.formulas, program.sat

    def oracle():
        return sat.SatOracle(TimedBackend(sat.DpllBackend(), tracer))

    def ingest(inp, candidate=None):
        with Span(tracer, "bundles.load"):
            theory = b.load_theory_text(read(inp.paths["theory"]))
            header, body = read(inp.paths["classifier"]).split("\n", 1)
        with Span(tracer, "formulas.parse"):
            formula = f.parse_formula(body)
        true, false = header.split(":", 1)[1].strip().split(",")
        with Span(tracer, "classifier.surjectivity"):
            clf = c.FormulaClassifier(theory, formula, true, false)
        with Span(tracer, "bundles.load"):
            x = b.load_instance_text(read(inp.paths["instance"]), theory)
            e = None if candidate is None else program.theory.PartialAssignment.from_dict(
                theory, json.loads(candidate))
        with Span(tracer, "classifier.query"):
            q = c.Query(theory, clf, x)
        return q, e

    def find(inp, kind):
        q, _ = ingest(inp)
        o = oracle()
        with Span(tracer, "sat.find"):
            found = sat.find_exp(kind, q, oracle=o)
        with Span(tracer, "cli.render"):
            payload = {"kind": kind, "found": found is not None, "oracle_calls": o.calls,
                       "explanation": None if found is None else found.to_dict()}
            return json.dumps(payload, sort_keys=True, indent=2)

    def decide(inp, kind, text):
        q, e = ingest(inp, text)
        o = oracle()
        with Span(tracer, "sat.decide"):
            member = sat.decide_exp(kind, q, e, oracle=o)
        with Span(tracer, "cli.render"):
            payload = {"kind": kind, "explanation": e.to_dict(), "member": member,
                       "oracle_calls": o.calls}
            return json.dumps(payload, sort_keys=True, indent=2)

    for inp, q, checker, (objects, candidates, expected) in zip(
            state.inputs, state.queries, state.checkers, state.candidates):
        with Span(tracer, "formulas.tseitin"):
            for label in (q.classifier.class_if_true, q.classifier.class_if_false):
                clauses, _ = sat.encode_formula(q.theory, sat.class_indicator(q.classifier, label))
                tracer.count("formulas.clauses", len(clauses))
        for kind in inp.find_kinds:
            out = run.call("cli.find", lambda: find(inp, kind))[0]
            if out is not FAILED:
                payload = json.loads(out)
                check_find(run, checker, kind, _values(inp, payload["explanation"]),
                           payload["oracle_calls"], "replayed cli")
        for kind in inp.decide_kinds:
            i = KINDS.index(kind) % len(candidates)
            text = json.dumps(inputs.literal_dict(inp, candidates[i]))
            out = run.call("cli.decide", lambda: decide(inp, kind, text))[0]
            if out is not FAILED:
                run.check(json.loads(out)["member"] == expected[(kind, i)],
                          f"replayed cli decide {kind} on {inp.name}")
        for kind in inp.session_kinds:
            o = oracle()

            def session_find():
                with Span(tracer, "sat.find"):
                    return sat.find_exp(kind, q, oracle=o)

            found = run.call("session.find", session_find)[0]
            if found is not FAILED:
                check_find(run, checker, kind, None if found is None else found.values,
                           o.calls, "replayed session")
        for kind in inp.session_kinds:
            for i, e in enumerate(objects):
                o = oracle()

                def session_decide():
                    with Span(tracer, "sat.decide"):
                        return sat.decide_exp(kind, q, e, oracle=o)

                member = run.call("session.decide", session_decide)[0]
                if member is not FAILED:
                    run.check(member == expected[(kind, i)], f"replayed session decide {kind} on {inp.name}")
    for inp, checker in zip(state.faults, state.fault_checkers):
        for kind in FAULT_KINDS:
            out, dt = run.call(_fault_op(inp), lambda: find(inp, kind))
            if out is not FAILED:
                run.fault_ok.append(dt)
                payload = json.loads(out)
                check_find(run, checker, kind, _values(inp, payload["explanation"]),
                           payload["oracle_calls"], "replayed fault")
