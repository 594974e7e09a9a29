"""Axiom checking, explainer auditing, and (in)compatibility witnesses.

Nine executable axioms score an explainer over a finite query suite.  A
verdict is either "no-violation-found" — over that suite, never a proof — or
"violated" with a replayable counterexample (query, offending explanation,
witness instance).  ``audit`` produces the full per-axiom profile and, for
the built-in explainers, compares it against the expected pattern.

Seven axioms judge each offered explanation on its own query, by the tests
that membership asks too (``explain.AXIOM_TESTS``); ``_violation`` turns a
failed test into its witness and detail.  Verdicts come from one pass
(``_first_violations``): queries in suite order, each output in its order,
keeping the first counterexample per axiom.  Success looks at whole outputs
and Equivalence at same-class query pairs.

``classify_family`` detects "always a subset of <family>" tags two ways —
direct set inclusion against the enumeration oracles, and the family's
axioms (``explain.FAMILY_AXIOMS``, which define membership) — so the two
routes can be cross-validated.

``impossibility_witness`` returns concrete constructions on which certain
axiom sets cannot be satisfied together by any explanation set.
``check_impossibility`` confirms a set when no assignment passes every
per-explanation axiom of the set on every witness query, and a witness pair
is same-class under an Equivalence of the set.  ``compatibility_witnesses``
are explainers realizing specific axiom subsets.
"""

from __future__ import annotations

import json
import os
import selectors
import subprocess
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from .bundles import load_bundle
from .classifier import (
    Query,
    TableClassifier,
    class_view,
    core_literals,
    ranks_in,
)
from .derived import card_min, dist_min, feat_min
from .explain import (
    AXIOM_TESTS,
    CORE_KINDS,
    FAMILY_AXIOMS,
    ExplanationSet,
    c_suf,
    explanation_set_from_json,
    g_nec,
    g_suf,
    generate,
    s_nec,
    s_suf,
)
from .theory import (
    PartialAssignment,
    Theory,
    enumerate_instances,
    enumerate_partial_assignments,
    instance_of_rank,
    validate_theory,
)

AXIOMS = (
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

Explainer = Callable[[Query], ExplanationSet]


class ExternalExplainerFailure(RuntimeError):
    """The external explainer broke the line-JSON protocol."""


# -- verdicts --------------------------------------------------------------------


@dataclass(frozen=True)
class Counterexample:
    """A replayable axiom violation."""

    query: Query
    explanation: Optional[PartialAssignment] = None
    witness: Optional[PartialAssignment] = None
    other_query: Optional[Query] = None
    detail: str = ""

    def queries(self) -> tuple[Query, ...]:
        if self.other_query is not None:
            return (self.query, self.other_query)
        return (self.query,)

    def to_json_dict(self) -> dict:
        out: dict = {
            "query": self.query.to_json_dict(),
            "detail": self.detail,
        }
        out["explanation"] = (
            None if self.explanation is None else self.explanation.to_dict()
        )
        out["witness"] = None if self.witness is None else self.witness.to_dict()
        if self.other_query is not None:
            out["other_instance"] = self.other_query.instance.to_dict()
        return out


@dataclass(frozen=True)
class Verdict:
    axiom: str
    violated: bool
    counterexample: Optional[Counterexample] = None

    @property
    def ok(self) -> bool:
        return not self.violated

    def summary(self) -> str:
        return "violated" if self.violated else "no-violation-found"

    def to_json_dict(self) -> dict:
        out: dict = {"axiom": self.axiom, "verdict": self.summary()}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample.to_json_dict()
        return out


# -- axiom checks ----------------------------------------------------------------


def _outputs(
    explainer: Explainer, suite: Sequence[Query]
) -> dict[Query, ExplanationSet]:
    return {q: explainer(q) for q in suite}


def _equivalence_key(q: Query) -> tuple:
    # identify the classification function extensionally, not by object
    view = class_view(q.classifier)
    table = tuple(view.class_mask(c) for c in q.theory.classes)
    return (q.theory, table, q.label)


def _check_equivalence(outputs) -> Optional[Counterexample]:
    # pairs must share the classification function and the class; equality
    # is transitive, so each query is compared with its group's first
    groups: dict[tuple, list[Query]] = {}
    for q in outputs:
        groups.setdefault(_equivalence_key(q), []).append(q)
    for first, *rest in groups.values():
        s1 = outputs[first].assignments()
        for q2 in rest:
            s2 = outputs[q2].assignments()
            if s1 != s2:
                return Counterexample(
                    first,
                    min(s1 ^ s2, key=PartialAssignment.sort_key),
                    other_query=q2,
                    detail="same class, different explanation sets",
                )
    return None


_DETAILS = {
    "NonTriviality": "empty assignment offered",
    "Feasibility": "explanation not part of x",
    "ScepticalValidity": "an exact-change variant keeps the class",
    "Novelty": "shares a literal with x",
    "StrongValidity": "an extension keeps the class",
    "WeakValidity": "overwriting x does not change the class",
}


def _violation(axiom: str, q: Query, offence) -> tuple[Optional[PartialAssignment], str]:
    """(witness, detail) for an explanation offered for q that fails the
    axiom's test in ``AXIOM_TESTS``, whose answer was ``offence``: for the
    three validities, a mask on q's truth table, whose first instance is the
    witness."""
    if axiom == "Coreness":
        core = core_literals(q.classifier, q.label)
        return None, f"not inside the class core ({core.render()})"
    witness = None
    if axiom in ("ScepticalValidity", "StrongValidity", "WeakValidity"):
        witness = instance_of_rank(q.theory, next(ranks_in(offence)))
    return witness, _DETAILS[axiom]


def _first_violations(
    outputs: Mapping[Query, ExplanationSet], axioms: Sequence[str]
) -> dict[str, Counterexample]:
    """The first counterexample to each of the axioms that has one.

    One pass over the queries in suite order, and over each output in its
    order; an axiom is no longer tested once it has a counterexample.
    """
    found: dict[str, Counterexample] = {}
    if "Equivalence" in axioms:
        cx = _check_equivalence(outputs)
        if cx is not None:
            found["Equivalence"] = cx
    success = "Success" in axioms
    pending = [a for a in axioms if a in AXIOM_TESTS]
    for q, out in outputs.items():
        if success and not out.count:
            found["Success"] = Counterexample(q, detail="empty explanation set")
            success = False
        if not (out.count and pending):
            continue
        for e in out:
            for axiom in tuple(pending):
                offence = AXIOM_TESTS[axiom](q.space, q, e)
                if offence:
                    witness, detail = _violation(axiom, q, offence)
                    found[axiom] = Counterexample(q, e, witness, detail=detail)
                    pending.remove(axiom)
    return found


def check_axiom(
    axiom: str,
    explainer: Explainer,
    suite: Sequence[Query],
    outputs: Optional[Mapping[Query, ExplanationSet]] = None,
) -> Verdict:
    """Evaluate one axiom over the suite; first violation wins (suite order)."""
    if axiom not in AXIOMS:
        raise ValueError(f"unknown axiom {axiom!r}")
    if outputs is None:
        outputs = _outputs(explainer, suite)
    cx = _first_violations(outputs, (axiom,)).get(axiom)
    return Verdict(axiom, cx is not None, cx)


# -- profiles --------------------------------------------------------------------

# Expected satisfaction pattern for the built-in explainer families:
# True = no violation expected on any suite, False = the suite must
# expose a violation.
EXPECTED_PROFILES: dict[str, dict[str, bool]] = {
    "gNec": {
        "Success": False,
        "NonTriviality": True,
        "Equivalence": True,
        "Feasibility": True,
        "Coreness": True,
        "ScepticalValidity": True,
        "Novelty": False,
        "StrongValidity": False,
        "WeakValidity": False,
    },
    "sNec": {
        "Success": False,
        "NonTriviality": True,
        "Equivalence": False,
        "Feasibility": True,
        "Coreness": False,
        "ScepticalValidity": True,
        "Novelty": False,
        "StrongValidity": False,
        "WeakValidity": False,
    },
    "gSuf": {
        "Success": True,
        "NonTriviality": True,
        "Equivalence": True,
        "Feasibility": False,
        "Coreness": False,
        "ScepticalValidity": True,
        "Novelty": False,
        "StrongValidity": True,
        "WeakValidity": True,
    },
    "sSuf": {
        "Success": False,
        "NonTriviality": True,
        "Equivalence": False,
        "Feasibility": False,
        "Coreness": False,
        "ScepticalValidity": True,
        "Novelty": True,
        "StrongValidity": True,
        "WeakValidity": True,
    },
    "cSuf": {
        "Success": True,
        "NonTriviality": True,
        "Equivalence": False,
        "Feasibility": False,
        "Coreness": False,
        "ScepticalValidity": True,
        "Novelty": True,
        "StrongValidity": False,
        "WeakValidity": True,
    },
    "constant-empty": {a: (a != "Success") for a in AXIOMS},
    "constant-blank": {
        a: a in ("Success", "Equivalence", "Feasibility", "Coreness", "Novelty")
        for a in AXIOMS
    },
    "old-values": {
        a: a in ("Success", "NonTriviality", "Feasibility") for a in AXIOMS
    },
}

# The derived explainers select among cSuf's flips and keep its pattern.
EXPECTED_PROFILES.update(
    dict.fromkeys(("featMin", "cardMin", "distMin"), EXPECTED_PROFILES["cSuf"])
)

# If the antecedent axioms show no violation over a suite, the consequent
# cannot show one: the checks share their primitive predicates, so these
# hold for any explainer on any suite.
PROFILE_IMPLICATIONS: tuple[tuple[tuple[str, ...], str], ...] = (
    (("Coreness",), "Feasibility"),
    (("Coreness", "NonTriviality"), "ScepticalValidity"),
    (("ScepticalValidity",), "NonTriviality"),
    (("WeakValidity",), "NonTriviality"),
    (("StrongValidity",), "WeakValidity"),
    (("Novelty", "NonTriviality"), "ScepticalValidity"),
)


def profile_inconsistencies(profile: "AxiomProfile") -> tuple[str, ...]:
    """Implication chains the profile breaks (must always be empty)."""
    pattern = profile.pattern()
    bad = []
    for antecedents, consequent in PROFILE_IMPLICATIONS:
        if all(pattern[a] for a in antecedents) and not pattern[consequent]:
            bad.append(" & ".join(antecedents) + " => " + consequent)
    return tuple(bad)


@dataclass(frozen=True)
class AxiomProfile:
    explainer: str
    suite: str
    verdicts: tuple[Verdict, ...]  # in AXIOMS order
    expected: Optional[Mapping[str, bool]] = None

    def verdict(self, axiom: str) -> Verdict:
        return self.verdicts[AXIOMS.index(axiom)]

    def pattern(self) -> dict[str, bool]:
        return {v.axiom: v.ok for v in self.verdicts}

    def mismatches(self) -> tuple[str, ...]:
        if self.expected is None:
            return ()
        return tuple(
            a for a in AXIOMS if self.pattern()[a] != self.expected[a]
        )

    def to_json_dict(self) -> dict:
        out: dict = {
            "explainer": self.explainer,
            "suite": self.suite,
            "verdicts": [v.to_json_dict() for v in self.verdicts],
        }
        if self.expected is not None:
            out["expected"] = {a: self.expected[a] for a in AXIOMS}
            out["mismatches"] = list(self.mismatches())
        return out


def audit(
    explainer: Explainer,
    suite: Sequence[Query],
    name: str = "custom",
    suite_name: str = "custom",
    expected: Optional[Mapping[str, bool]] = None,
) -> AxiomProfile:
    """Run all nine axiom checks; one explainer invocation per query."""
    found = _first_violations(_outputs(explainer, suite), AXIOMS)
    verdicts = tuple(Verdict(a, a in found, found.get(a)) for a in AXIOMS)
    if expected is None:
        expected = EXPECTED_PROFILES.get(name)
    return AxiomProfile(name, suite_name, verdicts, expected)


# -- family classification --------------------------------------------------------

@dataclass(frozen=True)
class FamilyReport:
    inclusion_tags: frozenset[str]
    axiom_tags: frozenset[str]

    @property
    def consistent(self) -> bool:
        return self.inclusion_tags == self.axiom_tags

    def to_json_dict(self) -> dict:
        return {
            "inclusion_tags": sorted(self.inclusion_tags),
            "axiom_tags": sorted(self.axiom_tags),
            "consistent": self.consistent,
        }


def classify_family(explainer: Explainer, suite: Sequence[Query]) -> FamilyReport:
    """Which families contain every output of this explainer, both ways."""
    outputs = _outputs(explainer, suite)
    inclusion = {
        family
        for family in CORE_KINDS
        if all(outputs[q].assignments() <= generate(family, q).assignments() for q in suite)
    }
    found = _first_violations(outputs, tuple(AXIOM_TESTS))
    axiom_side = {
        family
        for family, needed in FAMILY_AXIOMS.items()
        if not any(a in found for a in needed)
    }
    return FamilyReport(frozenset(inclusion), frozenset(axiom_side))


# -- impossibility witnesses -------------------------------------------------------

@dataclass(frozen=True)
class ImpossibilityWitness:
    set_id: str
    axioms: tuple[str, ...]
    query: Query
    narrative: str
    other_query: Optional[Query] = None

    def to_json_dict(self) -> dict:
        out: dict = {
            "id": self.set_id,
            "axioms": list(self.axioms),
            "query": self.query.to_json_dict(),
            "narrative": self.narrative,
        }
        if self.other_query is not None:
            out["other_instance"] = self.other_query.instance.to_dict()
        return out


def _two_feature_theory() -> Theory:
    return validate_theory(
        {
            "features": [
                {"name": "a", "domain": ["0", "1"]},
                {"name": "b", "domain": ["0", "1", "2"]},
            ],
            "classes": ["c0", "c1"],
        }
    )


def _lone_positive_query(instance_values: tuple[int, int]) -> Query:
    """Theory a:{0,1}, b:{0,1,2}; only (a=0,b=1) is class c1."""
    theory = _two_feature_theory()
    target = PartialAssignment(theory, (0, 1))
    rows = []
    for y in enumerate_instances(theory):
        rows.append((y.to_dict(), "c1" if y == target else "c0"))
    classifier = TableClassifier.from_rows(theory, rows)
    x = PartialAssignment(theory, instance_values)
    return Query(theory, classifier, x)


def _parity_pair() -> tuple[Query, Query]:
    """Two boolean features, class 'same' iff the values agree; the two
    'same' instances share no literal."""
    theory = validate_theory(
        {
            "features": [
                {"name": "f1", "domain": ["0", "1"]},
                {"name": "f2", "domain": ["0", "1"]},
            ],
            "classes": ["same", "diff"],
        }
    )
    rows = [
        ({"f1": "0", "f2": "0"}, "same"),
        ({"f1": "0", "f2": "1"}, "diff"),
        ({"f1": "1", "f2": "0"}, "diff"),
        ({"f1": "1", "f2": "1"}, "same"),
    ]
    classifier = TableClassifier.from_rows(theory, rows)
    q1 = Query(theory, classifier, PartialAssignment(theory, (0, 0)))
    q2 = Query(theory, classifier, PartialAssignment(theory, (1, 1)))
    return q1, q2


class _Impossibility(NamedTuple):
    axioms: tuple[str, ...]
    queries: Callable[[], tuple[Query, ...]]  # the witness query, or a same-class pair
    narrative: str
    trace: str  # of the confirmed conflict; {subsets} is the number of parts of x


_IMPOSSIBILITIES = {
    "I1": _Impossibility(
        ("Success", "NonTriviality", "Coreness"),
        lambda: (load_bundle("vacation").query(2),),
        "The class of this instance has an empty core, so a nonempty "
        "core-contained explanation cannot exist: Non-Triviality plus "
        "Coreness force the empty set, against Success.",
        "core of the class is empty; NonTriviality+Coreness admit no "
        "explanation, so Success must fail",
    ),
    "I2": _Impossibility(
        ("Success", "Feasibility", "ScepticalValidity"),
        lambda: (_lone_positive_query((0, 0)),),
        "Every part of x has an exact-change variant that keeps the "
        "class, so nothing feasible passes the sceptical test: "
        "Feasibility plus Sceptical Validity force the empty set, "
        "against Success.",
        "every part of x (all {subsets} subsets) has an exact-change variant "
        "keeping the class; Feasibility+ScepticalValidity admit no "
        "explanation, so Success must fail",
    ),
    "I3": _Impossibility(
        ("Success", "Novelty", "StrongValidity"),
        lambda: (_lone_positive_query((1, 1)),),
        "The only assignment all of whose extensions change the class "
        "shares a literal with x, so nothing novel passes the strong "
        "test: Novelty plus Strong Validity force the empty set, "
        "against Success.",
        "every assignment sharing nothing with x has an extension keeping "
        "the class; Novelty+StrongValidity admit no explanation, so Success "
        "must fail",
    ),
    "I4": _Impossibility(
        ("Success", "NonTriviality", "Feasibility", "Novelty"),
        lambda: (load_bundle("vacation").query(1),),
        "An explanation both part of x (Feasibility) and sharing "
        "nothing with x (Novelty) must be empty, against "
        "Non-Triviality — so the set is empty, against Success.",
        "no nonempty assignment is both part of x and disjoint from x; "
        "Feasibility+Novelty+NonTriviality admit no explanation, so Success "
        "must fail",
    ),
    "I5": _Impossibility(
        ("Success", "Feasibility", "WeakValidity"),
        lambda: (load_bundle("vacation").query(1),),
        "Overwriting x with a part of itself changes nothing, so "
        "Feasibility makes Weak Validity unsatisfiable — the set is "
        "empty, against Success.",
        "overwriting x with any of its own parts keeps the class; "
        "Feasibility+WeakValidity admit no explanation, so Success must fail",
    ),
    "I6": _Impossibility(
        ("Success", "NonTriviality", "Equivalence", "Feasibility"),
        _parity_pair,
        "Two same-class instances share no literal, and Equivalence "
        "forces them to share explanations; Feasibility then bounds "
        "every explanation by both instances, i.e. by nothing — "
        "against Non-Triviality and Success.",
        "same-class instances sharing no literal: Equivalence makes the sets "
        "equal, Feasibility bounds members by both instances, leaving only "
        "the empty assignment, against NonTriviality and Success",
    ),
    "I7": _Impossibility(
        ("Success", "NonTriviality", "Equivalence", "Novelty"),
        _parity_pair,
        "Two same-class instances jointly use every feature value, and "
        "Equivalence forces shared explanations; Novelty then forbids "
        "every literal — against Non-Triviality and Success.",
        "the two same-class instances jointly use every feature value: "
        "Equivalence makes the sets equal, Novelty forbids every literal, "
        "leaving only the empty assignment, against NonTriviality and Success",
    ),
}

IMPOSSIBILITY_SETS: dict[str, tuple[str, ...]] = {
    set_id: entry.axioms for set_id, entry in _IMPOSSIBILITIES.items()
}


def impossibility_witness(set_id: str) -> ImpossibilityWitness:
    set_id = set_id.upper()
    if set_id not in _IMPOSSIBILITIES:
        raise KeyError(f"unknown impossibility set {set_id!r} (I1..I7)")
    axioms, queries, narrative, _ = _IMPOSSIBILITIES[set_id]
    query, *other = queries()
    return ImpossibilityWitness(set_id, axioms, query, narrative, *other)


def check_impossibility(witness: ImpossibilityWitness) -> tuple[bool, str]:
    """Machine-verify the conflict on the witness construction.

    Returns (confirmed, trace).  Confirmed means: on this query (pair), no
    explanation set whatsoever can satisfy all the named axioms.  That holds
    exactly when no assignment of the theory passes every per-explanation
    axiom of the set on every witness query, and a witness pair is
    same-class under an Equivalence of the set: Success needs a member, and
    Equivalence makes a same-class pair share its members.
    """
    queries = [q for q in (witness.query, witness.other_query) if q is not None]
    if len(queries) > 1 and (
        "Equivalence" not in witness.axioms
        or len({_equivalence_key(q) for q in queries}) > 1
    ):
        return False, "Equivalence does not make the witness queries share members"
    axioms = [a for a in witness.axioms if a in AXIOM_TESTS]
    for e in enumerate_partial_assignments(witness.query.theory):
        if not any(AXIOM_TESTS[a](q.space, q, e) for q in queries for a in axioms):
            return False, f"{e.render()} passes {'+'.join(axioms)} on every witness query"
    trace = _IMPOSSIBILITIES[witness.set_id].trace
    return True, trace.format(subsets=2 ** witness.query.instance.size)


# -- compatibility witnesses -------------------------------------------------------


def constant_empty(query: Query) -> ExplanationSet:
    """Offers nothing, ever."""
    return ExplanationSet("constant-empty", ())


def constant_blank(query: Query) -> ExplanationSet:
    """Offers exactly the empty assignment, ever."""
    return ExplanationSet("constant-blank", (PartialAssignment.empty(query.theory),))


def old_values(query: Query) -> ExplanationSet:
    """The parts of x overwritten by each differently-classified instance,
    { x \\ y : y of another class }, walked by ``MaskSpace.parts``."""
    return ExplanationSet("old-values", tuple(query.space.parts(query.instance, outside=True)))


@dataclass(frozen=True)
class CompatibilityWitness:
    name: str
    explainer: Explainer = field(compare=False)
    satisfied: frozenset[str]  # expected no-violation set

    def expected_profile(self) -> dict[str, bool]:
        return {a: a in self.satisfied for a in AXIOMS}


def compatibility_witnesses() -> tuple[CompatibilityWitness, ...]:
    def expected(name: str) -> frozenset[str]:
        return frozenset(a for a in AXIOMS if EXPECTED_PROFILES[name][a])

    return (
        CompatibilityWitness("constant-empty", constant_empty, expected("constant-empty")),
        CompatibilityWitness("constant-blank", constant_blank, expected("constant-blank")),
        CompatibilityWitness("old-values", old_values, expected("old-values")),
        CompatibilityWitness("gSuf", g_suf, expected("gSuf")),
        CompatibilityWitness("cSuf", c_suf, expected("cSuf")),
    )


# -- the built-in suite ------------------------------------------------------------


EXPLAINERS: dict[str, Explainer] = {
    "gNec": g_nec,
    "sNec": s_nec,
    "gSuf": g_suf,
    "sSuf": s_suf,
    "cSuf": c_suf,
    "featMin": feat_min,
    "cardMin": card_min,
    "distMin": dist_min,
    "constant-empty": constant_empty,
    "constant-blank": constant_blank,
    "old-values": old_values,
}


@dataclass(frozen=True)
class Suite:
    name: str
    queries: tuple[Query, ...]


def generated_probe_queries() -> list[Query]:
    """The exhaustive 2-feature probe regime: every surjective 2-class table
    over 2 features with domains in {2,3} (648 classifiers), at every
    instance."""
    out: list[Query] = []
    for sizes in ((2, 2), (2, 3), (3, 2), (3, 3)):
        theory = validate_theory(
            {
                "features": [
                    {"name": "f1", "domain": [str(v) for v in range(sizes[0])]},
                    {"name": "f2", "domain": [str(v) for v in range(sizes[1])]},
                ],
                "classes": ["c0", "c1"],
            }
        )
        n = theory.instance_count()
        for pattern in range(1, (1 << n) - 1):  # skip the two constant tables
            table = ["c1" if (pattern >> r) & 1 else "c0" for r in range(n)]
            classifier = TableClassifier(theory, table)
            for r in range(n):
                out.append(
                    Query(theory, classifier, instance_of_rank(theory, r))
                )
    return out


def builtin_suite(budget: Optional[int] = 1500, seed: int = 0) -> Suite:
    """Fixture queries + witness constructions + sampled generated probes.

    Fixture and witness queries are always kept; only the generated probes
    are down-sampled when they exceed the budget (0 or None: keep all).
    """
    import random

    if budget is not None and budget < 0:
        raise ValueError(f"budget must not be negative, got {budget}")
    queries: list[Query] = []
    queries.extend(load_bundle("vacation").queries())
    queries.extend(load_bundle("bitcount").queries())
    queries.extend(load_bundle("corner").queries())
    for set_id in ("I2", "I3", "I6"):
        w = impossibility_witness(set_id)
        queries.append(w.query)
        if w.other_query is not None:
            queries.append(w.other_query)
    generated = generated_probe_queries()
    if budget and len(generated) > budget:
        rng = random.Random(seed)
        keep = sorted(rng.sample(range(len(generated)), budget))
        generated = [generated[i] for i in keep]
    queries.extend(generated)
    label = "builtin" if budget is None else f"builtin(budget={budget},seed={seed})"
    return Suite(label, tuple(queries))


# -- external explainers -----------------------------------------------------------


# How long an external explainer may take to answer one query, in seconds.
RESPONSE_SECONDS = 60.0


class ExternalExplainer:
    """Audit a third-party explainer over a line-JSON subprocess protocol.

    One JSON query object per request line on stdin; one JSON explanation
    set per response line on stdout, within ``RESPONSE_SECONDS``.  An
    explainer that misses the deadline is killed and reaped.
    """

    def __init__(self, argv: Sequence[str]):
        self.argv = list(argv)
        self._pending = b""  # output read past the last response line
        try:
            self.proc = subprocess.Popen(
                self.argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
            )
        except OSError as exc:
            raise ExternalExplainerFailure(
                f"cannot start {self.argv!r}: {exc}"
            ) from exc
        os.set_blocking(self.proc.stdin.fileno(), False)  # a write takes what the pipe holds

    def __call__(self, query: Query) -> ExplanationSet:
        if self.proc.poll() is not None:
            raise ExternalExplainerFailure("explainer process already exited")
        request = json.dumps(query.to_json_dict(), sort_keys=True)
        try:
            line = self._exchange(request.encode() + b"\n")
        except OSError as exc:
            raise ExternalExplainerFailure(f"protocol I/O failed: {exc}") from exc
        if not line:
            raise ExternalExplainerFailure("explainer closed its output")
        try:
            raw = json.loads(line)
            return explanation_set_from_json(raw, query)
        except (ValueError, KeyError, TypeError) as exc:
            raise ExternalExplainerFailure(
                f"bad response line: {line.strip()!r} ({exc})"
            ) from exc

    def _exchange(self, request: bytes) -> str:
        """Write the request and read the next line of the explainer's
        output ("" at its end), each pipe as it becomes ready, all within
        ``RESPONSE_SECONDS``: past that the explainer is killed and reaped."""
        assert self.proc.stdin is not None and self.proc.stdout is not None
        stdin, stdout = self.proc.stdin.fileno(), self.proc.stdout.fileno()
        deadline = time.monotonic() + RESPONSE_SECONDS
        with selectors.DefaultSelector() as selector:
            selector.register(stdin, selectors.EVENT_WRITE)
            selector.register(stdout, selectors.EVENT_READ)
            ended = False
            while request or not (ended or b"\n" in self._pending):
                left = deadline - time.monotonic()
                ready = selector.select(left) if left > 0 else []
                if not ready:
                    self.proc.kill()
                    self.proc.wait()
                    raise ExternalExplainerFailure(
                        f"no response within {RESPONSE_SECONDS:g} s; explainer killed"
                    )
                for key, _ in ready:
                    if key.fd == stdin:
                        request = request[os.write(stdin, request):]
                        if not request:
                            selector.unregister(stdin)
                    else:
                        chunk = os.read(stdout, 1 << 16)
                        if not chunk:
                            ended = True
                            selector.unregister(stdout)
                        self._pending += chunk
        line, newline, self._pending = self._pending.partition(b"\n")
        return (line + newline).decode(errors="replace")

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                if self.proc.stdin is not None:
                    self.proc.stdin.close()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()

    def __enter__(self) -> "ExternalExplainer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
