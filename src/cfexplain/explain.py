"""The five canonical counterfactual explainer families.

Given a query (theory, classifier, instance x with class c), each family
selects partial assignments E that "explain" why x was not classified
differently, in one of five senses:

* gNec — E is nonempty and appears in every instance of class c, so removing
  it is necessary for a class change no matter which instance you hold.
* sNec — E is part of x and every instance that differs from x exactly on
  E's features leaves the class; changing E (to anything) suffices to leave c
  and keeping it is necessary from x's standpoint.
* gSuf — every instance containing E has a class other than c.
* sSuf — a gSuf explanation sharing no literal with x (a genuine "switch
  these values" recipe).
* cSuf — E shares no literal with x and overwriting x with E changes the
  class (there exists a witness, rather than all extensions agreeing).

The paper's representation theorems define the five: a family is the
explanations that pass its axioms (``FAMILY_AXIOMS``), each axiom's test
written once (``AXIOM_TESTS``) and shared by membership, decide and the
audit.  ``membership`` defines all nine kinds, with the four of ``derived``,
once.  Enumeration emits the canonical order (size, then assigned features,
then values) so capped output keeps the smallest explanations.  The listings
do not ask membership of each candidate: gSuf, sSuf and sNec come from one
depth-first mask walk (``MaskSpace.unextended`` and ``parts``), cSuf from the
Hamming layers around x, and gNec from the class core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, Mapping, Optional

from .classifier import Query, core_literals
from .theory import PartialAssignment, hamming, subsets_of, substitute

CORE_KINDS = ("gNec", "sNec", "gSuf", "sSuf", "cSuf")
DERIVED_KINDS = ("featMin", "cardMin", "distMin", "distCap")
KINDS = CORE_KINDS + DERIVED_KINDS

DistanceMeasure = Callable[[PartialAssignment, PartialAssignment], float]


class DistanceError(ValueError):
    """Invalid distance specification (bad weights file and the like)."""


def check_tau(tau: float) -> None:
    """Reject a distCap threshold that is negative or NaN."""
    if not tau >= 0:
        raise DistanceError(f"threshold must be >= 0, got {tau}")


@dataclass(frozen=True)
class ExplanationSet:
    """Ordered, duplicate-free explanations plus a truncation marker."""

    kind: str
    explanations: tuple[PartialAssignment, ...]
    truncated: bool = False

    @property
    def count(self) -> int:
        return len(self.explanations)

    def __iter__(self) -> Iterator[PartialAssignment]:
        return iter(self.explanations)

    def __len__(self) -> int:
        return len(self.explanations)

    def __contains__(self, e: PartialAssignment) -> bool:
        return e in self.explanations

    def assignments(self) -> frozenset[PartialAssignment]:
        return frozenset(self.explanations)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "count": self.count,
            "truncated": self.truncated,
            "explanations": [e.to_dict() for e in self.explanations],
        }


def explanation_set_from_json(raw: Mapping, query: Query) -> ExplanationSet:
    """Parse the JSON form back over a known query (used for external tools).

    Raises ValueError on a value that would otherwise be misread: a kind
    that is not a string, a truncation marker that is not a boolean, and an
    explanation listed twice."""
    items, kind, truncated = raw["explanations"], raw["kind"], raw.get("truncated", False)
    if not isinstance(items, list) or not all(isinstance(item, dict) for item in items):
        raise ValueError("explanations must be a JSON array of JSON objects")
    if not isinstance(kind, str):
        raise ValueError(f"kind must be a string, not {kind!r}")
    if not isinstance(truncated, bool):
        raise ValueError(f"truncated must be true or false, not {truncated!r}")
    explanations = tuple(PartialAssignment.from_dict(query.theory, item) for item in items)
    if len(set(explanations)) != len(explanations):
        twice = next(e for k, e in enumerate(explanations) if e in explanations[:k])
        raise ValueError(f"explanation {twice.to_dict()} is listed twice")
    return ExplanationSet(kind=kind, explanations=explanations, truncated=truncated)


def collect(
    kind: str, candidates: Iterable[PartialAssignment], cap: Optional[int]
) -> ExplanationSet:
    """The candidates in their order, at most ``cap`` of them (0 or None: all)."""
    if cap is not None and cap < 0:
        raise ValueError(f"cap must not be negative, got {cap}")
    if not cap:  # None or 0 both mean uncapped
        return ExplanationSet(kind, tuple(candidates))
    rest = iter(candidates)
    out = tuple(islice(rest, cap))
    return ExplanationSet(kind, out, next(rest, None) is not None)


# -- the axioms that judge one explanation, and the five families -----------------


# Each test asks its one question of e, x and x's class (``space``: a
# MaskSpace or a sat.SatSpace) and returns the offence: falsy when e passes,
# else the witnesses the space found, or True.  WeakValidity is
# StrongValidity asked of x overwritten by e, an instance that extends only
# itself.
AXIOM_TESTS: dict[str, Callable] = {
    "NonTriviality": lambda space, query, e: e.is_empty,
    "Feasibility": lambda space, query, e: not e.subset_of(query.instance),
    "Coreness": lambda space, query, e: space.lacking(e),
    "ScepticalValidity": lambda space, query, e: space.variant(query.instance, e),
    "Novelty": lambda space, query, e: not e.disjoint_from(query.instance),
    "StrongValidity": lambda space, query, e: space.extending(e),
    "WeakValidity": lambda space, query, e: space.extending(substitute(query.instance, e)),
}

# The representation theorems: each family is exactly the explanations that
# pass its axioms.  Listed in the order membership asks them, so a SatSpace
# never asks `lacking` of an empty e or `variant` of an e outside x.
FAMILY_AXIOMS: dict[str, tuple[str, ...]] = {
    "gNec": ("NonTriviality", "Coreness"),
    "sNec": ("Feasibility", "ScepticalValidity"),
    "gSuf": ("StrongValidity",),
    "sSuf": ("Novelty", "StrongValidity"),
    "cSuf": ("Novelty", "WeakValidity"),
}

# FAMILY_AXIOMS as each kind's tests, looked up once; a derived kind's are cSuf's.
_KIND_TESTS = {
    kind: tuple(AXIOM_TESTS[a] for a in FAMILY_AXIOMS.get(kind, FAMILY_AXIOMS["cSuf"]))
    for kind in KINDS
}


def membership(
    kind: str,
    space,
    query: Query,
    e: PartialAssignment,
    distance: DistanceMeasure = hamming,
    tau: float = math.inf,
) -> bool:
    """Is e an explanation of the given kind for the query?

    ``space`` is x's class as a MaskSpace or a sat.SatSpace; ``distance``
    and ``tau`` matter to distMin and distCap only.  A member passes its
    family's axioms; the derived kinds then select among the flips, the cSuf
    members.  A weighted distMin measures the nearest other-class instance
    on the truth table (``query.space``).
    """
    tests = _KIND_TESTS.get(kind)
    if tests is None:
        raise ValueError(f"unknown explainer kind {kind!r}")
    if e.theory is not query.theory and e.theory != query.theory:
        raise ValueError("explanation belongs to a different theory")
    if kind == "distCap":
        check_tau(tau)
    for test in tests:
        if test(space, query, e):
            return False
    if kind in FAMILY_AXIOMS:
        return True
    x = query.instance
    if kind == "featMin":
        return not space.smaller_flip(x, e)
    if kind == "cardMin" or (kind == "distMin" and distance is hamming):
        return not space.within(x, e.size - 1)  # a flip's hamming distance is its size
    if kind == "distMin":
        return distance(substitute(x, e), x) <= distance(query.space.closest(x, distance), x)
    return distance(substitute(x, e), x) < tau  # distCap


def is_member(kind: str, query: Query, e: PartialAssignment) -> bool:
    """Membership of the five core kinds, decided on the classifier's truth
    table (capped like every listing; ``sat.decide_exp`` is the oracle route
    for formulas)."""
    if kind not in CORE_KINDS:
        raise ValueError(f"unknown explainer kind {kind!r}")
    return membership(kind, query.space, query, e)


# -- generation ------------------------------------------------------------------


def g_nec(query: Query, cap: Optional[int] = None) -> ExplanationSet:
    """Nonempty assignments contained in every instance of x's class.

    Those are exactly the nonempty subsets of the class core, so the core is
    computed once and its subsets enumerated.
    """
    core = core_literals(query.classifier, query.label, method="scan")
    return collect("gNec", subsets_of(core, min_size=1), cap)


def s_nec(query: Query, cap: Optional[int] = None) -> ExplanationSet:
    """Parts of x whose every exact-change variant leaves x's class (``MaskSpace.parts``)."""
    return collect("sNec", query.space.parts(query.instance), cap)


def g_suf(query: Query, cap: Optional[int] = None) -> ExplanationSet:
    """Assignments none of whose extensions keeps x's class (``MaskSpace.unextended``)."""
    return collect("gSuf", query.space.unextended(), cap)


def s_suf(query: Query, cap: Optional[int] = None) -> ExplanationSet:
    """gSuf explanations sharing no literal with x: the same walk, on values other than x's."""
    return collect("sSuf", query.space.unextended(query.instance), cap)


def c_suf(query: Query, cap: Optional[int] = None) -> ExplanationSet:
    """Novel assignments whose overwrite changes the class.

    Equal to { y \\ x : y an instance with a different class }, so they are
    read off the truth table's Hamming layers around x, layer k holding the
    flips of size k (``MaskSpace.flips``); nothing is classified.  Never
    empty: the classifier is surjective, so some instance has another class,
    and its difference from x qualifies.
    """
    return collect("cSuf", chain.from_iterable(query.space.flips(query.instance)), cap)


_GENERATORS = {
    "gNec": g_nec,
    "sNec": s_nec,
    "gSuf": g_suf,
    "sSuf": s_suf,
    "cSuf": c_suf,
}


def generate(kind: str, query: Query, cap: Optional[int] = None) -> ExplanationSet:
    """Dispatch to the named core family."""
    try:
        fn = _GENERATORS[kind]
    except KeyError:
        raise ValueError(f"unknown explainer kind {kind!r}") from None
    return fn(query, cap)
