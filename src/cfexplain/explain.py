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

All membership tests are evaluated definitionally: the quantifiers over
instances run against the classifier's bit-parallel truth table, so these
functions serve as the reference oracles that the search procedures are
differential-tested against.  Enumeration emits the canonical order (size,
then assigned features, then values) so capped output keeps the smallest
explanations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Mapping, Optional

from .classifier import Classifier, ClassView, Query, class_view, core_literals, enumerable_count
from .theory import (
    PartialAssignment,
    enumerate_partial_assignments,
    novel_assignments,
    subsets_of,
    substitute,
)

CORE_KINDS = ("gNec", "sNec", "gSuf", "sSuf", "cSuf")


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
    """Parse the JSON form back over a known query (used for external tools)."""
    explanations = tuple(
        PartialAssignment.from_dict(query.theory, item)
        for item in raw["explanations"]
    )
    return ExplanationSet(
        kind=str(raw["kind"]),
        explanations=explanations,
        truncated=bool(raw.get("truncated", False)),
    )


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


# -- the four primitive predicates ------------------------------------------------
#
# Every family, every axiom check and the SAT decision path test these, and
# nothing else re-derives them.  A mask predicate returns its offenders as a
# mask over instance ranks: 0 means the predicate holds, and any set bit is a
# witness instance against it.


def class_context(query: Query) -> tuple[ClassView, int]:
    """The classifier's view and x's class mask, computed once per query."""
    view = class_view(query.classifier)
    return view, view.class_mask(query.label)


def core_offenders(view: ClassView, cmask: int, e: PartialAssignment) -> int:
    """In-core: the instances of cmask that lack some literal of e."""
    return cmask & ~view.mask_containing(e)


def sceptical_offenders(
    view: ClassView, cmask: int, x: PartialAssignment, e: PartialAssignment
) -> int:
    """Sceptical: the instances of cmask differing from x exactly on e's
    features (none when e is not part of x)."""
    return view.mask_residual(x, e) & cmask


def strong_offenders(view: ClassView, cmask: int, e: PartialAssignment) -> int:
    """Strong: the instances of cmask that extend e."""
    return view.mask_containing(e) & cmask


def overwrite_flips(
    classifier: Classifier, x: PartialAssignment, label: str, e: PartialAssignment
) -> bool:
    """Overwriting x with e gives an instance outside class ``label``."""
    return classifier.classify(substitute(x, e)) != label


# -- membership (definitional oracles) ------------------------------------------


def is_member(kind: str, query: Query, e: PartialAssignment) -> bool:
    """Definitional membership: the quantifier itself, not a shortcut.

    Every universally quantified condition is evaluated over the full
    instance space via the classifier's truth-table masks; cSuf needs one
    classification and builds no view.
    """
    if e.theory != query.theory:
        raise ValueError("explanation belongs to a different theory")
    x = query.instance
    if kind == "gNec":
        return not e.is_empty and not core_offenders(*class_context(query), e)
    if kind == "sNec":
        return e.subset_of(x) and not sceptical_offenders(*class_context(query), x, e)
    if kind == "gSuf":
        # rules out the empty e: x itself extends it
        return not strong_offenders(*class_context(query), e)
    if kind == "sSuf":
        return e.disjoint_from(x) and not strong_offenders(*class_context(query), e)
    if kind == "cSuf":
        return (
            not e.is_empty
            and e.disjoint_from(x)
            and overwrite_flips(query.classifier, x, query.label, e)
        )
    raise ValueError(f"unknown explainer kind {kind!r}")


# -- generation ------------------------------------------------------------------


def g_nec(query: Query, cap: Optional[int] = None) -> ExplanationSet:
    """Nonempty assignments contained in every instance of x's class.

    Those are exactly the nonempty subsets of the class core, so the core is
    computed once and its subsets enumerated.
    """
    core = core_literals(query.classifier, query.label, method="scan")
    return collect("gNec", subsets_of(core, min_size=1), cap)


def s_nec(query: Query, cap: Optional[int] = None) -> ExplanationSet:
    """Parts of x whose every exact-change variant leaves x's class."""
    view, cmask = class_context(query)
    x = query.instance
    candidates = (
        e
        for e in subsets_of(x, min_size=1)
        if not sceptical_offenders(view, cmask, x, e)
    )
    return collect("sNec", candidates, cap)


def g_suf(query: Query, cap: Optional[int] = None) -> ExplanationSet:
    """Assignments none of whose extensions keeps x's class."""
    view, cmask = class_context(query)
    candidates = (
        e
        for e in enumerate_partial_assignments(query.theory)
        if not e.is_empty and not strong_offenders(view, cmask, e)
    )
    return collect("gSuf", candidates, cap)


def s_suf(query: Query, cap: Optional[int] = None) -> ExplanationSet:
    """gSuf explanations sharing no literal with x."""
    view, cmask = class_context(query)
    candidates = (
        e
        for e in novel_assignments(query.instance, min_size=1)
        if not strong_offenders(view, cmask, e)
    )
    return collect("sSuf", candidates, cap)


def c_suf(query: Query, cap: Optional[int] = None) -> ExplanationSet:
    """Novel assignments whose overwrite changes the class.

    Equal to { y \\ x : y an instance with a different class } — computed in
    the overwrite form, which is duplicate-free and already canonically
    ordered.  Never empty: the classifier is surjective, so some instance has
    another class, and its difference from x qualifies.  Builds no view, but
    keeps the view's cap on the instance space.
    """
    enumerable_count(query.theory)
    x, label = query.instance, query.label
    candidates = (
        e
        for e in novel_assignments(x, min_size=1)
        if overwrite_flips(query.classifier, x, label, e)
    )
    return collect("cSuf", candidates, cap)


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
