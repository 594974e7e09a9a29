"""Minimality- and distance-based explainers derived from class flips.

A "flip" for query (κ, x) is a novel partial assignment E (no literal shared
with x) such that overwriting x with E changes the class — exactly the
credulous sufficient reasons.  The explainers here select flips that are
minimal in some sense:

* feat_min  — no flip uses a strictly smaller feature set ("featMin");
* card_min  — flips of minimum cardinality ("cardMin");
* dist_min  — flips whose counterfactual instance is closest to x under a
              distance measure ("distMin");
* dist_cap  — flips strictly under a distance threshold ("distCap").

The flips are read off the truth table's Hamming-distance layers around x
(``MaskSpace.flips``): layer k holds the other-class instances that differ
from x on k features, and so the flips of size k.  Each flip keeps only the
values its instance does not share with x, so it is novel by construction,
and every output is a credulous sufficient reason.  A flip changes every
feature it names, so its hamming distance is its size, and cardMin and
hamming distMin are the nearest nonempty layer.  featMin keeps the flips
with no smaller flip (``MaskSpace.smaller_flip``); distCap and weighted
distMin measure each flip.  Membership of all four is ``explain.membership``.

Each family is also the set of maximal elements of a "faithful" ranking — a
preorder that strictly prefers every flip to every non-flip.  The weightings
and `faithful_max` below make that characterization executable, and
`is_faithful` checks the defining property of a ranking directly.  A
``Ranking`` is a weighting plus a mode, and both read their answer off one
weight per assignment.  The weightings list x's flips once and look each
assignment up in that set.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain, compress
from typing import Callable, Iterator, Mapping, Optional

from .classifier import Query
from .explain import (
    DERIVED_KINDS,
    DistanceError,
    DistanceMeasure,
    ExplanationSet,
    check_tau,
    collect,
    membership,
)
from .theory import (
    PartialAssignment,
    enumerate_partial_assignments,
    hamming,
    substitute,
)

Weighting = Callable[[PartialAssignment], float]


# -- distance measures -----------------------------------------------------------


def parse_weights(raw: Mapping, theory) -> dict[str, float]:
    """Validate a per-feature weight table; every feature must be covered."""
    if not isinstance(raw, Mapping):
        raise DistanceError("weights file must be a JSON object of feature: weight")
    weights: dict[str, float] = {}
    for name, value in raw.items():
        if name not in theory.features:
            raise DistanceError(f"weights name unknown feature {name!r}")
        try:
            w = float(value)
        except (TypeError, ValueError):
            raise DistanceError(f"weight for {name!r} is not a number") from None
        if not math.isfinite(w) or w < 0:
            raise DistanceError(f"weight for {name!r} must be finite and >= 0")
        weights[str(name)] = w
    missing = [f for f in theory.features if f not in weights]
    if missing:
        raise DistanceError(f"weights missing feature(s) {missing}")
    return weights


def weighted_distance(weights: Mapping[str, float], theory) -> DistanceMeasure:
    """Sum of per-feature weights over the differing features."""
    table = parse_weights(weights, theory)
    by_pos = tuple(table[f] for f in theory.features)

    def measure(x: PartialAssignment, y: PartialAssignment) -> float:
        return sum(w for w, a, b in zip(by_pos, x.values, y.values) if a != b)

    return measure


# -- flip selection --------------------------------------------------------------


def _flips(query: Query) -> Iterator[PartialAssignment]:
    """The flips in canonical order, one Hamming layer at a time."""
    return chain.from_iterable(query.space.flips(query.instance))


def _smallest_flips(query: Query) -> list[PartialAssignment]:
    """The nearest nonempty layer; the classifier is surjective, so one is."""
    return next(layer for layer in query.space.flips(query.instance) if layer)


def feat_min(query: Query, cap: Optional[int] = None) -> ExplanationSet:
    """Flips with no smaller flip: none changes a proper subset of their
    features.  That depends on the feature set alone, asked once per set."""
    space, x = query.space, query.instance
    minimal: dict[tuple[int, ...], bool] = {}

    def is_minimal(e: PartialAssignment) -> bool:
        features = e.feature_positions()
        if features not in minimal:
            minimal[features] = not space.smaller_flip(x, e)
        return minimal[features]

    return collect("featMin", filter(is_minimal, _flips(query)), cap)


def card_min(query: Query, cap: Optional[int] = None) -> ExplanationSet:
    """Flips of minimum cardinality."""
    return collect("cardMin", _smallest_flips(query), cap)


def dist_min(
    query: Query, distance: DistanceMeasure = hamming, cap: Optional[int] = None
) -> ExplanationSet:
    """Flips whose counterfactual sits closest to x; ties all returned.
    Under hamming a flip's distance is its size, so these are cardMin's."""
    if distance is hamming:
        return collect("distMin", _smallest_flips(query), cap)
    x = query.instance
    scored = [(distance(substitute(x, e), x), e) for e in _flips(query)]
    best = min(d for d, _ in scored)
    return collect("distMin", [e for d, e in scored if d == best], cap)


def dist_cap(
    query: Query,
    distance: DistanceMeasure = hamming,
    tau: float = math.inf,
    cap: Optional[int] = None,
) -> ExplanationSet:
    """Flips whose counterfactual lies strictly closer than tau."""
    check_tau(tau)
    x = query.instance
    chosen = (e for e in _flips(query) if distance(substitute(x, e), x) < tau)
    return collect("distCap", chosen, cap)


def is_derived_member(
    kind: str,
    query: Query,
    e: PartialAssignment,
    distance: DistanceMeasure = hamming,
    tau: float = math.inf,
) -> bool:
    """Membership of the four derived kinds, decided on the classifier's
    truth table without listing the flips."""
    if kind not in DERIVED_KINDS:
        raise ValueError(f"unknown derived kind {kind!r}")
    return membership(kind, query.space, query, e, distance, tau)


# -- weightings and rankings -----------------------------------------------------


def _flip_weighting(query: Query, weigh: Weighting) -> Weighting:
    """weigh(e) on x's flips, +inf elsewhere; the flips are listed once."""
    theory, flips = query.theory, frozenset(_flips(query))

    def weight(e: PartialAssignment) -> float:
        if e.theory is not theory and e.theory != theory:
            raise ValueError("explanation belongs to a different theory")
        return weigh(e) if e in flips else math.inf

    return weight


def indicator_weighting(query: Query) -> Weighting:
    """1 on flips, +inf elsewhere."""
    return _flip_weighting(query, lambda e: 1.0)


def size_weighting(query: Query) -> Weighting:
    """|E| on flips, +inf elsewhere."""
    return _flip_weighting(query, lambda e: float(e.size))


def distance_weighting(query: Query, distance: DistanceMeasure = hamming) -> Weighting:
    """Distance from x to the counterfactual on flips, +inf elsewhere."""
    x = query.instance
    return _flip_weighting(query, lambda e: float(distance(substitute(x, e), x)))


@dataclass(frozen=True)
class Ranking:
    """The preorder a weighting induces; ``at_least(a, b)`` reads "a is at
    least as good as b".

    ``min-is-better`` is the total preorder "weight(a) <= weight(b)".
    ``delta-feature-refined`` additionally requires nested feature sets on
    ties: a >= b iff weight(a) < weight(b), or the weights are equal and
    Feat(a) is a subset of Feat(b).  On a finite candidate set every total
    preorder is ``min-is-better`` for some weighting: weigh each candidate
    by its rank.
    """

    weighting: Weighting
    mode: str = "min-is-better"

    def __post_init__(self) -> None:
        if self.mode not in ("min-is-better", "delta-feature-refined"):
            raise ValueError(f"unknown ranking mode {self.mode!r}")

    def at_least(self, a: PartialAssignment, b: PartialAssignment) -> bool:
        wa, wb = self.weighting(a), self.weighting(b)
        if wa == wb and self.mode == "delta-feature-refined":
            return set(a.feature_positions()) <= set(b.feature_positions())
        return wa <= wb

    def strictly_better(self, a: PartialAssignment, b: PartialAssignment) -> bool:
        return self.at_least(a, b) and not self.at_least(b, a)


def ranking_from_weighting(w: Weighting, mode: str = "min-is-better") -> Ranking:
    """The ranking of w, which is asked at most once per assignment."""
    return Ranking(functools.cache(w), mode)


def faithful_max(query: Query, ranking: Ranking) -> ExplanationSet:
    """Maximal assignments under the ranking: nothing strictly beats them.

    Enumerates the whole assignment space and weighs each candidate once.
    Under either mode only a lighter candidate, or under
    ``delta-feature-refined`` an equally heavy one on a strict subset of the
    features, beats another, and no comparison with NaN holds.  So the
    maximal ones are the least-weight bucket (under ``delta-feature-refined``
    its feature-set-minimal members) and every NaN-weighted candidate, in
    enumeration order.
    """
    candidates = list(enumerate_partial_assignments(query.theory))
    weights = [ranking.weighting(e) for e in candidates]
    least = min((w for w in weights if w == w), default=None)
    keep = [w == least or w != w for w in weights]
    if ranking.mode == "delta-feature-refined":
        masks = [
            sum(1 << i for i in e.feature_positions()) if w == least else None
            for e, w in zip(candidates, weights)
        ]
        bucket = set(masks) - {None}
        beaten = {m for m in bucket if any(s != m and s & m == s for s in bucket)}
        keep = [k and m not in beaten for k, m in zip(keep, masks)]
    return ExplanationSet("max", tuple(compress(candidates, keep)))


@dataclass(frozen=True)
class FaithfulnessVerdict:
    ok: bool
    counterexample: Optional[tuple[PartialAssignment, PartialAssignment]] = None


def is_faithful(
    make_ranking: Callable[[Query], Ranking], query: Query
) -> FaithfulnessVerdict:
    """Does the ranking strictly prefer every flip to every non-flip?

    It does at once when every weight is a number and every flip weighs
    less than every non-flip.  Otherwise every (flip, non-flip) pair is
    compared, and the first failing pair in enumeration order is the
    counterexample; under ``delta-feature-refined`` a flip can still beat a
    non-flip of equal weight.
    """
    ranking = make_ranking(query)
    listed = frozenset(_flips(query))
    flips: list[PartialAssignment] = []
    rest: list[PartialAssignment] = []
    for e in enumerate_partial_assignments(query.theory):
        (flips if e in listed else rest).append(e)
    flip_weights = [ranking.weighting(e) for e in flips]
    rest_weights = [ranking.weighting(e) for e in rest]
    numbers = all(w == w for w in chain(flip_weights, rest_weights))
    if numbers and max(flip_weights, default=-math.inf) < min(rest_weights, default=math.inf):
        return FaithfulnessVerdict(True)
    for good in flips:
        for bad in rest:
            if not ranking.strictly_better(good, bad):
                return FaithfulnessVerdict(False, (good, bad))
    return FaithfulnessVerdict(True)
