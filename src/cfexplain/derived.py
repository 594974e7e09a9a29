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

Assignments whose extra literals merely repeat values of x are normalized
away before comparison: such literals are inert under overwriting, so each
family is computed over genuinely novel assignments and its outputs are
always credulous sufficient reasons.

The flips are read off the truth table's Hamming-distance layers around x
(``MaskSpace.flips``): layer k holds the other-class instances that differ
from x on k features, and so the flips of size k.  A flip changes every
feature it names, so its hamming distance is its size, and cardMin and
hamming distMin are the nearest nonempty layer.  featMin keeps the flips
with no smaller flip (``MaskSpace.smaller_flip``); distCap and weighted
distMin measure each flip.  Membership of all four is ``explain.membership``.

Each family is also the set of maximal elements of a "faithful" ranking — a
preorder that strictly prefers every flip to every non-flip.  The weightings
and `faithful_max` below make that characterization executable, and
`is_faithful` checks the defining property of a ranking directly.  A ranking
made from a weighting carries it, and both read their answer off one weight
per assignment (linear); an opaque ``Ranking`` is compared pair by pair
(quadratic).
"""

from __future__ import annotations

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
    is_member,
    membership,
)
from .theory import (
    PartialAssignment,
    enumerate_partial_assignments,
    hamming,
    substitute,
)

Weighting = Callable[[PartialAssignment], float]


class NotAPreorder(ValueError):
    """The supplied ranking is not reflexive or not transitive."""


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


def indicator_weighting(query: Query) -> Weighting:
    """1 on flips, +inf elsewhere."""
    return lambda e: 1.0 if is_member("cSuf", query, e) else math.inf


def size_weighting(query: Query) -> Weighting:
    """|E| on flips, +inf elsewhere."""
    return lambda e: float(e.size) if is_member("cSuf", query, e) else math.inf


def distance_weighting(query: Query, distance: DistanceMeasure = hamming) -> Weighting:
    """Distance from x to the counterfactual on flips, +inf elsewhere."""
    x = query.instance

    def weight(e: PartialAssignment) -> float:
        if not is_member("cSuf", query, e):
            return math.inf
        return float(distance(substitute(x, e), x))

    return weight


@dataclass(frozen=True)
class Ranking:
    """A preorder: ``at_least(a, b)`` reads "a is at least as good as b".

    A ranking made by ``ranking_from_weighting`` also carries its (cached)
    weighting and its mode, from which `faithful_max` and `is_faithful`
    read their answers one weight per candidate; without them a ranking is
    opaque, and only ``at_least`` is asked, pair by pair.
    """

    at_least: Callable[[PartialAssignment, PartialAssignment], bool]
    weighting: Optional[Weighting] = None
    mode: Optional[str] = None

    def strictly_better(self, a: PartialAssignment, b: PartialAssignment) -> bool:
        return self.at_least(a, b) and not self.at_least(b, a)


def ranking_from_weighting(w: Weighting, mode: str = "min-is-better") -> Ranking:
    """Turn a weighting into a preorder.

    ``min-is-better`` is the total preorder "weight(a) <= weight(b)".
    ``delta-feature-refined`` additionally requires nested feature sets on
    ties: a >= b iff weight(a) < weight(b), or the weights are equal and
    Feat(a) is a subset of Feat(b).
    """
    cache: dict[PartialAssignment, float] = {}

    def weight(e: PartialAssignment) -> float:
        we = cache.get(e)
        if we is None:
            we = cache[e] = w(e)
        return we

    if mode == "min-is-better":
        return Ranking(lambda a, b: weight(a) <= weight(b), weight, mode)
    if mode == "delta-feature-refined":

        def at_least(a: PartialAssignment, b: PartialAssignment) -> bool:
            wa, wb = weight(a), weight(b)
            if wa < wb:
                return True
            return wa == wb and set(a.feature_positions()) <= set(
                b.feature_positions()
            )

        return Ranking(at_least, weight, mode)
    raise ValueError(f"unknown ranking mode {mode!r}")


def _check_preorder(ranking: Ranking, candidates: list[PartialAssignment]) -> None:
    for e in candidates:
        if not ranking.at_least(e, e):
            raise NotAPreorder(f"not reflexive at {e.render()}")
    for a in candidates:
        for b in candidates:
            if not ranking.at_least(a, b):
                continue
            for c in candidates:
                if ranking.at_least(b, c) and not ranking.at_least(a, c):
                    raise NotAPreorder(
                        "not transitive at "
                        f"{a.render()} / {b.render()} / {c.render()}"
                    )


def _least_weight(
    ranking: Ranking, candidates: list[PartialAssignment]
) -> tuple[PartialAssignment, ...]:
    """The maximal candidates of a weighting's ranking, in their order.

    Under either mode only a lighter candidate, or under
    ``delta-feature-refined`` an equally heavy one on a strict subset of the
    features, beats another, and no comparison with NaN holds.  So the
    maximal ones are the least-weight bucket (under ``delta-feature-refined``
    its feature-set-minimal members) and every NaN-weighted candidate.
    """
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
    return tuple(compress(candidates, keep))


def faithful_max(
    query: Query, ranking: Ranking, *, check_preorder: bool = False
) -> ExplanationSet:
    """Maximal assignments under the ranking: nothing strictly beats them.

    Enumerates the whole assignment space.  A ranking that carries its
    weighting (``ranking_from_weighting``) weighs each candidate once and
    keeps the least-weight ones (see ``_least_weight``): linear in the
    candidates.  An opaque ``Ranking`` keeps the undominated ones by
    pairwise comparison: quadratic.  With ``check_preorder`` the ranking is
    first verified reflexive and transitive over the enumerated candidates —
    cubic, desk scale only.
    """
    candidates = list(enumerate_partial_assignments(query.theory))
    if check_preorder:
        _check_preorder(ranking, candidates)
    if ranking.weighting is not None:
        return ExplanationSet("max", _least_weight(ranking, candidates))
    maximal = tuple(
        e
        for e in candidates
        if not any(ranking.strictly_better(other, e) for other in candidates)
    )
    return ExplanationSet("max", maximal)


@dataclass(frozen=True)
class FaithfulnessVerdict:
    ok: bool
    counterexample: Optional[tuple[PartialAssignment, PartialAssignment]] = None


def is_faithful(
    make_ranking: Callable[[Query], Ranking], query: Query
) -> FaithfulnessVerdict:
    """Does the ranking strictly prefer every flip to every non-flip?

    A ranking that carries its weighting passes at once when every weight
    is a number and every flip weighs less than every non-flip, one weight
    per candidate.  Otherwise, and for an opaque ``Ranking``, every
    (flip, non-flip) pair is compared, and the first failing pair in
    enumeration order is the counterexample.
    """
    ranking = make_ranking(query)
    flips: list[PartialAssignment] = []
    rest: list[PartialAssignment] = []
    for e in enumerate_partial_assignments(query.theory):
        (flips if is_member("cSuf", query, e) else rest).append(e)
    if ranking.weighting is not None:
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
