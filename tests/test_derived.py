"""Minimality- and distance-based explainers plus the faithful-ranking machinery."""

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfexplain import (
    DERIVED_KINDS,
    DistanceError,
    PartialAssignment,
    Query,
    Ranking,
    TableClassifier,
    c_suf,
    card_min,
    dist_cap,
    dist_min,
    distance_weighting,
    enumerate_partial_assignments,
    faithful_max,
    feat_min,
    hamming,
    indicator_weighting,
    instance_of_rank,
    is_derived_member,
    is_faithful,
    load_bundle,
    parse_weights,
    ranking_from_weighting,
    size_weighting,
    substitute,
    weighted_distance,
)

from cfexplain import derived, explain
from cfexplain.audit import generated_probe_queries
from cfexplain.classifier import MaskSpace
from cfexplain.explain import collect
from helpers import (
    load_reference,
    make_theory,
    minimal_hitting_sets,
    multiclass_table_queries,
    random_assignment,
    random_novel,
    reference_axps,
    reference_faithful_max,
    reference_is_faithful,
    reference_oracle,
    table_queries,
)


def vac():
    return load_bundle("vacation")


def lits(bundle, *dicts):
    return frozenset(
        PartialAssignment.from_dict(bundle.theory, d) for d in dicts
    )


# -- worked-example goldens ----------------------------------------------------------


def test_feature_minimal_flips_on_vacation():
    b = vac()
    assert frozenset(feat_min(b.query(1))) == lits(b, {"t": "mild"}, {"t": "freezing"})
    # every single-feature flip is kept at Q2 and Q3: no flip's feature set
    # is strictly inside another's
    assert frozenset(feat_min(b.query(2))) == lits(
        b, {"t": "hot"}, {"t": "freezing"}, {"a": "reading"}, {"a": "skiing"}
    )
    assert frozenset(feat_min(b.query(3))) == lits(b, {"t": "hot"}, {"a": "skiing"})


def test_cardinality_minimal_flips_on_vacation():
    b = vac()
    for i in (1, 2, 3):
        assert frozenset(card_min(b.query(i))) == frozenset(feat_min(b.query(i)))


def test_distance_minimal_flips():
    b = vac()
    q1 = b.query(1)
    assert frozenset(dist_min(q1)) == frozenset(card_min(q1))

    # a measure that singles out the mountain counterfactual
    x2 = b.instances[1]
    dd = lambda y, x: 1.0 if y == x2 else 2.0
    assert frozenset(dist_min(q1, distance=dd)) == lits(b, {"t": "mild"})


def test_distance_capped_flips():
    b = vac()
    q1 = b.query(1)
    assert frozenset(dist_cap(q1, hamming, tau=2)) == lits(
        b, {"t": "mild"}, {"t": "freezing"}
    )
    assert dist_cap(q1, hamming, tau=0).count == 0
    everything = dist_cap(q1, hamming, tau=math.inf)
    assert frozenset(everything) == frozenset(c_suf(q1))
    with pytest.raises(DistanceError):
        dist_cap(q1, hamming, tau=-1)


def test_derived_sets_are_flip_subsets():
    for name in ("vacation", "bitcount", "corner", "majority"):
        b = load_bundle(name)
        for q in b.queries():
            flips = frozenset(c_suf(q))
            wf = frozenset(feat_min(q))
            card = frozenset(card_min(q))
            assert card <= wf <= flips
            assert card and wf  # success carries over


# -- membership oracles ----------------------------------------------------------------


@given(
    table_queries(),
    st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5]), min_size=3, max_size=3),
    st.sampled_from([0.5, 1.0, 2.0, 3.5, math.inf]),
)
@settings(max_examples=60, deadline=None)
def test_is_derived_member_matches_enumeration(query, weights, tau):
    theory = query.theory
    weighted = weighted_distance(dict(zip(theory.features, weights)), theory)
    for distance in (hamming, weighted):
        listed = {
            "featMin": feat_min(query),
            "cardMin": card_min(query),
            "distMin": dist_min(query, distance=distance),
            "distCap": dist_cap(query, distance=distance, tau=tau),
        }
        assert set(listed) == set(DERIVED_KINDS)
        for e in enumerate_partial_assignments(theory):
            for kind, members in listed.items():
                got = is_derived_member(kind, query, e, distance=distance, tau=tau)
                assert got == (e in members.assignments()), (kind, e.render())


@pytest.fixture(scope="module")
def reference():
    return load_reference()


def smallest_flips(kind, query, cap):
    """cardMin by its definition: the flips of minimum size, in flip order."""
    flips = c_suf(query).explanations
    best = min(e.size for e in flips)
    return collect(kind, [e for e in flips if e.size == best], cap)


@given(multiclass_table_queries(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_smallest_flips_match_their_definition_and_the_reference(reference, query, rng):
    """cardMin and hamming distMin, listed at several caps and decided on
    random candidates, against the definition and bench/reference.py; the
    weighted distMin decision against its own listing."""
    theory = query.theory
    oracle = reference_oracle(reference, query)
    for cap in (None, 1, 3):
        for kind, got in (
            ("cardMin", card_min(query, cap)),
            ("distMin", dist_min(query, hamming, cap)),
        ):
            assert got == smallest_flips(kind, query, cap)
            assert ([e.values for e in got], got.truncated) == oracle.listing(kind, cap)
    weights = {f: rng.choice([0.0, 0.5, 1.0, 2.5]) for f in theory.features}
    weighted = weighted_distance(weights, theory)
    members = card_min(query).assignments()
    weighted_members = dist_min(query, weighted).assignments()
    candidates = [
        *members,
        *weighted_members,
        *(random_novel(rng, query.instance) for _ in range(8)),
        *(random_assignment(rng, theory) for _ in range(8)),
    ]
    for e in candidates:
        for kind in ("cardMin", "distMin"):
            got = is_derived_member(kind, query, e)
            assert got == (e in members) == oracle.member(kind, e.values), (kind, e.render())
        got = is_derived_member("distMin", query, e, distance=weighted)
        assert got == (e in weighted_members), e.render()


def test_smallest_flips_come_from_the_masks(monkeypatch):
    """On a 3^7 threshold table, deciding cardMin builds no flip from a
    rank, listing it builds one per member, and listing cardMin, cSuf or
    featMin classifies nothing."""
    theory = make_theory([3] * 7)
    ranks = range(theory.instance_count())
    labels = ["c1" if sum(instance_of_rank(theory, r).values) >= 9 else "c0" for r in ranks]
    q = Query(theory, TableClassifier(theory, labels), instance_of_rank(theory, 0))
    assert q.label == "c0" and q.classifier.view
    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    rank, classify = MaskSpace.flip_of_rank, TableClassifier.classify
    monkeypatch.setattr(MaskSpace, "flip_of_rank", staticmethod(counting("rank", rank)))
    monkeypatch.setattr(TableClassifier, "classify", counting("classify", classify))
    listed = card_min(q)
    assert listed.count == 126  # four or five of the five changed values at 2
    assert calls["rank"] <= listed.count and calls["classify"] == 0
    calls.clear()
    assert is_derived_member("cardMin", q, listed.explanations[0])
    assert calls["rank"] == 0
    calls.clear()
    assert c_suf(q).count == labels.count("c1") and feat_min(q).count
    assert calls["classify"] == 0


def test_is_derived_member_rejects_unknown_kind():
    q = vac().query(1)
    with pytest.raises(ValueError):
        is_derived_member("grand", q, PartialAssignment.empty(q.theory))


# -- distance plumbing -------------------------------------------------------------------


def test_parse_weights_validation():
    t = make_theory([2, 2])
    good = {"f1": 1, "f2": 2.5}
    assert parse_weights(good, t) == {"f1": 1.0, "f2": 2.5}
    with pytest.raises(DistanceError):
        parse_weights(["f1"], t)
    with pytest.raises(DistanceError):
        parse_weights({"f1": 1, "zz": 1}, t)
    with pytest.raises(DistanceError):
        parse_weights({"f1": "heavy", "f2": 1}, t)
    with pytest.raises(DistanceError):
        parse_weights({"f1": -1, "f2": 1}, t)
    with pytest.raises(DistanceError):
        parse_weights({"f1": math.inf, "f2": 1}, t)
    with pytest.raises(DistanceError):
        parse_weights({"f1": 1}, t)


def test_weighted_distance_reweights_minima():
    b = vac()
    q1 = b.query(1)
    # activity changes are cheap, temperature changes expensive
    dd = weighted_distance({"t": 5, "a": 1}, b.theory)
    got = frozenset(dist_min(q1, distance=dd))
    # cheapest flips now change only the activity... but no activity-only
    # flip leaves the beach, so the best flips change t alone (cost 5)
    assert got == lits(b, {"t": "mild"}, {"t": "freezing"})

    q3 = b.query(3)
    got = frozenset(dist_min(q3, distance=dd))
    assert got == lits(b, {"a": "skiing"})


# -- faithful rankings --------------------------------------------------------------------


def test_faithful_max_reproduces_each_family():
    b = vac()
    for i in (1, 2, 3):
        q = b.query(i)
        wf = faithful_max(
            q,
            ranking_from_weighting(
                indicator_weighting(q), "delta-feature-refined"
            ),
        )
        assert frozenset(wf) == frozenset(feat_min(q))

        card = faithful_max(q, ranking_from_weighting(size_weighting(q)))
        assert frozenset(card) == frozenset(card_min(q))

        dist = faithful_max(q, ranking_from_weighting(distance_weighting(q)))
        assert frozenset(dist) == frozenset(dist_min(q))


def test_is_faithful_verdicts():
    q = vac().query(1)
    for factory in (
        lambda qq: ranking_from_weighting(
            indicator_weighting(qq), "delta-feature-refined"
        ),
        lambda qq: ranking_from_weighting(size_weighting(qq)),
        lambda qq: ranking_from_weighting(distance_weighting(qq)),
    ):
        assert is_faithful(factory, q).ok

    # preferring big assignments is not faithful: non-flips beat flips
    def backwards(qq):
        return ranking_from_weighting(lambda e: -float(e.size))

    verdict = is_faithful(backwards, q)
    assert not verdict.ok
    assert verdict.counterexample is not None
    flip, nonflip = verdict.counterexample
    from cfexplain import is_member

    assert is_member("cSuf", q, flip)
    assert not is_member("cSuf", q, nonflip)


MODES = ("min-is-better", "delta-feature-refined")


def _palette(q):
    """Ties, +-inf and NaN, fixed by e's literals."""
    palette = (math.nan, math.inf, -math.inf, 0.0, 1.0, 1.0, 2.0)
    return lambda e: palette[sum((i + 2) * (v + 1) for i, v in e.indexed_literals()) % 7]


def _nan_past_size_one(q):
    w = size_weighting(q)
    return lambda e: math.nan if e.size > 1 else w(e)


WEIGHTINGS = (
    indicator_weighting,
    size_weighting,
    distance_weighting,
    lambda q: (lambda e: -float(e.size)),  # prefers non-flips: not faithful
    _palette,
    _nan_past_size_one,
)


def test_weighting_rankings_answer_as_the_pairwise_path():
    """faithful_max and is_faithful give the pairwise definitions' maximal
    tuple, in its order, and their verdict and counterexample."""
    probes = generated_probe_queries()
    picks = sorted(random.Random(17).sample(range(len(probes)), 30))
    queries = [probes[i] for i in picks]
    for name in ("vacation", "bitcount", "corner", "majority"):
        queries += load_bundle(name).queries()
    verdicts = Counter()
    for q in queries:
        for make in WEIGHTINGS:
            for mode in MODES:
                def weighed(qq, make=make, mode=mode):
                    return ranking_from_weighting(make(qq), mode)

                got = faithful_max(q, weighed(q)).explanations
                assert got == reference_faithful_max(q, make(q), mode)
                verdict = is_faithful(weighed, q)
                assert (verdict.ok, verdict.counterexample) == reference_is_faithful(
                    q, make(q), mode
                )
                verdicts[verdict.ok] += 1
    assert verdicts[True] and verdicts[False]


def test_weighting_rankings_never_ask_at_least(monkeypatch):
    """Maximal sets and passing verdicts come from the weights alone."""

    def refuse(self, a, b):
        raise AssertionError("a pairwise comparison was asked")

    monkeypatch.setattr(Ranking, "at_least", refuse)
    monkeypatch.setattr(Ranking, "strictly_better", refuse)
    q = vac().query(2)
    for make, mode, family in (
        (indicator_weighting, "delta-feature-refined", feat_min),
        (size_weighting, "min-is-better", card_min),
        (distance_weighting, "min-is-better", dist_min),
    ):
        def weighed(qq, make=make, mode=mode):
            return ranking_from_weighting(make(qq), mode)

        assert frozenset(faithful_max(q, weighed(q))) == frozenset(family(q))
        assert is_faithful(weighed, q).ok


def test_the_ranking_pass_asks_no_membership(monkeypatch):
    """The weightings and is_faithful read x's flips off one listing, never
    through membership."""

    def refuse(*args, **kwargs):
        raise AssertionError("membership was asked")

    monkeypatch.setattr(explain, "membership", refuse)
    monkeypatch.setattr(derived, "membership", refuse)
    probes = generated_probe_queries()
    for q in [vac().query(2), *probes[::400]]:
        for weighting, mode in (
            (indicator_weighting, "delta-feature-refined"),
            (size_weighting, "min-is-better"),
            (distance_weighting, "min-is-better"),
        ):
            def weighed(qq, weighting=weighting, mode=mode):
                return ranking_from_weighting(weighting(qq), mode)

            assert faithful_max(q, weighed(q)).count
            assert is_faithful(weighed, q).ok


def test_weightings_reject_an_assignment_of_another_theory():
    q = vac().query(1)
    stranger = PartialAssignment.empty(make_theory([2, 2]))
    for weighting in (indicator_weighting, size_weighting, distance_weighting):
        with pytest.raises(ValueError, match="different theory"):
            weighting(q)(stranger)


def test_ranking_mode_validation():
    q = vac().query(1)
    with pytest.raises(ValueError):
        ranking_from_weighting(size_weighting(q), mode="mystery")


# -- properties over random tables ------------------------------------------------------


@given(table_queries())
@settings(max_examples=30, deadline=None)
def test_minimality_chain(query):
    flips = frozenset(c_suf(query))
    wf = frozenset(feat_min(query))
    card = frozenset(card_min(query))
    assert card <= wf <= flips
    assert card  # nonempty because flips are never empty


@given(table_queries())
@settings(max_examples=30, deadline=None)
def test_hamming_minimal_equals_cardinality_minimal(query):
    # novel assignments change every named feature, so hamming distance of
    # the counterfactual equals the assignment's size
    assert frozenset(dist_min(query)) == frozenset(card_min(query))
    for e in c_suf(query):
        assert hamming(substitute(query.instance, e), query.instance) == e.size


# -- AXp/CXp duality ---------------------------------------------------------------------


def assert_duality(query):
    """featMin's feature sets (the CXps) and the AXps are each other's minimal
    hitting sets (Ignatiev, Narodytska, Asher & Marques-Silva, AIxIA 2020)."""
    n = query.theory.n_features
    cxps = {frozenset(e.feature_positions()) for e in feat_min(query)}
    axps = reference_axps(query)
    assert minimal_hitting_sets(cxps, n) == axps, query.instance.render()
    assert minimal_hitting_sets(axps, n) == cxps, query.instance.render()


def test_feature_minimal_flips_are_dual_to_abductive_explanations_on_the_probes():
    for q in generated_probe_queries():
        assert_duality(q)


@given(table_queries())
@settings(max_examples=60, deadline=None)
def test_feature_minimal_flips_are_dual_to_abductive_explanations(query):
    assert_duality(query)
