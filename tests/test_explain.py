"""The five explainer families against worked-example goldens and their
definitions, and all nine memberships against the reference checker."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfexplain import (
    CORE_KINDS,
    DERIVED_KINDS,
    PartialAssignment,
    Query,
    c_suf,
    card_min,
    decide_exp,
    dist_cap,
    dist_min,
    enumerate_partial_assignments,
    explanation_set_from_json,
    feat_min,
    find_exp,
    g_nec,
    generate,
    g_suf,
    is_derived_member,
    is_member,
    load_bundle,
    old_values,
    rank_of,
    s_nec,
    s_suf,
    substitute,
)
from cfexplain.classifier import ClassView, MaskSpace
from cfexplain.explain import AXIOM_TESTS

from helpers import (
    exhaustive_members,
    load_reference,
    multiclass_table_queries,
    random_assignment,
    random_boolean_query,
    random_novel,
    random_subset_of,
    reference_oracle,
    reference_weak_validity,
    table_queries,
)

EXPLAIN = {"gNec": g_nec, "sNec": s_nec, "gSuf": g_suf, "sSuf": s_suf, "cSuf": c_suf}


def vac():
    return load_bundle("vacation")


def assignments(bundle, *specs):
    """Each spec is a mapping (literal form) or an int (1-based instance number)."""
    out = set()
    for spec in specs:
        if isinstance(spec, int):
            out.add(bundle.instances[spec - 1])
        else:
            out.add(PartialAssignment.from_dict(bundle.theory, spec))
    return frozenset(out)


def result(kind, query):
    got = EXPLAIN[kind](query)
    assert got.kind == kind
    assert not got.truncated
    assert len(set(got.explanations)) == len(got.explanations)
    return frozenset(got.explanations)


# -- worked-example goldens: the two-feature vacation table ------------------------


def test_vacation_necessity_goldens():
    b = vac()
    q1, q2, q3 = b.query(1), b.query(2), b.query(3)
    assert result("gNec", q1) == assignments(b, {"t": "hot"})
    assert result("gNec", q2) == frozenset()
    assert result("gNec", q3) == frozenset()
    assert result("sNec", q1) == assignments(b, {"t": "hot"}, 1)
    assert result("sNec", q2) == assignments(b, {"t": "mild"}, {"a": "climbing"})
    assert result("sNec", q3) == frozenset()


def test_vacation_sufficiency_goldens():
    b = vac()
    q1, q2, q3 = b.query(1), b.query(2), b.query(3)
    assert result("gSuf", q1) == assignments(
        b, {"t": "mild"}, {"t": "freezing"}, 2, 3, 4, 5, 8, 9
    )
    assert len(result("gSuf", q1)) == 8
    assert result("gSuf", q2) == assignments(
        b, {"t": "hot"}, {"a": "reading"}, 1, 3, 5, 6, 7, 8, 9
    )
    assert result("gSuf", q3) == assignments(b, {"t": "hot"}, 1, 2, 4, 6, 7)

    assert result("sSuf", q1) == assignments(
        b, {"t": "mild"}, {"t": "freezing"}, 3, 4, 8, 9
    )
    assert result("sSuf", q2) == assignments(b, {"t": "hot"}, {"a": "reading"}, 3, 6, 7)
    assert result("sSuf", q3) == assignments(b, {"t": "hot"}, 1, 2, 7)

    assert result("cSuf", q1) == result("sSuf", q1)
    assert result("cSuf", q2) == assignments(
        b,
        {"t": "hot"},
        {"t": "freezing"},
        {"a": "reading"},
        {"a": "skiing"},
        3, 6, 7,
    )
    assert result("cSuf", q3) == assignments(b, {"t": "hot"}, {"a": "skiing"}, 1, 2, 7)


# -- worked-example goldens: the two-bit counter and the corner table ---------------


def test_bitcount_goldens():
    b = load_bundle("bitcount")
    q1, q2, q3, q4 = b.queries()
    # all-zeros and all-ones instances pin their classes exactly
    assert result("gNec", q1) == assignments(
        b, {"f1": "0"}, {"f2": "0"}, {"f1": "0", "f2": "0"}
    )
    assert result("gNec", q2) == frozenset()
    assert result("gNec", q4) == assignments(
        b, {"f1": "1"}, {"f2": "1"}, {"f1": "1", "f2": "1"}
    )
    # the middle class c2 has no strict sufficient reason anywhere
    assert result("sSuf", q2) == frozenset()
    assert result("sSuf", q3) == frozenset()
    # ... but asymmetric counterfactual recipes exist
    assert result("cSuf", q2) == assignments(b, {"f1": "1"}, {"f2": "0"})
    assert result("cSuf", q3) == assignments(b, {"f1": "0"}, {"f2": "1"})
    assert result("gSuf", q2) == assignments(
        b, {"f1": "0", "f2": "0"}, {"f1": "1", "f2": "1"}
    )


def test_corner_goldens():
    b = load_bundle("corner")
    q1 = b.query(1)
    assert result("sNec", q1) == assignments(b, {"f1": "0"})
    assert result("gNec", q1) == frozenset()
    assert result("gSuf", q1) == assignments(b, {"f1": "1", "f2": "0"})
    assert result("sSuf", q1) == frozenset()
    assert result("cSuf", q1) == assignments(b, {"f1": "1"})


# -- structural properties -----------------------------------------------------------


def test_canonical_order_and_cap():
    q = vac().query(1)
    full = g_suf(q)
    keys = [e.sort_key() for e in full.explanations]
    assert keys == sorted(keys)

    capped = g_suf(q, cap=3)
    assert capped.truncated
    assert capped.explanations == full.explanations[:3]
    assert capped.count == 3

    exact = g_suf(q, cap=full.count)
    assert not exact.truncated
    assert exact.explanations == full.explanations

    # cap=None and cap=0 both mean "no cap"
    assert g_suf(q, cap=0).explanations == full.explanations


def test_negative_cap_is_rejected():
    q = vac().query(1)
    with pytest.raises(ValueError, match="cap must not be negative"):
        generate("cSuf", q, cap=-3)
    with pytest.raises(ValueError, match="cap must not be negative"):
        feat_min(q, cap=-1)
    assert not generate("cSuf", q, cap=0).truncated


def test_set_container_api():
    q = vac().query(1)
    got = g_nec(q)
    e = next(iter(got))
    assert e in got
    assert len(got) == got.count == 1
    assert got.assignments() == frozenset([e])


def test_json_round_trip():
    q = vac().query(2)
    got = s_suf(q)
    again = explanation_set_from_json(got.to_json_dict(), q)
    assert again == got


@pytest.mark.parametrize("field, value, reason", [
    ("truncated", "no", "truncated must be true or false"),
    ("kind", ["a"], "kind must be a string"),
    ("explanations", [{"t": "hot"}, {"a": "reading"}, {"t": "hot"}],
     "explanation {'t': 'hot'} is listed twice"),
], ids=["truncated", "kind", "twice"])
def test_json_that_would_be_misread_is_rejected(field, value, reason):
    q = vac().query(1)
    raw = {**s_suf(q).to_json_dict(), field: value}
    with pytest.raises(ValueError, match=re.escape(reason)):
        explanation_set_from_json(raw, q)


def test_is_member_matches_listings():
    b = vac()
    q2 = b.query(2)
    assert is_member("sNec", q2, PartialAssignment.from_dict(b.theory, {"t": "mild"}))
    assert not is_member("gNec", q2, PartialAssignment.from_dict(b.theory, {"t": "mild"}))
    with pytest.raises(ValueError):
        is_member("mystery", q2, PartialAssignment.empty(b.theory))


def test_empty_never_explains():
    # the blank assignment is in no family: gNec/sNec demand nonemptiness or
    # class change, sufficiency of the blank patch would make kappa constant
    for name in ("vacation", "bitcount", "corner", "majority"):
        b = load_bundle(name)
        for q in b.queries():
            blank = PartialAssignment.empty(b.theory)
            for kind in CORE_KINDS:
                assert not is_member(kind, q, blank)


@given(table_queries())
@settings(max_examples=30, deadline=None)
def test_enumeration_matches_membership_filter(query):
    """Each core listing is the canonical enumeration filtered by membership,
    in that order, cut at the cap, truncated exactly when members are left."""
    for kind in CORE_KINDS:
        members = [
            e for e in enumerate_partial_assignments(query.theory) if is_member(kind, query, e)
        ]
        assert frozenset(members) == exhaustive_members(kind, query)
        for cap in (None, 1, 3):
            got = EXPLAIN[kind](query, cap)
            assert list(got) == members[:cap]
            assert got.truncated == (cap is not None and len(members) > cap)


def refuse(*args, **kwargs):
    raise AssertionError("a per-candidate question was asked")


@given(multiclass_table_queries())
@settings(max_examples=30, deadline=None)
def test_the_mask_walk_asks_no_question_per_candidate(query):
    """gSuf, sSuf, sNec and old-values carry one mask down the walk: none
    asks the space about a single candidate or lists the other instances."""
    vacation = vac().query(2)
    with pytest.MonkeyPatch.context() as patch:
        for owner, name in (
            (ClassView, "mask_containing"),
            (ClassView, "mask_residual"),
            (MaskSpace, "extending"),
            (MaskSpace, "variant"),
            (MaskSpace, "others"),
        ):
            patch.setattr(owner, name, refuse)
        for q in (vacation, query):
            for listing in (g_suf, s_suf, s_nec, old_values):
                listing(q)


@given(multiclass_table_queries(max_features=4))
@settings(max_examples=40, deadline=None)
def test_weak_validity_on_tables_is_its_definition(query):
    """Weak Validity asks x's class on the truth table whether x overwritten
    by e keeps it; the offence is that one instance's mask, and its verdict
    is the definition's."""
    for e in enumerate_partial_assignments(query.theory):
        offence = AXIOM_TESTS["WeakValidity"](query.space, query, e)
        if reference_weak_validity(query, e):
            assert offence == 1 << rank_of(substitute(query.instance, e))
        else:
            assert offence == 0


@given(table_queries())
@settings(max_examples=30, deadline=None)
def test_family_inclusions(query):
    assert result("gNec", query) <= result("sNec", query)
    ssuf = result("sSuf", query)
    assert ssuf <= result("gSuf", query)
    assert ssuf <= result("cSuf", query)
    assert result("cSuf", query)  # success: never empty


# -- every membership against the reference checker ---------------------------------


@pytest.fixture(scope="module")
def reference():
    return load_reference()


def membership_candidates(rng, q, oracle):
    """Up to two reference members of each kind, then the empty assignment,
    x, a part of x, two novel assignments and two arbitrary ones."""
    theory, x = q.theory, q.instance
    listed = [oracle.listing(kind, 2)[0] for kind in CORE_KINDS + DERIVED_KINDS]
    return [
        *(PartialAssignment(theory, values) for members in listed for values in members),
        PartialAssignment.empty(theory),
        x,
        random_subset_of(rng, x),
        random_novel(rng, x),
        random_novel(rng, x),
        random_assignment(rng, theory),
        random_assignment(rng, theory),
    ]


@given(multiclass_table_queries(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_all_nine_memberships_match_the_reference(reference, table_query, rng):
    """is_member, is_derived_member and, on formulas, decide_exp agree with
    bench/reference.py's Oracle.member for every kind (hamming distMin,
    distCap at tau = inf), on a random table and a random boolean formula of
    at most 10 features."""
    formula_query = random_boolean_query(rng, rng.randint(2, 10))
    for q in (table_query, formula_query):
        oracle = reference_oracle(reference, q)
        for e in membership_candidates(rng, q, oracle):
            for kind in CORE_KINDS + DERIVED_KINDS:
                want = oracle.member(kind, e.values)
                if kind in CORE_KINDS:
                    assert is_member(kind, q, e) == want, (kind, e.render())
                else:
                    assert is_derived_member(kind, q, e) == want, (kind, e.render())
                if q is formula_query:
                    assert decide_exp(kind, q, e) == want, (kind, e.render())


LISTINGS = {**EXPLAIN, "featMin": feat_min, "cardMin": card_min, "distMin": dist_min,
            "distCap": dist_cap}


@given(multiclass_table_queries(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_every_listing_and_find_match_the_reference(reference, table_query, rng):
    """Every listing of the nine kinds (hamming distMin, distCap at tau = inf)
    equals bench/reference.py's Oracle.listing, in order, at caps None, 1
    and 3, on a random table and a random boolean formula of at most 10
    features.  On the formula, each find_exp answer is a reference member,
    and None only where the reference listing is empty."""
    formula_query = random_boolean_query(rng, rng.randint(2, 10))
    for q in (table_query, formula_query):
        oracle = reference_oracle(reference, q)
        for kind, listing in LISTINGS.items():
            for cap in (None, 1, 3):
                got = listing(q, cap=cap)
                want, truncated = oracle.listing(kind, cap)
                assert [e.values for e in got] == want, (kind, cap)
                assert got.truncated == truncated, (kind, cap)
    for kind in LISTINGS:
        found = find_exp(kind, formula_query)
        if found is None:
            assert not oracle.listing(kind, 1)[0], kind
        else:
            assert oracle.member(kind, found.values), (kind, found.render())
