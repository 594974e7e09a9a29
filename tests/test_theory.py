"""Feature spaces, partial assignments, and their algebra."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfexplain import (
    DomainTooSmall,
    DuplicateIdentifier,
    InvalidLiteral,
    PartialAssignment,
    TheoryError,
    TheoryMismatch,
    TooFewClasses,
    enumerate_instances,
    enumerate_partial_assignments,
    instance_of_rank,
    novel_assignments,
    rank_of,
    subsets_of,
    substitute,
    validate_theory,
)

from helpers import make_theory, random_subset_of, residual, small_theories


def vacation_theory():
    return validate_theory(
        {
            "features": [
                {"name": "t", "domain": ["hot", "mild", "freezing"]},
                {"name": "a", "domain": ["climbing", "reading", "skiing"]},
            ],
            "classes": ["beach", "mountain", "cinema"],
        }
    )


# -- construction and validation ----------------------------------------------


def test_counts_and_accessors():
    t = vacation_theory()
    assert t.n_features == 2
    assert t.instance_count() == 9
    assert len(list(enumerate_partial_assignments(t))) == 16  # (3+1) * (3+1)
    assert t.feature_position("a") == 1
    assert t.domain("t") == ("hot", "mild", "freezing")
    assert t.value_position("a", "skiing") == 2


def test_validation_errors():
    with pytest.raises(TheoryError):
        validate_theory({"features": []})  # missing classes
    with pytest.raises(TheoryError):
        validate_theory({"features": [], "classes": ["a", "b"]})
    with pytest.raises(DomainTooSmall):
        validate_theory(
            {"features": [{"name": "f", "domain": ["only"]}], "classes": ["a", "b"]}
        )
    with pytest.raises(TooFewClasses):
        validate_theory(
            {"features": [{"name": "f", "domain": ["0", "1"]}], "classes": ["a"]}
        )
    with pytest.raises(DuplicateIdentifier):
        validate_theory(
            {
                "features": [
                    {"name": "f", "domain": ["0", "1"]},
                    {"name": "f", "domain": ["0", "1"]},
                ],
                "classes": ["a", "b"],
            }
        )
    with pytest.raises(DuplicateIdentifier):
        validate_theory(
            {"features": [{"name": "f", "domain": ["0", "0"]}], "classes": ["a", "b"]}
        )
    with pytest.raises(DuplicateIdentifier):
        validate_theory(
            {"features": [{"name": "f", "domain": ["0", "1"]}], "classes": ["a", "a"]}
        )


def test_values_are_coerced_to_strings():
    t = validate_theory(
        {"features": [{"name": "n", "domain": [0, 1]}], "classes": [1, 2]}
    )
    assert t.domain("n") == ("0", "1")
    assert t.classes == ("1", "2")


@pytest.mark.parametrize("value", ["xy", {"x": 1, "y": 2}, 5])
def test_domain_and_classes_must_be_json_arrays(value):
    """A string, object or number is not read as its characters, its keys
    or a TypeError: it is a TheoryError."""
    good = {"features": [{"name": "n", "domain": ["0", "1"]}], "classes": ["p", "q"]}
    bad_domain = {**good, "features": [{"name": "n", "domain": value}]}
    with pytest.raises(TheoryError, match="the domain of 'n' must be a list"):
        validate_theory(bad_domain)
    with pytest.raises(TheoryError, match="'classes' must be a list"):
        validate_theory({**good, "classes": value})


def test_theory_json_round_trip():
    t = vacation_theory()
    again = validate_theory(json.loads(json.dumps(t.to_json_dict())))
    assert again == t


def test_assignment_validation():
    t = vacation_theory()
    with pytest.raises(TheoryError):
        PartialAssignment(t, (0,))  # wrong arity
    with pytest.raises(InvalidLiteral):
        PartialAssignment(t, (0, 3))
    with pytest.raises(InvalidLiteral):
        PartialAssignment.from_dict(t, {"bogus": "hot"})
    with pytest.raises(InvalidLiteral):
        PartialAssignment.from_dict(t, {"t": "sweltering"})


def test_from_dict_and_views():
    t = vacation_theory()
    x = PartialAssignment.from_dict(t, {"a": "climbing", "t": "hot"})
    assert x.values == (0, 0)
    assert x.is_instance and not x.is_empty and x.size == 2
    assert x.literals() == (("t", "hot"), ("a", "climbing"))
    assert x.render() == "t=hot, a=climbing"
    assert PartialAssignment.empty(t).render() == "(empty)"
    assert PartialAssignment.from_dict(t, x.to_dict()) == x


# -- set algebra ---------------------------------------------------------------


def test_algebra_on_vacation():
    t = vacation_theory()
    x1 = PartialAssignment.from_dict(t, {"t": "hot", "a": "climbing"})
    e = PartialAssignment.from_dict(t, {"t": "hot"})
    other = PartialAssignment.from_dict(t, {"t": "mild", "a": "climbing"})
    assert e.subset_of(x1)
    assert not x1.subset_of(e)
    assert x1.intersection(other).render() == "a=climbing"
    assert x1.difference(other).render() == "t=hot"
    assert e.disjoint_from(other)
    assert not e.disjoint_from(x1)


def test_mixed_theories_rejected():
    a = make_theory([2, 2])
    b = make_theory([2, 3])
    with pytest.raises(TheoryMismatch):
        PartialAssignment.empty(a).subset_of(PartialAssignment.empty(b))


# -- enumeration order -----------------------------------------------------------


def test_instance_enumeration_is_feature_major():
    t = make_theory([2, 3])
    ranks = [x.values for x in enumerate_instances(t)]
    assert ranks == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]


def test_partial_enumeration_is_canonical_and_complete():
    t = make_theory([2, 3])
    stream = list(enumerate_partial_assignments(t))
    assert len(stream) == 12  # (2+1) * (3+1)
    assert stream[0].is_empty
    assert [a.sort_key() for a in stream] == sorted(a.sort_key() for a in stream)
    assert len(set(stream)) == len(stream)


def test_subsets_and_disjoint_streams():
    t = vacation_theory()
    x = PartialAssignment.from_dict(t, {"t": "hot", "a": "climbing"})
    subs = list(subsets_of(x))
    assert len(subs) == 4
    assert all(s.subset_of(x) for s in subs)
    assert list(subsets_of(x, min_size=1)) == subs[1:]

    novel = list(novel_assignments(x))
    # (2+1)*(2+1) combinations of "other value or unassigned"
    assert len(novel) == 9
    assert all(n.disjoint_from(x) for n in novel)

    assert [n.sort_key() for n in novel] == sorted(n.sort_key() for n in novel)
    assert list(novel_assignments(x, min_size=1)) == novel[1:]
    with pytest.raises(TheoryError):
        novel_assignments(PartialAssignment.from_dict(t, {"t": "hot"}))


# -- substitution, residual, ranks ------------------------------------------------


def test_substitute_overwrites():
    t = vacation_theory()
    x = PartialAssignment.from_dict(t, {"t": "hot", "a": "climbing"})
    e = PartialAssignment.from_dict(t, {"a": "skiing"})
    assert substitute(x, e).to_dict() == {"t": "hot", "a": "skiing"}
    assert substitute(x, PartialAssignment.empty(t)) == x
    with pytest.raises(TheoryError):
        substitute(e, x)  # first argument must be an instance


def test_residual_examples():
    t = vacation_theory()
    x = PartialAssignment.from_dict(t, {"t": "hot", "a": "climbing"})
    e = PartialAssignment.from_dict(t, {"t": "hot"})
    res = residual(x, e)
    assert sorted(y.to_dict()["t"] for y in res) == ["freezing", "mild"]
    assert all(y.to_dict()["a"] == "climbing" for y in res)
    # not part of x -> empty residual
    off = PartialAssignment.from_dict(t, {"t": "mild"})
    assert residual(x, off) == []


def test_a_theory_keeps_its_strides_and_hash():
    t = make_theory([2, 3, 2])
    assert t.strides == (6, 2, 1)
    assert rank_of(PartialAssignment(t, (1, 2, 1))) == 6 + 4 + 1
    again = make_theory([2, 3, 2])
    assert again == t and hash(again) == hash(t) == hash((t.features, t.domains, t.classes))
    assert repr(t) == f"Theory(features={t.features!r}, domains={t.domains!r}, classes={t.classes!r})"


def test_rank_round_trip():
    t = make_theory([2, 3, 2])
    for r in range(t.instance_count()):
        assert rank_of(instance_of_rank(t, r)) == r


# -- property tests ---------------------------------------------------------------


@given(small_theories())
@settings(max_examples=40, deadline=None)
def test_assignment_count_matches_stream(theory):
    stream = list(enumerate_partial_assignments(theory))
    assert len(stream) == math.prod(len(d) + 1 for d in theory.domains)


@given(small_theories(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_residual_size_law(theory, rng):
    x = instance_of_rank(theory, rng.randrange(theory.instance_count()))
    e = random_subset_of(rng, x)
    res = residual(x, e)
    expected = math.prod(
        len(theory.domains[i]) - 1 for i in e.feature_positions()
    )
    assert len(res) == expected
    assert all(y.is_instance for y in res)
    assert all(x.difference(y) == e for y in res)


@given(small_theories(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_substitute_contains_patch(theory, rng):
    x = instance_of_rank(theory, rng.randrange(theory.instance_count()))
    e = random_subset_of(rng, x)
    y = substitute(x, e)
    assert e.subset_of(y)
    assert y.difference(e).subset_of(x)
