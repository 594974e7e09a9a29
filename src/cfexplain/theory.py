"""Finite classification theories and the partial-assignment algebra.

A theory fixes an ordered list of features, a finite domain (size >= 2) per
feature, and a set of class labels (size >= 2).  Partial assignments pick at
most one value per feature; an instance picks exactly one per feature.  The
module provides the substitution / disjointness operations that every
explainer is defined in terms of.

Everything here is immutable and pure; enumeration functions are generators
with a fixed deterministic order so that all downstream output is byte-stable:
instances are ordered feature-major by domain position, partial assignments by
(size, then lexicographic on (feature, value) positions).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence


class TheoryError(ValueError):
    """Invalid theory, assignment, or cross-theory operation."""


class DomainTooSmall(TheoryError):
    """Some feature domain has fewer than two values."""


class TooFewClasses(TheoryError):
    """The class set has fewer than two labels."""


class DuplicateIdentifier(TheoryError):
    """A feature, class, or domain value occurs twice."""


class TheoryMismatch(TheoryError):
    """Operands belong to different theories."""


class InvalidLiteral(TheoryError):
    """A (feature, value) pair not licensed by the theory."""


@dataclass(frozen=True)
class Theory:
    """Ordered features with finite domains, plus a class list.

    Built once with the theory: its hash, ``strides`` (``strides[i]`` is
    the rank step of feature i, see ``rank_of``) and the maps from feature
    names and domain values to their positions.
    """

    features: tuple[str, ...]
    domains: tuple[tuple[str, ...], ...]
    classes: tuple[str, ...]

    def __post_init__(self) -> None:
        strides = [1] * len(self.domains)
        for i in range(len(self.domains) - 2, -1, -1):
            strides[i] = strides[i + 1] * len(self.domains[i + 1])
        object.__setattr__(self, "strides", tuple(strides))
        object.__setattr__(self, "_feature_positions", _positions(self.features))
        object.__setattr__(self, "_value_positions", tuple(map(_positions, self.domains)))
        object.__setattr__(self, "_hash", hash((self.features, self.domains, self.classes)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def n_features(self) -> int:
        return len(self.features)

    def feature_position(self, name: str) -> int:
        try:
            return self._feature_positions[name]
        except KeyError:
            raise InvalidLiteral(f"unknown feature {name!r}") from None

    def domain(self, feature: str) -> tuple[str, ...]:
        return self.domains[self.feature_position(feature)]

    def value_position(self, feature: str, value: str) -> int:
        fi = self.feature_position(feature)
        try:
            return self._value_positions[fi][value]
        except KeyError:
            raise InvalidLiteral(
                f"value {value!r} is not in the domain of feature {feature!r}"
            ) from None

    def instance_count(self) -> int:
        return math.prod(len(d) for d in self.domains)

    def to_json_dict(self) -> dict:
        return {
            "features": [
                {"name": f, "domain": list(d)}
                for f, d in zip(self.features, self.domains)
            ],
            "classes": list(self.classes),
        }


def _positions(names: tuple[str, ...]) -> dict[str, int]:
    return {name: i for i, name in enumerate(names)}


def _json_list(value, what: str) -> Sequence:
    """The value, if it is a JSON array (a string, object or number is not)."""
    if not isinstance(value, Sequence) or isinstance(value, str):
        raise TheoryError(f"{what} must be a list")
    return value


def validate_theory(raw: Mapping) -> Theory:
    """Build a Theory from its JSON form, enforcing all invariants.

    Feature names, domain values, and class labels are coerced to strings so
    CSV- and JSON-sourced data agree on literal identity.
    """
    if not isinstance(raw, Mapping):
        raise TheoryError("theory description must be a mapping")
    try:
        raw_features = raw["features"]
        raw_classes = raw["classes"]
    except KeyError as exc:
        raise TheoryError(f"theory description missing key {exc}") from None
    features: list[str] = []
    domains: list[tuple[str, ...]] = []
    for entry in _json_list(raw_features, "'features'"):
        if not isinstance(entry, Mapping) or "name" not in entry or "domain" not in entry:
            raise TheoryError("each feature needs 'name' and 'domain'")
        name = str(entry["name"])
        domain = tuple(str(v) for v in _json_list(entry["domain"], f"the domain of {name!r}"))
        if len(domain) < 2:
            raise DomainTooSmall(
                f"feature {name!r} has {len(domain)} value(s); at least 2 required"
            )
        if len(set(domain)) != len(domain):
            raise DuplicateIdentifier(f"feature {name!r} has duplicate domain values")
        features.append(name)
        domains.append(domain)
    if len(set(features)) != len(features):
        raise DuplicateIdentifier("duplicate feature names")
    if not features:
        raise TheoryError("a theory needs at least one feature")

    classes = tuple(str(c) for c in _json_list(raw_classes, "'classes'"))
    if len(classes) < 2:
        raise TooFewClasses(f"{len(classes)} class(es); at least 2 required")
    if len(set(classes)) != len(classes):
        raise DuplicateIdentifier("duplicate class labels")

    return Theory(tuple(features), tuple(domains), classes)


@dataclass(frozen=True)
class PartialAssignment:
    """At most one (feature, value) literal per feature of a fixed theory.

    ``values[i]`` is the domain position of feature i's value, or None when
    the feature is unassigned.  An assignment covering every feature is an
    instance.
    """

    theory: Theory
    values: tuple[Optional[int], ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.theory.n_features:
            raise TheoryError("assignment length does not match feature count")
        for i, v in enumerate(self.values):
            if v is not None and not 0 <= v < len(self.theory.domains[i]):
                raise InvalidLiteral(
                    f"feature {self.theory.features[i]!r} has no value index {v}"
                )

    # -- construction -----------------------------------------------------

    @staticmethod
    def unchecked(theory: Theory, values: tuple[Optional[int], ...]) -> "PartialAssignment":
        """An assignment built without ``__post_init__``'s checks, for values
        known to fit the theory: drawn from its own ranges (enumerations,
        rank decoding) or copied from checked assignments (substitution)."""
        e = object.__new__(PartialAssignment)
        object.__setattr__(e, "theory", theory)
        object.__setattr__(e, "values", values)
        return e

    @staticmethod
    def empty(theory: Theory) -> "PartialAssignment":
        return PartialAssignment(theory, (None,) * theory.n_features)

    @staticmethod
    def from_dict(theory: Theory, mapping: Mapping) -> "PartialAssignment":
        values: list[Optional[int]] = [None] * theory.n_features
        for feature, value in mapping.items():
            fi = theory.feature_position(str(feature))
            if values[fi] is not None:
                raise DuplicateIdentifier(f"feature {feature!r} assigned twice")
            values[fi] = theory.value_position(str(feature), str(value))
        return PartialAssignment(theory, tuple(values))

    # -- views ------------------------------------------------------------

    @property
    def size(self) -> int:
        return sum(1 for v in self.values if v is not None)

    @property
    def is_instance(self) -> bool:
        return None not in self.values

    @property
    def is_empty(self) -> bool:
        return all(v is None for v in self.values)

    def feature_positions(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.values) if v is not None)

    def indexed_literals(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, v) for i, v in enumerate(self.values) if v is not None)

    def literals(self) -> tuple[tuple[str, str], ...]:
        return tuple(
            (self.theory.features[i], self.theory.domains[i][v])
            for i, v in self.indexed_literals()
        )

    def to_dict(self) -> dict[str, str]:
        return dict(self.literals())

    def render(self) -> str:
        """Human form in theory feature order, e.g. ``t=mild, a=climbing``."""
        if self.is_empty:
            return "(empty)"
        return ", ".join(f"{f}={v}" for f, v in self.literals())

    def sort_key(self) -> tuple:
        """Canonical order: size, then assigned features, then their values.

        Matches the enumeration order of ``enumerate_partial_assignments``,
        so capped prefixes of that stream are canonical-order prefixes.
        """
        feats = self.feature_positions()
        return (self.size, feats, tuple(self.values[i] for i in feats))

    # -- set algebra on literal sets ---------------------------------------

    def subset_of(self, other: "PartialAssignment") -> bool:
        _same_theory(self, other)
        return all(
            v is None or other.values[i] == v for i, v in enumerate(self.values)
        )

    def disjoint_from(self, other: "PartialAssignment") -> bool:
        _same_theory(self, other)
        return all(
            v is None or other.values[i] != v for i, v in enumerate(self.values)
        )

    def intersection(self, other: "PartialAssignment") -> "PartialAssignment":
        _same_theory(self, other)
        return PartialAssignment(
            self.theory,
            tuple(
                v if v is not None and other.values[i] == v else None
                for i, v in enumerate(self.values)
            ),
        )

    def difference(self, other: "PartialAssignment") -> "PartialAssignment":
        """Literals of self not present in other (set difference)."""
        _same_theory(self, other)
        return PartialAssignment(
            self.theory,
            tuple(
                v if v is not None and other.values[i] != v else None
                for i, v in enumerate(self.values)
            ),
        )

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.render()


def as_instance(a: PartialAssignment) -> PartialAssignment:
    if not a.is_instance:
        missing = [f for f, v in zip(a.theory.features, a.values) if v is None]
        raise TheoryError(f"not a full instance; missing features {missing}")
    return a


def _same_theory(a: PartialAssignment, b: PartialAssignment) -> None:
    if a.theory is not b.theory and a.theory != b.theory:
        raise TheoryMismatch("operands belong to different theories")


# -- enumeration ------------------------------------------------------------


def enumerate_instances(theory: Theory) -> Iterator[PartialAssignment]:
    """All instances, feature-major lexicographic in domain positions."""
    for combo in itertools.product(*(range(len(d)) for d in theory.domains)):
        yield PartialAssignment(theory, combo)


def _assignments_by_size(
    theory: Theory, allowed: Sequence[Sequence[int]], min_size: int = 0
) -> Iterator[PartialAssignment]:
    """Assignments drawing feature i's value from allowed[i], canonically
    ordered: size first, then lexicographic on (feature, value) positions."""
    n = theory.n_features
    positions = [i for i in range(n) if allowed[i]]
    for k in range(min_size, len(positions) + 1):
        for feats in itertools.combinations(positions, k):
            for vals in itertools.product(*(allowed[i] for i in feats)):
                values: list[Optional[int]] = [None] * n
                for i, v in zip(feats, vals):
                    values[i] = v
                yield PartialAssignment.unchecked(theory, tuple(values))


def enumerate_partial_assignments(theory: Theory) -> Iterator[PartialAssignment]:
    """All partial assignments in canonical (size, lexicographic) order.

    The empty assignment comes first; the full product count is
    prod(|domain(f)| + 1) over features.
    """
    return _assignments_by_size(
        theory, [range(len(d)) for d in theory.domains], min_size=0
    )


def substitute(x: PartialAssignment, e: PartialAssignment) -> PartialAssignment:
    """The instance obtained from x by overwriting e's features with e."""
    as_instance(x)
    _same_theory(x, e)
    return PartialAssignment.unchecked(
        x.theory,
        tuple(e.values[i] if e.values[i] is not None else x.values[i]
              for i in range(x.theory.n_features)),
    )


def hamming(x: PartialAssignment, y: PartialAssignment) -> float:
    """Number of features on which the two instances differ."""
    return float(sum(1 for a, b in zip(x.values, y.values) if a != b))


def novel_assignments(
    x: PartialAssignment, min_size: int = 0
) -> Iterator[PartialAssignment]:
    """The assignments sharing no literal with the instance x, i.e. using
    only values other than x's (canonical order)."""
    as_instance(x)
    allowed = [
        [v for v in range(len(domain)) if v != xv]
        for domain, xv in zip(x.theory.domains, x.values)
    ]
    return _assignments_by_size(x.theory, allowed, min_size=min_size)


def subsets_of(
    a: PartialAssignment, min_size: int = 0
) -> Iterator[PartialAssignment]:
    """All sub-assignments of a in canonical order."""
    allowed = [[v] if v is not None else [] for v in a.values]
    return _assignments_by_size(a.theory, allowed, min_size=min_size)


# -- instance ranks -----------------------------------------------------------
#
# Instances are numbered 0..prod|d(f)|-1 in enumeration order (feature-major).
# Ranks let classifiers store one flat row per instance and let oracle code
# walk truth tables without materializing assignment objects.


def rank_of(x: PartialAssignment) -> int:
    as_instance(x)
    s = x.theory.strides
    return sum(v * s[i] for i, v in enumerate(x.values))


def instance_of_rank(theory: Theory, rank: int) -> PartialAssignment:
    s = theory.strides
    values = []
    for i in range(theory.n_features):
        values.append((rank // s[i]) % len(theory.domains[i]))
    return PartialAssignment.unchecked(theory, tuple(values))
