"""Reference checker: every family, selection and axiom from its definition.

This module never imports cfexplain.  It works on the benchmark's own truth
tables: a classifier is a list of domain sizes plus one class label per
instance rank (feature-major, last feature fastest), turned into
bit-parallel Python ints, one per (feature, value) pair and per class.  An
assignment is a tuple with one entry per feature, a value index or None.

Definitions (README, "The explainer families"), for a query instance x with
class c:

    gNec     nonempty E inside every instance of class c
    sNec     E part of x; every instance differing from x exactly on E's
             features leaves class c
    gSuf     every instance extending E leaves class c
    sSuf     gSuf members sharing no literal with x
    cSuf     nonempty E sharing no literal with x; overwriting x with E
             leaves class c ("flips")
    featMin  flips whose feature set is inclusion-minimal among flips
    cardMin  flips of fewest literals
    distMin  flips closest to x (Hamming: the flip's size, since a flip
             changes every feature it names)
    distCap  flips strictly closer than tau (tau = inf: every flip)

Listings are in canonical order: size, then feature positions, then value
positions.  ``self_check`` tests the checker on the worked examples.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, Optional, Sequence

KINDS = (
    "gNec", "sNec", "gSuf", "sSuf", "cSuf",
    "featMin", "cardMin", "distMin", "distCap",
)
CORE_KINDS = KINDS[:5]

Assignment = tuple  # tuple[Optional[int], ...]


def canonical_key(e: Assignment) -> tuple:
    feats = tuple(i for i, v in enumerate(e) if v is not None)
    return (len(feats), feats, tuple(e[i] for i in feats))


def size(e: Assignment) -> int:
    return len(e) - e.count(None)


def literals(e: Assignment) -> list[tuple[int, int]]:
    return [(i, v) for i, v in enumerate(e) if v is not None]


def subset(e: Assignment, x: Assignment) -> bool:
    return all(v is None or x[i] == v for i, v in enumerate(e))


def disjoint(e: Assignment, x: Assignment) -> bool:
    return all(v is None or x[i] != v for i, v in enumerate(e))


def overwrite(x: Assignment, e: Assignment) -> Assignment:
    return tuple(x[i] if v is None else v for i, v in enumerate(e))


def difference(a: Assignment, b: Assignment) -> Assignment:
    """Literals of a that b does not share."""
    return tuple(v if v is not None and b[i] != v else None for i, v in enumerate(a))


def feature_bits(e: Assignment) -> int:
    return sum(1 << i for i, v in enumerate(e) if v is not None)


def _repeat(pattern: int, period: int, total: int) -> int:
    """``pattern`` (one period long) tiled over ``total`` bits."""
    mask, length = pattern, period
    while length < total:
        mask |= mask << length
        length *= 2
    return mask & ((1 << total) - 1)


class Table:
    """A classifier as a truth table over a finite feature space."""

    def __init__(self, sizes: Sequence[int], class_masks: dict[str, int]):
        self.sizes = tuple(sizes)
        self.n = len(self.sizes)
        self.rows = math.prod(self.sizes)
        self.full = (1 << self.rows) - 1
        self.strides = [math.prod(self.sizes[i + 1:]) for i in range(self.n)]
        self.value_masks = []
        for i, d in enumerate(self.sizes):
            stride = self.strides[i]
            run = (1 << stride) - 1
            self.value_masks.append(
                [_repeat(run << (v * stride), stride * d, self.rows) for v in range(d)]
            )
        self.class_masks = class_masks
        if sum(bin(m).count("1") for m in class_masks.values()) != self.rows:
            raise ValueError("class masks do not partition the instance space")

    @classmethod
    def from_labels(cls, sizes: Sequence[int], labels: Sequence[str]) -> "Table":
        bits: dict[str, list[str]] = {}
        for c in dict.fromkeys(labels):
            bits[c] = ["1" if label == c else "0" for label in reversed(labels)]
        return cls(sizes, {c: int("".join(b), 2) for c, b in bits.items()})

    @classmethod
    def boolean(cls, n: int, true_mask_of) -> "Table":
        """A two-class table over n boolean features; ``true_mask_of(atom)``
        builds the true-set from the per-feature masks ``atom(i)``."""
        shell = cls([2] * n, {"T": (1 << (1 << n)) - 1, "F": 0})
        true = true_mask_of(lambda i: shell.value_masks[i][1]) & shell.full
        shell.class_masks = {"T": true, "F": shell.full & ~true}
        return shell

    # -- instances -----------------------------------------------------------

    def rank(self, x: Assignment) -> int:
        return sum(v * s for v, s in zip(x, self.strides))

    def instance(self, rank: int) -> Assignment:
        return tuple((rank // s) % d for s, d in zip(self.strides, self.sizes))

    def label(self, x: Assignment) -> str:
        r = self.rank(x)
        for c, m in self.class_masks.items():
            if (m >> r) & 1:
                return c
        raise AssertionError("instance without a class")

    def containing(self, e: Assignment) -> int:
        mask = self.full
        for i, v in literals(e):
            mask &= self.value_masks[i][v]
        return mask

    def residual(self, x: Assignment, e: Assignment) -> int:
        """Instances differing from x exactly on e's features (e part of x)."""
        if not subset(e, x):
            return 0
        mask = self.full
        for i, xv in enumerate(x):
            if e[i] is None:
                mask &= self.value_masks[i][xv]
            else:
                mask &= ~self.value_masks[i][xv]
        return mask & self.full

    def core(self, c: str) -> Assignment:
        cmask = self.class_masks[c]
        values: list[Optional[int]] = [None] * self.n
        for i, masks in enumerate(self.value_masks):
            for v, m in enumerate(masks):
                if cmask & ~m == 0:
                    values[i] = v
                    break
        return tuple(values)


def _canonical(allowed: Sequence[Sequence[int]], min_size: int = 0) -> Iterator[Assignment]:
    """Assignments drawing feature i from allowed[i], in canonical order."""
    n = len(allowed)
    positions = [i for i in range(n) if allowed[i]]
    for k in range(min_size, len(positions) + 1):
        for feats in itertools.combinations(positions, k):
            for vals in itertools.product(*(allowed[i] for i in feats)):
                e = [None] * n
                for i, v in zip(feats, vals):
                    e[i] = v
                yield tuple(e)


class Oracle:
    """Reference answers for one query (table, instance)."""

    def __init__(self, table: Table, x: Assignment):
        self.t = table
        self.x = tuple(x)
        self.c = table.label(self.x)
        self.cmask = table.class_masks[self.c]
        self._flips: Optional[list[Assignment]] = None
        self._listings: dict[tuple, tuple[list[Assignment], bool]] = {}
        self._min_flip: Optional[int] = None
        self._flip_sets: Optional[set[int]] = None

    # -- membership -------------------------------------------------------------

    def member(self, kind: str, e: Assignment) -> bool:
        t, x, cmask = self.t, self.x, self.cmask
        if kind == "gNec":
            return size(e) > 0 and cmask & ~t.containing(e) == 0
        if kind == "sNec":
            return size(e) > 0 and subset(e, x) and t.residual(x, e) & cmask == 0
        if kind == "gSuf":
            return t.containing(e) & cmask == 0
        if kind == "sSuf":
            return disjoint(e, x) and t.containing(e) & cmask == 0
        if kind == "cSuf":
            return self.is_flip(e)
        if not self.is_flip(e):
            return False
        if kind == "featMin":
            mine = feature_bits(e)
            return not any(
                f & mine == f and f != mine for f in self._flip_feature_sets()
            )
        if kind in ("cardMin", "distMin"):
            return size(e) == self.min_flip_size()
        if kind == "distCap":
            return True
        raise ValueError(f"unknown kind {kind!r}")

    def is_flip(self, e: Assignment) -> bool:
        if size(e) == 0 or not disjoint(e, self.x):
            return False
        return not (self.cmask >> self.t.rank(overwrite(self.x, e))) & 1

    # -- listings -----------------------------------------------------------------

    def listing(self, kind: str, cap: Optional[int] = None) -> tuple[list[Assignment], bool]:
        """The first ``cap`` members in canonical order, and whether more exist."""
        key = (kind, cap)
        if key not in self._listings:
            out = list(itertools.islice(self._members(kind), None if not cap else cap + 1))
            self._listings[key] = (out[:cap], True) if cap and len(out) > cap else (out, False)
        return self._listings[key]

    def _members(self, kind: str) -> Iterator[Assignment]:
        t, x = self.t, self.x
        if kind == "gNec":
            core = t.core(self.c)
            return _canonical([[v] if v is not None else [] for v in core], 1)
        if kind == "sNec":
            return (e for e in _canonical([[v] for v in x], 1) if self.member("sNec", e))
        if kind == "gSuf":
            return self._gsuf(novel_only=False)
        if kind == "sSuf":
            return self._gsuf(novel_only=True)
        flips = self.flips()
        if kind == "cSuf" or kind == "distCap":
            return iter(flips)
        if kind == "featMin":
            minimal = self._minimal_feature_sets()
            return (e for e in flips if feature_bits(e) in minimal)
        if kind in ("cardMin", "distMin"):
            best = self.min_flip_size()
            return (e for e in flips if size(e) == best)
        raise ValueError(f"unknown kind {kind!r}")

    def _gsuf(self, novel_only: bool) -> Iterator[Assignment]:
        """Canonical order, with the instances-kept mask carried down the
        choice of values so that each candidate costs one AND."""
        n, vm = self.t.n, self.t.value_masks
        allowed = [
            [v for v in range(d) if not (novel_only and v == self.x[i])]
            for i, d in enumerate(self.t.sizes)
        ]

        def extend(feats, depth, mask, values):
            i = feats[depth]
            for v in allowed[i]:
                kept = mask & vm[i][v]
                values[i] = v
                if depth + 1 == len(feats):
                    if not kept:
                        yield tuple(values)
                else:
                    yield from extend(feats, depth + 1, kept, values)
            values[i] = None

        for k in range(1, n + 1):
            for feats in itertools.combinations(range(n), k):
                yield from extend(feats, 0, self.cmask, [None] * n)

    def flips(self) -> list[Assignment]:
        """cSuf in canonical order.  Overwriting x with a flip e gives an
        instance y outside class c that differs from x exactly on e's
        features, and e is the part of y that x does not share; so the
        flips are ``difference(y, x)`` over the instances y outside c."""
        if self._flips is None:
            outside = bin(self.t.full & ~self.cmask)[:1:-1]
            self._flips = sorted(
                (difference(self.t.instance(r), self.x) for r, bit in enumerate(outside) if bit == "1"),
                key=canonical_key,
            )
        return self._flips

    def min_flip_size(self) -> int:
        if self._min_flip is None:
            self._min_flip = min(size(e) for e in self.flips())
        return self._min_flip

    def _flip_feature_sets(self) -> set[int]:
        if self._flip_sets is None:
            self._flip_sets = {feature_bits(e) for e in self.flips()}
        return self._flip_sets

    def _minimal_feature_sets(self) -> set[int]:
        minimal: list[int] = []
        for s in sorted(self._flip_feature_sets(), key=lambda b: (bin(b).count("1"), b)):
            if not any(m & s == m for m in minimal):
                minimal.append(s)
        return set(minimal)

    # -- other explainers audited by the built-in suite ----------------------------

    def explainer_output(self, name: str) -> list[Assignment]:
        if name in KINDS:
            return self.listing(name)[0]
        if name == "constant-empty":
            return []
        if name == "constant-blank":
            return [(None,) * self.t.n]
        if name == "old-values":
            found = set()
            other = self.t.full & ~self.cmask
            for r in range(self.t.rows):
                if (other >> r) & 1:
                    found.add(difference(self.x, self.t.instance(r)))
            return sorted(found, key=canonical_key)
        raise ValueError(f"unknown explainer {name!r}")


# -- axioms -------------------------------------------------------------------------


def violates(
    axiom: str,
    oracle: Oracle,
    output: Iterable[Assignment],
    e: Optional[Assignment],
    witness: Optional[Assignment],
    other: Optional[Oracle] = None,
    other_output: Iterable[Assignment] = (),
) -> bool:
    """Does the counterexample (e, witness, other query) violate the axiom,
    given the explainer's reference outputs on the query (and the other)?"""
    out = set(output)
    t, x, c = oracle.t, oracle.x, oracle.c
    if axiom == "Success":
        return not out
    if axiom == "Equivalence":
        return (
            other is not None
            and other.c == c
            and other.x != x
            and e is not None
            and (e in out) != (e in set(other_output))
        )
    if e is None or e not in out:
        return False
    if axiom == "NonTriviality":
        return size(e) == 0
    if axiom == "Feasibility":
        return not subset(e, x)
    if axiom == "Coreness":
        return not subset(e, t.core(c))
    if axiom == "Novelty":
        return not disjoint(e, x)
    if witness is None or t.label(witness) != c:
        return False
    if axiom == "ScepticalValidity":
        return subset(e, x) and all(
            (witness[i] != x[i]) == (e[i] is not None) for i in range(t.n)
        )
    if axiom == "StrongValidity":
        return subset(e, witness)
    if axiom == "WeakValidity":
        return witness == overwrite(x, e)
    raise ValueError(f"unknown axiom {axiom!r}")


# -- self check ------------------------------------------------------------------------

# The worked vacation example: t in (hot, mild, freezing), a in (climbing,
# reading, skiing); instances numbered as in the table.
_VACATION = (
    ((0, 0), "beach"), ((1, 0), "mountain"), ((2, 1), "cinema"),
    ((2, 2), "mountain"), ((2, 0), "cinema"), ((0, 1), "beach"),
    ((0, 2), "beach"), ((1, 1), "cinema"), ((1, 2), "cinema"),
)
_T = {"hot": 0, "mild": 1, "freezing": 2}
_A = {"climbing": 0, "reading": 1, "skiing": 2}

# Tabulated members per query; an int is a numbered instance.
_WORKED = {
    ("gNec", 1): [{"t": "hot"}],
    ("gNec", 2): [],
    ("gNec", 3): [],
    ("sNec", 1): [{"t": "hot"}, 1],
    ("sNec", 2): [{"t": "mild"}, {"a": "climbing"}],
    ("sNec", 3): [],
    ("gSuf", 1): [{"t": "mild"}, {"t": "freezing"}, 2, 3, 4, 5, 8, 9],
    ("gSuf", 2): [{"t": "hot"}, {"a": "reading"}, 1, 3, 5, 6, 7, 8, 9],
    ("gSuf", 3): [{"t": "hot"}, 1, 2, 4, 6, 7],
    ("sSuf", 1): [{"t": "mild"}, {"t": "freezing"}, 3, 4, 8, 9],
    ("sSuf", 2): [{"t": "hot"}, {"a": "reading"}, 3, 6, 7],
    ("sSuf", 3): [{"t": "hot"}, 1, 2, 7],
    ("cSuf", 1): [{"t": "mild"}, {"t": "freezing"}, 3, 4, 8, 9],
    ("cSuf", 2): [{"t": "hot"}, {"t": "freezing"}, {"a": "reading"}, {"a": "skiing"}, 3, 6, 7],
    ("cSuf", 3): [{"t": "hot"}, {"a": "skiing"}, 1, 2, 7],
}


def _vacation_table() -> Table:
    ranked = sorted(_VACATION, key=lambda row: row[0][0] * 3 + row[0][1])
    return Table.from_labels([3, 3], [label for _, label in ranked])


def _worked_assignment(spec) -> Assignment:
    if isinstance(spec, int):
        return _VACATION[spec - 1][0]
    return (_T.get(spec.get("t")), _A.get(spec.get("a")))


def self_check() -> list[str]:
    """Deviations of the checker from the worked examples (empty when sound).

    The featMin/cardMin rows of the vacation example are left out: they list
    the feature-minimal members of sSuf, whereas the definitions minimise
    over all flips (cSuf).
    """
    problems = []
    vacation = _vacation_table()
    for (kind, q), specs in _WORKED.items():
        oracle = Oracle(vacation, _VACATION[q - 1][0])
        want = sorted((_worked_assignment(s) for s in specs), key=canonical_key)
        got, truncated = oracle.listing(kind)
        if got != want or truncated:
            problems.append(f"vacation {kind}(q{q}): got {got}, want {want}")
        for e in _canonical([[0, 1, 2], [0, 1, 2]]):
            if oracle.member(kind, e) != (e in want):
                problems.append(f"vacation {kind}(q{q}) membership of {e}")
    cores = {"beach": (0, None), "mountain": (None, None), "cinema": (None, None)}
    for c, want in cores.items():
        if vacation.core(c) != want:
            problems.append(f"vacation core({c}) = {vacation.core(c)}")
    bitcount = Table.from_labels([2, 2], ["c1", "c2", "c2", "c3"])
    for c, want in {"c1": (0, 0), "c2": (None, None), "c3": (1, 1)}.items():
        if bitcount.core(c) != want:
            problems.append(f"bitcount core({c}) = {bitcount.core(c)}")
    return problems
