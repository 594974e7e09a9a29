"""Classifiers over finite theories: explicit tables and boolean formulas.

A classifier is a total, surjective map from instances to class labels.
``TableClassifier`` stores one row per instance; ``FormulaClassifier`` wraps a
propositional formula over an all-boolean theory and labels models with one
class and counter-models with the other.  ``Query`` bundles (theory,
classifier, instance) and is the unit every explainer consumes; surjectivity
is enforced when the query is built, so downstream code may rely on every
class having at least one instance.

``ClassView`` exposes a classifier as bit-parallel truth-table masks (one
Python bigint per (feature, value) pair and per class), which is what the
brute-force oracles use to evaluate universally quantified definitions
quickly without any third-party dependencies.

Each classifier computes its surjectivity verdict and its view once, on
first read.  Only enumeration and weighted distances read the view, so the
SAT procedures run on formulas past the view's cap.  A formula classifier's
CNF (``encoding``) is likewise built once, and every solver call starts from it.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, dropwhile, product
from operator import getitem, itemgetter
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .formulas import Clause, Formula, evaluate_bitwise, parse_formula, tseitin
from .theory import (
    PartialAssignment,
    Theory,
    TheoryMismatch,
    as_instance,
    instance_of_rank,
    rank_of,
    substitute,
    validate_theory,
)


class ClassifierError(ValueError):
    """Invalid classifier construction or use."""


class IncompleteTable(ClassifierError):
    """A table classifier does not cover the whole feature space."""


class NotSurjective(ClassifierError):
    """Some class label is never produced."""


class UnknownClass(ClassifierError):
    """A class label outside the classifier's theory."""


_VIEW_LIMIT = 1 << 22  # largest feature space we will materialize masks for


@dataclass(frozen=True)
class SurjectivityVerdict:
    ok: bool
    missing: tuple[str, ...]


class Classifier:
    """Total map from instances of a fixed theory to class labels."""

    theory: Theory

    @cached_property
    def surjectivity(self) -> SurjectivityVerdict:
        """Which classes of the theory no instance gets, decided once: a
        table reads its rows, a formula makes two calls to the built-in
        solver, one per class literal."""
        produced = self._labels_produced()
        missing = tuple(c for c in self.theory.classes if c not in produced)
        return SurjectivityVerdict(not missing, missing)

    @cached_property
    def view(self) -> ClassView:
        """The truth-table masks, built on first read (capped in size)."""
        return ClassView(self)

    def _labels_produced(self) -> set[str]:
        raise NotImplementedError

    def _class_masks(self, view: ClassView) -> dict[str, int]:
        """One mask per class, over the instance ranks of the view."""
        raise NotImplementedError

    def classify(self, x: PartialAssignment) -> str:
        raise NotImplementedError

    def to_json_dict(self) -> dict:
        raise NotImplementedError

    def _check_instance(self, x: PartialAssignment) -> None:
        if x.theory is not self.theory and x.theory != self.theory:
            raise TheoryMismatch("instance belongs to a different theory")
        as_instance(x)


def _lines(text: str, window: int = 1 << 16) -> Iterator[str]:
    r"""The lines of text, each with its "\n", split at "\n" only (not where
    ``str.splitlines`` would), buffering about ``window`` characters at a time."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + window) + 1 or len(text)
        yield from io.StringIO(text[start:end])
        start = end


class TableClassifier(Classifier):
    """Explicit class label for every instance, stored in rank order."""

    def __init__(self, theory: Theory, classes_by_rank: Sequence[str]):
        n = theory.instance_count()
        if len(classes_by_rank) != n:
            raise IncompleteTable(
                f"table has {len(classes_by_rank)} rows; theory has {n} instances"
            )
        try:  # the theory's own label objects: one per class, not per row
            table = tuple(map({c: c for c in theory.classes}.__getitem__, classes_by_rank))
        except KeyError as exc:
            raise UnknownClass(f"class {exc.args[0]!r} is not in the theory") from None
        self.theory = theory
        self.table = table
        self._hash = hash((theory, table))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TableClassifier)
            and self.theory == other.theory
            and self.table == other.table
        )

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def from_rows(
        theory: Theory, rows: Iterable[tuple[Mapping, str]]
    ) -> "TableClassifier":
        """Build from (instance mapping, class) pairs covering all instances."""
        features = theory.features
        names = set(features)

        def cells(mapping: Mapping, label: str) -> list[str]:
            named = {str(f): str(v) for f, v in mapping.items()}
            if len(named) != len(mapping) or named.keys() != names:
                as_instance(PartialAssignment.from_dict(theory, mapping))  # raises
            return [named[f] for f in features] + [str(label)]

        return TableClassifier._from_cells(
            theory, features, (cells(mapping, label) for mapping, label in rows)
        )

    @staticmethod
    def from_csv(text: str, theory: Theory) -> "TableClassifier":
        """Parse a CSV with one column per feature plus a 'class' column.

        The columns and the rows may come in any order; blank lines are
        skipped.  A line ends at "\\n", "\\r\\n" or a lone "\\r"; other CSV
        faults raise ClassifierError.
        """
        if text.count("\r") != text.count("\r\n"):
            text = re.sub("\r(?!\n)", "\n", text)
        reader = csv.reader(_lines(text))

        def records() -> Iterator[list[str]]:
            try:
                yield from reader
            except csv.Error as exc:
                raise ClassifierError(f"CSV line {reader.line_num}: {exc}") from None

        rows = records()
        header = next(rows, None)
        if header is None:
            raise ClassifierError("empty classifier CSV")
        repeated = sorted({c for c in header if header.count(c) > 1})
        if repeated:
            raise ClassifierError(f"CSV header repeats column(s) {repeated}")
        expected = set(theory.features) | {"class"}
        got = set(header)
        if got != expected:
            raise ClassifierError(
                f"CSV columns {sorted(got)} do not match features + 'class' "
                f"({sorted(expected)})"
            )
        columns = [c for c in header if c != "class"]
        pick = itemgetter(*(header.index(c) for c in columns), header.index("class"))
        width = len(header)

        def cells() -> Iterator[tuple[str, ...]]:
            for row in rows:
                if len(row) != width:
                    if not row:
                        continue
                    raise ClassifierError(
                        f"CSV line {reader.line_num} has {len(row)} field(s); "
                        f"the header has {width}"
                    )
                yield pick(row)

        return TableClassifier._from_cells(theory, columns, cells())

    @staticmethod
    def _from_cells(
        theory: Theory, columns: Sequence[str], rows: Iterable[Sequence[str]]
    ) -> "TableClassifier":
        """The table of rows that hold one value per feature, in ``columns``
        order, then the class.  A row's rank is the sum of its values'
        ``position * stride``, one dict lookup per value."""
        st = theory.strides
        lookups = []
        for f in columns:
            i = theory.feature_position(f)
            lookups.append({v: p * st[i] for p, v in enumerate(theory.domains[i])})
        table: list[Optional[str]] = [None] * theory.instance_count()
        for row in rows:
            try:
                r = sum(map(getitem, lookups, row))
            except KeyError:
                for f, v in zip(columns, row):
                    theory.value_position(f, v)  # raises on the first bad value
                raise
            if table[r] is not None:
                raise ClassifierError(
                    f"instance {instance_of_rank(theory, r).render()} listed twice"
                )
            table[r] = row[-1]
        if None in table:
            raise IncompleteTable(
                f"table misses {table.count(None)} instance(s), e.g. "
                f"{instance_of_rank(theory, table.index(None)).render()}"
            )
        return TableClassifier(theory, table)  # type: ignore[arg-type]

    def classify(self, x: PartialAssignment) -> str:
        self._check_instance(x)
        return self.table[rank_of(x)]

    def _labels_produced(self) -> set[str]:
        return set(self.table)

    def _class_masks(self, view: ClassView) -> dict[str, int]:
        """One character per rank, highest rank first, coding its class;
        each class's mask is that string translated to a bit string."""
        classes = self.theory.classes
        code = {c: chr(k) for k, c in enumerate(classes)}
        codes = "".join(map(code.__getitem__, reversed(self.table)))
        bits = dict.fromkeys(range(len(classes)), "0")
        return {c: int(codes.translate({**bits, k: "1"}), 2) for k, c in enumerate(classes)}

    def to_json_dict(self) -> dict:
        return {
            "type": "table",
            "rows": [
                {
                    "instance": instance_of_rank(self.theory, r).to_dict(),
                    "class": label,
                }
                for r, label in enumerate(self.table)
            ],
        }


def feature_vars(theory: Theory) -> dict[str, int]:
    """The CNF variable of each feature: feature i is variable i + 1."""
    return {f: i + 1 for i, f in enumerate(theory.features)}


class FormulaClassifier(Classifier):
    """Binary classifier defined by a propositional formula.

    Requires an all-boolean theory (every domain has exactly two values).  An
    atom is true when its feature takes the second domain value.  Instances
    satisfying the formula get ``class_if_true``, the rest ``class_if_false``.
    """

    def __init__(
        self,
        theory: Theory,
        formula: Union[Formula, str],
        class_if_true: str,
        class_if_false: str,
    ):
        for f, d in zip(theory.features, theory.domains):
            if len(d) != 2:
                raise ClassifierError(
                    f"formula classifiers need boolean domains; feature {f!r} has {len(d)} values"
                )
        if isinstance(formula, str):
            formula = parse_formula(formula)
        unknown = formula.atoms() - set(theory.features)
        if unknown:
            raise ClassifierError(f"formula uses unknown features {sorted(unknown)}")
        if class_if_true == class_if_false:
            raise ClassifierError("the two class labels must differ")
        for c in (class_if_true, class_if_false):
            if c not in theory.classes:
                raise UnknownClass(f"class {c!r} is not in the theory")
        self.theory = theory
        self.formula = formula
        self.class_if_true = str(class_if_true)
        self.class_if_false = str(class_if_false)
        verdict = self.surjectivity
        if not verdict.ok:
            raise NotSurjective(
                "formula is constant; class(es) "
                f"{list(verdict.missing)} can never be produced"
            )

    @cached_property
    def text(self) -> str:
        """The formula as printed, rendered once; the JSON form, equality
        and the hash read it."""
        return str(self.formula)

    def _key(self) -> tuple:
        return (self.theory, self.text, self.class_if_true, self.class_if_false)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FormulaClassifier) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def truth_of(self, x: PartialAssignment) -> bool:
        """The bitwise evaluation on one row: x's values are its atoms' bits."""
        self._check_instance(x)
        return evaluate_bitwise(self.formula, dict(zip(self.theory.features, x.values)), 1) == 1

    def classify(self, x: PartialAssignment) -> str:
        return self.class_if_true if self.truth_of(x) else self.class_if_false

    @cached_property
    def encoding(self) -> tuple[tuple[Clause, ...], int, int]:
        """The formula's Tseitin clauses, root literal and variable count,
        built on first read; no unit clause asserts the root."""
        clauses, root, n_vars = tseitin(self.formula, feature_vars(self.theory))
        return tuple(clauses), root, n_vars

    @cached_property
    def clause_index(self):
        """The built-in solver's occurrence lists of the encoding, built on
        first read; every solver call on this classifier reuses them."""
        from .sat import ClauseIndex  # local import; sat builds on us

        clauses, _, n_vars = self.encoding
        return ClauseIndex(clauses, n_vars)

    def class_literal(self, c: str) -> int:
        """The encoding's literal that holds exactly on the instances of class c."""
        root = self.encoding[1]
        if c == self.class_if_true:
            return root
        if c == self.class_if_false:
            return -root
        raise UnknownClass(f"class {c!r} is not one of the classifier's labels")

    def _labels_produced(self) -> set[str]:
        """Two calls to the built-in solver, one per class literal."""
        from .sat import SatOracle, _class_model  # local import; sat builds on us

        labels, literal = (self.class_if_true, self.class_if_false), self.class_literal
        return {c for c in labels if _class_model(self, literal(c), SatOracle()) is not None}

    def _class_masks(self, view: ClassView) -> dict[str, int]:
        columns = {f: view.value_masks[i][1] for i, f in enumerate(self.theory.features)}
        true_mask = evaluate_bitwise(self.formula, columns, view.full_mask)
        return {
            self.class_if_true: true_mask,
            self.class_if_false: view.full_mask & ~true_mask,
        }

    def to_json_dict(self) -> dict:
        return {
            "type": "formula",
            "formula": self.text,
            "class_if_true": self.class_if_true,
            "class_if_false": self.class_if_false,
        }

    @staticmethod
    def from_text(text: str, theory: Theory) -> "FormulaClassifier":
        """Parse the format ``classes: <true>,<false>``, then the formula on
        the following lines.  The formula is the lines after the header as
        they stand, up to the last non-blank one, so a ParseError counts
        lines from the line after the header."""
        header, *body = [*dropwhile(lambda ln: not ln.strip(), text.splitlines())] or [""]
        while body and not body[-1].strip():
            body.pop()
        if not body or not header.lower().startswith("classes:"):
            raise ClassifierError(
                "expected 'classes: <true-class>,<false-class>' then the formula"
            )
        spec = header.split(":", 1)[1]
        labels = [part.strip() for part in spec.split(",")]
        if len(labels) != 2 or not all(labels):
            raise ClassifierError("classes line must name exactly two labels")
        return FormulaClassifier(theory, "\n".join(body), labels[0], labels[1])


class ClassView:
    """Bit-parallel truth-table masks for a classifier.

    Bit r of every mask talks about the instance of rank r:
    ``value_masks[i][v]`` has bit r set when that instance gives feature i its
    v-th value, and ``class_masks[c]`` where the classifier answers c.
    """

    def __init__(self, classifier: Classifier):
        theory = classifier.theory
        n_rows = theory.instance_count()
        if n_rows > _VIEW_LIMIT:
            raise ClassifierError(
                f"feature space of {n_rows} instances is too large to audit exhaustively"
            )
        self.theory = theory
        self.n_rows = n_rows
        self.full_mask = (1 << n_rows) - 1
        self.value_masks: list[list[int]] = []
        for stride, domain in zip(theory.strides, theory.domains):
            run, period = (1 << stride) - 1, stride * len(domain)
            self.value_masks.append(
                [_tile(run << (v * stride), period, n_rows) for v in range(len(domain))]
            )
        self.class_masks = classifier._class_masks(self)

    def class_mask(self, c: str) -> int:
        try:
            return self.class_masks[c]
        except KeyError:
            raise UnknownClass(f"class {c!r} is not in the theory") from None

    def mask_containing(self, e: PartialAssignment) -> int:
        """Instances that extend e (contain every literal of e)."""
        mask = self.full_mask
        for i, v in e.indexed_literals():
            mask &= self.value_masks[i][v]
        return mask

    def mask_residual(self, x: PartialAssignment, e: PartialAssignment) -> int:
        """Instances differing from x exactly on e's features (e part of x)."""
        if not e.subset_of(x):
            return 0
        mask = self.full_mask
        for i, xv in enumerate(x.values):
            if e.values[i] is not None:
                mask &= self.full_mask & ~self.value_masks[i][xv]
            else:
                mask &= self.value_masks[i][xv]
        return mask

    def distance_layers(self, x: PartialAssignment) -> list[int]:
        """Instances by Hamming distance from the instance x: layer k holds
        those differing from x on exactly k features, for k = 0..n."""
        layers = [self.full_mask]
        for i, xv in enumerate(x.values):
            agree = self.value_masks[i][xv]
            layers.append(0)
            for k in range(len(layers) - 1, 0, -1):  # reads layer k - 1 before it moves
                layers[k] = (layers[k] & agree) | (layers[k - 1] & ~agree)
            layers[0] &= agree
        return layers


def _tile(pattern: int, period: int, total: int) -> int:
    """``pattern`` (``period`` bits long) repeated over ``total`` bits, the
    tiled length doubling each step."""
    mask, length = pattern, period
    while length < total:
        mask |= mask << length
        length *= 2
    return mask & ((1 << total) - 1)


def ranks_in(mask: int) -> Iterator[int]:
    """Positions of the set bits of mask, ascending, in time linear in its length."""
    bits = bin(mask)[:1:-1]  # least significant bit first, "0b" dropped
    rank = bits.find("1")
    while rank >= 0:
        yield rank
        rank = bits.find("1", rank + 1)


def class_view(classifier: Classifier) -> ClassView:
    """The classifier's view, built once on first read."""
    return classifier.view


# -- the instance space as masks ------------------------------------------------
#
# ``explain.AXIOM_TESTS`` and ``explain.membership`` ask existence questions
# about the instance space.  A space answers each with its offenders, falsy
# when the condition holds: ``MaskSpace`` with a mask over instance ranks, and
# ``sat.SatSpace`` with one oracle call and a witness instance or None.  Every
# membership test and axiom check asks a space, one question per candidate.
# ``MaskSpace`` also lists: gSuf, sSuf, sNec and old-values are one mask walk
# (``_walk``), and x's flips come layer by Hamming layer (the cSuf, featMin,
# cardMin and hamming distMin listings).  Weighted distMin reads the
# other-class instances in rank order.


class MaskSpace:
    """The instance space of one class, as masks on the truth table."""

    __slots__ = ("view", "cmask")

    def __init__(self, view: ClassView, cmask: int):
        self.view, self.cmask = view, cmask

    def lacking(self, e: PartialAssignment) -> int:
        """The instances of the class that lack some literal of e."""
        return self.cmask & ~self.view.mask_containing(e)

    def extending(self, e: PartialAssignment) -> int:
        """The instances of the class that extend e; when e is an instance,
        which extends only itself, e's bit of the class mask."""
        if e.is_instance:
            return self.cmask & 1 << rank_of(e)
        return self.view.mask_containing(e) & self.cmask

    def variant(self, x: PartialAssignment, e: PartialAssignment) -> int:
        """The instances of the class differing from x exactly on e's
        features (none when e is not part of x)."""
        return self.view.mask_residual(x, e) & self.cmask

    def smaller_flip(self, x: PartialAssignment, e: PartialAssignment) -> int:
        """The instances of another class equal to x outside Feat(e) and on
        at least one feature of Feat(e), for e sharing no literal with x."""
        view, y = self.view, substitute(x, e)
        other = view.full_mask & ~self.cmask
        return (
            other
            & view.mask_containing(x.intersection(y))
            & ~view.mask_residual(x, x.difference(y))
        )

    def within(self, x: PartialAssignment, k: int) -> int:
        """The instances of another class differing from x on at most k features."""
        near = 0
        for layer in self.view.distance_layers(x)[: k + 1]:
            near |= layer
        return near & ~self.cmask

    def unextended(self, x: Optional[PartialAssignment] = None) -> Iterator[PartialAssignment]:
        """The nonempty assignments that no instance of the class extends
        (gSuf); given x, only those using values other than x's (sSuf)."""
        view = self.view
        skip = (None,) * len(view.value_masks) if x is None else x.values
        choices = [
            [(v, m, v * stride) for v, m in enumerate(masks) if v != xv]
            for masks, xv, stride in zip(view.value_masks, skip, view.theory.strides)
        ]
        return self._walk(choices, [self.cmask] * (len(choices) + 1), True)

    def parts(self, x: PartialAssignment, outside: bool = False) -> Iterator[PartialAssignment]:
        """The nonempty parts e of x that no instance of the class varies
        exactly on Feat(e) (sNec); with ``outside``, those that some instance
        of another class does (old-values).  An instance varies x exactly on
        k features when it lies on Hamming layer k and differs on each."""
        mask = self.view.full_mask & ~self.cmask if outside else self.cmask
        starts = [mask & layer for layer in self.view.distance_layers(x)]
        choices = [[(v, ~masks[v], 0)] for masks, v in zip(self.view.value_masks, x.values)]
        return self._walk(choices, starts, not outside)

    def _walk(self, choices: list, starts: list[int], empty: bool) -> Iterator[PartialAssignment]:
        """The nonempty assignments giving each feature i a value of
        ``choices[i]``, in canonical order, kept when ``starts[k]`` ANDed with
        their values' masks is empty (``empty``) or not, k being their size.

        A choice is (value, mask, shift).  Depth first, one feature set at a
        time, the mask is carried down the choice of values, one AND a step;
        once a prefix's mask is empty, every completion is kept untested
        (``empty``) or none is.  While features 0..i each hold one value, the
        mask's instances form one block of ranks, and ``shift`` (value times
        stride; 0 throughout when a mask is not one value's) moves it to rank
        0.  The later features' masks repeat with a period that divides the
        shift, so the ANDs below read the short block alone."""
        theory = self.view.theory

        def extend(feats, depth, mask, values):
            i, rest = feats[depth], feats[depth + 1:]
            for v, m, shift in choices[i]:
                values[i] = v
                kept = mask & m
                if not rest:
                    if (not kept) == empty:
                        yield PartialAssignment.unchecked(theory, tuple(values))
                elif kept:
                    carried = kept >> shift if i == depth else kept
                    yield from extend(feats, depth + 1, carried, values)
                elif empty:
                    for tail in product(*(choices[j] for j in rest)):
                        for j, (w, _, _) in zip(rest, tail):
                            values[j] = w
                        yield PartialAssignment.unchecked(theory, tuple(values))

        positions = [i for i, c in enumerate(choices) if c]
        for k in range(1, len(positions) + 1):
            for feats in combinations(positions, k):
                yield from extend(feats, 0, starts[k], [None] * len(choices))

    def others(self) -> Iterator[PartialAssignment]:
        """The instances of the other classes, in rank order."""
        theory = self.view.theory
        return (instance_of_rank(theory, r) for r in ranks_in(self.view.full_mask & ~self.cmask))

    def closest(self, x: PartialAssignment, distance) -> PartialAssignment:
        """The instance of another class nearest to x under the distance,
        the first in rank order on a tie."""
        return min(self.others(), key=lambda y: distance(y, x))

    def flips(self, x: PartialAssignment) -> Iterator[list[PartialAssignment]]:
        """x's flips, the cSuf members, by size k = 1..n, each size's in
        canonical order: the instances of another class that differ from x
        on k features, each as the values x does not share."""
        other = ~self.cmask
        for layer in self.view.distance_layers(x)[1:]:
            keyed = sorted(self.flip_of_rank(x, r) for r in ranks_in(layer & other))
            yield [e for _, e in keyed]

    @staticmethod
    def flip_of_rank(x: PartialAssignment, rank: int) -> tuple[int, PartialAssignment]:
        """The instance of that rank as a flip of x, read off the rank's
        digits: its value where it differs from x, None elsewhere.  Returned
        after its sort key, which orders flips of one size as
        ``PartialAssignment.sort_key`` does: by the features kept from x, read
        as a binary number with feature 0 highest (the fewer of the leading
        features kept, the earlier), then by rank (the values)."""
        theory = x.theory
        values = []
        kept = 0
        for stride, domain, xv in zip(theory.strides, theory.domains, x.values):
            v = rank // stride % len(domain)
            if v == xv:
                kept += kept + 1
                values.append(None)
            else:
                kept += kept
                values.append(v)
        n_rows = theory.strides[0] * len(theory.domains[0])
        return kept * n_rows + rank, PartialAssignment.unchecked(theory, tuple(values))


# -- operations ----------------------------------------------------------------


def core_literals(
    classifier: Classifier, c: str, method: str = "auto"
) -> PartialAssignment:
    """Literals present in every instance of class c, as an assignment.

    ``method="scan"`` intersects the instances of class c directly;
    ``method="sat"`` (formula classifiers only) asks a SAT oracle for one
    instance y of class c, then, feature by feature, whether class c together
    with another value than y's is unsatisfiable.  ``"auto"`` scans tables
    and uses the oracle for formulas.
    """
    theory = classifier.theory
    if c not in theory.classes:
        raise UnknownClass(f"class {c!r} is not in the theory")
    if method == "auto":
        method = "sat" if isinstance(classifier, FormulaClassifier) else "scan"
    if method == "sat":
        if not isinstance(classifier, FormulaClassifier):
            raise ClassifierError("the SAT route needs a formula classifier")
        from .sat import core_literals_sat  # local import; sat builds on us

        return core_literals_sat(classifier, c)
    if method != "scan":
        raise ValueError(f"unknown method {method!r}")
    view = class_view(classifier)
    cmask = view.class_mask(c)
    values: list[Optional[int]] = [None] * theory.n_features
    if cmask == 0:
        # Unreachable through Query (surjectivity enforced) but total anyway.
        return PartialAssignment(theory, tuple(values))
    for i in range(theory.n_features):
        for v in range(len(theory.domains[i])):
            if cmask & ~view.value_masks[i][v] == 0:
                values[i] = v
                break
    return PartialAssignment(theory, tuple(values))


@dataclass(frozen=True)
class Query:
    """The unit of explanation: which other class could instance x get?"""

    theory: Theory
    classifier: Classifier
    instance: PartialAssignment

    def __post_init__(self) -> None:
        if self.classifier.theory is not self.theory and self.classifier.theory != self.theory:
            raise TheoryMismatch("classifier belongs to a different theory")
        if self.instance.theory is not self.theory and self.instance.theory != self.theory:
            raise TheoryMismatch("instance belongs to a different theory")
        as_instance(self.instance)
        verdict = self.classifier.surjectivity
        if not verdict.ok:
            raise NotSurjective(f"class(es) {list(verdict.missing)} are never produced")
        # set here, so that every query's attribute dict keeps one key order
        object.__setattr__(self, "_hash", None)

    def __hash__(self) -> int:
        """The dataclass hash of the fields, computed on the first lookup:
        a formula classifier's hash renders its formula, which a query that
        is never looked up need not pay for."""
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.theory, self.classifier, self.instance)))
        return self._hash

    @cached_property
    def label(self) -> str:
        """x's class, classified once (the fields are frozen)."""
        return self.classifier.classify(self.instance)

    @cached_property
    def space(self) -> MaskSpace:
        """x's class on the classifier's truth table, built on first read."""
        view = self.classifier.view
        return MaskSpace(view, view.class_mask(self.label))

    def to_json_dict(self) -> dict:
        return {
            "theory": self.theory.to_json_dict(),
            "classifier": self.classifier.to_json_dict(),
            "instance": self.instance.to_dict(),
        }


def classifier_from_json(raw: Mapping, theory: Theory) -> Classifier:
    """Inverse of Classifier.to_json_dict."""
    kind = raw.get("type")
    if kind == "table":
        return TableClassifier.from_rows(
            theory, [(row["instance"], row["class"]) for row in raw["rows"]]
        )
    if kind == "formula":
        return FormulaClassifier(
            theory, raw["formula"], raw["class_if_true"], raw["class_if_false"]
        )
    raise ClassifierError(f"unknown classifier type {kind!r}")


def query_from_json(raw: Mapping) -> Query:
    theory = validate_theory(raw["theory"])
    classifier = classifier_from_json(raw["classifier"], theory)
    instance = PartialAssignment.from_dict(theory, raw["instance"])
    return Query(theory, classifier, instance)
