"""Satisfiability oracle and oracle-bounded explanation procedures.

For all-boolean theories with formula classifiers, explanation decision and
search reduce to a handful of satisfiability calls instead of enumeration:

* decide — ``explain.membership`` on a ``SatSpace``: each kind's condition
  is one existence question, settled by one oracle call or by evaluation
  (weighted distMin alone reads the truth table);
* find — produce one explanation or report none, within tight call budgets:
  0 calls for sSuf (test the all-flipped instance), 1 for cSuf/gSuf/sNec
  (one opposite-class model), at most n for gNec (scan x's literals,
  skipping those an earlier witness already lacks);
* core — a class's core as a backbone, by the same scan, in at most n + 1
  calls.

A question about one instance, which extends only itself, is one
evaluation in ``SatSpace.extending`` and no call: WeakValidity, ``variant``,
find's sSuf test and featMin's greedy shrink all ask it there.

Every call is the classifier's cached CNF (``FormulaClassifier.encoding``),
the class's literal as a unit, then the call's own units or counter.  The
built-in solver indexes the cached CNF once per classifier
(``FormulaClassifier.clause_index``, read-only once built) and each call's
own clauses per call, in a copy of the index's lists that the call alone
holds.

The oracle itself is pluggable: a deterministic built-in DPLL (fixed
branching: ascending variable index, true first, chronological
backtracking, stop once every clause is satisfied, unassigned variables read
as false) or any external solver that accepts a DIMACS CNF file path and
prints SAT-competition style ``s``/``v`` lines.  The built-in DPLL is
iterative, with no recursion limit on the search depth, and propagates units
with per-clause counters of true and false literal occurrences rather than
by rescanning the clauses; its branching order and its models are those of
the plain recursive formulation.  ``SatOracle`` counts calls so budget
claims are testable.
"""

from __future__ import annotations

import math
import subprocess
import tempfile
from itertools import combinations, islice
from pathlib import Path
from typing import Iterator, Optional, Sequence

from .classifier import (
    Classifier,
    FormulaClassifier,
    Query,
    UnknownClass,
    feature_vars,
)
from .explain import DistanceMeasure, check_tau, membership
from .formulas import Clause, Formula, Not, evaluate_bitwise, tseitin, to_dimacs
from .theory import PartialAssignment, Theory, hamming, substitute


class NotBoolean(ValueError):
    """Raised when a procedure needs a boolean theory + formula classifier."""


class BackendFailure(RuntimeError):
    """External solver crashed or produced unparseable output."""


def _require_boolean(theory: Theory) -> None:
    if any(len(d) != 2 for d in theory.domains):
        raise NotBoolean("this procedure needs all-boolean feature domains")


def _require_formula(classifier: Classifier) -> FormulaClassifier:
    """Formula classifiers exist only over all-boolean theories."""
    if not isinstance(classifier, FormulaClassifier):
        raise NotBoolean("this procedure needs a formula classifier")
    return classifier


# -- backends --------------------------------------------------------------------


class ClauseIndex:
    """The occurrence lists of a clause list, by literal, for ``dpll``.

    ``FormulaClassifier.clause_index`` keeps one over the classifier's
    encoding, so those clauses are indexed once per classifier.  The index
    is built once and never written to: its occurrence lists, clause widths
    and unit literals are tuples.  A solver call indexes its own clauses
    after the kept ones in lists of its own (``extended``), so calls from
    several threads share the index without taking turns.
    """

    def __init__(self, clauses: Sequence[Clause] = (), n_vars: int = 0):
        # occurrences by literal (negative ones from the end), clause widths
        # by position, and the literals of the unit clauses in clause order
        self.occurs, self.size, self.units = ((),), (), ()
        self.n_vars = self.count = 0
        self.occurs, self.size, self.units = map(tuple, self.extended(clauses, n_vars))
        self.clauses, self.n_vars, self.count = clauses, n_vars, len(clauses)

    def extended(
        self, extra: Sequence[Clause], n_vars: int
    ) -> tuple[list[tuple[int, ...]], list[int], list[int]]:
        """The occurrence lists, clause widths and unit literals of the kept
        clauses then `extra`, over n_vars variables (at least the index's),
        as new lists; the index is unchanged.  Untouched occurrence lists are
        shared with the index, and each literal of `extra` gets a new one.
        Raises ValueError, before any other work, when a literal is 0 or
        names a variable above n_vars."""
        lits = {lit for clause in extra for lit in clause}
        if lits and (0 in lits or max(lits) > n_vars or min(lits) < -n_vars):
            raise ValueError(f"a clause holds a literal naming no variable in 1..{n_vars}")
        occurs, top = list(self.occurs), self.n_vars
        # the new variables' slots go between the positive and the negative literals
        occurs[top + 1 : top + 1] = [()] * (2 * (n_vars - top))
        added: dict[int, list[int]] = {lit: [] for lit in lits}
        for ci, clause in enumerate(extra, self.count):
            for lit in clause:
                added[lit].append(ci)
        for lit, held in added.items():
            occurs[lit] += tuple(held)
        size = [*self.size, *map(len, extra)]
        units = [*self.units, *(clause[0] for clause in extra if len(clause) == 1)]
        return occurs, size, units


class IndexedClauses(list):
    """The clause list of one solver call: the kept clauses of an index,
    then the call's own.  Any backend reads it as a plain list; ``dpll``
    reuses the index and indexes only the call's own clauses."""

    __slots__ = ("kept",)

    def __init__(self, kept: ClauseIndex, extra: Sequence[Clause]):
        super().__init__(kept.clauses)
        self.extend(extra)
        self.kept = kept


def dpll(clauses: Sequence[Clause], n_vars: int) -> Optional[tuple[bool, ...]]:
    """Deterministic DPLL: unit propagation to a fixpoint at every node,
    branching on the lowest unassigned variable, true first, with
    chronological backtracking; stops as soon as every clause has a true
    literal, reading the still-unassigned variables as false.

    The search is iterative: the trail doubles as the propagation queue and
    an explicit decision stack replaces recursion, so no input depth hits a
    recursion limit.  Propagation is counter-based: every literal has an
    occurrence list (with multiplicity), every clause counts its true and
    false occurrences, and a running count tracks the clauses with no true
    literal yet, so no node rescans the clause list.  A clause is a unit
    when it has no true occurrence and exactly one open one, so a repeated
    literal such as ``(1, 1)`` or a tautology such as ``(1, -1)`` is never a
    unit while open.  A conflict-free propagation fixpoint does not depend
    on the order of propagation, so the search tree and the model are those
    of the plain recursive formulation.

    The occurrence lists are a ``ClauseIndex`` extended by the rest of the
    clause list (``ClauseIndex.extended``).  For ``IndexedClauses`` the
    index is the kept one, and the rest is the call's own clauses; for any
    other clause list it is an empty index, and the rest is the whole list.
    The kept index is read, never written.

    Raises ValueError when a literal is 0 or names a variable above n_vars.
    """
    if not all(clauses):
        return None  # the empty clause is unsatisfiable
    kept = clauses.kept if isinstance(clauses, IndexedClauses) else None
    if kept is None or kept.n_vars > n_vars:  # fewer variables: the kept clauses get checked too
        kept = ClauseIndex()
    return _search(clauses, n_vars, *kept.extended(clauses[kept.count :], n_vars))


def _search(
    clauses: Sequence[Clause],
    n_vars: int,
    occurs: Sequence[Sequence[int]],
    size: Sequence[int],
    units: Sequence[int],
) -> Optional[tuple[bool, ...]]:
    """The DPLL search over the clauses, given their occurrence lists by
    literal, their widths and their unit literals, position by position."""
    value = [0] * (2 * n_vars + 1)  # by literal: 1 true, -1 false, 0 open
    n_true = [0] * len(size)
    n_false = [0] * len(size)
    open_clauses = len(size)  # clauses with no true literal yet
    trail: list[int] = []
    decisions: list[tuple[int, int]] = []  # (trail length before, literal)

    def assign(lit: int) -> None:
        nonlocal open_clauses
        value[lit] = 1
        value[-lit] = -1
        trail.append(lit)
        for ci in occurs[lit]:
            if not n_true[ci]:
                open_clauses -= 1
            n_true[ci] += 1
        for ci in occurs[-lit]:
            n_false[ci] += 1

    def undo_to(length: int) -> None:
        nonlocal open_clauses
        for lit in trail[length:]:
            value[lit] = value[-lit] = 0
            for ci in occurs[lit]:
                n_true[ci] -= 1
                if not n_true[ci]:
                    open_clauses += 1
            for ci in occurs[-lit]:
                n_false[ci] -= 1
        del trail[length:]

    def propagate(head: int) -> bool:
        """Propagate the trail from position `head`; False on a conflict."""
        while head < len(trail):
            lit = trail[head]
            head += 1
            for ci in occurs[-lit]:
                if n_true[ci]:
                    continue
                left = size[ci] - n_false[ci]
                if left == 0:
                    return False
                if left == 1:
                    assign(next(other for other in clauses[ci] if not value[other]))
        return True

    for lit in units:
        if not value[lit]:
            assign(lit)
    head = 0
    while True:
        if propagate(head):
            if not open_clauses:
                return tuple(v > 0 for v in value[1 : n_vars + 1])
            # every variable below the last decision is assigned
            var = abs(decisions[-1][1]) + 1 if decisions else 1
            while value[var]:
                var += 1
            head = len(trail)
            decisions.append((head, var))
            assign(var)
            continue
        # back to the newest decision still on its true branch
        while decisions and decisions[-1][1] < 0:
            decisions.pop()
        if not decisions:
            return None
        head, var = decisions.pop()
        undo_to(head)
        decisions.append((head, -var))
        assign(-var)


class DpllBackend:
    """The built-in solver."""

    name = "builtin"

    def solve(
        self, clauses: Sequence[Clause], n_vars: int
    ) -> Optional[tuple[bool, ...]]:
        return dpll(clauses, n_vars)


class ExecBackend:
    """External solver invoked as ``<path> <dimacs-file>``.

    Expects SAT-competition output: an ``s SATISFIABLE`` /
    ``s UNSATISFIABLE`` line, and for satisfiable instances ``v`` lines with
    a 0-terminated literal list.  Variables missing from the model read as
    false.  A model is checked against the clauses it was asked about; one
    that falsifies a clause is a ``BackendFailure``.
    """

    def __init__(self, path: str):
        self.path = str(path)
        self.name = f"exec:{self.path}"

    def solve(
        self, clauses: Sequence[Clause], n_vars: int
    ) -> Optional[tuple[bool, ...]]:
        clauses = list(clauses)
        with tempfile.TemporaryDirectory(prefix="cfexplain-sat-") as tmp:
            problem = Path(tmp) / "problem.cnf"
            problem.write_text(to_dimacs(clauses, n_vars))
            try:
                proc = subprocess.run(
                    [self.path, str(problem)],
                    capture_output=True,
                    text=True,
                    timeout=300,
                )
            except OSError as exc:
                raise BackendFailure(f"cannot run solver {self.path!r}: {exc}") from exc
            except subprocess.TimeoutExpired as exc:
                raise BackendFailure(f"solver {self.path!r} timed out") from exc
        model = self._parse(proc.stdout, n_vars)
        if model is not None:
            for number, clause in enumerate(clauses, 1):
                if not any(model[abs(lit) - 1] == (lit > 0) for lit in clause):
                    raise BackendFailure(
                        f"solver {self.path!r} answered a model that falsifies "
                        f"clause {number} of {len(clauses)}"
                    )
        return model

    def _parse(self, stdout: str, n_vars: int) -> Optional[tuple[bool, ...]]:
        status: Optional[str] = None
        literals: list[int] = []
        for line in stdout.splitlines():
            line = line.strip()
            if line.startswith("s "):
                status = line[2:].strip().upper()
            elif line.startswith("v "):
                try:
                    literals.extend(int(tok) for tok in line[2:].split())
                except ValueError as exc:
                    raise BackendFailure(f"garbled model line: {line!r}") from exc
        if status == "UNSATISFIABLE":
            return None
        if status != "SATISFIABLE":
            raise BackendFailure(f"no solution status in solver output: {stdout!r}")
        if n_vars > 0 and not literals:
            raise BackendFailure("satisfiable verdict without a model")
        model = [False] * (n_vars + 1)
        for lit in literals:
            if lit == 0:
                continue
            var = abs(lit)
            if var > n_vars:
                raise BackendFailure(f"model names unknown variable {var}")
            model[var] = lit > 0
        return tuple(model[1:])


class SatOracle:
    """A backend plus an oracle-call counter (for budget assertions)."""

    def __init__(self, backend=None):
        self.backend = backend if backend is not None else DpllBackend()
        self.calls = 0

    def solve(
        self, clauses: Sequence[Clause], n_vars: int
    ) -> Optional[tuple[bool, ...]]:
        self.calls += 1
        return self.backend.solve(clauses, n_vars)


# -- encodings -------------------------------------------------------------------


def encode_formula(theory: Theory, formula: Formula) -> tuple[list[Clause], int]:
    """CNF clauses asserting the formula, over variables 1..n then auxiliaries."""
    _require_boolean(theory)
    clauses, root, n_vars = tseitin(formula, feature_vars(theory))
    clauses.append((root,))
    return clauses, n_vars


def at_most_k(
    lits: Sequence[int], k: int, next_var: int
) -> tuple[list[Clause], int]:
    """Sequential-counter encoding of "at most k of lits are true".

    Auxiliary variables are numbered from ``next_var``; returns the clauses
    and the next free variable index.
    """
    n = len(lits)
    if k < 0:
        return [()], next_var  # empty clause: unsatisfiable
    if k == 0:
        return [(-lit,) for lit in lits], next_var
    if n <= k:
        return [], next_var
    # registers[i][j] = "at least j+1 of the first i+1 literals are true"
    reg = [[next_var + i * k + j for j in range(k)] for i in range(n - 1)]
    next_var += (n - 1) * k
    clauses: list[Clause] = [(-lits[0], reg[0][0])]
    clauses.extend((-reg[0][j],) for j in range(1, k))
    for i in range(1, n - 1):
        clauses.append((-lits[i], reg[i][0]))
        clauses.append((-reg[i - 1][0], reg[i][0]))
        for j in range(1, k):
            clauses.append((-lits[i], -reg[i - 1][j - 1], reg[i][j]))
            clauses.append((-reg[i - 1][j], reg[i][j]))
        clauses.append((-lits[i], -reg[i - 1][k - 1]))
    clauses.append((-lits[n - 1], -reg[n - 2][k - 1]))
    return clauses, next_var


def class_indicator(classifier: Classifier, c: str) -> Formula:
    """A formula true exactly on the instances the classifier maps to c."""
    if not isinstance(classifier, FormulaClassifier):
        raise NotBoolean("class indicators exist only for formula classifiers")
    if c == classifier.class_if_true:
        return classifier.formula
    if c == classifier.class_if_false:
        return Not(classifier.formula)
    raise UnknownClass(f"class {c!r} is not one of the classifier's labels")


def _model_instance(theory: Theory, model: Sequence[bool]) -> PartialAssignment:
    return PartialAssignment(
        theory, tuple(1 if model[i] else 0 for i in range(theory.n_features))
    )


# -- calls on a classifier's encoding ----------------------------------------------


def _class_model(
    classifier: FormulaClassifier, literal: int, oracle: SatOracle, extra=(), n_vars=0
) -> Optional[PartialAssignment]:
    """An instance where the class literal and the extra clauses hold, or None.
    The oracle gets a fresh list: the cached encoding, the literal as a unit,
    then the extra clauses, over at least `n_vars` variables; the built-in
    solver reuses the classifier's clause index for the encoding."""
    index = classifier.clause_index
    call = IndexedClauses(index, [(literal,), *extra])
    model = oracle.solve(call, max(index.n_vars, n_vars))
    return None if model is None else _model_instance(classifier.theory, model)


def _class_instance(
    classifier: FormulaClassifier, literal: int, oracle: SatOracle
) -> PartialAssignment:
    y = _class_model(classifier, literal, oracle)
    if y is None:  # unreachable: formula classifiers are surjective
        raise BackendFailure("no instance found of a class the classifier produces")
    return y


# -- boolean helpers -------------------------------------------------------------


def complement_instance(x: PartialAssignment) -> PartialAssignment:
    """The instance disagreeing with x on every (boolean) feature."""
    _require_boolean(x.theory)
    if not x.is_instance:
        raise ValueError("complement needs a full instance")
    return PartialAssignment(x.theory, tuple(1 - v for v in x.values))


def flip_within(x: PartialAssignment, positions) -> PartialAssignment:
    """x with the given (boolean) feature positions flipped."""
    values = list(x.values)
    for i in positions:
        values[i] = 1 - values[i]
    return PartialAssignment(x.theory, tuple(values))


def _literal(position: int, value: int) -> int:
    """The encoding's literal that holds where the feature takes the value."""
    return position + 1 if value == 1 else -(position + 1)


def _single_literals(x: PartialAssignment) -> Iterator[PartialAssignment]:
    """The literals of the instance x, each alone, in feature order."""
    blank = (None,) * x.theory.n_features
    for i, v in enumerate(x.values):
        yield PartialAssignment(x.theory, blank[:i] + (v,) + blank[i + 1 :])


def _difference_literals(x: PartialAssignment) -> list[int]:
    """Literals true exactly when a model disagrees with x on that feature."""
    return [-_literal(i, v) for i, v in enumerate(x.values)]


# -- decide ----------------------------------------------------------------------


Witness = Optional[PartialAssignment]


class SatSpace:
    """The instance space of one class of a formula classifier: each
    question is one oracle call on the cached encoding, answered with one
    witness instance or None; a question about one full instance is one
    evaluation (``extending``)."""

    def __init__(self, classifier: FormulaClassifier, label: str, oracle: SatOracle):
        self.classifier, self.label, self.oracle = classifier, label, oracle
        self.own = classifier.class_literal(label)

    def lacking(self, e: PartialAssignment) -> Witness:
        """An instance of the class that lacks some literal of e; for a
        single literal, None says that the literal is in the class core."""
        some = tuple(-_literal(i, v) for i, v in e.indexed_literals())
        return _class_model(self.classifier, self.own, self.oracle, [some])

    def extending(self, e: PartialAssignment) -> Witness:
        """An instance of the class that extends e; when e is an instance,
        which extends only itself, e if one evaluation puts it in the class."""
        if e.is_instance:
            return e if self.classifier.classify(e) == self.label else None
        units = [(_literal(i, v),) for i, v in e.indexed_literals()]
        return _class_model(self.classifier, self.own, self.oracle, units)

    def overwritten(self, query: Query, e: PartialAssignment) -> Witness:
        """x overwritten by e, if one evaluation puts it in the class."""
        return self.extending(substitute(query.instance, e))

    def variant(self, x: PartialAssignment, e: PartialAssignment) -> Witness:
        """x with e's features flipped, if that keeps the class: the one
        instance differing from x exactly there (none when e is not part
        of x)."""
        return self.extending(flip_within(x, e.feature_positions())) if e.subset_of(x) else None

    def smaller_flip(self, x: PartialAssignment, e: PartialAssignment) -> Witness:
        """An instance of the other class equal to x outside Feat(e) and on
        at least one feature of Feat(e), for e sharing no literal with x."""
        units = [(_literal(i, v),) for i, v in enumerate(x.values) if e.values[i] is None]
        some = tuple(_literal(i, x.values[i]) for i in e.feature_positions())
        return _class_model(self.classifier, -self.own, self.oracle, [*units, some])

    def within(self, x: PartialAssignment, k: int) -> Witness:
        """An instance of the other class differing from x on at most k
        features, by a sequential counter over the difference literals."""
        _, _, n_vars = self.classifier.encoding
        counter, next_free = at_most_k(_difference_literals(x), k, n_vars + 1)
        return _class_model(self.classifier, -self.own, self.oracle, counter, next_free - 1)


def decide_exp(
    kind: str,
    query: Query,
    e: PartialAssignment,
    oracle: Optional[SatOracle] = None,
    distance: DistanceMeasure = hamming,
    tau: float = math.inf,
) -> bool:
    """Membership by ``explain.membership`` on a SatSpace: at most one
    oracle call for every kind.  Formula classifiers only (others raise
    NotBoolean)."""
    classifier = _require_formula(query.classifier)
    oracle = oracle if oracle is not None else SatOracle()
    return membership(kind, SatSpace(classifier, query.label, oracle), query, e, distance, tau)


# -- find ------------------------------------------------------------------------


def find_exp(
    kind: str,
    query: Query,
    oracle: Optional[SatOracle] = None,
    distance: DistanceMeasure = hamming,
    tau: float = math.inf,
) -> Optional[PartialAssignment]:
    """Produce one explanation of the given kind, or None when none exists.

    Call budgets (asserted by tests): sSuf 0, cSuf/gSuf/sNec at most 1,
    gNec at most n (one per literal of x that no earlier witness has
    already ruled out of the core), featMin 1 plus evaluation only: a
    greedy shrink, then one bit-parallel evaluation per subset size (per
    block of ``SUBSET_BLOCK`` subsets of one size).
    """
    classifier = _require_formula(query.classifier)
    oracle = oracle if oracle is not None else SatOracle()
    space = SatSpace(classifier, query.label, oracle)
    x = query.instance
    n = query.theory.n_features

    if kind == "sSuf":
        # if any sceptical sufficient reason exists, the full complement is one
        xbar = complement_instance(x)
        return None if space.extending(xbar) else xbar

    if kind == "cSuf":
        return _class_instance(classifier, -space.own, oracle).difference(x)

    if kind == "gSuf":
        return _class_instance(classifier, -space.own, oracle)

    if kind == "sNec":
        return x.difference(_class_instance(classifier, -space.own, oracle))

    if kind == "gNec":
        # the first literal of x in the core of x's class
        return next(_core_scan(space, x), None)

    if kind == "featMin":
        y = _class_instance(classifier, -space.own, oracle)
        positions = list(y.difference(x).feature_positions())
        # greedy one-feature shrinking, evaluation only
        for i in list(positions):
            rest = [p for p in positions if p != i]
            if rest and not space.extending(flip_within(x, rest)):
                positions = rest
        return flip_within(x, _first_flipping_subset(query, positions)).difference(x)

    if kind == "cardMin" or (kind == "distMin" and distance is hamming):
        return _smallest_flip(space, x, n)

    if kind == "distMin":
        return _closest_flip(query, distance, math.inf)

    if kind == "distCap":
        check_tau(tau)
        if distance is hamming:  # distances are integers and the threshold strict
            bound = n if math.isinf(tau) else min(n, math.ceil(tau) - 1)
            return _smallest_flip(space, x, bound)
        return _closest_flip(query, distance, tau)

    raise ValueError(f"unknown explainer kind {kind!r}")


# Subsets per bit-parallel evaluation: a size with more subsets (a middle
# size of a 29-feature flip has 77 million) is evaluated block by block, so
# memory stays bounded by one block.
SUBSET_BLOCK = 4096


def _first_flipping_subset(query: Query, positions: Sequence[int]) -> tuple[int, ...]:
    """The first subset of positions, by size and then in ``combinations``
    order, whose flip changes x's class; it is subset-minimal.  Each block
    of subsets of one size is one bit-parallel evaluation with one row per
    subset.  The full set flips, so some subset is found."""
    x, classifier = query.instance, query.classifier
    features = classifier.theory.features
    was_true = query.label == classifier.class_if_true
    for size in range(1, len(positions) + 1):
        subsets = combinations(positions, size)
        while rows := list(islice(subsets, SUBSET_BLOCK)):
            full = (1 << len(rows)) - 1
            # one '0'/'1' digit per row of each flipped column, row r at index -1 - r
            digits = {p: bytearray(b"0") * len(rows) for p in positions}
            for r, subset in enumerate(rows, 1):
                for p in subset:
                    digits[p][-r] = ord("1")
            columns = {f: full if v else 0 for f, v in zip(features, x.values)}
            for p, flipped in digits.items():
                columns[features[p]] ^= int(flipped, 2)
            truth = evaluate_bitwise(classifier.formula, columns, full)
            changed = truth ^ (full if was_true else 0)
            if changed:
                return rows[(changed & -changed).bit_length() - 1]
    raise AssertionError("greedy shrink lost the flip")  # pragma: no cover


def _smallest_flip(space: SatSpace, x: PartialAssignment, top: int) -> Optional[PartialAssignment]:
    """Iterative deepening on flip size up to `top`; one oracle call per size tried."""
    for k in range(1, top + 1):
        y = space.within(x, k)
        if y is not None:
            return y.difference(x)
    return None


def _closest_flip(
    query: Query, distance: DistanceMeasure, tau: float
) -> Optional[PartialAssignment]:
    """The flip to the closest opposite-class instance, if it lies under tau."""
    x = query.instance
    y = query.space.closest(x, distance)
    return y.difference(x) if distance(y, x) < tau else None


# -- core literals through the oracle ---------------------------------------------


def _core_scan(space: SatSpace, x: PartialAssignment) -> Iterator[PartialAssignment]:
    """The literals of the instance x that are in the core of the space's
    class, each alone, in feature order: one ``lacking`` call per literal,
    except that a feature is skipped once an earlier witness differs from x
    on it, since that witness is an instance of the class lacking x's
    literal there."""
    ruled_out = [False] * len(x.values)
    for i, e in enumerate(_single_literals(x)):
        if ruled_out[i]:
            continue
        y = space.lacking(e)
        if y is None:
            yield e
        else:
            ruled_out = [out or a != b for out, a, b in zip(ruled_out, y.values, x.values)]


def core_literals_sat(
    classifier: FormulaClassifier, c: str, oracle: Optional[SatOracle] = None
) -> PartialAssignment:
    """Core of a class as a backbone (boolean formulas only): one instance y
    of class c, then the core scan of y's literals, since no other value can
    be in the core; at most n + 1 oracle calls."""
    _require_formula(classifier)
    space = SatSpace(classifier, c, oracle if oracle is not None else SatOracle())
    y = _class_instance(classifier, space.own, space.oracle)
    in_core = {e.feature_positions()[0] for e in _core_scan(space, y)}
    core = tuple(v if i in in_core else None for i, v in enumerate(y.values))
    return PartialAssignment(classifier.theory, core)
