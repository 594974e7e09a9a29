"""Shared builders and brute-force references for the test suite."""

from __future__ import annotations

import csv
import functools
import importlib.util
import io
import itertools
import math
import random
import re
from pathlib import Path
from typing import Optional, Sequence

from hypothesis import strategies as st

from cfexplain import (
    FormulaClassifier,
    NotSurjective,
    PartialAssignment,
    Query,
    TableClassifier,
    Theory,
    as_instance,
    enumerate_instances,
    instance_of_rank,
    validate_theory,
)
from cfexplain.formulas import And, Iff, Implies, Not, Or, ParseError, Var
from cfexplain.sat import SatOracle, SatSpace, find_exp, flip_within


def make_theory(
    domain_sizes: Sequence[int], n_classes: int = 2, feature_prefix: str = "f"
) -> Theory:
    return validate_theory(
        {
            "features": [
                {
                    "name": f"{feature_prefix}{i + 1}",
                    "domain": [str(v) for v in range(size)],
                }
                for i, size in enumerate(domain_sizes)
            ],
            "classes": [f"c{i}" for i in range(n_classes)],
        }
    )


def table_to_csv(
    classifier: TableClassifier,
    columns: Optional[Sequence[str]] = None,
    ranks: Optional[Sequence[int]] = None,
) -> str:
    """The CSV form ``TableClassifier.from_csv`` reads.

    By default the columns come in theory order with 'class' last and the
    rows in rank order; ``columns`` and ``ranks`` give other orders."""
    theory = classifier.theory
    columns = list(columns or [*theory.features, "class"])
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for r in range(len(classifier.table)) if ranks is None else ranks:
        cells = instance_of_rank(theory, r).to_dict()
        cells["class"] = classifier.table[r]
        writer.writerow([cells[c] for c in columns])
    return out.getvalue()


def table_from_pattern(theory: Theory, pattern: int) -> TableClassifier:
    """Two-class table: rank r gets class c1 when bit r of the pattern is set."""
    n = theory.instance_count()
    return TableClassifier(
        theory, ["c1" if (pattern >> r) & 1 else "c0" for r in range(n)]
    )


# -- hypothesis strategies ------------------------------------------------------


@st.composite
def small_theories(draw, max_features: int = 3, max_domain: int = 3):
    n = draw(st.integers(1, max_features))
    sizes = draw(st.lists(st.integers(2, max_domain), min_size=n, max_size=n))
    return make_theory(sizes)


@st.composite
def table_queries(draw, max_features: int = 3, max_domain: int = 3):
    """A query over a random surjective two-class table."""
    theory = draw(small_theories(max_features, max_domain))
    count = theory.instance_count()
    pattern = draw(st.integers(1, (1 << count) - 2))  # not constant
    classifier = table_from_pattern(theory, pattern)
    rank = draw(st.integers(0, count - 1))
    return Query(theory, classifier, instance_of_rank(theory, rank))


@st.composite
def multiclass_table_queries(draw, max_features: int = 5, max_domain: int = 3):
    """A query over a random surjective table with two or three classes."""
    sizes = draw(st.lists(st.integers(2, max_domain), min_size=1, max_size=max_features))
    count = math.prod(sizes)
    n_classes = draw(st.integers(2, min(3, count)))
    theory = make_theory(sizes, n_classes)
    labels = draw(st.lists(st.sampled_from(theory.classes), min_size=count, max_size=count))
    ranks = draw(st.sets(st.integers(0, count - 1), min_size=n_classes, max_size=n_classes))
    for c, r in zip(theory.classes, sorted(ranks)):  # every class gets an instance
        labels[r] = c
    rank = draw(st.integers(0, count - 1))
    return Query(theory, TableClassifier(theory, labels), instance_of_rank(theory, rank))


# -- random boolean formula queries (seeded, for differential suites) -------------


def random_formula(rng: random.Random, features: Sequence[str], depth: int = 3):
    """A random formula tree; ``&`` and ``|`` nodes get 2 to 4 operands."""
    if depth <= 0 or rng.random() < 0.25:
        atom = Var(rng.choice(list(features)))
        return Not(atom) if rng.random() < 0.3 else atom
    kind = rng.randrange(5)
    if kind == 0:
        return Not(random_formula(rng, features, depth - 1))
    arity = rng.randint(2, 4) if kind <= 2 else 2
    operands = [random_formula(rng, features, depth - 1) for _ in range(arity)]
    return (And, Or, Implies, Iff)[kind - 1](*operands)


def reference_evaluate(f, env) -> bool:
    """The plain recursive evaluator, the reference for the iterative walks."""
    if isinstance(f, Var):
        return bool(env[f.name])
    values = [reference_evaluate(op, env) for op in f.operands]
    if isinstance(f, Not):
        return not values[0]
    if isinstance(f, And):
        return all(values)
    if isinstance(f, Or):
        return any(values)
    if isinstance(f, Implies):
        return not values[0] or values[1]
    if isinstance(f, Iff):
        return values[0] == values[1]
    raise TypeError(f"not a formula node: {f!r}")


_REFERENCE_SYMBOLS = ("<->", "->", "&", "|", "!", "(", ")")


def reference_tokenize(text: str):
    """The character-at-a-time tokenizer: (kind, value, line, column)
    tokens, then an end token; the reference for ``formulas._tokenize``."""
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        for sym in _REFERENCE_SYMBOLS:
            if text.startswith(sym, i):
                yield ("sym", sym, line, col)
                i += len(sym)
                col += len(sym)
                break
        else:
            if ch.isalpha() or ch == "_" or ch.isdigit():
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                yield ("name", text[i:j], line, col)
                col += j - i
                i = j
            else:
                raise ParseError(f"unexpected character {ch!r}", line, col)
    yield ("end", "", line, col)


# The binary connectives, loosest first; a group keeps one operand list per
# connective, and _JOIN[level] builds the node for that list.
_BINARY = ("<->", "->", "|", "&")
_JOIN = (
    lambda ops: functools.reduce(Iff, ops),
    lambda ops: functools.reduce(lambda right, left: Implies(left, right), reversed(ops)),
    lambda ops: ops[0] if len(ops) == 1 else Or(*ops),
    lambda ops: ops[0] if len(ops) == 1 else And(*ops),
)


def _close(lists, level: int) -> None:
    """Join the operand lists of connectives tighter than ``level``, each
    into one operand of the next looser one."""
    for j in range(len(_BINARY) - 1, level, -1):
        lists[j - 1].append(_JOIN[j](lists[j]))
        lists[j] = []


def _group(lists):
    """The formula of a finished group."""
    _close(lists, 0)
    return _JOIN[0](lists[0])


def reference_parse_formula(text: str):
    """The earlier ``parse_formula``, over ``reference_tokenize``'s
    positioned tokens: each group keeps one operand list per connective."""
    groups = []
    lists = [[] for _ in _BINARY]
    nots = 0
    want_operand = True
    for kind, value, line, col in list(reference_tokenize(text)):  # character errors first
        if want_operand:
            if value == "!":
                nots += 1
                continue
            if value == "(":
                groups.append((lists, nots))
                lists, nots = [[] for _ in _BINARY], 0
                continue
            if kind != "name":
                raise ParseError("expected a feature name, '!' or '('", line, col)
            f = Var(value)
        elif value in _BINARY:
            _close(lists, _BINARY.index(value))
            want_operand = True
            continue
        elif value == ")" and groups:
            f = _group(lists)
            lists, nots = groups.pop()
        elif kind == "end" and not groups:
            return _group(lists)
        else:
            message = "expected ')'" if groups else f"unexpected trailing {value!r}"
            raise ParseError(message, line, col)
        for _ in range(nots):
            f = Not(f)
        lists[-1].append(f)
        nots = 0
        want_operand = False
    raise AssertionError("the token list ends with an end token")


def _reference_fold(f, visit):
    """``visit(node, values of its operands)`` for every node in post-order,
    by a stack of (node, operands done) pairs."""
    values: list = []
    stack = [(f, False)]
    while stack:
        node, ready = stack.pop()
        if ready or not node.operands:
            k = len(values) - len(node.operands)
            values[k:] = [visit(node, values[k:])]
        else:
            stack.append((node, True))
            stack.extend((op, False) for op in reversed(node.operands))
    return values[0]


_REFERENCE_LEVEL = {Iff: 1, Implies: 2, Or: 3, And: 4, Not: 5, Var: 6}
_REFERENCE_SYMBOL = {Iff: " <-> ", Implies: " -> ", Or: " | ", And: " & "}


def _reference_render_node(node, texts):
    """A node's text from its operands' texts, each in parentheses unless
    it binds tighter or sits where the parser rebuilds the same shape."""
    if isinstance(node, Var):
        return node.name
    level = _REFERENCE_LEVEL[type(node)]
    first, rest = (level + 1, level) if isinstance(node, Implies) else (level, level + 1)
    texts = [
        text if _REFERENCE_LEVEL[type(op)] >= (rest if k else first) else f"({text})"
        for k, (op, text) in enumerate(zip(node.operands, texts))
    ]
    return "!" + texts[0] if isinstance(node, Not) else _REFERENCE_SYMBOL[type(node)].join(texts)


def reference_render(f) -> str:
    """The text of f, folded up from its operands' texts (each level copies
    its operands' whole text); the reference for ``str`` of a formula."""
    return _reference_fold(f, _reference_render_node)


def reference_tseitin(f, var_of_atom):
    """The fold-based biconditional Tseitin transform: (clauses, root
    literal, variable count); the reference for ``formulas.tseitin``."""
    clauses = []
    next_var = max(var_of_atom.values(), default=0)

    def gate(node, lits):
        nonlocal next_var
        if isinstance(node, Var):
            return var_of_atom[node.name]
        if isinstance(node, Not):
            return -lits[0]
        next_var += 1
        g = next_var
        if isinstance(node, Iff):
            a, b = lits
            clauses.extend(((-g, -a, b), (-g, a, -b), (g, a, b), (g, -a, -b)))
        elif isinstance(node, And):
            clauses.extend((-g, a) for a in lits)
            clauses.append((g, *(-a for a in lits)))
        else:  # Or, with a -> b read as !a | b
            if isinstance(node, Implies):
                lits = [-lits[0], lits[1]]
            clauses.append((-g, *lits))
            clauses.extend((g, -a) for a in lits)
        return g

    root = _reference_fold(f, gate)
    return clauses, root, next_var


def rule_list(rng: random.Random, n_features: int = 12, n_terms: int = 1200, width: int = 8) -> str:
    """A DNF over f1..fn as text: each term the conjunction of ``width``
    literals on distinct features, in parentheses."""
    terms = []
    for _ in range(n_terms):
        literals = [("" if rng.randrange(2) else "!") + f"f{i + 1}"
                    for i in rng.sample(range(n_features), width)]
        terms.append("(" + " & ".join(literals) + ")")
    return " | ".join(terms)


def random_boolean_query(rng: random.Random, n_features: int) -> Query:
    """A query over a random surjective formula classifier on n boolean features."""
    theory = make_theory([2] * n_features, n_classes=2)
    while True:
        formula = random_formula(rng, theory.features, depth=3)
        try:
            classifier = FormulaClassifier(theory, formula, "c1", "c0")
        except NotSurjective:
            continue
        break
    rank = rng.randrange(theory.instance_count())
    return Query(theory, classifier, instance_of_rank(theory, rank))


def planted_cnf(rng: random.Random, n_features: int, n_clauses: int) -> str:
    """A random 3-CNF over f1..fn, as text, that a hidden instance satisfies.

    Every nonempty CNF can be falsified, so both classes occur; the feature
    space is as large as n_features makes it, past any truth-table cap."""
    planted = [rng.randrange(2) for _ in range(n_features)]
    clauses: list[str] = []
    while len(clauses) < n_clauses:
        literals = [(i, rng.randrange(2)) for i in rng.sample(range(n_features), 3)]
        if any(planted[i] == v for i, v in literals):
            atoms = [f"f{i + 1}" if v else f"!f{i + 1}" for i, v in literals]
            clauses.append("(" + " | ".join(atoms) + ")")
    return " & ".join(clauses)


def random_subset_of(
    rng: random.Random, x: PartialAssignment, allow_empty: bool = True
) -> PartialAssignment:
    values = [
        v if rng.random() < 0.5 else None for v in x.values
    ]
    if not allow_empty and all(v is None for v in values):
        pos = rng.randrange(len(values))
        values[pos] = x.values[pos]
    return PartialAssignment(x.theory, tuple(values))


def random_novel(rng: random.Random, x: PartialAssignment) -> PartialAssignment:
    """A random assignment sharing no literal with the instance x."""
    theory = x.theory
    values: list[Optional[int]] = []
    for i, xv in enumerate(x.values):
        if rng.random() < 0.5:
            values.append(None)
        else:
            others = [v for v in range(len(theory.domains[i])) if v != xv]
            values.append(rng.choice(others))
    return PartialAssignment(theory, tuple(values))


def random_assignment(rng: random.Random, theory: Theory) -> PartialAssignment:
    values = tuple(
        rng.choice([None] + list(range(len(theory.domains[i]))))
        for i in range(theory.n_features)
    )
    return PartialAssignment(theory, values)


# -- brute-force references -------------------------------------------------------


def brute_sat(clauses, n_vars: int) -> Optional[tuple[bool, ...]]:
    """Exhaustive satisfiability check; first model in lexicographic order."""
    if n_vars > 20:
        raise ValueError("brute_sat is for small instances only")
    for bits in itertools.product((False, True), repeat=n_vars):
        ok = True
        for clause in clauses:
            if not any(
                bits[abs(lit) - 1] == (lit > 0) for lit in clause
            ):
                ok = False
                break
        if ok:
            return bits
    return None


def reference_dpll(clauses, n_vars: int) -> Optional[tuple[bool, ...]]:
    """The recursive DPLL that ``cfexplain.sat.dpll`` must match model for model.

    Unit propagation rescans every clause until nothing changes (a literal
    is a unit only when it is the single open occurrence of a clause with no
    true literal), then stops if every clause has a true literal, else
    branches on the lowest unassigned variable, true first.  Unassigned
    variables read as false.  One level of recursion per decision, so keep
    the inputs small.
    """
    assign: list[Optional[bool]] = [None] * (n_vars + 1)

    def propagate(trail: list[int]) -> bool:
        changed = True
        while changed:
            changed = False
            for clause in clauses:
                unit = None
                open_lits = 0
                satisfied = False
                for lit in clause:
                    v = assign[abs(lit)]
                    if v is None:
                        open_lits += 1
                        unit = lit
                        if open_lits > 1:
                            break
                    elif (lit > 0) == v:
                        satisfied = True
                        break
                if satisfied or open_lits > 1:
                    continue
                if open_lits == 0:
                    return False
                var = abs(unit)
                assign[var] = unit > 0
                trail.append(var)
                changed = True
        return True

    def satisfied_everywhere() -> bool:
        return all(
            any(
                assign[abs(lit)] is not None and (lit > 0) == assign[abs(lit)]
                for lit in clause
            )
            for clause in clauses
        )

    def search() -> bool:
        trail: list[int] = []
        if not propagate(trail):
            for var in trail:
                assign[var] = None
            return False
        if satisfied_everywhere():
            return True
        var = next(v for v in range(1, n_vars + 1) if assign[v] is None)
        for value in (True, False):
            assign[var] = value
            if search():
                return True
            assign[var] = None
        for var in trail:
            assign[var] = None
        return False

    if search():
        return tuple(bool(assign[v]) for v in range(1, n_vars + 1))
    return None


def _single_literal(x: PartialAssignment, i: int) -> PartialAssignment:
    values = [None] * x.theory.n_features
    values[i] = x.values[i]
    return PartialAssignment(x.theory, tuple(values))


def reference_gnec(q: Query, oracle: SatOracle) -> Optional[PartialAssignment]:
    """``find gNec`` as a plain scan: one ``lacking`` call per literal of x,
    in feature order, up to the first literal no instance of x's class lacks."""
    space = SatSpace(q.classifier, q.label, oracle)
    for i in range(q.theory.n_features):
        e = _single_literal(q.instance, i)
        if space.lacking(e) is None:
            return e
    return None


def reference_core_sat(classifier: FormulaClassifier, c: str, oracle: SatOracle) -> PartialAssignment:
    """``core_literals_sat`` as a plain backbone: one instance y of class c,
    then one ``lacking`` call per feature, on y's literal alone."""
    space = SatSpace(classifier, c, oracle)
    y = space.extending(PartialAssignment.empty(classifier.theory))
    core = [
        None if space.lacking(_single_literal(y, i)) else v for i, v in enumerate(y.values)
    ]
    return PartialAssignment(classifier.theory, tuple(core))


def reference_featmin(q: Query, oracle: SatOracle) -> PartialAssignment:
    """``find featMin`` classifying one instance per subset: one
    opposite-class model, the greedy one-feature shrink, then the first
    subset of what is left, by size and in ``combinations`` order, whose
    flip changes x's class."""
    x = q.instance

    def flips(positions) -> bool:
        return q.classifier.classify(flip_within(x, positions)) != q.label

    positions = list(find_exp("gSuf", q, oracle=oracle).difference(x).feature_positions())
    for i in list(positions):
        rest = [p for p in positions if p != i]
        if rest and flips(rest):
            positions = rest
    for size in range(1, len(positions) + 1):
        for subset in itertools.combinations(positions, size):
            if flips(subset):
                return flip_within(x, subset).difference(x)
    raise AssertionError("greedy shrink lost the flip")


def residual(x: PartialAssignment, e: PartialAssignment) -> list[PartialAssignment]:
    """All instances whose literal-set difference from x is exactly e.

    Empty unless e is part of x; otherwise the instances agreeing with x off
    e's features and taking any *other* value on each of e's features, so the
    count is prod over e's features of (|domain| - 1).
    """
    as_instance(x)
    if not e.subset_of(x):  # raises on a theory mismatch
        return []
    options = [
        [v for v in range(len(domain)) if v != xv] if ev is not None else [xv]
        for domain, xv, ev in zip(x.theory.domains, x.values, e.values)
    ]
    return [PartialAssignment(x.theory, combo) for combo in itertools.product(*options)]


REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.py"


def load_reference():
    """bench/reference.py by file path; it must stay free of cfexplain."""
    source = REFERENCE.read_text()
    assert not re.search(r"^\s*(import|from)\s+cfexplain", source, re.MULTILINE)
    spec = importlib.util.spec_from_file_location("cfexplain_reference", REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def reference_oracle(ref, q: Query):
    """The reference checker's oracle for q, on q's truth table."""
    theory = q.theory
    labels = [
        q.classifier.classify(instance_of_rank(theory, r))
        for r in range(theory.instance_count())
    ]
    table = ref.Table.from_labels([len(d) for d in theory.domains], labels)
    return ref.Oracle(table, q.instance.values)


def reference_old_values(query: Query) -> list[PartialAssignment]:
    """The old-values witness by its definition, { x \\ y : y of another
    class }, in canonical order; every instance is classified."""
    x, classify = query.instance, query.classifier.classify
    found = {
        x.difference(y) for y in enumerate_instances(query.theory) if classify(y) != query.label
    }
    return sorted(found, key=PartialAssignment.sort_key)


def reference_weak_validity(query: Query, e: PartialAssignment) -> bool:
    """Does e fail Weak Validity, by its definition: x overwritten by e keeps
    x's class, classified directly."""
    from cfexplain import substitute

    return query.classifier.classify(substitute(query.instance, e)) == query.label


def exhaustive_members(kind: str, query: Query):
    """Reference explanation set computed by filtering the full enumeration."""
    from cfexplain import enumerate_partial_assignments, is_member

    return frozenset(
        e
        for e in enumerate_partial_assignments(query.theory)
        if is_member(kind, query, e)
    )


# -- rankings by their definitions ----------------------------------------------


def reference_at_least(weighting, mode: str):
    """"a is at least as good as b" under a weighting, from the two modes'
    definitions: weight(a) <= weight(b); under ``delta-feature-refined``,
    weight(a) < weight(b), or equal weights and Feat(a) inside Feat(b)."""

    def at_least(a: PartialAssignment, b: PartialAssignment) -> bool:
        wa, wb = weighting(a), weighting(b)
        if mode == "min-is-better":
            return wa <= wb
        assert mode == "delta-feature-refined", mode
        return wa < wb or (wa == wb and set(a.feature_positions()) <= set(b.feature_positions()))

    return at_least


def _weighed_once(weighting, candidates):
    weights = {e: weighting(e) for e in candidates}
    return weights.__getitem__


def reference_faithful_max(q: Query, weighting, mode: str) -> tuple[PartialAssignment, ...]:
    """The assignments nothing strictly beats, by pairwise comparison, in
    enumeration order."""
    from cfexplain import enumerate_partial_assignments

    candidates = list(enumerate_partial_assignments(q.theory))
    at_least = reference_at_least(_weighed_once(weighting, candidates), mode)
    return tuple(
        e
        for e in candidates
        if not any(at_least(o, e) and not at_least(e, o) for o in candidates)
    )


def reference_is_faithful(q: Query, weighting, mode: str):
    """(ok, counterexample): the first (flip, non-flip) pair in enumeration
    order where the flip is not strictly better, a flip being a novel
    assignment whose overwrite of x changes x's class."""
    from cfexplain import enumerate_partial_assignments, substitute

    x = q.instance
    candidates = list(enumerate_partial_assignments(q.theory))
    at_least = reference_at_least(_weighed_once(weighting, candidates), mode)
    flipped = [
        e.disjoint_from(x) and q.classifier.classify(substitute(x, e)) != q.label
        for e in candidates
    ]
    flips = [e for e, f in zip(candidates, flipped) if f]
    rest = [e for e, f in zip(candidates, flipped) if not f]
    for good in flips:
        for bad in rest:
            if not (at_least(good, bad) and not at_least(bad, good)):
                return False, (good, bad)
    return True, None


# -- abductive explanations ------------------------------------------------------


def reference_axps(q: Query) -> set[frozenset[int]]:
    """The feature sets of the AXps of x: the subset-minimal parts of x whose
    every extension keeps x's class, found by classifying every instance."""
    x = q.instance
    n = q.theory.n_features
    others = [
        y.values
        for y in enumerate_instances(q.theory)
        if q.classifier.classify(y) != q.label
    ]
    parts = [frozenset(s) for k in range(n + 1) for s in itertools.combinations(range(n), k)]
    keeping = [
        s for s in parts if not any(all(y[i] == x.values[i] for i in s) for y in others)
    ]
    return {s for s in keeping if not any(t < s for t in keeping)}


def minimal_hitting_sets(family: set[frozenset[int]], n: int) -> set[frozenset[int]]:
    """The subset-minimal sets of positions 0..n-1 meeting every set of the family."""
    subsets = [frozenset(s) for k in range(n + 1) for s in itertools.combinations(range(n), k)]
    hitting = [s for s in subsets if all(s & f for f in family)]
    return {s for s in hitting if not any(t < s for t in hitting)}
