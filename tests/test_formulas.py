"""Boolean formula parsing, evaluation, and CNF translation."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfexplain.formulas import (
    And,
    Iff,
    Implies,
    Not,
    Or,
    ParseError,
    Var,
    evaluate,
    evaluate_bitwise,
    parse_formula,
    to_dimacs,
    tseitin,
)
from cfexplain.sat import dpll

from helpers import brute_sat, random_formula, reference_evaluate


def envs(names):
    for bits in itertools.product((False, True), repeat=len(names)):
        yield dict(zip(names, bits))


# -- parsing ----------------------------------------------------------------------


def test_precedence_and_top_down():
    f = parse_formula("a | b & c")
    assert isinstance(f, Or)  # & binds tighter than |
    f = parse_formula("a -> b | c")
    assert isinstance(f, Implies)
    f = parse_formula("a <-> b -> c")
    assert isinstance(f, Iff)
    f = parse_formula("!a & b")
    assert isinstance(f, And) and isinstance(f.operands[0], Not)


def test_implies_is_right_associative():
    f = parse_formula("a -> b -> c")
    # a -> (b -> c): false only when a, b true and c false
    env = {"a": True, "b": True, "c": False}
    assert not evaluate(f, env)
    assert evaluate(f, {"a": True, "b": False, "c": False})


def test_iff_is_left_associative():
    f = parse_formula("a <-> b <-> c")
    for env in envs(("a", "b", "c")):
        expected = (env["a"] == env["b"]) == env["c"]
        assert evaluate(f, env) == expected


def test_parens_override():
    f = parse_formula("(a | b) & c")
    assert isinstance(f, And)
    assert evaluate(f, {"a": True, "b": False, "c": True})
    assert not evaluate(f, {"a": True, "b": False, "c": False})


def test_str_round_trip_examples():
    for text in (
        "a",
        "!a",
        "a & b | c",
        "a -> b -> c",
        "a <-> b & !c",
        "!(a | b) & c_1",
    ):
        f = parse_formula(text)
        assert str(parse_formula(str(f))) == str(f)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc_info:
        parse_formula("a &\n& b")
    assert exc_info.value.line == 2
    assert exc_info.value.column == 1
    with pytest.raises(ParseError):
        parse_formula("")
    with pytest.raises(ParseError):
        parse_formula("a @ b")
    with pytest.raises(ParseError):
        parse_formula("(a | b")
    with pytest.raises(ParseError):
        parse_formula("a b")


# -- evaluation -------------------------------------------------------------------


def test_unknown_atom_raises():
    with pytest.raises(KeyError):
        evaluate(parse_formula("nope"), {"a": True})


@given(st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_bitwise_matches_pointwise(rng):
    names = ["a", "b", "c"]
    f = random_formula(rng, names, depth=3)
    n = len(names)
    full_mask = (1 << (1 << n)) - 1
    # column i of the truth table: bit r is the value of names[i] in row r
    columns = {}
    for i, name in enumerate(names):
        col = 0
        for r in range(1 << n):
            if (r >> i) & 1:
                col |= 1 << r
        columns[name] = col
    got = evaluate_bitwise(f, columns, full_mask)
    for r in range(1 << n):
        env = {name: bool((r >> i) & 1) for i, name in enumerate(names)}
        assert bool((got >> r) & 1) == reference_evaluate(f, env) == evaluate(f, env)


# -- CNF translation --------------------------------------------------------------


def tseitin_models(f, names):
    """Project the CNF's models down to the atom variables."""
    var_of = {name: i + 1 for i, name in enumerate(names)}
    clauses, root, n_vars = tseitin(f, var_of)
    clauses = clauses + [(root,)]
    found = set()
    for bits in itertools.product((False, True), repeat=n_vars):
        if all(any(bits[abs(l) - 1] == (l > 0) for l in cl) for cl in clauses):
            found.add(tuple(bits[var_of[n] - 1] for n in names))
    return found


@given(st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_tseitin_preserves_models(rng):
    names = ["a", "b", "c"]
    f = random_formula(rng, names, depth=3)
    truth = {
        tuple(env[n] for n in names)
        for env in envs(names)
        if reference_evaluate(f, env)
    }
    assert tseitin_models(f, names) == truth


@given(st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_tseitin_equisatisfiable_under_dpll(rng):
    names = ["a", "b", "c", "d"]
    f = random_formula(rng, names, depth=4)
    var_of = {name: i + 1 for i, name in enumerate(names)}
    clauses, root, n_vars = tseitin(f, var_of)
    clauses = clauses + [(root,)]
    model = dpll(clauses, n_vars)
    satisfiable = any(
        reference_evaluate(f, dict(zip(names, bits)))
        for bits in itertools.product((False, True), repeat=len(names))
    )
    assert (model is None) == (not satisfiable)
    if n_vars <= 20:  # the most brute_sat enumerates
        assert (model is None) == (brute_sat(clauses, n_vars) is None)
    if model is not None:
        env = {n: model[var_of[n] - 1] for n in names}
        assert reference_evaluate(f, env)


def test_tseitin_variable_layout():
    f = parse_formula("a & b")
    clauses, root, n_vars = tseitin(f, {"a": 1, "b": 2})
    assert root == 3  # one auxiliary, allocated after the atoms
    assert n_vars == 3


def test_to_dimacs_golden():
    text = to_dimacs([(1, -2), (2,)], 2, comments=["note"])
    assert text == "c note\np cnf 2 2\n1 -2 0\n2 0\n"


# -- n-ary chains, rendering, deep input ----------------------------------------


def test_chains_are_single_connectives_and_groups_stay_nodes():
    f = parse_formula("a & b & !c")
    assert isinstance(f, And) and len(f.operands) == 3
    f = parse_formula("(a | b) | c")
    assert isinstance(f, Or) and isinstance(f.operands[0], Or) and len(f.operands) == 2
    assert str(And(And(Var("a"), Var("b")), Var("c"))) == "a & b & c"
    assert str(And(Var("a"), Var("b"), Var("c"))) == "a & b & c"


def test_str_of_nested_connectives_is_pinned():
    for text, printed in (
        ("a & (b & c)", "a & (b & c)"),
        ("(a & b) & c", "a & b & c"),
        ("a -> (b -> c)", "a -> b -> c"),
        ("(a -> b) -> c", "(a -> b) -> c"),
        ("a <-> (b <-> c)", "a <-> (b <-> c)"),
        ("!!a", "!!a"),
    ):
        assert str(parse_formula(text)) == printed


def test_connectives_check_their_operand_count():
    a, b = Var("a"), Var("b")
    for build in (lambda: And(a), lambda: Or(), lambda: Not(a, b), lambda: Implies(a),
                  lambda: Iff(a, b, a)):
        with pytest.raises(TypeError):
            build()
    assert len(Or(a, b, a, b).operands) == 4


def test_evaluation_reads_no_operand_once_settled():
    # the atom z has no column: reading it would raise KeyError
    assert evaluate_bitwise(parse_formula("a & b & z"), {"a": 0b01, "b": 0b10}, 0b11) == 0
    assert evaluate_bitwise(parse_formula("a | b | z"), {"a": 0b01, "b": 0b10}, 0b11) == 0b11
    assert evaluate_bitwise(parse_formula("a -> z"), {"a": 0}, 0b11) == 0b11
    assert evaluate(parse_formula("!a & z"), {"a": True}) is False
    with pytest.raises(KeyError):
        evaluate_bitwise(parse_formula("a & z"), {"a": 0b01}, 0b11)


DEPTH = 3000


@pytest.mark.parametrize("connective", ["!", "->", "<->"])
def test_deep_chains_need_no_recursion(connective):
    names = [f"f{i % 12 + 1}" for i in range(DEPTH + 1)]
    text = "!" * DEPTH + "f1" if connective == "!" else f" {connective} ".join(names)
    f = parse_formula(text)
    assert str(f) == text
    assert f.atoms() == set(names[:1] if connective == "!" else names)
    rng = random.Random(DEPTH)
    for _ in range(4):
        env = {n: rng.random() < 0.8 for n in set(names)}
        values = [env[n] for n in names]
        if connective == "!":
            expected = values[0]  # an even number of negations
        elif connective == "->":
            expected = values[-1]
            for v in reversed(values[:-1]):
                expected = not v or expected
        else:
            expected = values[0]
            for v in values[1:]:
                expected = expected == v
        assert evaluate(f, env) is expected
        columns = {n: int(v) for n, v in env.items()}
        assert evaluate_bitwise(f, columns, 1) == int(expected)
    clauses, root, n_vars = tseitin(f, {f"f{i + 1}": i + 1 for i in range(12)})
    per_gate = {"!": 0, "->": 3, "<->": 4}[connective]
    assert len(clauses) == per_gate * DEPTH
    assert n_vars == 12 + (0 if connective == "!" else DEPTH)
    assert root == (1 if connective == "!" else n_vars)


def test_deep_parentheses_parse_and_print_back():
    assert str(parse_formula("(" * DEPTH + "a" + ")" * DEPTH)) == "a"
    f = Var("a")
    for i in range(DEPTH):  # a & (b & (a & ...)): every inner level needs parentheses
        f = And(Var("ab"[i % 2]), f)
    text = str(f)
    assert text.count("(") == DEPTH - 1 and str(parse_formula(text)) == text
    with pytest.raises(ParseError) as exc_info:
        parse_formula("(" * DEPTH + "a")
    assert (exc_info.value.line, exc_info.value.column) == (1, DEPTH + 2)
