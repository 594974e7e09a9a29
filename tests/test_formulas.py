"""Boolean formula parsing, evaluation, and CNF translation."""

import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfexplain import load_bundle
from cfexplain.classifier import feature_vars
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

from helpers import (
    brute_sat,
    planted_cnf,
    random_formula,
    reference_evaluate,
    reference_parse_formula,
    reference_render,
    reference_tseitin,
    rule_list,
)


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


# Pieces of formula text, well-formed or not: ASCII, Unicode and digit-led
# names, "½" (numeric but neither a letter nor a digit), "²" (a digit but not
# decimal), white space the tokenizer skips ("\r", "\x1c", "\u2028", ...),
# stray halves of the arrows, and characters outside the grammar.
FRAGMENTS = (
    "a", "b_2", "_", "3d", "42", "été", "Ωx", "名前", "x½", "½", "²", "\u0663",
    " ", "  ", "\t", "\r", "\n", "\r\n", "\x0b", "\x1c", "\xa0", "\u2028",
    "<", "-", ">", "<-", "<->", "->", "-->", "&", "|", "!", "(", ")", "@", "$", "\x00",
)
SPACES = st.sampled_from(("", " ", "\t", "\n", "\r", "\r\n", "\x1c", "\u2028"))


@st.composite
def formula_texts(draw):
    """Text that parses (a rendered random formula, its spaces redrawn),
    text that is cut or spliced, deep "(" and "!" nests, or loose pieces."""
    shape = draw(st.sampled_from(("valid", "spliced", "nest", "pieces")))
    if shape == "pieces":
        return "".join(draw(st.lists(st.sampled_from(FRAGMENTS), max_size=24)))
    rng = draw(st.randoms(use_true_random=False))
    f = random_formula(rng, ["a", "b_2", "3d", "été", "名前"], depth=3)
    parts = str(f).split(" ")  # spaces stand only around binary connectives
    text = parts[0] + "".join(draw(SPACES) + part for part in parts[1:])
    if shape == "spliced":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(FRAGMENTS)) + text[at + draw(st.integers(0, 3)):]
    elif shape == "nest":
        opener = draw(st.sampled_from(("(", "!", "(!", "!(")))
        depth = draw(st.integers(1, 400))
        closer = ")" * draw(st.integers(0, depth * opener.count("(") + 1))
        text = opener * depth + text + closer
    return text


def outcome(parse, text):
    """The tree as printed, or the error's text and position."""
    try:
        return str(parse(text))
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line, exc.column)


@given(formula_texts())
@settings(max_examples=300, deadline=None)
def test_parsing_answers_as_the_character_tokenizer(text):
    assert outcome(parse_formula, text) == outcome(reference_parse_formula, text)


@pytest.mark.parametrize("text", [
    "a &\n& b", "a\r\n  @", "½x", "x½ & ²", "a <- b", "a - > b", "(a | b", "a b", "a )",
    "\u2028\u2028a\x1c&", "", "   \n ", "!" * 50 + "(" * 50,
])
def test_parse_errors_and_trees_are_the_references(text):
    assert outcome(parse_formula, text) == outcome(reference_parse_formula, text)


def test_importing_cfexplain_compiles_no_pattern():
    """Importing the package compiles no regular expression: ``re`` compiles
    the tokenizer's pattern on the first parse, not at import."""
    probe = """
import json, re, sys, types
import cfexplain, cfexplain.cli
seen, found = {}, []  # seen keeps what it has walked alive, so no id is reused
def walk(value, where):
    if id(value) in seen:
        return
    seen[id(value)] = value
    if isinstance(value, re.Pattern):
        found.append(where)
    elif isinstance(value, (tuple, list, set, frozenset)):
        for item in value:
            walk(item, where)
    elif isinstance(value, (dict, types.MappingProxyType)):
        for key, item in value.items():
            walk(key, where)
            walk(item, f"{where}.{key}")
    elif isinstance(value, type) and value.__module__.startswith("cfexplain"):
        walk(vars(value), where)
    elif isinstance(value, types.FunctionType) and value.__module__.startswith("cfexplain"):
        walk(value.__defaults__, where)
        walk(value.__kwdefaults__, where)
        walk(tuple(cell.cell_contents for cell in value.__closure__ or ()), where)
modules = sorted(name for name in sys.modules if name.split(".")[0] == "cfexplain")
for name in modules:
    walk(vars(sys.modules[name]), name)
print(json.dumps({"modules": modules, "found": found}))
"""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert {"cfexplain", "cfexplain.cli", "cfexplain.formulas"} <= set(result["modules"])
    assert result["found"] == []


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


@given(st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_tseitin_emits_the_reference_encoding(rng):
    names = ["a", "b", "c", "d"]
    f = random_formula(rng, names, depth=4)
    var_of = dict(zip(names, rng.sample(range(1, 9), 4)))  # any numbering, gaps too
    assert tseitin(f, var_of) == reference_tseitin(f, var_of)


def test_tseitin_emits_the_reference_encoding_on_fixtures_and_generated_formulas():
    majority = load_bundle("majority")
    cases = [(majority.classifier.formula, feature_vars(majority.theory))]
    rng = random.Random(22)
    var_of = {f"f{i + 1}": i + 1 for i in range(40)}
    for text in (rule_list(rng, n_terms=60), rule_list(rng, n_features=40, n_terms=30, width=5),
                 planted_cnf(rng, 12, 50), planted_cnf(rng, 40, 170)):
        cases.append((parse_formula(text), var_of))
    for f, var_of in cases:
        got = tseitin(f, var_of)
        assert got == reference_tseitin(f, var_of)
        assert got[0], "the cases have connectives"


def test_to_dimacs_golden():
    text = to_dimacs([(1, -2), (2,)], 2, comments=["note"])
    assert text == "c note\np cnf 2 2\n1 -2 0\n2 0\n"


# -- n-ary chains, rendering, deep input ----------------------------------------


@given(st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_str_is_the_reference_rendering(rng):
    f = random_formula(rng, ["a", "b", "c", "d"], depth=rng.randint(1, 6))
    assert str(f) == reference_render(f)


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


WIDE = 100_000


def test_hundred_thousand_deep_and_wide_formulas():
    deep = "!" * WIDE + "a"
    f = parse_formula(deep)
    assert f.atoms() == {"a"} and str(f) == deep
    assert tseitin(f, {"a": 1}) == ([], 1, 1)  # an even number of negations
    nest = parse_formula("(" * WIDE + "a" + ")" * WIDE)
    assert isinstance(nest, Var) and nest.name == "a"
    nest = parse_formula("(" * WIDE + "a & b" + ")" * WIDE + " | c")
    assert isinstance(nest, Or) and str(nest) == "a & b | c"
    names = [f"f{i % 12 + 1}" for i in range(WIDE)]
    wide = " & ".join(names)
    f = parse_formula(wide)
    assert isinstance(f, And) and len(f.operands) == WIDE
    assert f.atoms() == set(names) and str(f) == wide
    var_of = {f"f{i + 1}": i + 1 for i in range(12)}
    clauses, root, n_vars = tseitin(f, var_of)
    assert (root, n_vars, len(clauses)) == (13, 13, WIDE + 1)
    assert clauses[-1] == (13, *(-var_of[n] for n in names))
    f = Var("c")
    for i in range(WIDE):  # every `|` level under an `&` is parenthesised
        f = And(Var("a"), f) if i % 2 else Or(Var("b"), f)
    assert str(f) == "a & (b | " * (WIDE // 2) + "c" + ")" * (WIDE // 2)


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
