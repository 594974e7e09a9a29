"""Propositional formulas over boolean features: parsing, evaluation, CNF.

Grammar (loosest binding first):
    iff     := implies ("<->" implies)*          left-associative
    implies := or ("->" or)*                     right-associative
    or      := and ("|" and)*
    and     := unary ("&" unary)*
    unary   := "!" unary | "(" iff ")" | atom
    atom    := feature name  [A-Za-z_][A-Za-z0-9_]*

An atom is true when its feature takes the *second* value of its (two-value)
domain; with the conventional domain ("0", "1") that is "1".

The module also provides the Tseitin transform to CNF (biconditional
encoding, deterministic variable numbering: feature i -> variable i+1, then
auxiliaries in post-order) and DIMACS serialization for external solvers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence


class ParseError(ValueError):
    """Malformed formula text, with position information."""

    def __init__(
        self, message: str, line: Optional[int] = None, column: Optional[int] = None
    ):
        where = "" if line is None else f" (line {line}, column {column})"
        super().__init__(message + where)
        self.line = line
        self.column = column


# -- AST ---------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Formula:
    def atoms(self) -> frozenset[str]:
        raise NotImplementedError

    def __str__(self) -> str:
        return _render(self, parent_level=0)


@dataclass(frozen=True, slots=True)
class Var(Formula):
    name: str

    def atoms(self) -> frozenset[str]:
        return frozenset((self.name,))


@dataclass(frozen=True, slots=True)
class Not(Formula):
    child: Formula

    def atoms(self) -> frozenset[str]:
        return self.child.atoms()


@dataclass(frozen=True, slots=True)
class _Binary(Formula):
    left: Formula
    right: Formula

    def atoms(self) -> frozenset[str]:
        return self.left.atoms() | self.right.atoms()


@dataclass(frozen=True, slots=True)
class And(_Binary):
    pass


@dataclass(frozen=True, slots=True)
class Or(_Binary):
    pass


@dataclass(frozen=True, slots=True)
class Implies(_Binary):
    pass


@dataclass(frozen=True, slots=True)
class Iff(_Binary):
    pass


_LEVEL = {Iff: 1, Implies: 2, Or: 3, And: 4, Not: 5, Var: 6}
_SYMBOL = {Iff: "<->", Implies: "->", Or: "|", And: "&"}


def _render(f: Formula, parent_level: int) -> str:
    """Minimal-paren rendering that re-parses to the identical tree.

    A child prints bare only where the parser would rebuild the same shape:
    the left side of the left-associative connectives, the right side of
    the right-associative ``->``, and any strictly tighter-binding child.
    """
    level = _LEVEL[type(f)]
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Not):
        return "!" + _render(f.child, level)
    sym = _SYMBOL[type(f)]
    if isinstance(f, Implies):
        left = _render(f.left, level + 1)
        right = _render(f.right, level)
    else:
        left = _render(f.left, level)
        right = _render(f.right, level + 1)
    text = f"{left} {sym} {right}"
    return f"({text})" if level < parent_level else text


# -- parser -------------------------------------------------------------------

_TOKEN_SYMBOLS = ("<->", "->", "&", "|", "!", "(", ")")


def _tokenize(text: str) -> Iterator[tuple[str, str, int, int]]:
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
        for sym in _TOKEN_SYMBOLS:
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


class _Parser:
    def __init__(self, text: str):
        self.tokens = list(_tokenize(text))
        self.pos = 0

    def peek(self) -> tuple[str, str, int, int]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str, int, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_sym(self, sym: str) -> None:
        kind, value, line, col = self.peek()
        if kind != "sym" or value != sym:
            raise ParseError(f"expected {sym!r}", line, col)
        self.take()

    def parse(self) -> Formula:
        f = self.iff()
        kind, value, line, col = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing {value!r}", line, col)
        return f

    def iff(self) -> Formula:
        f = self.implies()
        while self.peek()[:2] == ("sym", "<->"):
            self.take()
            f = Iff(f, self.implies())
        return f

    def implies(self) -> Formula:
        f = self.disjunction()
        if self.peek()[:2] == ("sym", "->"):
            self.take()
            return Implies(f, self.implies())
        return f

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.peek()[:2] == ("sym", "|"):
            self.take()
            f = Or(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.unary()
        while self.peek()[:2] == ("sym", "&"):
            self.take()
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        kind, value, line, col = self.peek()
        if kind == "sym" and value == "!":
            self.take()
            return Not(self.unary())
        if kind == "sym" and value == "(":
            self.take()
            f = self.iff()
            self.expect_sym(")")
            return f
        if kind == "name":
            self.take()
            return Var(value)
        raise ParseError("expected a feature name, '!' or '('", line, col)


def parse_formula(text: str) -> Formula:
    return _Parser(text).parse()


# -- evaluation ----------------------------------------------------------------


def evaluate(f: Formula, env: Mapping[str, bool]) -> bool:
    """Truth value under an atom valuation."""
    if isinstance(f, Var):
        return bool(env[f.name])
    if isinstance(f, Not):
        return not evaluate(f.child, env)
    if isinstance(f, And):
        return evaluate(f.left, env) and evaluate(f.right, env)
    if isinstance(f, Or):
        return evaluate(f.left, env) or evaluate(f.right, env)
    if isinstance(f, Implies):
        return (not evaluate(f.left, env)) or evaluate(f.right, env)
    if isinstance(f, Iff):
        return evaluate(f.left, env) == evaluate(f.right, env)
    raise TypeError(f"not a formula node: {f!r}")


def evaluate_bitwise(f: Formula, columns: Mapping[str, int], full_mask: int) -> int:
    """Evaluate over a whole truth table at once, bit-parallel.

    ``columns[a]`` holds one bit per table row (1 where atom a is true);
    the result has one bit per row where the formula is true.
    """
    if isinstance(f, Var):
        return columns[f.name]
    if isinstance(f, Not):
        return full_mask & ~evaluate_bitwise(f.child, columns, full_mask)
    if isinstance(f, And):
        return evaluate_bitwise(f.left, columns, full_mask) & evaluate_bitwise(
            f.right, columns, full_mask
        )
    if isinstance(f, Or):
        return evaluate_bitwise(f.left, columns, full_mask) | evaluate_bitwise(
            f.right, columns, full_mask
        )
    if isinstance(f, Implies):
        return (
            full_mask & ~evaluate_bitwise(f.left, columns, full_mask)
        ) | evaluate_bitwise(f.right, columns, full_mask)
    if isinstance(f, Iff):
        return full_mask & ~(
            evaluate_bitwise(f.left, columns, full_mask)
            ^ evaluate_bitwise(f.right, columns, full_mask)
        )
    raise TypeError(f"not a formula node: {f!r}")


# -- CNF / Tseitin --------------------------------------------------------------

Clause = tuple[int, ...]


def tseitin(
    f: Formula, var_of_atom: Mapping[str, int]
) -> tuple[list[Clause], int, int]:
    """Biconditional Tseitin transform.

    Returns (clauses, root_literal, n_vars).  Atom variables come from
    ``var_of_atom`` (1-based); auxiliary variables are numbered after the
    highest atom variable, assigned in post-order so the encoding is
    deterministic.  The root literal is asserted as a unit clause by callers
    that want satisfiability of f itself.
    """
    clauses: list[Clause] = []
    next_var = max(var_of_atom.values(), default=0)

    def walk(node: Formula) -> int:
        nonlocal next_var
        if isinstance(node, Var):
            return var_of_atom[node.name]
        if isinstance(node, Not):
            return -walk(node.child)
        a = walk(node.left)
        b = walk(node.right)
        next_var += 1
        g = next_var
        if isinstance(node, And):
            clauses.extend(((-g, a), (-g, b), (g, -a, -b)))
        elif isinstance(node, Or):
            clauses.extend(((-g, a, b), (g, -a), (g, -b)))
        elif isinstance(node, Implies):
            clauses.extend(((-g, -a, b), (g, a), (g, -b)))
        elif isinstance(node, Iff):
            clauses.extend(((-g, -a, b), (-g, a, -b), (g, a, b), (g, -a, -b)))
        else:  # pragma: no cover - closed AST
            raise TypeError(f"not a formula node: {node!r}")
        return g

    root = walk(f)
    return clauses, root, next_var


def to_dimacs(clauses: list[Clause], n_vars: int, comments: Sequence[str] = ()) -> str:
    lines = [f"c {c}" for c in comments]
    lines.append(f"p cnf {n_vars} {len(clauses)}")
    lines.extend(" ".join(map(str, clause)) + " 0" for clause in clauses)
    return "\n".join(lines) + "\n"
