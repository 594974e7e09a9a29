"""Propositional formulas over boolean features: parsing, evaluation, CNF.

Grammar (loosest binding first):
    iff     := implies ("<->" implies)*          left-associative
    implies := or ("->" or)*                     right-associative
    or      := and ("|" and)*                    one n-ary node per chain
    and     := unary ("&" unary)*                one n-ary node per chain
    unary   := "!"* ("(" iff ")" | atom)
    atom    := feature name  [A-Za-z_][A-Za-z0-9_]*

An atom is true when its feature takes the *second* value of its (two-value)
domain; with the conventional domain ("0", "1") that is "1".

Every connective keeps its operands in one tuple; ``a & b & c`` is one
``And`` node, a parenthesised group a node of its own.  Nothing recurses:
the parser keeps a stack of open groups, ``atoms``, ``str`` and the Tseitin
transform share one post-order walk, and evaluation stops reading operands
once the result is settled.

The module also provides the Tseitin transform to CNF (biconditional
encoding, deterministic variable numbering: feature i -> variable i+1, then
one auxiliary per connective in post-order) and DIMACS serialization for
external solvers.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import Any, Callable, Iterator, Mapping, Optional, Sequence


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


class Formula:
    """A connective over the tuple ``operands``; nodes compare by identity.

    A node is not changed once built: classifiers cache its text and CNF."""

    __slots__ = ("operands",)
    arity = (2, 2)  # the least and the most operands

    def __init__(self, *operands: Formula):
        least, most = self.arity
        if not least <= len(operands) <= most:
            raise TypeError(
                f"{type(self).__name__} takes {least} to {most} operands, not {len(operands)}"
            )
        self.operands = operands

    def atoms(self) -> frozenset[str]:
        return _fold(self, _atoms)

    def __str__(self) -> str:
        return _fold(self, _render)


class Var(Formula):
    """An atom: a feature name, with no operands."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.operands = ()
        self.name = name


class Not(Formula):
    __slots__ = ()
    arity = (1, 1)


class And(Formula):
    __slots__ = ()
    arity = (2, math.inf)


class Or(Formula):
    __slots__ = ()
    arity = (2, math.inf)


class Implies(Formula):
    __slots__ = ()


class Iff(Formula):
    __slots__ = ()


def _fold(f: Formula, visit: Callable[[Formula, list], Any]) -> Any:
    """``visit(node, values of its operands)`` for every node of f in
    post-order, operands left to right, without recursion; f's value."""
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


def _atoms(node: Formula, sets: list[frozenset[str]]) -> frozenset[str]:
    return frozenset((node.name,)) if isinstance(node, Var) else frozenset().union(*sets)


_LEVEL = {Iff: 1, Implies: 2, Or: 3, And: 4, Not: 5, Var: 6}
_SYMBOL = {Iff: " <-> ", Implies: " -> ", Or: " | ", And: " & "}


def _render(node: Formula, texts: list[str]) -> str:
    """Minimal-paren rendering that parses back to the same tree, save
    that a first operand of the same ``&`` or ``|`` joins its parent's chain.

    An operand prints bare only where the parser would rebuild the same
    shape: the first operand of ``&``, ``|`` and the left-associative
    ``<->``, the second of the right-associative ``->``, the operand of
    ``!``, and any strictly tighter-binding operand.
    """
    if isinstance(node, Var):
        return node.name
    level = _LEVEL[type(node)]
    first, rest = (level + 1, level) if isinstance(node, Implies) else (level, level + 1)
    texts = [
        text if _LEVEL[type(op)] >= (rest if k else first) else f"({text})"
        for k, (op, text) in enumerate(zip(node.operands, texts))
    ]
    return "!" + texts[0] if isinstance(node, Not) else _SYMBOL[type(node)].join(texts)


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


# The binary connectives, loosest first; a group keeps one operand list per
# connective, and _JOIN[level] builds the node for that list.
_BINARY = ("<->", "->", "|", "&")
_JOIN: tuple[Callable[[list[Formula]], Formula], ...] = (
    lambda ops: reduce(Iff, ops),
    lambda ops: reduce(lambda right, left: Implies(left, right), reversed(ops)),
    lambda ops: ops[0] if len(ops) == 1 else Or(*ops),
    lambda ops: ops[0] if len(ops) == 1 else And(*ops),
)


def _close(lists: list[list[Formula]], level: int) -> None:
    """Join the operand lists of connectives tighter than ``level``, each
    into one operand of the next looser one."""
    for j in range(len(_BINARY) - 1, level, -1):
        lists[j - 1].append(_JOIN[j](lists[j]))
        lists[j] = []


def _group(lists: list[list[Formula]]) -> Formula:
    """The formula of a finished group."""
    _close(lists, 0)
    return _JOIN[0](lists[0])


def parse_formula(text: str) -> Formula:
    """Parse the grammar above without recursion: an open parenthesis saves
    the current group (its operand lists and the ``!`` run before it) on a
    stack, and the closing one turns the inner group into one operand."""
    groups: list[tuple[list[list[Formula]], int]] = []
    lists: list[list[Formula]] = [[] for _ in _BINARY]
    nots = 0
    want_operand = True
    for kind, value, line, col in list(_tokenize(text)):  # character errors first
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
            f: Formula = Var(value)
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
    raise AssertionError("the token list ends with an end token")  # pragma: no cover


# -- evaluation ----------------------------------------------------------------


def evaluate(f: Formula, env: Mapping[str, bool]) -> bool:
    """Truth value under an atom valuation: the bitwise walk over one row."""
    return evaluate_bitwise(f, {a: 1 if v else 0 for a, v in env.items()}, 1) == 1


def evaluate_bitwise(f: Formula, columns: Mapping[str, int], full_mask: int) -> int:
    """Evaluate over a whole truth table at once, bit-parallel.

    ``columns[a]`` holds one bit per table row (1 where atom a is true);
    the result has one bit per row where the formula is true.  The walk is
    iterative and reads no further operand once the result is settled: of
    ``&`` at an all-zero mask, of ``|`` at ``full_mask``, and of ``->`` at
    a premise false on every row.
    """
    frames: list[list] = []  # [connective, operand index, mask so far], innermost last
    settled = {And: 0, Or: full_mask, Implies: full_mask}  # no further operand changes these
    node = f
    while True:
        while node.operands:
            frames.append([node, 0, full_mask if type(node) is And else 0])
            node = node.operands[0]
        value = columns[node.name]
        while frames:
            frame = frames[-1]
            op, i, acc = frame
            kind = type(op)
            if kind is Not or (kind is Implies and not i):
                value = full_mask & ~value  # a -> b is read as !a | b
            if kind is And:
                value &= acc
            elif kind is not Iff:
                value |= acc
            elif i:
                value = full_mask & ~(acc ^ value)
            if i + 1 < len(op.operands) and value != settled.get(kind):
                frame[1], frame[2] = i + 1, value
                node = op.operands[i + 1]
                break
            frames.pop()
        else:
            return value


# -- CNF / Tseitin --------------------------------------------------------------

Clause = tuple[int, ...]


def tseitin(
    f: Formula, var_of_atom: Mapping[str, int]
) -> tuple[list[Clause], int, int]:
    """Biconditional Tseitin transform.

    Returns (clauses, root_literal, n_vars).  Atom variables come from
    ``var_of_atom`` (1-based); each connective other than ``!`` gets one
    auxiliary variable, numbered after the highest atom variable in
    post-order, so the encoding is deterministic.  The root literal is
    asserted as a unit clause by callers that want satisfiability of f
    itself.
    """
    clauses: list[Clause] = []
    next_var = max(var_of_atom.values(), default=0)

    def gate(node: Formula, lits: list[int]) -> int:
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

    root = _fold(f, gate)
    return clauses, root, next_var


def to_dimacs(clauses: list[Clause], n_vars: int, comments: Sequence[str] = ()) -> str:
    lines = [f"c {c}" for c in comments]
    lines.append(f"p cnf {n_vars} {len(clauses)}")
    lines.extend(" ".join(map(str, clause)) + " 0" for clause in clauses)
    return "\n".join(lines) + "\n"
