"""Propositional formulas over boolean features: parsing, evaluation, CNF.

Grammar (loosest binding first):
    iff     := implies ("<->" implies)*          left-associative
    implies := or ("->" or)*                     right-associative
    or      := and ("|" and)*                    one n-ary node per chain
    and     := unary ("&" unary)*                one n-ary node per chain
    unary   := "!"* ("(" iff ")" | atom)
    atom    := feature name  (letter | digit | "_") (letter | digit | numeric | "_")*

A name's characters are Unicode ones: its first is a letter, a digit or "_"
(``str.isalpha``, ``str.isdigit``), and the rest are any of those or other
numeric characters such as "½" (``str.isalnum``).  So "x_1", "3d" and "été"
are names; "½x" is not.  Tokens are separated by any Unicode white space.

An atom is true when its feature takes the *second* value of its (two-value)
domain; with the conventional domain ("0", "1") that is "1".

Every connective keeps its operands in one tuple; ``a & b & c`` is one
``And`` node, a parenthesised group a node of its own.  Nothing recurses:
the parser keeps a stack of open groups, ``atoms`` and ``str`` walk a stack
of nodes, the Tseitin transform walks the nodes in post-order, and
evaluation stops reading operands once the result is settled.

The module also provides the Tseitin transform to CNF (biconditional
encoding, deterministic variable numbering: feature i -> variable i+1, then
one auxiliary per connective in post-order) and DIMACS serialization for
external solvers.
"""

from __future__ import annotations

import math
import re
from itertools import islice
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
        names: set[str] = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if node.operands:
                stack.extend(node.operands)
            else:
                names.add(node.name)
        return frozenset(names)

    def __str__(self) -> str:
        """Minimal-paren rendering that parses back to the same tree, save
        that a first operand of the same ``&`` or ``|`` joins its parent's
        chain.

        An operand prints bare only where the parser would rebuild the same
        shape: the first operand of ``&``, ``|`` and the left-associative
        ``<->``, the second of the right-associative ``->``, the operand of
        ``!``, and any strictly tighter-binding operand.  One stack walk
        emits the pieces, which are joined once.
        """
        pieces: list[str] = []
        stack: list = [(self, 0)]  # pieces still to emit, and (node, least bare level) pairs
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                pieces.append(item)
                continue
            node, least = item
            level = _LEVEL[type(node)]
            if level < least:
                pieces.append("(")
                stack.append(")")
            if isinstance(node, Var):
                pieces.append(node.name)
            elif isinstance(node, Not):
                pieces.append("!")
                stack.append((node.operands[0], level))
            else:
                first, rest = (level + 1, level) if isinstance(node, Implies) else (level, level + 1)
                symbol = _SYMBOL[type(node)]
                for op in reversed(node.operands[1:]):
                    stack += (op, rest), symbol
                stack.append((node.operands[0], first))
        return "".join(pieces)


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


def _post_order(f: Formula) -> Iterator[Formula]:
    """Every node of f, operands left to right before their connective,
    without recursion: the reverse of a pre-order that visits the last
    operand first."""
    order = []
    stack = [f]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(node.operands)
    return reversed(order)


_LEVEL = {Iff: 1, Implies: 2, Or: 3, And: 4, Not: 5, Var: 6}
_SYMBOL = {Iff: " <-> ", Implies: " -> ", Or: " | ", And: " & "}


# -- parser -------------------------------------------------------------------

# One token per match: a connective or parenthesis, a name (a run of word
# characters), or any other single non-space character, which is an error.
# A pattern string, not a compiled pattern: ``re`` compiles and caches it on
# the first parse, so importing the module compiles nothing.
_TOKEN = r"<->|->|[&|!()]|\w+|\S"
_SYMBOLS = frozenset(("<->", "->", "&", "|", "!", "(", ")"))


def _error(message: str, text: str, k: int) -> ParseError:
    """A ParseError at the k-th token of text, or at its end when text has
    at most k tokens.  Only here are lines and columns counted: a line ends
    at "\n", and every other character is one column."""
    match = next(islice(re.finditer(_TOKEN, text), k, None), None)
    at = len(text) if match is None else match.start()
    return ParseError(message, text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at))


def _tokenize(text: str) -> list[str]:
    """The tokens of text, then "" for its end.  A name starts with a
    letter, a digit or "_" and goes on over letters, digits, other numeric
    characters and "_" (``str.isalnum``); any other character outside a
    name is unexpected, and the first such one is reported."""
    tokens = re.findall(_TOKEN, text)
    bad = {t for t in set(tokens) - _SYMBOLS
           if not (t[0].isalpha() or t[0] == "_" or t[0].isdigit())}
    if bad:
        k = next(k for k, t in enumerate(tokens) if t in bad)
        raise _error(f"unexpected character {tokens[k][0]!r}", text, k)
    tokens.append("")
    return tokens


# The binary connectives, loosest first, and the node each builds.
_BINARY = ("<->", "->", "|", "&")
_NODE = (Iff, Implies, Or, And)


def _close(frames: list[tuple[int, list[Formula]]], f: Formula, level: int) -> Formula:
    """f as the last operand of each open connective tighter than ``level``,
    each joined into one operand of the next looser one: ``<->`` folds its
    operands from the left, ``->`` from the right, and ``&`` and ``|`` are
    one node each."""
    while frames and frames[-1][0] > level:
        tighter, ops = frames.pop()
        if tighter > 1:
            f = _NODE[tighter](*ops, f)
        elif tighter:
            for left in reversed(ops):
                f = Implies(left, f)
        else:
            ops.append(f)
            f = ops[0]
            for right in ops[1:]:
                f = Iff(f, right)
    return f


def parse_formula(text: str) -> Formula:
    """Parse the grammar above without recursion.  A group is a stack of its
    open connectives, tightest last, each with its operands so far.  An open
    parenthesis saves the current group (that stack and the ``!`` run before
    it), and the closing one turns the inner group into one operand."""
    groups: list[tuple[list[tuple[int, list[Formula]]], int]] = []
    frames: list[tuple[int, list[Formula]]] = []
    nots = 0
    want_operand = True
    for k, token in enumerate(_tokenize(text)):  # character errors first
        if want_operand:
            if token == "!":
                nots += 1
                continue
            if token == "(":
                groups.append((frames, nots))
                frames, nots = [], 0
                continue
            if not token or token in _SYMBOLS:
                raise _error("expected a feature name, '!' or '('", text, k)
            f: Formula = Var(token)
        elif token in _BINARY:
            level = _BINARY.index(token)
            f = _close(frames, f, level)
            if frames and frames[-1][0] == level:
                frames[-1][1].append(f)
            else:
                frames.append((level, [f]))
            want_operand = True
            continue
        elif token == ")" and groups:
            f = _close(frames, f, -1)
            frames, nots = groups.pop()
        elif not token and not groups:
            return _close(frames, f, -1)
        else:
            message = "expected ')'" if groups else f"unexpected trailing {token!r}"
            raise _error(message, text, k)
        for _ in range(nots):
            f = Not(f)
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
    lits: list[int] = []  # one literal per finished operand, innermost last
    for node in _post_order(f):
        kind = type(node)
        if kind is Var:
            lits.append(var_of_atom[node.name])
            continue
        if kind is Not:
            lits[-1] = -lits[-1]
            continue
        n = len(node.operands)
        ops = lits[-n:]
        del lits[-n:]
        next_var += 1
        g = next_var
        if kind is Iff:
            a, b = ops
            clauses.extend(((-g, -a, b), (-g, a, -b), (g, a, b), (g, -a, -b)))
        elif kind is And:
            clauses.extend([(-g, a) for a in ops])
            clauses.append((g, *[-a for a in ops]))
        else:  # Or, with a -> b read as !a | b
            if kind is Implies:
                ops[0] = -ops[0]
            clauses.append((-g, *ops))
            clauses.extend([(g, -a) for a in ops])
        lits.append(g)
    return clauses, lits[0], next_var


def to_dimacs(clauses: list[Clause], n_vars: int, comments: Sequence[str] = ()) -> str:
    lines = [f"c {c}" for c in comments]
    lines.append(f"p cnf {n_vars} {len(clauses)}")
    lines.extend(" ".join(map(str, clause)) + " 0" for clause in clauses)
    return "\n".join(lines) + "\n"
