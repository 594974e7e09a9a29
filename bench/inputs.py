"""Seeded inputs: table classifiers, boolean formulas and their files.

Everything here is a pure function of its ``random.Random`` and writes only
under the directory it is given.  The program under test sees the files and
the objects built from them, never the generator.  Each generated input also
carries its own ``reference.Table``, built from the labels, clauses or terms
directly, for the reference checker.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from reference import KINDS, Table

# -- table classifiers -------------------------------------------------------------

# (name, label shape, domain sizes, explain kinds, decide kinds).  The slots
# fix sizes and shapes; the seed fixes labels, scores and instances.  Every
# kind is listed once over all slots, for explain and for decide; the largest
# table, whose CSV ingest alone takes about half a second, gets one of each.
TABLE_SLOTS = (
    ("scorecard-3x9", "scorecard", (3,) * 9, ("gNec",), ("cSuf",)),
    ("random-2x12", "random", (2,) * 12, ("cSuf", "distCap"), ("gNec", "sNec", "distMin")),
    ("scorecard-4x6", "scorecard", (4,) * 6, ("gSuf", "sNec", "featMin", "cardMin"),
     ("sSuf", "featMin", "distCap")),
    ("random-mixed", "random", (2, 3, 4, 2, 3, 4, 2, 2), ("sSuf", "distMin"), ("gSuf", "cardMin")),
)


@dataclass
class TableInput:
    name: str
    shape: str
    sizes: tuple[int, ...]
    classes: tuple[str, ...]
    labels: list[str]
    x: tuple[int, ...]
    explain_kinds: tuple[str, ...]
    decide_kinds: tuple[str, ...]
    table: Table = field(repr=False)
    paths: dict[str, Path] = field(default_factory=dict)

    def feature(self, i: int) -> str:
        return f"f{i}"

    def value(self, i: int, v: int) -> str:
        return f"v{v}"


SCORES = (0, 1, 2, 4)  # per-feature scores: a seeded arrangement of these


def _scorecard_labels(rng: random.Random, sizes) -> tuple[list[str], tuple[int, ...]]:
    """Class from thresholds on a sum of per-feature scores.

    Each feature scores its values with a seeded arrangement of the top
    ``d`` entries of ``SCORES``, so every seed yields the same distribution
    of sums.  The top class admits only sums within 1 of the maximum; the
    best value of each feature leads its runner-up by at least 2, so every
    top-class instance takes that value on every feature but at most one
    (hence the core holds the best values of all features whose best-vs-
    runner-up gap exceeds 1).  The bottom class takes the sums below the
    median.  The query instance is the best-scoring one.
    """
    scores = []
    for d in sizes:
        values = list(SCORES[len(SCORES) - d:])
        rng.shuffle(values)
        scores.append(values)
    top = sum(max(s) for s in scores) - 1
    sums = [sum(s[v] for s, v in zip(scores, combo))
            for combo in itertools.product(*(range(d) for d in sizes))]
    median = sorted(sums)[len(sums) // 2]
    labels = ["high" if s >= top else "low" if s < median else "mid" for s in sums]
    return labels, tuple(s.index(max(s)) for s in scores)


def make_table(rng: random.Random, slot) -> TableInput:
    name, shape, sizes, explain_kinds, decide_kinds = slot
    rows = 1
    for d in sizes:
        rows *= d
    if shape == "scorecard":
        labels, x = _scorecard_labels(rng, sizes)
        classes = ("low", "mid", "high")
        table = Table.from_labels(sizes, labels)
    else:
        classes = ("c0", "c1", "c2") if len(sizes) < 10 else ("c0", "c1")
        while True:
            labels = [rng.choice(classes) for _ in range(rows)]
            if set(labels) == set(classes):
                break
        table = Table.from_labels(sizes, labels)
        x = table.instance(rng.randrange(rows))
    return TableInput(name, shape, tuple(sizes), classes, labels, x,
                      explain_kinds, decide_kinds, table)


def write_table(inp: TableInput, directory: Path) -> None:
    theory = {
        "features": [
            {"name": inp.feature(i), "domain": [inp.value(i, v) for v in range(d)]}
            for i, d in enumerate(inp.sizes)
        ],
        "classes": list(inp.classes),
    }
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([inp.feature(i) for i in range(len(inp.sizes))] + ["class"])
    for r, label in enumerate(inp.labels):
        x = inp.table.instance(r)
        writer.writerow([inp.value(i, v) for i, v in enumerate(x)] + [label])
    inp.paths = {
        "theory": directory / f"{inp.name}.theory.json",
        "classifier": directory / f"{inp.name}.csv",
        "instance": directory / f"{inp.name}.x.json",
    }
    inp.paths["theory"].write_text(json.dumps(theory))
    inp.paths["classifier"].write_text(out.getvalue())
    inp.paths["instance"].write_text(json.dumps(literal_dict(inp, inp.x)))


def literal_dict(inp, e) -> dict[str, str]:
    return {inp.feature(i): inp.value(i, v) for i, v in enumerate(e) if v is not None}


def random_assignment(rng: random.Random, sizes) -> tuple:
    return tuple(None if rng.random() < 0.5 else rng.randrange(d) for d in sizes)


# -- boolean formulas --------------------------------------------------------------

# (name, shape, features, clauses or terms, copies, CLI find kinds, CLI
# decide kinds).  Constraint formulas are random 3-CNF at 3.5 clauses per
# feature; rule lists are DNFs of four-literal terms.  Each slot has several
# independently drawn copies and deals its operations out over them, so a
# run averages over many formulas at the cost of one: the library session
# covers every kind on SESSION_COPIES copies of each slot, and over all
# slots the CLI finds every kind CLI_COPIES times and decides every kind
# CLI_COPIES times, each time on another formula.
FORMULA_SLOTS = (
    ("cnf-10", "cnf", 10, 35, 9, ("gNec", "sNec", "gSuf"), ("cardMin", "distMin")),
    ("cnf-16", "cnf", 16, 56, 3, ("sSuf", "cSuf"), ("gNec", "sNec")),
    ("rules-12", "dnf", 12, 100, 9, ("featMin", "cardMin"), ("gSuf", "sSuf", "cSuf")),
    ("rules-14", "dnf", 14, 120, 9, ("distMin", "distCap"), ("featMin", "distCap")),
)

# A call's cost swings with the formula it lands on (featMin on one
# 14-feature rule list took 0.4 s, on others a quarter of that), so each
# kind runs on several formulas of a slot, which keeps the rates from
# moving with the seed.  SESSION_COPIES divides every slot's copy count.
SESSION_COPIES = 3
CLI_COPIES = 2

# Inputs that the program cannot handle today, each fixed (independent of
# the seed) so that the share of failing operations never changes.
WIDE_SLOTS = (("wide-24", 24, 48), ("wide-40", 40, 80), ("wide-64", 64, 128))
LONG_SLOT = ("rules-long", 12, 1200, 8)
FAULT_SEED = 20260214


@dataclass
class FormulaInput:
    name: str
    shape: str
    n: int
    groups: list[list[int]]  # clauses (cnf) or terms (dnf); literal +-(i+1)
    x: tuple[int, ...]
    find_kinds: tuple[str, ...] = ()  # through the CLI
    decide_kinds: tuple[str, ...] = ()  # through the CLI
    session_kinds: tuple[str, ...] = ()
    table: Optional[Table] = field(default=None, repr=False)
    paths: dict[str, Path] = field(default_factory=dict)

    def feature(self, i: int) -> str:
        return f"f{i}"

    def value(self, i: int, v: int) -> str:
        return str(v)

    def text(self) -> str:
        def lit(l: int) -> str:
            return ("" if l > 0 else "!") + f"f{abs(l) - 1}"

        inner, outer = (" | ", " & ") if self.shape == "cnf" else (" & ", " | ")
        body = outer.join("(" + inner.join(lit(l) for l in g) + ")" for g in self.groups)
        return "classes: T,F\n" + body + "\n"

    def truth(self, x) -> bool:
        """The formula's value at instance x, by direct evaluation."""
        def holds(l: int) -> bool:
            return (x[abs(l) - 1] == 1) == (l > 0)

        if self.shape == "cnf":
            return all(any(holds(l) for l in g) for g in self.groups)
        return any(all(holds(l) for l in g) for g in self.groups)


def _groups(rng: random.Random, n: int, count: int, width: int,
            planted: Optional[tuple] = None) -> list[list[int]]:
    out = []
    while len(out) < count:
        feats = rng.sample(range(n), width)
        g = [(i + 1) * (1 if rng.random() < 0.5 else -1) for i in feats]
        if planted is not None and not any((planted[abs(l) - 1] == 1) == (l > 0) for l in g):
            continue  # keep the planted model satisfying every clause
        out.append(g)
    return out


def _boolean_table(shape: str, n: int, groups) -> Table:
    def true_mask_of(atom):
        full = (1 << (1 << n)) - 1

        def lit(l: int) -> int:
            m = atom(abs(l) - 1)
            return m if l > 0 else full & ~m

        acc = full if shape == "cnf" else 0
        for g in groups:
            if shape == "cnf":
                part = 0
                for l in g:
                    part |= lit(l)
                acc &= part
            else:
                part = full
                for l in g:
                    part &= lit(l)
                acc |= part
        return acc

    return Table.boolean(n, true_mask_of)


FLIP_DISTANCE = 2


def _near_minority(rng: random.Random, table: Table, n: int) -> Optional[tuple]:
    """An instance of the majority class whose nearest instance of the
    minority class lies exactly FLIP_DISTANCE features away, or None."""
    counts = {c: bin(m).count("1") for c, m in table.class_masks.items()}
    minority = min(sorted(counts), key=counts.get)
    mmask = table.class_masks[minority]
    ranks = [r for r in range(table.rows) if (mmask >> r) & 1]
    for _ in range(50):
        y = list(table.instance(rng.choice(ranks)))
        for i in rng.sample(range(n), FLIP_DISTANCE):
            y[i] = 1 - y[i]
        x = tuple(y)
        neighbours = [x[:i] + (1 - x[i],) + x[i + 1:] for i in range(n)]
        if table.label(x) != minority and all(table.label(z) != minority for z in neighbours):
            return x
    return None


def make_formula(rng: random.Random, slot, copy: int) -> FormulaInput:
    """A formula with both classes, queried at an instance of its majority
    class two features away from the minority class, so that the searches
    that deepen one flip size per oracle call make the same number of calls
    on every seed."""
    name, shape, n, count, copies, find_kinds, decide_kinds = slot
    width = 3 if shape == "cnf" else 4
    step = copies // SESSION_COPIES
    while True:
        groups = _groups(rng, n, count, width)
        table = _boolean_table(shape, n, groups)
        if table.class_masks["T"] and table.class_masks["F"]:
            x = _near_minority(rng, table, n)
            if x is not None:
                return FormulaInput(f"{name}-{copy}", shape, n, groups, x,
                                    _deal(find_kinds, copy, copies), _deal(decide_kinds, copy, copies),
                                    KINDS[copy % step::step], table)


def _deal(kinds, copy: int, copies: int) -> tuple[str, ...]:
    """The kinds that ``copy`` of a slot runs through the CLI: the j-th
    kind goes to copies j, j + len(kinds), ... (mod ``copies``),
    CLI_COPIES of them."""
    return tuple(kind for j, kind in enumerate(kinds)
                 if any((j + t * len(kinds)) % copies == copy for t in range(CLI_COPIES)))


def fault_inputs() -> list[FormulaInput]:
    """The wide CNFs and the long rule list, from a fixed seed.

    Wide CNFs are planted (a hidden model satisfies every clause) and can be
    falsified, so both classes occur; the long rule list's truth table is
    checked to hold both classes.
    """
    rng = random.Random(FAULT_SEED)
    out = []
    for name, n, count in WIDE_SLOTS:
        planted = tuple(rng.randrange(2) for _ in range(n))
        groups = _groups(rng, n, count, 3, planted)
        out.append(FormulaInput(name, "cnf", n, groups, tuple(rng.randrange(2) for _ in range(n))))
    name, n, count, width = LONG_SLOT
    while True:
        groups = _groups(rng, n, count, width)
        table = _boolean_table("dnf", n, groups)
        if table.class_masks["T"] and table.class_masks["F"]:
            break
    out.append(FormulaInput(name, "dnf", n, groups, tuple(rng.randrange(2) for _ in range(n)),
                            table=table))
    return out


def write_formula(inp: FormulaInput, directory: Path) -> None:
    theory = {
        "features": [{"name": inp.feature(i), "domain": ["0", "1"]} for i in range(inp.n)],
        "classes": ["T", "F"],
    }
    inp.paths = {
        "theory": directory / f"{inp.name}.theory.json",
        "classifier": directory / f"{inp.name}.txt",
        "instance": directory / f"{inp.name}.x.json",
    }
    inp.paths["theory"].write_text(json.dumps(theory))
    inp.paths["classifier"].write_text(inp.text())
    inp.paths["instance"].write_text(json.dumps(literal_dict(inp, inp.x)))
