"""The DPLL core, solver backends, encodings, and oracle-bounded procedures."""

import gc
import math
import pickle
import random
import sys
import threading
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfexplain import (
    BackendFailure,
    DistanceError,
    DpllBackend,
    ExecBackend,
    NotBoolean,
    PartialAssignment,
    Query,
    SatOracle,
    TheoryMismatch,
    UnknownClass,
    at_most_k,
    class_indicator,
    complement_instance,
    core_literals,
    core_literals_sat,
    decide_exp,
    dist_cap,
    dpll,
    encode_formula,
    enumerate_instances,
    enumerate_partial_assignments,
    find_exp,
    flip_within,
    hamming,
    is_derived_member,
    is_member,
    load_bundle,
    rank_of,
    substitute,
    weighted_distance,
)
from cfexplain import classifier as classifier_module
from cfexplain import formulas as formulas_module
from cfexplain import sat as sat_module
from cfexplain.classifier import ranks_in
from cfexplain.explain import AXIOM_TESTS
from cfexplain.formulas import evaluate, parse_formula, tseitin
from cfexplain.sat import ClauseIndex, IndexedClauses, SatSpace, _class_model

from conftest import tool
from helpers import (
    brute_sat,
    exhaustive_members,
    make_theory,
    random_assignment,
    random_boolean_query,
    random_formula,
    random_novel,
    random_subset_of,
    reference_core_sat,
    reference_dpll,
    reference_featmin,
    reference_gnec,
    reference_weak_validity,
    rule_list,
)

SAT_DECIDE_KINDS = (
    "gNec", "sNec", "gSuf", "sSuf", "cSuf",
    "featMin", "cardMin", "distMin", "distCap",
)


# -- the DPLL core ----------------------------------------------------------------


def test_dpll_goldens():
    assert dpll([(1,), (-1,)], 1) is None
    model = dpll([(1, 2)], 2)
    assert model is not None and (model[0] or model[1])
    assert dpll([], 0) == ()
    assert dpll([()], 0) is None  # the empty clause is unsatisfiable


def test_dpll_differential_against_brute_force():
    rng = random.Random(20240817)
    for _ in range(300):
        n = rng.randint(1, 6)
        m = rng.randint(1, 12)
        clauses = []
        for _ in range(m):
            width = rng.randint(1, 3)
            clause = tuple(
                rng.choice((1, -1)) * rng.randint(1, n) for _ in range(width)
            )
            clauses.append(clause)
        model = dpll(clauses, n)
        brute = brute_sat(clauses, n)
        assert (model is None) == (brute is None)
        if model is not None:
            assert all(
                any(model[abs(l) - 1] == (l > 0) for l in cl) for cl in clauses
            )


def _random_cnf(rng: random.Random) -> tuple[list[tuple[int, ...]], int]:
    """A small CNF that may hold empty clauses, repeated literals,
    tautologies and variables that occur in no clause; n_vars may be 0."""
    n = rng.randint(0, 8)
    clauses = []
    for _ in range(rng.randint(0, 20)):
        width = rng.choice((0, 1, 1, 2, 2, 2, 3, 3, 3, 4)) if n else 0
        if width == 0 and rng.random() < 0.8:
            continue  # keep most CNFs free of the empty clause
        clause = [rng.choice((1, -1)) * rng.randint(1, n) for _ in range(width)]
        if clause and rng.random() < 0.1:
            clause.append(clause[0])
        if clause and rng.random() < 0.1:
            clause.append(-clause[0])
        rng.shuffle(clause)
        clauses.append(tuple(clause))
    return clauses, n + rng.randint(0, 2)


def test_dpll_matches_the_reference_model_for_model():
    rng = random.Random(1603)
    kinds = {"sat": 0, "unsat": 0}
    for _ in range(4000):
        clauses, n = _random_cnf(rng)
        model = dpll(clauses, n)
        assert model == reference_dpll(clauses, n), (clauses, n)
        kinds["unsat" if model is None else "sat"] += 1
    assert min(kinds.values()) > 500


def test_dpll_matches_the_reference_on_encodings():
    rng = random.Random(2718)
    for _ in range(400):
        n = rng.randint(1, 8)
        t = make_theory([2] * n)
        clauses, n_vars = encode_formula(t, random_formula(rng, t.features, depth=4))
        assert dpll(clauses, n_vars) == reference_dpll(clauses, n_vars)
        diffs = [rng.choice((1, -1)) * v for v in range(1, n + 1)]
        extra, next_free = at_most_k(diffs, rng.randint(-1, n), n_vars + 1)
        both = clauses + extra
        assert dpll(both, next_free - 1) == reference_dpll(both, next_free - 1)


def test_dpll_solves_a_long_chain_without_recursion():
    chain = [(i, i + 1) for i in range(1, 1500)]
    model = dpll(chain, 1500)
    assert model is not None
    assert all(model[a - 1] or model[b - 1] for a, b in chain)
    # true-first decisions on 1..1499 satisfy every clause; 1500 reads false
    assert model == (True,) * 1499 + (False,)


def test_dpll_rejects_literals_naming_no_variable():
    for clauses, n in (
        ([(3,)], 2), ([(1, -5)], 2), ([(0,)], 1), ([(1,)], 0),
        ([(4,)], 1), ([(6,)], 1), ([(-6,)], 1), ([(1, 2), (-9,)], 2),
    ):
        with pytest.raises(ValueError):
            dpll(clauses, n)


def test_at_most_k_via_forced_subsets():
    m = 4
    lits = list(range(1, m + 1))
    for k in range(m + 1):
        clauses, next_free = at_most_k(lits, k, m + 1)
        for subset in range(1 << m):
            units = [
                (i + 1,) if (subset >> i) & 1 else (-(i + 1),) for i in range(m)
            ]
            sat = dpll(clauses + units, next_free - 1) is not None
            assert sat == (bin(subset).count("1") <= k)


# -- encodings ---------------------------------------------------------------------


def test_encode_and_solve_round_trip():
    t = make_theory([2, 2, 2])
    f = parse_formula("(f1 | f2) & !f3")
    model = dpll(*encode_formula(t, f))
    assert model is not None
    assert evaluate(f, dict(zip(t.features, model)))
    assert dpll(*encode_formula(t, parse_formula("f1 & !f1"))) is None


def test_a_rule_list_encodes_to_one_gate_per_connective():
    """1,200 terms of 8 literals: one auxiliary and 9 clauses per term, and
    one auxiliary and 1,201 clauses for the disjunction."""
    var_of = {f"f{i + 1}": i + 1 for i in range(12)}
    clauses, root, n_vars = tseitin(parse_formula(rule_list(random.Random(12))), var_of)
    assert (len(clauses), root, n_vars) == (12_001, 1_213, 1_213)


def test_encode_formula_rejects_wide_domains():
    vac = load_bundle("vacation")
    with pytest.raises(NotBoolean):
        encode_formula(vac.theory, parse_formula("t"))


def test_boolean_helpers():
    t = make_theory([2, 2, 2])
    x = PartialAssignment.from_dict(t, {"f1": "1", "f2": "0", "f3": "1"})
    assert complement_instance(x).values == (0, 1, 0)
    assert flip_within(x, (0, 2)).values == (0, 0, 0)
    with pytest.raises(NotBoolean):
        complement_instance(load_bundle("vacation").query(1).instance)


# -- solver backends ----------------------------------------------------------------


BACKEND_CASES = [
    ([(1,), (-1,)], 1, False),
    ([(1, 2), (-1, 2), (1, -2)], 2, True),
    ([(1, -2), (2, -3), (3, -1), (1, 2, 3)], 3, True),
    ([(1,), (2,), (-1, -2)], 2, False),
]


@pytest.mark.parametrize("script", ["fake_solver.py", "package_solver.py"])
def test_exec_backend_agrees_with_dpll(script):
    backend = ExecBackend(tool(script))
    for clauses, n_vars, satisfiable in BACKEND_CASES:
        model = backend.solve(clauses, n_vars)
        assert (model is not None) == satisfiable
        if model is not None:
            assert all(
                any(model[abs(l) - 1] == (l > 0) for l in cl) for cl in clauses
            )


def test_exec_backend_failures():
    with pytest.raises(BackendFailure):
        ExecBackend("/nonexistent/solver").solve([(1,)], 1)
    with pytest.raises(BackendFailure):
        ExecBackend(tool("garbled_solver.py")).solve([(1,)], 1)
    with pytest.raises(BackendFailure):
        ExecBackend(tool("modelless_solver.py")).solve([(1,)], 1)


def test_oracle_counts_calls():
    oracle = SatOracle()
    assert oracle.backend.name == "builtin"
    assert isinstance(oracle.backend, DpllBackend)
    oracle.solve([(1,)], 1)
    oracle.solve([(1,), (-1,)], 1)
    assert oracle.calls == 2


# -- oracle-bounded membership and search ----------------------------------------------


def test_sat_procedures_reject_wide_domains():
    q = load_bundle("vacation").query(1)
    e = PartialAssignment.from_dict(q.theory, {"t": "mild"})
    with pytest.raises(NotBoolean):
        decide_exp("cSuf", q, e)
    with pytest.raises(NotBoolean):
        find_exp("cSuf", q)


def test_sat_procedures_need_formula_classifiers():
    q = load_bundle("corner").query(1)  # boolean domains but a table
    with pytest.raises(NotBoolean):
        find_exp("cSuf", q)


def test_unknown_kind_raises():
    q = load_bundle("majority").query(1)
    with pytest.raises(ValueError):
        decide_exp("zzz", q, PartialAssignment.empty(q.theory))
    with pytest.raises(ValueError):
        find_exp("zzz", q)


def sample_candidates(rng, q):
    """A spread of membership candidates: subsets of x, novel, arbitrary."""
    x = q.instance
    out = [
        PartialAssignment.empty(q.theory),
        x,
        complement_instance(x),
        random_subset_of(rng, x),
        random_novel(rng, x),
        random_assignment(rng, q.theory),
        random_assignment(rng, q.theory),
    ]
    return out


def test_decide_exp_matches_enumeration_oracles():
    rng = random.Random(7)
    for _ in range(40):
        q = random_boolean_query(rng, rng.randint(2, 4))
        for e in sample_candidates(rng, q):
            for kind in SAT_DECIDE_KINDS:
                oracle = SatOracle()
                got = decide_exp(kind, q, e, oracle=oracle)
                assert oracle.calls <= 1, (kind, oracle.calls)
                if kind in ("gNec", "sNec", "gSuf", "sSuf", "cSuf"):
                    want = is_member(kind, q, e)
                else:
                    want = is_derived_member(kind, q, e)
                assert got == want, (kind, q.instance.render(), e.render())


def test_sat_space_answers_as_the_mask_space():
    """SatSpace and MaskSpace agree on whether each question has a witness,
    over every assignment e, on every majority instance and on random
    boolean formulas of one to six features; so every axiom test gives the
    same verdict on both spaces."""
    m = load_bundle("majority")
    rng = random.Random(23)
    queries = [Query(m.theory, m.classifier, y) for y in enumerate_instances(m.theory)]
    queries += [random_boolean_query(rng, n) for n in (1, 2, 3, 4, 5, 6, 6)]
    for q in queries:
        x, masks = q.instance, q.space
        sat = SatSpace(q.classifier, q.label, SatOracle())
        for k in range(q.theory.n_features + 1):
            assert bool(masks.within(x, k)) == (sat.within(x, k) is not None), k
        for e in enumerate_partial_assignments(q.theory):
            where = (x.render(), e.render())
            assert bool(masks.lacking(e)) == (sat.lacking(e) is not None), where
            assert bool(masks.extending(e)) == (sat.extending(e) is not None), where
            assert bool(masks.variant(x, e)) == (sat.variant(x, e) is not None), where
            if e.disjoint_from(x):
                flip = sat.smaller_flip(x, e) is not None
                assert bool(masks.smaller_flip(x, e)) == flip, where
            for axiom, test in AXIOM_TESTS.items():
                assert bool(test(masks, q, e)) == bool(test(sat, q, e)), (axiom, *where)


def test_sufficiency_of_a_full_instance_is_one_evaluation():
    """An instance extends only itself, so deciding gSuf or sSuf of one
    evaluates the formula once and asks no oracle, on every majority
    instance and on random boolean formulas."""
    m = load_bundle("majority")
    rng = random.Random(25)
    queries = [Query(m.theory, m.classifier, y) for y in enumerate_instances(m.theory)]
    queries += [random_boolean_query(rng, rng.randint(1, 6)) for _ in range(30)]
    for q in queries:
        for y in enumerate_instances(q.theory):
            for kind in ("gSuf", "sSuf"):
                oracle = SatOracle()
                assert decide_exp(kind, q, y, oracle=oracle) == is_member(kind, q, y)
                assert oracle.calls == 0, (kind, q.instance.render(), y.render())


def test_weak_validity_on_formulas_is_its_definition():
    """Weak Validity asks either space whether x overwritten by e keeps x's
    class; the offence is that one instance, and its verdict is the
    definition's, on every majority instance and on random formulas."""
    m = load_bundle("majority")
    rng = random.Random(31)
    queries = [Query(m.theory, m.classifier, y) for y in enumerate_instances(m.theory)]
    queries += [random_boolean_query(rng, n) for n in (1, 2, 3, 4, 5, 5)]
    weak = AXIOM_TESTS["WeakValidity"]
    for q in queries:
        sat = SatSpace(q.classifier, q.label, SatOracle())
        for e in enumerate_partial_assignments(q.theory):
            y, fails = substitute(q.instance, e), reference_weak_validity(q, e)
            assert list(ranks_in(weak(q.space, q, e))) == ([rank_of(y)] if fails else [])
            assert weak(sat, q, e) == (y if fails else None)
        assert sat.oracle.calls == 0


def test_weak_validity_of_a_foreign_explanation_is_a_theory_mismatch():
    """Either space refuses an e of another theory with as many features,
    as building x overwritten by e does."""
    tables, formulas = load_bundle("vacation").query(1), load_bundle("majority").query(1)
    weak = AXIOM_TESTS["WeakValidity"]
    spaces = [
        (tables.space, tables),
        (formulas.space, formulas),
        (SatSpace(formulas.classifier, formulas.label, SatOracle()), formulas),
    ]
    for space, q in spaces:
        n = q.theory.n_features
        foreign = PartialAssignment(make_theory([2] * n), (1,) + (None,) * (n - 1))
        with pytest.raises(TheoryMismatch):
            weak(space, q, foreign)


@pytest.mark.parametrize("tau", [-1.0, math.nan])
def test_distcap_rejects_a_negative_or_nan_threshold(tau):
    tables = load_bundle("vacation").query(1)
    formulas = load_bundle("majority").query(1)
    e = complement_instance(formulas.instance).difference(formulas.instance)
    calls = [
        lambda: dist_cap(tables, tau=tau),
        lambda: is_derived_member("distCap", tables, tables.instance, tau=tau),
        lambda: decide_exp("distCap", formulas, e, tau=tau),
        lambda: find_exp("distCap", formulas, tau=tau),
    ]
    for call in calls:
        with pytest.raises(DistanceError, match="threshold must be >= 0"):
            call()
    assert find_exp("distCap", formulas, tau=0) is None
    assert decide_exp("distCap", formulas, e, tau=0) is False


def test_decide_exp_with_distance_options():
    rng = random.Random(11)
    for _ in range(15):
        q = random_boolean_query(rng, 3)
        weights = {f: rng.choice([0.5, 1, 2]) for f in q.theory.features}
        dd = weighted_distance(weights, q.theory)
        tau = rng.choice([0.75, 1.5, 2.5, math.inf])
        for e in sample_candidates(rng, q):
            assert decide_exp("distMin", q, e, distance=dd) == is_derived_member(
                "distMin", q, e, distance=dd
            )
            assert decide_exp(
                "distCap", q, e, distance=dd, tau=tau
            ) == is_derived_member("distCap", q, e, distance=dd, tau=tau)


FIND_BUDGETS = {
    "sSuf": 0,
    "cSuf": 1,
    "gSuf": 1,
    "sNec": 1,
    "featMin": 1,
}


def test_find_exp_soundness_and_budgets():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(2, 4)
        q = random_boolean_query(rng, n)
        for kind in SAT_DECIDE_KINDS:
            oracle = SatOracle()
            got = find_exp(kind, q, oracle=oracle)
            if kind in ("gNec", "sNec", "gSuf", "sSuf", "cSuf"):
                reference = exhaustive_members(kind, q)
            else:
                reference = frozenset(
                    e
                    for e in exhaustive_members("cSuf", q)
                    if is_derived_member(kind, q, e)
                )
            if got is None:
                assert not reference, (kind, q.instance.render())
            else:
                assert got in reference, (kind, q.instance.render(), got.render())
            if kind in FIND_BUDGETS:
                assert oracle.calls <= FIND_BUDGETS[kind], (kind, oracle.calls)
            elif kind == "gNec":
                assert oracle.calls <= n


def test_find_exp_through_exec_backend():
    q = load_bundle("majority").query(1)
    oracle = SatOracle(ExecBackend(tool("package_solver.py")))
    got = find_exp("cSuf", q, oracle=oracle)
    assert got is not None
    assert is_member("cSuf", q, got)
    assert oracle.calls == 1


def test_find_exp_distance_variants():
    rng = random.Random(17)
    for _ in range(10):
        q = random_boolean_query(rng, 3)
        weights = {f: rng.choice([0.5, 1, 2]) for f in q.theory.features}
        dd = weighted_distance(weights, q.theory)
        got = find_exp("distMin", q, distance=dd)
        assert got is not None  # flips always exist
        assert is_derived_member("distMin", q, got, distance=dd)

        for tau in (0.4, 1.0, 2.0, math.inf):
            got = find_exp("distCap", q, distance=dd, tau=tau)
            members = frozenset(
                e
                for e in exhaustive_members("cSuf", q)
                if is_derived_member("distCap", q, e, distance=dd, tau=tau)
            )
            if got is None:
                assert not members
            else:
                assert got in members


def test_find_exp_distcap_hamming_thresholds():
    rng = random.Random(19)
    for _ in range(10):
        q = random_boolean_query(rng, 4)
        for tau in (0, 1, 1.5, 2, math.inf):
            got = find_exp("distCap", q, tau=tau)
            members = frozenset(
                e
                for e in exhaustive_members("cSuf", q)
                if is_derived_member("distCap", q, e, tau=tau)
            )
            if got is None:
                assert not members
            else:
                assert got in members
                assert hamming(substitute(q.instance, got), q.instance) < tau


# -- cores through the oracle ------------------------------------------------------------


def test_core_literals_sat_matches_scan():
    rng = random.Random(23)
    m = load_bundle("majority")
    for c in m.theory.classes:
        assert core_literals_sat(m.classifier, c) == core_literals(
            m.classifier, c, method="scan"
        )
    for _ in range(20):
        q = random_boolean_query(rng, rng.randint(2, 4))
        for c in q.theory.classes:
            assert core_literals_sat(q.classifier, c) == core_literals(
                q.classifier, c, method="scan"
            )


def test_core_literals_sat_budget():
    m = load_bundle("majority")
    for c in m.theory.classes:
        oracle = SatOracle()
        core_literals_sat(m.classifier, c, oracle=oracle)
        assert oracle.calls <= m.theory.n_features + 1


# -- one encoding per classifier ----------------------------------------------------------


def every_sat_call(q, rng, oracle=None):
    """Every find kind, decide on a spread of candidates, and both cores."""
    for kind in SAT_DECIDE_KINDS:
        find_exp(kind, q, oracle=oracle)
        for e in sample_candidates(rng, q):
            decide_exp(kind, q, e, oracle=oracle)
    for c in q.theory.classes:
        core_literals_sat(q.classifier, c, oracle=oracle)


def test_class_literal_is_the_encoding_root_or_its_negation():
    rng = random.Random(37)
    for q in [load_bundle("majority").query(1)] + [
        random_boolean_query(rng, rng.randint(1, 4)) for _ in range(20)
    ]:
        clf = q.classifier
        clauses, root, n_vars = clf.encoding
        assert clf.class_literal(clf.class_if_true) == root
        assert clf.class_literal(clf.class_if_false) == -root
        for c in q.theory.classes:  # Not(f) encodes to f's clauses, root negated
            assert encode_formula(q.theory, class_indicator(clf, c)) == (
                [*clauses, (clf.class_literal(c),)], n_vars
            )
        with pytest.raises(UnknownClass):
            clf.class_literal("zzz")


def test_a_formula_classifier_is_encoded_once(monkeypatch):
    walks = []

    def counted(f, var_of_atom):
        walks.append(f)
        return tseitin(f, var_of_atom)

    for module in (formulas_module, classifier_module, sat_module):
        if hasattr(module, "tseitin"):
            monkeypatch.setattr(module, "tseitin", counted)
    rng = random.Random(41)
    for build in [lambda: load_bundle("majority").query(1)] + [
        lambda: random_boolean_query(rng, rng.randint(2, 4))
    ] * 5:
        walks.clear()
        q = build()  # random_boolean_query also walks the constant formulas it rejects
        assert walks.count(q.classifier.formula) == 1
        built = len(walks)
        every_sat_call(q, rng, SatOracle())
        assert len(walks) == built, q.classifier.formula


class RecordingBackend:
    """The built-in solver, keeping a copy of every clause list it receives,
    with the variable count and the model."""

    def __init__(self):
        self.received = []

    def solve(self, clauses, n_vars):
        model = dpll(clauses, n_vars)
        self.received.append((list(clauses), n_vars, model))
        return model


def test_every_solver_call_starts_with_a_class_encoding():
    rng = random.Random(43)
    for q in [load_bundle("majority").query(1)] + [
        random_boolean_query(rng, rng.randint(2, 4)) for _ in range(10)
    ]:
        backend = RecordingBackend()
        every_sat_call(q, rng, SatOracle(backend))
        heads = [
            encode_formula(q.theory, class_indicator(q.classifier, c))[0]
            for c in q.theory.classes
        ]
        assert backend.received
        for clauses, _, _ in backend.received:
            assert any(clauses[: len(head)] == head for head in heads)


# -- one clause index per classifier ------------------------------------------------------


def index_state(index):
    return (
        [list(held) for held in index.occurs],
        list(index.size),
        list(index.units),
        index.n_vars,
        index.count,
        len(index.units),
    )


def test_the_shared_clause_index_is_restored_after_every_call():
    q = random_boolean_query(random.Random(47), 5)
    clf, x = q.classifier, q.instance
    index = clf.clause_index
    kept = index_state(index)
    _, _, n_vars = clf.encoding
    own = clf.class_literal(q.label)
    recorder = RecordingBackend()
    oracle = SatOracle(recorder)
    space = SatSpace(clf, q.label, oracle)
    blank = PartialAssignment.empty(q.theory).values
    # each call, then a call whose own clauses name no variable of the encoding
    calls = [
        (lambda: _class_model(clf, own, oracle), [(n_vars + 1,)]),
        (lambda: space.extending(PartialAssignment(q.theory, x.values[:1] + blank[1:])), [(1,), (0,)]),
        (lambda: space.lacking(x), [(-5 * n_vars,)]),
        # a counter over more variables, then a negative literal just past n_vars
        (lambda: space.within(x, 2), [(-(n_vars + 1),)]),
        (lambda: space.smaller_flip(x, complement_instance(x)), [(2,), (n_vars + 1, 1)]),
        (lambda: _class_model(clf, -own, oracle, [(1, -2)], n_vars), [(n_vars + 3,)]),
        (lambda: space.within(x, 3), [(1, -(n_vars + 2))]),
        (lambda: _class_model(clf, own, oracle, [(-1,), (2,)]), [(0,)]),
    ]
    for step, (call, stray) in enumerate(calls):
        before = len(recorder.received)
        call()
        assert index_state(index) == kept, step
        for clauses, n, model in recorder.received[before:]:
            assert model == reference_dpll(clauses, n), step
        with pytest.raises(ValueError):
            _class_model(clf, own if step % 2 else -own, oracle, stray)
        assert index_state(index) == kept, step
    assert index_state(pickle.loads(pickle.dumps(clf)).clause_index) == kept


def cnfs(n: int):
    """Clause lists over variables 1..n, with units, repeated literals such
    as (1, 1) and tautologies such as (1, -1)."""
    if not n:
        return st.just([])
    lit = st.integers(-n, n).filter(bool)
    clause = st.one_of(
        st.tuples(lit),
        st.lists(lit, min_size=2, max_size=4).map(tuple),
        lit.map(lambda a: (a, a)),
        lit.map(lambda a: (a, -a)),
    )
    return st.lists(clause, max_size=10)


@st.composite
def split_cnfs(draw):
    """A CNF over n0 variables cut at a random point, and k more variables
    that the clauses after the cut may name, as a counter's do."""
    n0, k = draw(st.integers(0, 6)), draw(st.integers(0, 3))
    clauses = draw(cnfs(n0))
    cut = draw(st.integers(0, len(clauses)))
    suffix = clauses[cut:] + draw(cnfs(n0 + k))
    stray = draw(st.sampled_from((0, n0 + k + 1, -(n0 + k + 1))))
    wrong = list(suffix)
    wrong.insert(draw(st.integers(0, len(suffix))), draw(st.sampled_from(((stray,), (1, stray)))))
    return clauses[:cut], suffix, wrong, n0, n0 + k


@given(split_cnfs())
@settings(max_examples=60, deadline=None)
def test_an_index_extended_by_the_rest_of_a_split_cnf_solves_the_whole(split):
    """The suffix as a call's own clauses on an index of the prefix answers
    as the whole list; a stray literal in them raises; the index's state is
    tuples and stays as it was."""
    prefix, suffix, wrong, n0, n = split
    index = ClauseIndex(prefix, n0)
    kept = index_state(index)
    assert all(type(held) is tuple for held in (index.occurs, index.size, index.units, *index.occurs))
    assert dpll(IndexedClauses(index, suffix), n) == reference_dpll(prefix + suffix, n)
    assert index_state(index) == kept
    with pytest.raises(ValueError):
        dpll(IndexedClauses(index, wrong), n)
    assert index_state(index) == kept


def test_a_solved_classifier_is_not_retained():
    q = random_boolean_query(random.Random(53), 4)
    ref = weakref.ref(q.classifier)
    for kind in SAT_DECIDE_KINDS:
        find_exp(kind, q)
        decide_exp(kind, q, q.instance)
    for c in q.theory.classes:
        core_literals_sat(q.classifier, c)
    del q
    gc.collect()
    assert ref() is None


def test_the_pruned_scans_match_the_plain_scans(monkeypatch):
    """find gNec, find featMin and core_literals_sat against the scans they
    replaced (tests/helpers.py): the same answers, and gNec within the
    plain scan's oracle calls and within n.  featMin also in blocks of one
    and of two subsets."""
    rng = random.Random(59)
    for _ in range(40):
        n = rng.randint(3, 9)
        q = random_boolean_query(rng, n)
        oracle, plain = SatOracle(), SatOracle()
        assert find_exp("gNec", q, oracle=oracle) == reference_gnec(q, plain)
        assert oracle.calls <= plain.calls and oracle.calls <= n
        want = reference_featmin(q, SatOracle())
        for block in (sat_module.SUBSET_BLOCK, 1, 2):
            monkeypatch.setattr(sat_module, "SUBSET_BLOCK", block)
            assert find_exp("featMin", q) == want, block
        for c in q.theory.classes:
            oracle = SatOracle()
            assert core_literals_sat(q.classifier, c, oracle=oracle) == reference_core_sat(
                q.classifier, c, SatOracle()
            )
            assert oracle.calls <= n + 1


def test_threads_sharing_a_classifier_get_the_answers_of_one_thread():
    q = random_boolean_query(random.Random(61), 6)
    x = q.instance

    def answers():
        return [find_exp(kind, q) for kind in SAT_DECIDE_KINDS] + [
            decide_exp(kind, q, x) for kind in SAT_DECIDE_KINDS
        ] + [core_literals_sat(q.classifier, c) for c in q.theory.classes]

    want = answers()
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [
            threading.Thread(target=lambda: got.extend(answers() for _ in range(20)))
            for _ in range(6)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert got == [want] * (20 * len(workers))
