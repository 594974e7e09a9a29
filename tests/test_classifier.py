"""Classifiers, bitmask views, cores, and query validation."""

import csv
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfexplain import (
    ClassifierError,
    ClassView,
    FormulaClassifier,
    IncompleteTable,
    InvalidLiteral,
    NotSurjective,
    PartialAssignment,
    Query,
    TableClassifier,
    TheoryError,
    TheoryMismatch,
    UnknownClass,
    class_view,
    classifier_from_json,
    core_literals,
    enumerate_instances,
    instance_of_rank,
    load_bundle,
    query_from_json,
    rank_of,
    validate_theory,
)

from cfexplain import classifier as classifier_module
from cfexplain import sat
from cfexplain.audit import generated_probe_queries
from cfexplain.classifier import ranks_in
from cfexplain.formulas import And, Or, ParseError, Var
from helpers import (
    make_theory,
    multiclass_table_queries,
    planted_cnf,
    residual,
    table_queries,
    table_to_csv,
)


# -- table classifiers -------------------------------------------------------------


def test_table_construction_and_lookup():
    vac = load_bundle("vacation")
    t = vac.theory
    clf = vac.classifier
    x1 = PartialAssignment.from_dict(t, {"t": "hot", "a": "climbing"})
    assert clf.classify(x1) == "beach"
    assert clf.table[rank_of(x1)] == "beach"
    labels = [clf.classify(x) for x in enumerate_instances(t)]
    assert labels == [
        "beach", "beach", "beach",
        "mountain", "cinema", "cinema",
        "cinema", "cinema", "mountain",
    ]


def test_table_errors():
    t = make_theory([2, 2])
    with pytest.raises(IncompleteTable):
        TableClassifier(t, ["c0", "c1", "c0"])  # 3 rows for 4 instances
    with pytest.raises(UnknownClass):
        TableClassifier(t, ["c0", "c1", "c0", "mystery"])
    with pytest.raises(ClassifierError):
        TableClassifier(t, ["c0"] * 5)


def test_table_csv_round_trip():
    vac = load_bundle("vacation")
    text = table_to_csv(vac.classifier)
    again = TableClassifier.from_csv(text, vac.theory)
    assert again.to_json_dict() == vac.classifier.to_json_dict()


def test_table_holds_one_label_object_per_class():
    vac = load_bundle("vacation")  # read through from_csv
    assert {id(c) for c in vac.classifier.table} == {id(c) for c in vac.theory.classes}


def test_table_csv_requires_every_instance():
    t = make_theory([2, 2])
    with pytest.raises(IncompleteTable):
        TableClassifier.from_csv("f1,f2,class\n0,0,c0\n", t)


GOOD_ROWS = ["0,0,c0", "0,1,c1", "1,0,c0", "1,1,c1"]


def csv_text(*rows: str, header: str = "f1,f2,class") -> str:
    return "\n".join([header, *rows]) + "\n"


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("", ClassifierError, "empty classifier CSV"),
        (
            csv_text("0,0,c0", header="f1,f3,class"),
            ClassifierError,
            "CSV columns ['class', 'f1', 'f3'] do not match features + 'class' "
            "(['class', 'f1', 'f2'])",
        ),
        (
            csv_text("0,0,c0", "0,2,c1", "1,0,c0", "1,1,c1"),
            InvalidLiteral,
            "value '2' is not in the domain of feature 'f2'",
        ),
        (
            csv_text(" 0,0,c0", *GOOD_ROWS[1:]),
            InvalidLiteral,
            "value ' 0' is not in the domain of feature 'f1'",
        ),
        (
            csv_text("0,0,c0", "0,0,c1", "1,0,c0", "1,1,c1"),
            ClassifierError,
            "instance f1=0, f2=0 listed twice",
        ),
        (
            csv_text(*GOOD_ROWS[:3]),
            IncompleteTable,
            "table misses 1 instance(s), e.g. f1=1, f2=1",
        ),
        (
            csv_text("0,0,c0", "0,1,zz", "1,0,c0", "1,1,c1"),
            UnknownClass,
            "class 'zz' is not in the theory",
        ),
    ],
    ids=["empty", "columns", "value", "leading-space", "duplicate", "missing", "class"],
)
def test_table_csv_error_verdicts(text, error, message):
    with pytest.raises(error) as exc:
        TableClassifier.from_csv(text, make_theory([2, 2]))
    assert type(exc.value) is error and str(exc.value) == message


def test_table_csv_skips_blank_lines():
    text = "f1,f2,class\n\n0,0,c0\n0,1,c1\n\n1,0,c0\n1,1,c1\n\n"
    clf = TableClassifier.from_csv(text, make_theory([2, 2]))
    assert clf.table == ("c0", "c1", "c0", "c1")


def test_table_csv_rejects_a_repeated_header_column():
    text = "f1,f2,f2,class\n0,0,0,c0\n0,1,1,c1\n1,0,0,c0\n1,1,1,c1\n"
    with pytest.raises(ClassifierError) as exc:
        TableClassifier.from_csv(text, make_theory([2, 2]))
    assert str(exc.value) == "CSV header repeats column(s) ['f2']"


@pytest.mark.parametrize(
    "row, line, fields",
    [("0,1", 3, 2), ("0,1,c1,c0", 3, 4), ("   ", 3, 1)],
    ids=["short", "long", "spaces"],
)
def test_table_csv_rejects_ragged_rows(row, line, fields):
    text = csv_text("0,0,c0", row, *GOOD_ROWS[2:])
    with pytest.raises(ClassifierError) as exc:
        TableClassifier.from_csv(text, make_theory([2, 2]))
    assert type(exc.value) is ClassifierError
    assert str(exc.value) == f"CSV line {line} has {fields} field(s); the header has 3"


def test_table_csv_line_endings_and_quoted_cells(tmp_path):
    """CRLF and CR-only text parse as LF text, and so does a CR-only file
    read as a file (universal newlines, as the command line reads it).  A
    quoted cell may hold a newline, and the breaks other than "\\n" and
    "\\r" that str.splitlines splits at stay inside their cell."""
    theory = validate_theory({
        "features": [{"name": "f1", "domain": ["0", "1"]},
                     {"name": "f2", "domain": ["x\x0by", "p\u2028q", "a\nb", "u\x0c\x1cv"]}],
        "classes": ["c0", "c1"],
    })
    rows = ["f1,f2,class", '0,x\x0by,c0', '0,"p\u2028q",c1', '0,"a\nb",c0', "0,u\x0c\x1cv,c1",
            '1,"x\x0by",c1', "1,p\u2028q,c0", '1,"a\nb",c1', '1,"u\x0c\x1cv",c0']
    want = TableClassifier(theory, ["c0", "c1", "c0", "c1", "c1", "c0", "c1", "c0"])
    for end in ("\n", "\r\n", "\r"):
        assert TableClassifier.from_csv(end.join(rows) + end, theory) == want
    path = tmp_path / "cr.csv"
    path.write_bytes(("\r".join(rows) + "\r").encode("utf-8"))
    assert TableClassifier.from_csv(path.read_text(encoding="utf-8"), theory) == want


def test_table_csv_turns_csv_module_errors_into_classifier_errors():
    cell = "0" * (csv.field_size_limit() + 1)
    text = csv_text("0,0,c0", f"0,1,{cell}", *GOOD_ROWS[2:])
    with pytest.raises(ClassifierError) as exc:
        TableClassifier.from_csv(text, make_theory([2, 2]))
    assert type(exc.value) is ClassifierError
    assert str(exc.value).startswith("CSV line 3: field larger than field limit")


@pytest.mark.parametrize("window", [1, 2, 5, 1 << 16])
def test_csv_lines_split_at_newlines_only(window):
    text = "a,b\r\n\nc\x0bd\u2028e\r\n\"f\ng\",h\ni"
    assert list(classifier_module._lines(text, window)) == [
        "a,b\r\n", "\n", "c\x0bd\u2028e\r\n", '"f\n', 'g",h\n', "i"
    ]


def test_table_csv_counts_lines_past_the_buffer_window():
    theory = make_theory([3] * 8)
    text = table_to_csv(TableClassifier(theory, ["c0", "c1"] * 3280 + ["c0"]))
    assert len(text) > 1 << 16
    with pytest.raises(ClassifierError) as exc:
        TableClassifier.from_csv(text + "0,1\n", theory)
    assert str(exc.value) == "CSV line 6563 has 2 field(s); the header has 9"


def test_table_csv_ingest_builds_no_assignment_per_row(monkeypatch):
    theory = make_theory([3] * 7, n_classes=3)
    n = theory.instance_count()
    text = table_to_csv(TableClassifier(theory, [f"c{r % 3}" for r in range(n)]))
    built = []
    post_init = PartialAssignment.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(PartialAssignment, "__post_init__", counted)
    clf = TableClassifier.from_csv(text, theory)
    class_view(clf)
    assert len(built) <= 5


def test_equal_tables_hash_equal():
    vac = load_bundle("vacation")
    again = TableClassifier(vac.theory, list(vac.classifier.table))
    assert again is not vac.classifier and again == vac.classifier
    assert hash(again) == hash(vac.classifier)
    assert {vac.classifier: 1}[again] == 1


@st.composite
def shuffled_tables(draw):
    """A random table (up to 3^5 rows, 2 or 3 classes) and a CSV of it with
    the rows shuffled and the columns permuted."""
    sizes = draw(st.lists(st.integers(2, 3), min_size=1, max_size=5))
    theory = make_theory(sizes, n_classes=draw(st.integers(2, 3)))
    n = theory.instance_count()
    labels = draw(st.lists(st.sampled_from(theory.classes), min_size=n, max_size=n))
    columns = draw(st.permutations([*theory.features, "class"]))
    ranks = draw(st.permutations(range(n)))
    clf = TableClassifier(theory, labels)
    return clf, table_to_csv(clf, columns, ranks)


@given(shuffled_tables())
@settings(max_examples=60, deadline=None)
def test_table_csv_in_any_order_equals_from_rows(case):
    clf, text = case
    theory = clf.theory
    parsed = TableClassifier.from_csv(text, theory)
    rows = [(instance_of_rank(theory, r).to_dict(), c) for r, c in enumerate(clf.table)]
    assert parsed == TableClassifier.from_rows(theory, rows) == clf
    assert_view_matches_brute_force(parsed)


def test_table_classify_requires_instance():
    vac = load_bundle("vacation")
    partial = PartialAssignment.from_dict(vac.theory, {"t": "hot"})
    with pytest.raises(TheoryError):
        vac.classifier.classify(partial)


# -- formula classifiers -----------------------------------------------------------


def majority():
    return load_bundle("majority")


def test_formula_classifier_semantics():
    m = majority()
    clf = m.classifier
    t = m.theory
    yes = PartialAssignment.from_dict(t, {"f1": "1", "f2": "1", "f3": "0"})
    no = PartialAssignment.from_dict(t, {"f1": "1", "f2": "0", "f3": "0"})
    assert clf.classify(yes) == "yes"
    assert clf.classify(no) == "no"
    assert clf.truth_of(yes) and not clf.truth_of(no)


def test_formula_classifier_rejects_non_surjective():
    t = make_theory([2, 2])
    with pytest.raises(NotSurjective):
        FormulaClassifier(t, "f1 | !f1", "c1", "c0")


def test_formula_classifier_validates_classes():
    t = make_theory([2, 2])
    with pytest.raises(UnknownClass):
        FormulaClassifier(t, "f1", "c1", "zzz")
    with pytest.raises(ClassifierError):
        FormulaClassifier(t, "f1", "c1", "c1")


@pytest.mark.parametrize(
    "text, where",
    [
        ("classes: c1,c0\n\nf1 &\n& f2\n", "(line 3, column 1)"),
        ("\nclasses: c1,c0\r\nf1 &\r\n\r\n& f2", "(line 3, column 1)"),
        ("classes: c1,c0\nf1 & (f2  \n\n  \n", "(line 1, column 11)"),
        ("classes: c1,c0\nf1\n| f2 $\n", "(line 2, column 6)"),
    ],
    ids=["blank-line", "crlf", "trailing-blank-lines", "bad-character"],
)
def test_formula_file_parse_errors_count_lines_after_the_header(text, where):
    """A formula file's formula is parsed as it stands after the classes
    line: its blank lines count, and the end of the text is the end of its
    last non-blank line."""
    with pytest.raises(ParseError) as exc:
        FormulaClassifier.from_text(text, make_theory([2, 2]))
    assert str(exc.value).endswith(where)


@pytest.mark.parametrize("text", ["", "\n\n", "classes: c1,c0", "classes: c1,c0\n \n\n"])
def test_formula_file_without_a_formula_is_a_classifier_error(text):
    with pytest.raises(ClassifierError, match="then the formula"):
        FormulaClassifier.from_text(text, make_theory([2, 2]))


def test_formula_requires_boolean_atoms_from_theory():
    t = make_theory([2, 2])
    with pytest.raises(ClassifierError):
        FormulaClassifier(t, "other", "c1", "c0")


def test_formula_surjectivity_is_decided_past_the_view_cap():
    t = make_theory([2] * 30)
    with pytest.raises(NotSurjective):
        FormulaClassifier(t, "f1 & !f1", "c1", "c0")


def count_solver_calls(monkeypatch) -> list:
    calls = []
    solve = sat.dpll

    def counted(clauses, n_vars):
        calls.append(n_vars)
        return solve(clauses, n_vars)

    monkeypatch.setattr(sat, "dpll", counted)
    return calls


def test_formula_surjectivity_takes_two_solver_calls_once(monkeypatch):
    calls = count_solver_calls(monkeypatch)
    t = make_theory([2] * 40)
    clf = FormulaClassifier(t, planted_cnf(random.Random(5), 40, 80), "c1", "c0")
    assert len(calls) == 2
    for r in (0, 1 << 20, (1 << 40) - 1):
        Query(t, clf, instance_of_rank(t, r))
    assert len(calls) == 2 and clf.surjectivity.ok
    with pytest.raises(ClassifierError, match="too large"):
        class_view(clf)  # built only where it is read, and capped


def test_find_builds_no_view(monkeypatch):
    calls = count_solver_calls(monkeypatch)
    q = load_bundle("majority").query(1)
    assert len(calls) == 2

    def no_view(classifier):
        raise AssertionError("a truth-table view was built")

    monkeypatch.setattr(classifier_module, "ClassView", no_view)
    oracle = sat.SatOracle()
    assert sat.find_exp("cSuf", q, oracle=oracle) is not None
    assert oracle.calls == 1 and len(calls) == 3


def test_check_surjective_reports_missing():
    t = validate_theory(
        {
            "features": [{"name": "f", "domain": ["0", "1"]}],
            "classes": ["a", "b", "c"],
        }
    )
    verdict = TableClassifier(t, ["a", "a"]).surjectivity
    assert not verdict.ok
    assert set(verdict.missing) == {"b", "c"}
    # three classes cannot be covered by two instances at all
    verdict = TableClassifier(t, ["a", "b"]).surjectivity
    assert not verdict.ok and verdict.missing == ("c",)


# -- bitmask views ------------------------------------------------------------------


def brute_class_mask(clf, c):
    mask = 0
    for r in range(clf.theory.instance_count()):
        if clf.classify(instance_of_rank(clf.theory, r)) == c:
            mask |= 1 << r
    return mask


def test_class_view_masks_match_brute_force():
    vac = load_bundle("vacation")
    view = class_view(vac.classifier)
    t = vac.theory
    for c in t.classes:
        assert view.class_mask(c) == brute_class_mask(vac.classifier, c)
    x1 = PartialAssignment.from_dict(t, {"t": "hot", "a": "climbing"})
    e = PartialAssignment.from_dict(t, {"t": "hot"})
    containing = view.mask_containing(e)
    for x in enumerate_instances(t):
        assert bool((containing >> rank_of(x)) & 1) == e.subset_of(x)
    res = view.mask_residual(x1, e)
    want = {rank_of(y) for y in residual(x1, e)}
    assert {r for r in range(t.instance_count()) if (res >> r) & 1} == want
    assert view.full_mask == (1 << t.instance_count()) - 1


def assert_view_matches_brute_force(clf):
    """Every value and class mask of the view, rebuilt one rank at a time."""
    theory = clf.theory
    view = class_view(clf)
    value_masks = [[0] * len(d) for d in theory.domains]
    class_masks = dict.fromkeys(theory.classes, 0)
    for r in range(theory.instance_count()):
        x = instance_of_rank(theory, r)
        for i, v in enumerate(x.values):
            value_masks[i][v] |= 1 << r
        class_masks[clf.classify(x)] |= 1 << r
    assert view.value_masks == value_masks
    assert view.class_masks == class_masks


def test_view_of_every_two_feature_probe_table_matches_brute_force():
    seen = set()
    for q in generated_probe_queries():
        if id(q.classifier) not in seen:
            seen.add(id(q.classifier))
            assert_view_matches_brute_force(q.classifier)
    assert len(seen) == 648


def test_ranks_in_lists_set_bits_in_ascending_order():
    assert list(ranks_in(0)) == []
    assert list(ranks_in(0b10110)) == [1, 2, 4]
    assert list(ranks_in(1 | 1 << (1 << 20))) == [0, 1 << 20]


@given(table_queries())
@settings(max_examples=40, deadline=None)
def test_class_masks_partition(query):
    view = class_view(query.classifier)
    union = 0
    for c in query.theory.classes:
        mask = view.class_mask(c)
        assert union & mask == 0
        union |= mask
    assert union == view.full_mask


@given(multiclass_table_queries())
@settings(max_examples=40, deadline=None)
def test_distance_layers_sort_the_instances_by_hamming_distance(query):
    view = class_view(query.classifier)
    x = query.instance
    layers = view.distance_layers(x)
    assert len(layers) == query.theory.n_features + 1
    union = 0
    for layer in layers:
        assert union & layer == 0
        union |= layer
    assert union == view.full_mask
    for k, layer in enumerate(layers):
        want = [
            r
            for r in range(view.n_rows)
            if sum(a != b for a, b in zip(instance_of_rank(query.theory, r).values, x.values)) == k
        ]
        assert list(ranks_in(layer)) == want


# -- cores --------------------------------------------------------------------------


def test_core_goldens():
    vac = load_bundle("vacation")
    assert core_literals(vac.classifier, "beach").to_dict() == {"t": "hot"}
    assert core_literals(vac.classifier, "mountain").is_empty
    assert core_literals(vac.classifier, "cinema").is_empty

    bit = load_bundle("bitcount")
    assert core_literals(bit.classifier, "c1").to_dict() == {"f1": "0", "f2": "0"}
    assert core_literals(bit.classifier, "c2").is_empty
    assert core_literals(bit.classifier, "c3").to_dict() == {"f1": "1", "f2": "1"}

    cor = load_bundle("corner")
    assert core_literals(cor.classifier, "c2").to_dict() == {"f1": "1", "f2": "0"}
    assert core_literals(cor.classifier, "c1").is_empty


def test_core_scan_vs_sat_agree_on_formulas():
    m = majority()
    for c in m.theory.classes:
        scanned = core_literals(m.classifier, c, method="scan")
        from_sat = core_literals(m.classifier, c, method="sat")
        assert scanned == from_sat


def test_core_method_validation():
    vac = load_bundle("vacation")
    with pytest.raises(UnknownClass):
        core_literals(vac.classifier, "lake")
    with pytest.raises(ClassifierError):
        core_literals(vac.classifier, "beach", method="sat")  # needs a formula
    with pytest.raises(ValueError):
        core_literals(vac.classifier, "beach", method="guess")


# -- queries ------------------------------------------------------------------------


def test_query_basics():
    vac = load_bundle("vacation")
    q = vac.query(1)
    assert q.label == "beach"
    assert q.instance.render() == "t=hot, a=climbing"
    qs = vac.queries()
    assert len(qs) == 9
    assert qs[0] == q


def test_query_validation():
    vac = load_bundle("vacation")
    other = make_theory([2, 2])
    with pytest.raises(TheoryMismatch):
        Query(other, vac.classifier, vac.query(1).instance)
    partial = PartialAssignment.from_dict(vac.theory, {"t": "hot"})
    with pytest.raises(TheoryError):
        Query(vac.theory, vac.classifier, partial)


def test_query_rejects_non_surjective_classifier():
    t = make_theory([2, 2], n_classes=3)
    clf = TableClassifier(t, ["c0", "c0", "c1", "c1"])
    with pytest.raises(NotSurjective):
        Query(t, clf, instance_of_rank(t, 0))


def test_equal_queries_hash_equal_and_hash_once(monkeypatch):
    vac = load_bundle("vacation")
    q = vac.query(1)
    theory = validate_theory(json.loads(json.dumps(vac.theory.to_json_dict())))
    again = Query(
        theory,
        TableClassifier(theory, list(vac.classifier.table)),
        PartialAssignment.from_dict(theory, q.instance.to_dict()),
    )
    assert again is not q and again == q and hash(again) == hash(q)
    assert {q: 1}[again] == 1
    assert again != vac.query(2)
    rehashed = []
    monkeypatch.setattr(TableClassifier, "__hash__", lambda self: rehashed.append(self) or 0)
    assert hash(again) == hash(q) and {q: 1}[again] == 1
    assert rehashed == []


def test_a_query_over_a_deep_formula_is_built_without_hashing_it():
    """A query is hashed only when a caller asks, so building one does not
    render its formula."""
    theory = make_theory([2] * 12)
    formula = Var("f1")
    for i in range(700):
        formula = Or(And(Var(f"f{i % 12 + 1}"), Var(f"f{(i + 1) % 12 + 1}")), formula)
    classifier = FormulaClassifier(theory, formula, "c1", "c0")
    assert Query(theory, classifier, instance_of_rank(theory, 0)).label == "c0"


def test_a_formula_classifier_over_a_long_rule_list_hashes():
    theory = make_theory([2] * 12)
    formula = Var("f1")
    for i in range(1100):
        formula = Or(And(Var(f"f{i % 12 + 1}"), Var(f"f{(i + 1) % 12 + 1}")), formula)
    classifier = FormulaClassifier(theory, formula, "c1", "c0")
    again = FormulaClassifier(theory, classifier.text, "c1", "c0")
    assert again == classifier and hash(again) == hash(classifier)
    q = Query(theory, classifier, instance_of_rank(theory, 0))
    assert {q: 1}[Query(theory, again, instance_of_rank(theory, 0))] == 1


def test_formula_classifiers_compare_by_printed_formula_and_labels():
    theory = make_theory([2] * 3)
    built = FormulaClassifier(theory, And(Var("f1"), Or(Var("f2"), Var("f3"))), "c1", "c0")
    parsed = FormulaClassifier(theory, "f1 & (f2 | f3)", "c1", "c0")
    assert built == parsed and hash(built) == hash(parsed)
    assert built != FormulaClassifier(theory, "f1 & (f2 | f3)", "c0", "c1")
    assert built != FormulaClassifier(theory, "f1 & f2 | f3", "c1", "c0")
    assert built.to_json_dict()["formula"] == built.text == "f1 & (f2 | f3)"


# -- JSON round trips ----------------------------------------------------------------


def test_classifier_json_round_trip():
    for name in ("vacation", "majority"):
        b = load_bundle(name)
        raw = json.loads(json.dumps(b.classifier.to_json_dict()))
        again = classifier_from_json(raw, b.theory)
        for x in enumerate_instances(b.theory):
            assert again.classify(x) == b.classifier.classify(x)


def test_query_json_round_trip():
    for name in ("vacation", "bitcount", "corner", "majority"):
        b = load_bundle(name)
        q = b.query(1)
        again = query_from_json(json.loads(json.dumps(q.to_json_dict())))
        assert again.theory == q.theory
        assert again.instance == q.instance
        assert again.label == q.label
        for x in enumerate_instances(q.theory):
            assert again.classifier.classify(x) == q.classifier.classify(x)
