"""Loading theories, classifiers, and instances from files and fixtures.

Ships four fixture bundles used by the documentation, the built-in audit
suite, and the test corpus:

* vacation — 2 features (temperature, activity) x 3 values, 3 classes;
* bitcount — 2 boolean features, 3 classes keyed to the number of ones;
* corner   — 2 boolean features, one lone opposite-class instance;
* majority — 3 boolean features with a formula classifier (2-of-3).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import Mapping, Optional

from .classifier import (
    Classifier,
    FormulaClassifier,
    Query,
    TableClassifier,
)
from .formulas import ParseError
from .theory import PartialAssignment, Theory, validate_theory

FIXTURES = ("vacation", "bitcount", "corner", "majority")


def unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's pairs as a dict (``json.loads``' ``object_pairs_hook``).
    A repeated key raises ValueError, where a plain dict keeps its last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        raise ValueError(f"key {next(k for k in keys if keys.count(k) > 1)!r} is repeated")
    return obj


def read_json(text: str, what: str) -> object:
    """The JSON value of a user's input; malformed JSON, a repeated key and
    nesting deeper than the decoder recurses raise ParseError, naming
    ``what`` was read."""
    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {what}: {exc.msg}", exc.lineno, exc.colno)
    except ValueError as exc:
        raise ParseError(f"invalid JSON in {what}: {exc}") from None
    except RecursionError:
        raise ParseError(f"invalid JSON in {what}: nested too deeply") from None


def load_theory_text(text: str) -> Theory:
    raw = read_json(text, "theory")
    if not isinstance(raw, Mapping):
        raise ParseError("theory file must hold a JSON object")
    return validate_theory(raw)


def load_instance_text(text: str, theory: Theory) -> PartialAssignment:
    raw = read_json(text, "instance")
    if not isinstance(raw, Mapping):
        raise ParseError("instance file must hold a JSON object")
    return PartialAssignment.from_dict(theory, raw)


def sniff_classifier_format(text: str, filename: str = "") -> str:
    """'table' or 'formula', by extension first, then content."""
    name = filename.lower()
    if name.endswith(".csv"):
        return "table"
    if name.endswith((".txt", ".formula")):
        return "formula"
    stripped = text.lstrip()
    if stripped.lower().startswith("classes:"):
        return "formula"
    return "table"


def load_classifier_text(
    text: str, theory: Theory, kind: Optional[str] = None, filename: str = ""
) -> Classifier:
    kind = kind or sniff_classifier_format(text, filename)
    if kind == "table":
        return TableClassifier.from_csv(text, theory)
    if kind == "formula":
        return FormulaClassifier.from_text(text, theory)
    raise ValueError(f"unknown classifier format {kind!r}")


# -- fixtures ---------------------------------------------------------------------


def fixture_text(name: str, filename: str) -> str:
    if name not in FIXTURES:
        raise KeyError(f"unknown fixture {name!r} (have {', '.join(FIXTURES)})")
    return (resources.files("cfexplain") / "fixtures" / name / filename).read_text()


@dataclass(frozen=True)
class Bundle:
    name: str
    theory: Theory
    classifier: Classifier
    instances: tuple[PartialAssignment, ...]  # presentation order

    def queries(self) -> tuple[Query, ...]:
        return tuple(Query(self.theory, self.classifier, x) for x in self.instances)

    def query(self, index: int) -> Query:
        """1-based, matching the bundle's instance numbering."""
        if not 1 <= index <= len(self.instances):
            raise ValueError(
                f"query {index} is out of range 1..{len(self.instances)}"
                f" for bundle {self.name!r}"
            )
        return Query(self.theory, self.classifier, self.instances[index - 1])


def _csv_instances(text: str, theory: Theory) -> tuple[PartialAssignment, ...]:
    import csv
    import io

    out = []
    for row in csv.DictReader(io.StringIO(text)):
        row.pop("class", None)
        out.append(PartialAssignment.from_dict(theory, row))
    return tuple(out)


def load_bundle(name: str) -> Bundle:
    theory = load_theory_text(fixture_text(name, "theory.json"))
    if name == "majority":
        classifier = load_classifier_text(
            fixture_text(name, "classifier.txt"), theory, kind="formula"
        )
        from .theory import enumerate_instances

        instances = tuple(enumerate_instances(theory))
    else:
        text = fixture_text(name, "classifier.csv")
        classifier = load_classifier_text(text, theory, kind="table")
        instances = _csv_instances(text, theory)
    return Bundle(name, theory, classifier, instances)
