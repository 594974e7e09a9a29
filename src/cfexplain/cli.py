"""Command-line front end.

Subcommands: explain (list explanations), decide (membership of one
candidate), find (produce a single explanation via the search procedures),
core (class core literals), audit (axiom profiles over a query suite),
witness (impossibility and compatibility constructions).

Exit codes: 0 success; 1 malformed input or domain error (diagnostic on
standard error, nothing on standard output); 2 when an audit finds an
expected-profile mismatch (the report is still printed).  Reports are
byte-stable: JSON is emitted with sorted keys and a fixed indentation, and
every randomized suite takes an explicit seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional, Sequence

from .audit import (
    AXIOMS,
    EXPLAINERS,
    IMPOSSIBILITY_SETS,
    ExternalExplainer,
    ExternalExplainerFailure,
    Suite,
    audit,
    builtin_suite,
    check_impossibility,
    compatibility_witnesses,
    impossibility_witness,
    profile_inconsistencies,
)
from .bundles import (
    FIXTURES,
    load_bundle,
    load_classifier_text,
    load_instance_text,
    load_theory_text,
)
from .classifier import (
    ClassifierError,
    FormulaClassifier,
    Query,
    core_literals,
)
from .derived import (
    card_min,
    dist_cap,
    dist_min,
    feat_min,
    hamming,
    weighted_distance,
)
from .explain import CORE_KINDS, KINDS, DistanceError, generate, membership
from .formulas import ParseError
from .sat import (
    BackendFailure,
    DpllBackend,
    ExecBackend,
    NotBoolean,
    SatOracle,
    SatSpace,
    find_exp,
)
from .theory import PartialAssignment, TheoryError

_KIND_BY_ALIAS = {k.lower(): k for k in KINDS}

_DOMAIN_ERRORS = (
    ParseError,
    TheoryError,
    ClassifierError,
    DistanceError,
    NotBoolean,
    BackendFailure,
    ExternalExplainerFailure,
)

DEFAULT_CAP = 10_000


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _emit_json(payload) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _kind(raw: str) -> str:
    try:
        return _KIND_BY_ALIAS[raw.lower()]
    except KeyError:
        raise ValueError(
            f"unknown kind {raw!r} (choose from {', '.join(KINDS)})"
        ) from None


def _distance(args, theory):
    spec = getattr(args, "distance", "hamming")
    if spec == "hamming":
        return hamming
    if spec.startswith("weighted:"):
        return weighted_distance(json.loads(_read(spec[len("weighted:"):])), theory)
    raise ValueError(
        f"unknown distance {spec!r} (expected 'hamming' or 'weighted:<file>')"
    )


def _oracle(args) -> SatOracle:
    spec = getattr(args, "sat_backend", "builtin")
    if spec == "builtin":
        return SatOracle(DpllBackend())
    if spec.startswith("exec:"):
        return SatOracle(ExecBackend(spec[len("exec:"):]))
    raise ValueError(
        f"unknown sat backend {spec!r} (expected 'builtin' or 'exec:<path>')"
    )


def _theory_and_classifier(args):
    """The theory and classifier read from --theory and --classifier."""
    theory = load_theory_text(_read(args.theory))
    return theory, load_classifier_text(
        _read(args.classifier), theory, filename=args.classifier
    )


def _ingest(args) -> Query:
    """Build a Query from --fixture/--query or --theory/--classifier/--instance."""
    if args.fixture:
        bundle = load_bundle(args.fixture)
        return bundle.query(args.query)
    missing = [
        flag
        for flag, value in (
            ("--theory", args.theory),
            ("--classifier", args.classifier),
            ("--instance", args.instance),
        )
        if not value
    ]
    if missing:
        raise ValueError(
            "missing " + ", ".join(missing) + " (or use --fixture NAME)"
        )
    theory, classifier = _theory_and_classifier(args)
    instance = load_instance_text(_read(args.instance), theory)
    return Query(theory, classifier, instance)


def _parse_assignment(raw: str, theory) -> PartialAssignment:
    text = _read(raw[1:]) if raw.startswith("@") else raw
    mapping = json.loads(text)
    if not isinstance(mapping, dict):
        raise ParseError("--explanation must hold a JSON object")
    return PartialAssignment.from_dict(theory, mapping)


def _render_set(result) -> str:
    lines = [f"kind: {result.kind}", f"count: {result.count}"]
    if result.truncated:
        lines.append("truncated: true")
    for i, e in enumerate(result.explanations, start=1):
        lines.append(f"{i}. {e.render()}")
    return "\n".join(lines) + "\n"


# -- subcommands --------------------------------------------------------------


def _list_explanations(kind: str, query: Query, args, cap: Optional[int]):
    if kind in CORE_KINDS:
        return generate(kind, query, cap=cap)
    if kind == "featMin":
        return feat_min(query, cap=cap)
    if kind == "cardMin":
        return card_min(query, cap=cap)
    distance = _distance(args, query.theory)
    if kind == "distMin":
        return dist_min(query, distance=distance, cap=cap)
    return dist_cap(query, distance=distance, tau=args.tau, cap=cap)


def cmd_explain(args) -> int:
    query = _ingest(args)
    kind = _kind(args.kind)
    cap = None if args.cap == 0 else args.cap
    result = _list_explanations(kind, query, args, cap)
    if args.format == "text":
        sys.stdout.write(_render_set(result))
    else:
        _emit_json(result.to_json_dict())
    return 0


def cmd_decide(args) -> int:
    query = _ingest(args)
    kind = _kind(args.kind)
    e = _parse_assignment(args.explanation, query.theory)
    distance = _distance(args, query.theory)
    payload = {"kind": kind, "explanation": e.to_dict()}
    if isinstance(query.classifier, FormulaClassifier):
        space = SatSpace(query.classifier, query.label, _oracle(args))
    else:
        space = query.space
    member = membership(kind, space, query, e, distance, args.tau)
    payload["member"] = member
    if args.count_oracle_calls and isinstance(space, SatSpace):
        payload["oracle_calls"] = space.oracle.calls
    if args.format == "text":
        sys.stdout.write(("member" if member else "not a member") + "\n")
    else:
        _emit_json(payload)
    return 0


def cmd_find(args) -> int:
    query = _ingest(args)
    kind = _kind(args.kind)
    distance = _distance(args, query.theory)
    payload: dict = {"kind": kind}
    if isinstance(query.classifier, FormulaClassifier):
        oracle = _oracle(args)
        found = find_exp(kind, query, oracle=oracle, distance=distance, tau=args.tau)
        if args.count_oracle_calls:
            payload["oracle_calls"] = oracle.calls
    else:
        # enumeration fallback for table classifiers
        listed = _list_explanations(kind, query, args, cap=1)
        found = listed.explanations[0] if listed.count else None
    payload["found"] = found is not None
    payload["explanation"] = None if found is None else found.to_dict()
    if args.format == "text":
        sys.stdout.write("none\n" if found is None else found.render() + "\n")
    else:
        _emit_json(payload)
    return 0


def cmd_core(args) -> int:
    if args.fixture:
        classifier = load_bundle(args.fixture).classifier
    else:
        if not args.theory or not args.classifier:
            raise ValueError("missing --theory/--classifier (or use --fixture NAME)")
        _, classifier = _theory_and_classifier(args)
    core = core_literals(classifier, args.class_name, method=args.method)
    if args.format == "text":
        sys.stdout.write(core.render() + "\n")
    else:
        _emit_json({"class": args.class_name, "core": core.to_dict()})
    return 0


def _audit_suite(args) -> Suite:
    if args.builtin:
        return builtin_suite(budget=args.budget, seed=args.seed)
    if args.theory and args.classifier and args.instance:
        theory, classifier = _theory_and_classifier(args)
        queries = tuple(
            Query(theory, classifier, load_instance_text(_read(path), theory))
            for path in args.instance
        )
        return Suite("custom", queries)
    raise ValueError("audit needs --builtin or --theory/--classifier/--instance")


def cmd_audit(args) -> int:
    suite = _audit_suite(args)
    names = list(args.explainer) if args.explainer else list(CORE_KINDS)
    for name in names:
        if name not in EXPLAINERS:
            raise ValueError(
                f"unknown explainer {name!r} (choose from {', '.join(sorted(EXPLAINERS))})"
            )
    profiles = [
        audit(EXPLAINERS[name], suite.queries, name=name, suite_name=suite.name)
        for name in names
    ]

    external = None
    if args.external:
        with ExternalExplainer(args.external) as runner:
            external = audit(
                runner, suite.queries, name="external", suite_name=suite.name
            )
        profiles.append(external)

    mismatches = sum(len(p.mismatches()) for p in profiles)
    breaks: list[str] = []
    for p in profiles:
        breaks.extend(f"{p.explainer}: {b}" for b in profile_inconsistencies(p))
    report = {
        "schema": 1,
        "suite": suite.name,
        "query_count": len(suite.queries),
        "profiles": [p.to_json_dict() for p in profiles],
        "mismatch_count": mismatches,
        "implication_breaks": breaks,
    }
    if args.format == "text":
        sys.stdout.write(_render_audit_table(profiles))
    else:
        _emit_json(report)
    return 2 if mismatches or breaks else 0


def _render_audit_table(profiles) -> str:
    names = [p.explainer for p in profiles]
    width = max(len(a) for a in AXIOMS) + 2
    col = max(max((len(n) for n in names), default=4), 4) + 2
    lines = ["".ljust(width) + "".join(n.rjust(col) for n in names)]
    for axiom in AXIOMS:
        row = axiom.ljust(width)
        for p in profiles:
            row += ("ok" if p.verdict(axiom).ok else "X").rjust(col)
        lines.append(row)
    marks = []
    for p in profiles:
        m = p.mismatches()
        if m:
            marks.append(f"{p.explainer}: expected-profile mismatch on {', '.join(m)}")
    lines.extend(marks)
    return "\n".join(lines) + "\n"


def cmd_witness(args) -> int:
    if args.compat:
        suite = builtin_suite(budget=args.budget, seed=args.seed)
        rows = []
        mismatches = 0
        for w in compatibility_witnesses():
            profile = audit(
                w.explainer,
                suite.queries,
                name=w.name,
                suite_name=suite.name,
                expected=w.expected_profile(),
            )
            bad = profile.mismatches()
            mismatches += len(bad)
            rows.append(
                {
                    "name": w.name,
                    "satisfied": sorted(w.satisfied),
                    "mismatches": list(bad),
                }
            )
        _emit_json({"schema": 1, "suite": suite.name, "witnesses": rows})
        return 2 if mismatches else 0
    if args.all:
        ids = sorted(IMPOSSIBILITY_SETS)
    elif args.id:
        ids = [args.id]
    else:
        raise ValueError("witness needs --id I1..I7, --all, or --compat")
    rows = []
    for set_id in ids:
        w = impossibility_witness(set_id)
        confirmed, trace = check_impossibility(w)
        row = w.to_json_dict()
        row["confirmed"] = confirmed
        row["trace"] = trace
        rows.append(row)
    _emit_json({"schema": 1, "witnesses": rows})
    return 0


# -- parser --------------------------------------------------------------------


def _add_input_flags(sub, instance=True):
    sub.add_argument("--fixture", choices=FIXTURES, help="built-in bundle")
    sub.add_argument(
        "--query", type=int, default=1, help="1-based instance index in the fixture"
    )
    sub.add_argument("--theory", help="theory JSON file")
    sub.add_argument("--classifier", help="classifier file (CSV table or formula text)")
    if instance:
        sub.add_argument("--instance", help="instance JSON file")


def _add_common_flags(sub):
    sub.add_argument(
        "--format", choices=("json", "text"), default="json", help="output format"
    )


def _add_kind_flags(sub):
    sub.add_argument("--kind", required=True, help="explainer kind (case-insensitive)")
    sub.add_argument(
        "--distance",
        default="hamming",
        help="'hamming' or 'weighted:<weights.json>'",
    )
    sub.add_argument(
        "--tau", type=float, default=math.inf, help="distance threshold (strict <)"
    )


def _add_sat_flags(sub):
    sub.add_argument(
        "--sat-backend",
        default="builtin",
        help="'builtin' or 'exec:<path-to-solver>'",
    )
    sub.add_argument(
        "--count-oracle-calls",
        action="store_true",
        help="include the number of solver calls in the report",
    )


def _add_suite_flags(sub):
    sub.add_argument(
        "--budget",
        type=non_negative_int,
        default=1500,
        help="generated-query budget (0 = every generated query)",
    )
    sub.add_argument("--seed", type=int, default=0, help="sampling seed")


def non_negative_int(raw: str) -> int:
    """argparse type of the count flags (--cap, --budget), where 0 is a
    documented setting and a negative count is a usage error."""
    value = int(raw)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfexplain",
        description="Generate, decide, and audit counterfactual explanations "
        "over finite discrete feature spaces.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("explain", help="list explanations of one kind")
    _add_input_flags(p)
    _add_kind_flags(p)
    p.add_argument(
        "--cap",
        type=non_negative_int,
        default=DEFAULT_CAP,
        help=f"maximum explanations listed (default {DEFAULT_CAP}; 0 = uncapped)",
    )
    _add_common_flags(p)
    p.set_defaults(func=cmd_explain)

    p = subs.add_parser("decide", help="test one candidate explanation")
    _add_input_flags(p)
    _add_kind_flags(p)
    p.add_argument(
        "--explanation",
        required=True,
        help="candidate as inline JSON (or @file.json)",
    )
    _add_sat_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_decide)

    p = subs.add_parser("find", help="produce one explanation or report none")
    _add_input_flags(p)
    _add_kind_flags(p)
    _add_sat_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_find)

    p = subs.add_parser("core", help="literals shared by every instance of a class")
    _add_input_flags(p, instance=False)
    p.add_argument("--class", dest="class_name", required=True, help="class label")
    p.add_argument(
        "--method",
        choices=("auto", "scan", "sat"),
        default="auto",
        help="core computation strategy",
    )
    _add_common_flags(p)
    p.set_defaults(func=cmd_core)

    p = subs.add_parser("audit", help="axiom profiles over a query suite")
    p.add_argument(
        "--builtin", action="store_true", help="use the built-in query suite"
    )
    p.add_argument("--theory", help="theory JSON file (custom suite)")
    p.add_argument("--classifier", help="classifier file (custom suite)")
    p.add_argument(
        "--instance",
        action="append",
        default=[],
        help="instance JSON file (repeatable, custom suite)",
    )
    p.add_argument(
        "--explainer",
        action="append",
        default=[],
        help="explainer name to audit (repeatable; default: the five core kinds)",
    )
    p.add_argument(
        "--external",
        nargs="+",
        metavar="CMD",
        help="audit an external explainer command (line-JSON protocol)",
    )
    _add_suite_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_audit)

    p = subs.add_parser("witness", help="impossibility / compatibility constructions")
    p.add_argument("--id", help="impossibility set id (I1..I7)")
    p.add_argument("--all", action="store_true", help="all impossibility sets")
    p.add_argument(
        "--compat",
        action="store_true",
        help="audit the compatibility witness explainers instead",
    )
    _add_suite_flags(p)
    p.set_defaults(func=cmd_witness)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _DOMAIN_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:
        # str() of a KeyError quotes its message; print the message bare
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: DomainError: {message}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
