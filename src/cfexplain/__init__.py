"""Counterfactual explanations for classifiers over finite discrete features.

The package generates, decides, and audits five families of counterfactual
explanations (global/sceptical necessary, global/sceptical/credulous
sufficient), the derived minimal-change explainers built on top of them,
nine executable axioms with expected satisfaction profiles, impossibility
and compatibility witnesses, and oracle-bounded search procedures backed by
a built-in SAT solver.
"""

from .audit import (
    AXIOMS,
    EXPECTED_PROFILES,
    EXPLAINERS,
    IMPOSSIBILITY_SETS,
    PROFILE_IMPLICATIONS,
    AxiomProfile,
    CompatibilityWitness,
    Counterexample,
    ExternalExplainer,
    ExternalExplainerFailure,
    FamilyReport,
    ImpossibilityWitness,
    Suite,
    Verdict,
    audit,
    builtin_suite,
    check_axiom,
    check_impossibility,
    classify_family,
    compatibility_witnesses,
    constant_blank,
    constant_empty,
    impossibility_witness,
    old_values,
    profile_inconsistencies,
)
from .bundles import (
    FIXTURES,
    Bundle,
    fixture_text,
    load_bundle,
    load_classifier_text,
    load_instance_text,
    load_theory_text,
    sniff_classifier_format,
)
from .classifier import (
    Classifier,
    ClassifierError,
    ClassView,
    FormulaClassifier,
    IncompleteTable,
    NotSurjective,
    Query,
    SurjectivityVerdict,
    TableClassifier,
    UnknownClass,
    class_view,
    classifier_from_json,
    core_literals,
    query_from_json,
)
from .derived import (
    DERIVED_KINDS,
    DistanceError,
    FaithfulnessVerdict,
    Ranking,
    card_min,
    dist_cap,
    dist_min,
    distance_weighting,
    faithful_max,
    feat_min,
    hamming,
    indicator_weighting,
    is_derived_member,
    is_faithful,
    parse_weights,
    ranking_from_weighting,
    size_weighting,
    weighted_distance,
)
from .explain import (
    CORE_KINDS,
    ExplanationSet,
    c_suf,
    explanation_set_from_json,
    g_nec,
    g_suf,
    generate,
    is_member,
    s_nec,
    s_suf,
)
from .formulas import ParseError, parse_formula
from .sat import (
    BackendFailure,
    DpllBackend,
    ExecBackend,
    NotBoolean,
    SatOracle,
    at_most_k,
    class_indicator,
    complement_instance,
    core_literals_sat,
    decide_exp,
    dpll,
    encode_formula,
    find_exp,
    flip_within,
)
from .theory import (
    DomainTooSmall,
    DuplicateIdentifier,
    InvalidLiteral,
    PartialAssignment,
    Theory,
    TheoryError,
    TheoryMismatch,
    TooFewClasses,
    as_instance,
    enumerate_instances,
    enumerate_partial_assignments,
    instance_of_rank,
    novel_assignments,
    rank_of,
    subsets_of,
    substitute,
    validate_theory,
)

__version__ = "0.1.0"
