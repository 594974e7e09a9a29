"""An in-process fuzz of the command line.

``cli.main`` gets argv over its six subcommands, with generated theory,
classifier, instance, weights and explanation files, valid or not.  Whatever
the input, the run ends in one of the documented ways: exit 0 or 2, exit 1
with one ``error:`` line on stderr and nothing on stdout, or argparse's
usage exit, ``SystemExit(2)``.  No subprocess is started: ``--external`` and
``exec:`` solver backends are not generated, and built-in suites are drawn
with a small nonzero ``--budget`` to keep each run short.
"""

import contextlib
import io
import itertools
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from cfexplain import CORE_KINDS, DERIVED_KINDS, EXPLAINERS, FIXTURES
from cfexplain.cli import main

NAMES = ("f1", "f2", "f3")
VALUES = ("0", "1", "2")
CLASSES = ("c0", "c1", "c2")

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 2), st.sampled_from(["", "0", "1", "xy", "c0"])
)
not_lists = st.sampled_from(["xy", "01", {"0": 1, "1": 2}, 5, 7.5, None, True])


def _mostly(draw, good, bad, odds: int = 4):
    """`good` drawn `odds` times out of `odds` + 1, else `bad`."""
    return draw(good) if draw(st.integers(0, odds)) else draw(bad)


@st.composite
def theories(draw):
    """A theory's JSON: features f1.., values 0.., classes c0..; sometimes broken."""
    features = []
    for name in NAMES[: draw(st.integers(1, 3))]:
        domain = list(VALUES[: draw(st.integers(1, 3))])  # one value is too few
        domain = _mostly(draw, st.just(domain), st.one_of(not_lists, st.lists(scalars, max_size=3)), 3)
        features.append({"name": name, "domain": domain})
    classes = list(CLASSES[: draw(st.integers(1, 3))])
    classes = _mostly(draw, st.just(classes), st.one_of(not_lists, st.lists(scalars, max_size=3)), 3)
    theory = {"features": features, "classes": classes}
    return _mostly(
        draw,
        st.just(theory),
        st.sampled_from([[], {"features": features}, {"features": "f1", "classes": classes}]),
    )


def _domains(theory) -> list[tuple[str, list]]:
    """The (name, values) pairs of a theory's JSON, as far as it has them."""
    try:
        return [(f["name"], list(f["domain"])) for f in theory["features"]]
    except (KeyError, TypeError):
        return [("f1", ["0", "1"])]


def _classes(theory) -> list:
    try:
        return list(theory["classes"]) or ["c0"]
    except (KeyError, TypeError):
        return ["c0"]


@st.composite
def classifiers(draw, theory):
    """A CSV table over the theory or a formula text, either maybe broken."""
    domains, classes = _domains(theory), _classes(theory)
    if draw(st.booleans()):
        formula = draw(st.sampled_from(["f1", "f1 & !f2", "(f1 | f2) -> f3", "f1 <-> f2", "(f1", "f9", ""]))
        labels = draw(st.lists(st.sampled_from([*map(str, classes), "zz"]), max_size=3))
        return f"classes: {','.join(labels)}\n{formula}\n"
    header = [name for name, _ in domains] + ["class"]
    rows = [
        [*map(str, values), str(draw(st.sampled_from([*classes, "zz"])))]
        for values in itertools.product(*(values for _, values in domains))
    ]
    if rows and draw(st.integers(0, 5)) == 0:
        del rows[draw(st.integers(0, len(rows) - 1))]
    if rows and draw(st.integers(0, 5)) == 0:
        rows[0] = rows[0][:-1]
    return "\n".join(",".join(row) for row in [header, *rows]) + "\n"


@st.composite
def assignments(draw, theory):
    """A JSON object over the theory's features, maybe with unknown ones."""
    out = {}
    for name, values in _domains(theory):
        if draw(st.booleans()):
            out[str(name)] = draw(st.sampled_from([*values, "9"]))
    if draw(st.integers(0, 5)) == 0:
        out["zz"] = "0"
    return out


@st.composite
def weights(draw, theory):
    table = {str(name): draw(st.sampled_from([0, 1, 2.5, -1, "x", None])) for name, _ in _domains(theory)}
    return _mostly(draw, st.just(table), st.sampled_from([[1, 2], 3, "w"]))


def _json_or_text(draw, value) -> str:
    return _mostly(draw, st.just(json.dumps(value)), st.sampled_from(["", "{", "[1, 2]", "5"]))


@st.composite
def invocations(draw):
    """(argv, files): a command line and the files it names, each name
    marked with a % that the test turns into the run's directory."""
    theory = draw(theories())
    files = {
        "theory.json": _json_or_text(draw, theory),
        "classifier": draw(classifiers(theory)),
        "x.json": _json_or_text(draw, draw(assignments(theory))),
        "w.json": _json_or_text(draw, draw(weights(theory))),
        "e.json": _json_or_text(draw, draw(assignments(theory))),
    }
    if draw(st.integers(0, 3)):
        files = {k: v for k, v in files.items() if draw(st.integers(0, 9))}  # some go missing
    query = _mostly(draw, st.just(1), st.integers(-1, 10))
    fixture = ["--fixture", draw(st.sampled_from(FIXTURES)), "--query", str(query)]
    custom = ["--theory", "%theory.json", "--classifier", "%classifier"]
    source = _mostly(
        draw,
        st.sampled_from([fixture, custom + ["--instance", "%x.json"]]),
        st.sampled_from([custom, []]),
    )
    kinds = st.sampled_from([*CORE_KINDS, *DERIVED_KINDS, "GNEC", "distmin"])
    kind = ["--kind", _mostly(draw, kinds, st.just("bogus"))]
    if draw(st.booleans()):
        kind += ["--distance", draw(st.sampled_from(["hamming", "weighted:%w.json", "weighted:%none.json", "euclid"]))]
    if draw(st.booleans()):
        kind += ["--tau", draw(st.sampled_from(["0", "0.5", "1", "2", "inf", "-inf", "-1", "nan", "1e308"]))]
    fmt = draw(st.sampled_from([[], ["--format", "text"], ["--format", "json"]]))
    counted = draw(st.sampled_from([[], ["--count-oracle-calls"]]))
    command = draw(st.sampled_from(["explain", "decide", "find", "core", "audit", "witness"]))
    if command == "explain":
        argv = [*source, *kind, "--cap", str(draw(st.integers(0, 3))), *fmt]
    elif command == "decide":
        explanation = draw(st.sampled_from(["@%e.json", "@%none.json", _json_or_text(draw, draw(assignments(theory)))]))
        argv = [*source, *kind, "--explanation", explanation, *counted, *fmt]
    elif command == "find":
        argv = [*source, *kind, *counted, *fmt]
    elif command == "core":
        argv = [*source[:4], "--class", draw(st.sampled_from([*map(str, _classes(theory)), "yes", "zz"]))]
        argv += draw(st.sampled_from([[], ["--method", "scan"], ["--method", "sat"]])) + fmt
    elif command == "audit":
        argv = draw(st.sampled_from([["--builtin", "--budget", str(draw(st.integers(1, 30)))], custom]))
        argv += ["--instance", "%x.json"] * draw(st.integers(0, 2))
        argv += [a for name in draw(st.lists(st.sampled_from([*EXPLAINERS, "bogus"]), max_size=2))
                 for a in ("--explainer", name)] + fmt
    else:
        argv = draw(st.sampled_from([["--all"], ["--compat"], ["--id", "I3"], ["--id", "i7"], ["--id", "I9"], []]))
        argv += ["--budget", str(draw(st.integers(1, 30))), "--seed", str(draw(st.integers(-2, 2)))]
    return [command, *argv], files


@given(invocations())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_every_command_line_ends_in_a_documented_way(invocation):
    argv, files = invocation
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            (Path(tmp) / name).write_text(text, encoding="utf-8")
        argv = [a.replace("%", tmp + "/") for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage error
                assert exc.code == 2, argv
                return
    assert code in (0, 1, 2), argv
    if code == 1:
        assert out.getvalue() == "", argv
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)

