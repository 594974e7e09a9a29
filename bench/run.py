#!/usr/bin/env python3
"""cfexplain benchmark: one command, three workloads, end to end or traced.

    python3 bench/run.py --workload table_query --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is imported from ``src/`` of the
tree the script sits in.  Inputs are generated from ``--seed`` and written
under ``.bench_work/``, which is removed again at exit.  Each run repeats
whole rounds of its workload's operations until ``--seconds`` have passed,
checks every output against the reference checker, and prints a report
followed by one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  With ``--trace 1`` the spans are written to
``.bench_traces/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from harness import Run, import_program  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402

WORKLOADS = ("table_query", "audit_suite", "sat_formula")
# Set-up runs at least SETUP_REPEATS times and until SETUP_SECONDS have been
# spent, so that a short set-up still yields a steady median.
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
HASHED_REPORTS = (("audit", "--builtin"), ("witness", "--all"), ("witness", "--compat"))

# name -> (unit, description); every workload reports all of them.
END_TO_END = {
    "setup_s": ("s", "median of the set-ups: import, Query/suite construction, views"),
    "peak_rss_mb": ("MB", "peak resident memory of the process"),
    "cli_s": ("s", "geometric mean over the round's CLI calls of each one's median latency"),
    "cli_per_s": ("1/s", "CLI work units per second, from the median latencies"),
    "lib_s": ("s", "geometric mean over the round's library-session calls, median latencies"),
    "lib_per_s": ("1/s", "library-session calls per second, from the median latencies"),
}
PER_LAYER = {
    "ingest_s": ("s", "self time per round: bundles loaders, formula parse, suite build"),
    "classifier_s": ("s", "self time per round: Query construction, surjectivity, class_view"),
    "compute_s": ("s", "self time per round: explain, derived, sat, audit, theory walks"),
    "render_s": ("s", "self time per round: to_json_dict + json.dumps"),
    "trace.overhead_s": ("s", "traced replay round minus untraced replay round"),
    "formulas.clauses": ("count", "clauses of one encoding of each class indicator, per round"),
    "sat.oracle_calls": ("count", "SAT oracle calls per round"),
    "sat.clauses_per_call": ("count", "mean clauses per SAT oracle call"),
}
STAGES = (
    ("ingest_s", ("bundles.", "formulas.parse", "audit.suite_build")),
    ("classifier_s", ("classifier.",)),
    ("render_s", ("cli.render",)),
)


def stage_of(span_name: str) -> str:
    for stage, prefixes in STAGES:
        if span_name.startswith(prefixes):
            return stage
    return "compute_s"


def calibration() -> float:
    """Best of five timings of a fixed pure-Python loop: how fast this
    machine runs Python just now, printed beside the metrics so that drift
    between runs can be told apart from changes of the program."""
    best = math.inf
    for _ in range(5):
        start = perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        best = min(best, perf_counter() - start)
    return best


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def report_hashes(run) -> dict[str, str]:
    out = {}
    for argv in HASHED_REPORTS:
        text, _ = run.cli_call("hash", list(argv))
        digest = "failed" if text is None else hashlib.sha256(text.encode()).hexdigest()
        out[" ".join(argv)] = digest
    run.ops.pop("hash")
    return out


def quantile90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def end_to_end(run, setup_times) -> dict[str, tuple[float, int]]:
    """name -> (value, sample count).

    Each call is compared with itself across the run and its median latency
    kept.  (The fastest latency is no steadier: on a shared machine it keeps
    falling as samples are added, so it would move with the number of rounds
    a run manages.)  The calls' medians are then combined into a geometric
    mean (a typical call) and a rate (work per second)."""
    out = {
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    for category in ("cli", "lib"):
        samples = run.samples[category]
        if not samples:
            raise RuntimeError(f"no passing {category} calls to measure")
        typical = {key: statistics.median(v) for key, v in samples.items()}
        count = sum(len(v) for v in samples.values())
        work = sum(run.work[category][key] for key in typical)
        out[f"{category}_s"] = (math.exp(statistics.fmean(math.log(t) for t in typical.values())), count)
        out[f"{category}_per_s"] = (work / sum(typical.values()), count)
    return out


def named(run, metrics: dict) -> list[str]:
    """The workload's own metrics, each over one kind of its calls.

    ``metrics`` maps a name to (unit, category, operation types, statistic):
    ``median`` over the calls of each one's median latency, ``rate`` (work
    units over the sum of those latencies), or ``p90`` of all the latencies pooled,
    given only from 100 samples on.
    """
    lines = []
    for name, (unit, category, ops, stat) in metrics.items():
        keys = [key for key, op in run.op_of[category].items() if op in ops]
        samples = [run.samples[category][key] for key in keys]
        count = sum(len(v) for v in samples)
        if stat == "p90" and count < 100:
            lines.append(f"metric {name} absent: {count} samples, fewer than 100")
            continue
        if not samples:
            lines.append(f"metric {name} absent: no passing call")
            continue
        typical = [statistics.median(v) for v in samples]
        if stat == "median":
            value = statistics.median(typical)
        elif stat == "rate":
            value = sum(run.work[category][key] for key in keys) / sum(typical)
        else:
            value = quantile90([x for v in samples for x in v])
        lines.append(f"metric {name} {value:.6g} {unit} (n={count})")
    return lines


def per_layer(tracer, rounds: int, overhead: float) -> dict[str, tuple[float, int]]:
    stages = {name: 0.0 for name in ("ingest_s", "classifier_s", "compute_s", "render_s")}
    for name, seconds in tracer.self_times().items():
        stages[stage_of(name)] += seconds
    counts = tracer.counts
    out = {name: (seconds / rounds, rounds) for name, seconds in stages.items()}
    out["trace.overhead_s"] = (overhead, rounds)
    for name in ("formulas.clauses", "sat.oracle_calls"):
        out[name] = (counts[name] / rounds, rounds)
    calls = counts["sat.oracle_calls"]
    out["sat.clauses_per_call"] = (counts["sat.clauses"] / calls if calls else 0.0, calls)
    return out


def layer_report(tracer, rounds: int, run) -> list[str]:
    """The per-module breakdown: self time per round of every span name, the
    derived rates, and the layer metrics this workload does not exercise."""
    selfs, counts = tracer.self_times(), tracer.counts
    lines = [f"  {name}_s {seconds / rounds:.6f} s (self, per round)"
             for name, seconds in sorted(selfs.items())]
    lines += [f"  {name} {counts[name] / rounds:g} count (work per round)"
              for name in ("bundles.rows", "explain.listed", "audit.pairs") if counts[name]]
    explainer = 0.0
    for name, start, end, parent, _ in tracer.spans:
        if parent >= 0 and tracer.spans[parent][0] == "audit.audit":
            explainer += end - start
    if "audit.audit" in selfs:
        lines.append(f"  audit.explainer_s {explainer / rounds:.6f} s (explainer calls inside audit)")
        lines.append(f"  audit.axioms_s {selfs['audit.audit'] / rounds:.6f} s (audit minus explainer)")
    if counts["bundles.rows"]:
        lines.append(f"  bundles.rows_per_s {counts['bundles.rows'] / selfs['bundles.load']:.1f} 1/s")
    if selfs.get("theory.walk"):
        lines.append(f"  theory.assignments_per_s {counts['theory.assignments'] / selfs['theory.walk']:.1f} 1/s")
    procedure = selfs.get("sat.find", 0.0) + selfs.get("sat.decide", 0.0)
    if procedure:
        lines.append(f"  sat.procedure_s {procedure / rounds:.6f} s (decide_exp/find_exp minus solve)")
    for name, why in ABSENT.items():
        if not any(key.startswith(name) for key in selfs):
            lines.append(f"  absent: {name} ({why})")
    return lines


ABSENT = {
    "bundles.": "no file ingest in this workload",
    "formulas.": "no formulas in this workload",
    "classifier.surjectivity": "only formula classifiers are built here (sat_formula)",
    "explain.": "no explain-layer calls in this workload",
    "derived.": "no derived-layer calls in this workload",
    "sat.": "no SAT calls in this workload",
    "audit.": "no audit in this workload",
    "classifier.core": "class cores are replayed on table_query only",
    "theory.walk": "theory walks are replayed on table_query only",
}


def fault_line(run) -> str:
    """The latency of the kept-fault operations, once they pass."""
    if run.fault_ok:
        return f"sat.wide_op_s {statistics.median(run.fault_ok):.6g} s (n={len(run.fault_ok)})"
    return "sat.wide_op_s absent: no kept-fault operation passed"


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through the clean-up below


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cfexplain" / "__init__.py").is_file():
        print(f"error: the program is missing: no {SRC / 'cfexplain'}", file=sys.stderr)
        return 2
    module = importlib.import_module(args.workload)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
        "platform": platform.platform(), "commit": commit(),
    }
    print("run " + json.dumps(record, sort_keys=True))
    print(f"machine calibration loop {calibration():.6f} s (best of 5)")
    problems = reference.self_check()

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        state = module.generate(args.seed, workdir)
        setup_times = []
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
            start = perf_counter()
            program = import_program(SRC)
            module.load(state, program)
            setup_times.append(perf_counter() - start)
        tracer = Tracer() if args.trace else NullTracer()
        run = Run(program, tracer)
        for problem in problems:
            run.check(False, "reference self-check: " + problem)
        module.prepare(state, run)
        rounds, untraced, traced = 0, 0.0, 0.0
        deadline = perf_counter() + args.seconds
        while True:
            if args.trace:
                # Alternate which replay goes first so drift hits both equally.
                order = [NullTracer(), tracer] if rounds % 2 == 0 else [tracer, NullTracer()]
                for t in order:
                    run.tracer = t
                    start = perf_counter()
                    module.replay_round(state, run)
                    elapsed = perf_counter() - start
                    if t is tracer:
                        traced += elapsed
                    else:
                        untraced += elapsed
                run.tracer = tracer
            else:
                module.cli_round(state, run)
            rounds += 1
            if perf_counter() >= deadline:
                break
        if args.trace:
            metrics = per_layer(tracer, rounds, (traced - untraced) / rounds)
            table = PER_LAYER
        else:
            metrics = end_to_end(run, setup_times)
            table = END_TO_END
        hashes = report_hashes(run)
        if args.trace:
            tracer.write(ROOT / ".bench_traces" / f"{args.workload}-seed{args.seed}.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    print(f"rounds {rounds}")
    for name, (unit, what) in table.items():
        value, samples = metrics[name]
        print(f"metric {name} {value:.6g} {unit} (n={samples}) {what}")
    if not args.trace:
        print("\n".join(named(run, module.METRICS)))
    if args.workload == "sat_formula":
        print(fault_line(run))
    if args.trace:
        print("layers (traced replay):")
        print("\n".join(layer_report(tracer, rounds, run)))
    for op, (attempted, failed, error) in sorted(run.ops.items()):
        tail = f" first error: {error}" if failed else ""
        print(f"ops {op} attempted={attempted} failed={failed}{tail}")
    for name, digest in hashes.items():
        print(f"sha256 {name}: {digest}")
    for message in run.wrong[:20]:
        print(f"wrong: {message}")
    attempted = sum(entry[0] for entry in run.ops.values())
    failed = sum(entry[1] for entry in run.ops.values())
    result = {
        "correct": not run.wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": table[name][0]} for name in table},
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if not run.wrong else 1


if __name__ == "__main__":
    sys.exit(main())
