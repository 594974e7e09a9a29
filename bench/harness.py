"""What every workload shares: the program handle, calls, counts and checks."""

from __future__ import annotations

import importlib
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

MODULES = ("audit", "bundles", "classifier", "cli", "derived", "explain", "formulas", "sat", "theory")


def import_program(src: Path) -> SimpleNamespace:
    """A fresh import of cfexplain from ``src``, its modules as attributes.

    Earlier imports are dropped first, so each call pays the full import and
    starts with empty module-level caches, as a new process would.
    """
    for name in [m for m in sys.modules if m == "cfexplain" or m.startswith("cfexplain.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    importlib.invalidate_caches()
    return SimpleNamespace(**{m: importlib.import_module(f"cfexplain.{m}") for m in MODULES})


FAILED = object()


def first_line(text: str) -> str:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    return lines[0][:200] if lines else ""


class Run:
    """Operation counts, latency samples and correctness findings of one run."""

    def __init__(self, program: SimpleNamespace, tracer):
        self.program = program
        self.tracer = tracer
        self.ops: dict[str, list] = {}  # type -> [attempted, failed, first error]
        # latencies of passing calls per category ("cli", "lib") and key, so
        # that each call is compared with itself across the run; work units
        # and operation type per key
        self.samples: dict[str, dict] = {"cli": {}, "lib": {}}
        self.work: dict[str, dict] = {"cli": {}, "lib": {}}
        self.op_of: dict[str, dict] = {"cli": {}, "lib": {}}
        self.fault_ok: list[float] = []  # kept-fault operations that pass
        self.wrong: list[str] = []

    def sample(self, category: str, op: str, key, seconds: float, work: int = 1) -> None:
        """One passing call's latency.  ``key`` names the call, the same in
        every round and for every repeat within a round; ``work`` units count
        toward the rate."""
        self.samples[category].setdefault(key, []).append(seconds)
        self.work[category][key] = work
        self.op_of[category][key] = op

    def record(self, op: str, error: str | None) -> bool:
        entry = self.ops.setdefault(op, [0, 0, ""])
        entry[0] += 1
        if error is not None:
            entry[1] += 1
            entry[2] = entry[2] or error
        return error is None

    def check(self, ok: bool, message: str) -> None:
        if not ok and len(self.wrong) < 1000:
            self.wrong.append(message)

    def cli_call(self, op: str, argv: list[str]) -> tuple[str | None, float]:
        """Run ``cfexplain.cli.main(argv)`` in-process; (stdout or None, seconds).

        An exit code other than 0, or an exception escaping ``main``, fails the
        operation; its first error line is kept.
        """
        out, err = io.StringIO(), io.StringIO()
        error = None
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.program.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an escaping exception is what is being counted
            code = None
            error = first_line(f"{type(exc).__name__}: {exc}")
        elapsed = perf_counter() - start
        if error is None and code != 0:
            error = first_line(err.getvalue()) or f"exit code {code}"
        self.record(op, error)
        return (out.getvalue() if error is None else None), elapsed

    def call(self, op: str, fn) -> tuple:
        """Run one library operation: (its result, or FAILED when it raised;
        seconds).  Each call starts a new operation id for the spans."""
        self.tracer.new_op()
        start = perf_counter()
        try:
            result = fn()
        except Exception as exc:  # counted as a failed operation, as on the CLI path
            self.record(op, first_line(f"{type(exc).__name__}: {exc}"))
            return FAILED, perf_counter() - start
        elapsed = perf_counter() - start
        self.record(op, None)
        return result, elapsed


class Span:
    """``with Span(tracer, name):`` around one call into a layer."""

    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.index = self.tracer.begin(self.name)

    def __exit__(self, *exc):
        self.tracer.end(self.index)
        return False


def interleave(anchors: list, fillers: list) -> list:
    """``fillers`` cut into ``len(anchors) + 1`` runs of nearly equal length
    and set between the anchors, order kept within each list.  Spreading
    the short calls over a round puts them in many time windows, so that a
    slow spell of the machine hits few of them."""
    cuts = len(anchors) + 1
    out = []
    for i in range(cuts):
        out += fillers[len(fillers) * i // cuts:len(fillers) * (i + 1) // cuts]
        if i < len(anchors):
            out.append(anchors[i])
    return out


def read(path: Path) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()
