"""In-memory spans around the benchmark's calls into each layer.

A span is [name, start, end, parent index, operation id].  Spans are kept in
a list while the run lasts and written out once it ends.  A span's self time
is its duration minus the durations of its direct children; spans of one
thread nest, so the children never overlap.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter


class Tracer:
    """Records spans and work counts."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.op = 0

    def new_op(self) -> None:
        self.op += 1

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] += k

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, child):
            out[name] += end - start - inner
        return dict(out)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            handle.write('{"fields": ["name", "start", "end", "parent", "op"], "spans": [\n')
            for i, span in enumerate(self.spans):
                handle.write(("," if i else "") + json.dumps(span) + "\n")
            handle.write('], "counts": ' + json.dumps(dict(self.counts), sort_keys=True) + "}\n")


class NullTracer:
    """The same interface, recording nothing: the untraced baseline."""

    enabled = False
    op = 0

    def new_op(self) -> None:
        pass

    def begin(self, name: str) -> int:
        return 0

    def end(self, index: int) -> None:
        pass

    def count(self, name: str, k: int = 1) -> None:
        pass
