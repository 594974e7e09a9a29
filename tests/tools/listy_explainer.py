#!/usr/bin/env python3
"""External explainer whose explanations are not JSON objects.

    listy_explainer.py list     answers "explanations": [["t", "hot"]]
    listy_explainer.py object   answers "explanations": {"t": "hot"}
"""

import json
import sys

SHAPES = {"list": [["t", "hot"]], "object": {"t": "hot"}}


def main() -> int:
    explanations = SHAPES[sys.argv[1]]
    for line in sys.stdin:
        if not line.strip():
            continue
        json.loads(line)  # must be a well-formed query
        sys.stdout.write(json.dumps({"kind": "x", "explanations": explanations}) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
