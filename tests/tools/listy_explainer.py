#!/usr/bin/env python3
"""External explainer whose every response is malformed in one way.

    listy_explainer.py list       answers "explanations": [["t", "hot"]]
    listy_explainer.py object     answers "explanations": {"t": "hot"}
    listy_explainer.py truncated  answers "truncated": "no"
    listy_explainer.py kind       answers "kind": ["a"]
    listy_explainer.py twice      answers the blank explanation twice
    listy_explainer.py repeated   answers "explanations" twice, the last one empty
    listy_explainer.py deep       answers an array nested 100,000 deep
"""

import json
import sys

RESPONSES = {
    "list": {"kind": "x", "explanations": [["t", "hot"]]},
    "object": {"kind": "x", "explanations": {"t": "hot"}},
    "truncated": {"kind": "x", "explanations": [], "truncated": "no"},
    "kind": {"kind": ["a"], "explanations": []},
    "twice": {"kind": "x", "explanations": [{}, {}]},
}
RESPONSES = {shape: json.dumps(response) for shape, response in RESPONSES.items()}
RESPONSES["repeated"] = '{"kind": "x", "explanations": [{"t": "hot"}], "explanations": []}'
RESPONSES["deep"] = "[" * 100_000 + "]" * 100_000


def main() -> int:
    response = RESPONSES[sys.argv[1]]
    for line in sys.stdin:
        if not line.strip():
            continue
        json.loads(line)  # must be a well-formed query
        sys.stdout.write(response + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
