"""Warm-session server: one long-lived process answering library requests.

Reads one JSON request per line on stdin and writes one JSON answer per line
on stdout, until stdin closes.  Run by run.py; not meant to be used alone.
"""

from __future__ import annotations

import json
import sys

from ops import NullTracer, serve


def main() -> None:
    requests = (json.loads(line) for line in iter(sys.stdin.readline, ""))
    for _, answer in serve(requests, NullTracer()):
        sys.stdout.write(json.dumps(answer) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
