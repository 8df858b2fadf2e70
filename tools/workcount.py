"""Deterministic work counts of the zfdom report path.

Runs ``compute_report`` on graph6 lines and reads, from the package's
work meter rather than a clock, the work of its exact searches:

- ``dp_states``: the states the Grundy DP solves;
- ``closures``: the closures the Z and power domination searches run, by
  the function that runs them;
- ``td_nodes``: the nodes of the minimal TD-set search.

The counts depend only on the code and the input, not on the machine.
Prints one JSON line.  Standard library only; zfdom is imported from the
``src`` directory next to this one.

Usage: python3 tools/workcount.py [graph6 file] [--every K]

The default input is every 20th line of ``tests/.corpus_cache/connected_n8.g6``,
the connected n = 8 catalogue that the test suite caches.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
CORPUS = ROOT / "tests" / ".corpus_cache" / "connected_n8.g6"


def count_work(lines) -> dict:
    """The work counts of one ``compute_report`` per line."""
    from zfdom.graphs import _meter
    from zfdom.harness import compute_report

    before = dict(_meter.counts)
    for line in lines:
        compute_report(line)
    work = {kind: count - before.get(kind, 0) for kind, count in _meter.counts.items()}
    return {
        "graphs": len(lines),
        "dp_states": work.get("dp_states", 0),
        "closures": {
            kind.removeprefix("closures:"): count
            for kind, count in sorted(work.items())
            if kind.startswith("closures:") and count
        },
        "td_nodes": work.get("td_nodes", 0),
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("path", nargs="?", type=pathlib.Path, default=CORPUS)
    parser.add_argument("--every", type=int, default=20, help="count every K-th line (default 20)")
    args = parser.parse_args(argv)
    if args.every < 1:
        parser.error("--every must be at least 1")
    if not args.path.exists():
        parser.error(f"{args.path} not found; the test suite writes the default corpus")
    lines = [line.strip() for line in args.path.read_text(encoding="ascii").splitlines()]
    lines = [line for line in lines if line][:: args.every]
    sys.path.insert(0, str(ROOT / "src"))
    print(json.dumps(count_work(lines), sort_keys=False))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
