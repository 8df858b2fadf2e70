"""Deterministic work counts of the zfdom report and hunt paths.

Runs ``compute_report`` on graph6 lines, or one labeled ``hunt_extremal``,
and reads, from the package's work meter rather than a clock, the work of
its exact searches:

- ``dp_states``: the states the Grundy DP solves;
- ``closures``: the closures the Z and power domination searches run, by
  the function that runs them;
- ``td_nodes``: the nodes of the minimal TD-set search.

The counts depend only on the code and the input, not on the machine.
Prints one JSON line.  Standard library only; zfdom is imported from the
``src`` directory next to this one.

Usage: python3 tools/workcount.py [graph6 file] [--every K]
       python3 tools/workcount.py --hunt PREDICATE [--n N]

The default input is every 20th line of ``tests/.corpus_cache/connected_n8.g6``,
the connected n = 8 catalogue that the test suite caches.  With ``--hunt``
the counts are those of ``zfdom hunt --predicate PREDICATE --n N`` (default
N = 5), after the number of its hits.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
CORPUS = ROOT / "tests" / ".corpus_cache" / "connected_n8.g6"


def _meter_work(action) -> dict:
    """The meter's counts of the work that ``action()`` does."""
    from zfdom.graphs import _meter

    before = dict(_meter.counts)
    action()
    work = {kind: count - before.get(kind, 0) for kind, count in _meter.counts.items()}
    return {
        "dp_states": work.get("dp_states", 0),
        "closures": {
            kind.removeprefix("closures:"): count
            for kind, count in sorted(work.items())
            if kind.startswith("closures:") and count
        },
        "td_nodes": work.get("td_nodes", 0),
    }


def count_work(lines) -> dict:
    """The work counts of one ``compute_report`` per line."""
    from zfdom.harness import compute_report

    work = _meter_work(lambda: [compute_report(line) for line in lines])
    return {"graphs": len(lines), **work}


def count_hunt(predicate: str, n: int) -> dict:
    """The work counts of one labeled hunt on ``n`` vertices."""
    from zfdom.harness import hunt_extremal

    hits: list = []
    work = _meter_work(lambda: hits.extend(hunt_extremal(predicate, n=n)))
    return {"hits": len(hits), **work}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("path", nargs="?", type=pathlib.Path)
    parser.add_argument("--every", type=int, default=20, help="count every K-th line (default 20)")
    parser.add_argument("--hunt", metavar="PREDICATE", help="count one labeled hunt instead")
    parser.add_argument("--n", type=int, default=5, help="the hunt's order (default 5)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    if args.hunt is not None:
        if args.path is not None:
            parser.error("--hunt takes no graph6 file")
        try:
            work = count_hunt(args.hunt, args.n)
        except ValueError as exc:  # an unknown predicate or an unsupported order
            parser.error(str(exc))
        print(json.dumps(work))
        return 0
    if args.every < 1:
        parser.error("--every must be at least 1")
    path = CORPUS if args.path is None else args.path
    if not path.exists():
        parser.error(f"{path} not found; the test suite writes the default corpus")
    lines = [line.strip() for line in path.read_text(encoding="ascii").splitlines()]
    lines = [line for line in lines if line][:: args.every]
    print(json.dumps(count_work(lines), sort_keys=False))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
