"""Deterministic work counts of the zfdom report path.

Runs ``compute_report`` on graph6 lines and counts, with a profile hook
rather than a clock, the work of its exact searches:

- ``dp_states``: calls of ``best``, one per state the Grundy DP solves;
- ``closures``: calls of ``_closure_mask``, by calling function;
- ``td_nodes``: calls of ``extend``, one per node of the minimal TD-set search.

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
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
CORPUS = ROOT / "tests" / ".corpus_cache" / "connected_n8.g6"

# (module, function name) -> the count it feeds
_COUNTED = {
    ("zfdom.forcing", "best"): "dp_states",
    ("zfdom.forcing", "_closure_mask"): "closures",
    ("zfdom.domination", "extend"): "td_nodes",
}


def count_work(lines) -> dict:
    """The work counts of one ``compute_report`` per line."""
    from zfdom.harness import compute_report

    totals = Counter()
    closures = Counter()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            kind = _COUNTED.get((frame.f_globals.get("__name__"), code.co_name))
            if kind == "closures":
                closures[frame.f_back.f_code.co_name] += 1
            elif kind is not None:
                totals[kind] += 1

    graphs = 0
    sys.setprofile(hook)
    try:
        for line in lines:
            compute_report(line)
            graphs += 1
    finally:
        sys.setprofile(None)
    return {
        "graphs": graphs,
        "dp_states": totals["dp_states"],
        "closures": dict(sorted(closures.items())),
        "td_nodes": totals["td_nodes"],
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
