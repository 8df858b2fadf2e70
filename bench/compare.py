"""Compare the benchmark results of two commits.

    python3 bench/compare.py parent.jsonl change.jsonl

Each file holds the results ``run.py --record`` appended, ideally ten or
more runs per workload, made in alternation with the other commit.  For
every workload and metric this prints both medians with their quartiles,
the pair win rate of the change (the i-th run of one file against the i-th
of the other, ties counting for neither side) and a verdict:

- improved: the change wins at least nine tenths of the pairs and the
  medians differ by more than the parent's interquartile range;
- worse: the change's median is worse than the parent's by more than the
  metric's bound (for a metric without a bound, the improved rule mirrored);
- unresolved: the parent's own spread exceeds the bound and not every
  change run is better than every parent run, or, without a bound, neither
  of the above;
- no worse: otherwise; unchanged when every value of both sides is equal.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict:
    """{(workload, metric): [values in run order]} of one results file."""
    out: dict = {}
    with open(path, encoding="ascii") as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                for metric, value in record["result"]["metrics"].items():
                    out.setdefault((record["workload"], metric), []).append(value["value"])
    return out


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list, change: list, higher_better: bool, bound) -> tuple[str, float]:
    sign = 1 if higher_better else -1
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    losses = sum(sign * (c - p) < 0 for p, c in pairs)
    p1, pmed, p3 = quartiles(parent)
    cmed = statistics.median(change)
    gain = sign * (cmed - pmed)
    spread = p3 - p1
    if parent == change and len(set(parent)) <= 1:
        return "unchanged", wins / len(pairs)
    if wins >= 0.9 * len(pairs) and gain > spread:
        return "improved", wins / len(pairs)
    if bound is None:
        worse = losses >= 0.9 * len(pairs) and -gain > spread
        return ("worse" if worse else "unresolved"), wins / len(pairs)
    if -gain > bound * abs(pmed):
        return "worse", wins / len(pairs)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound * abs(pmed) and not all_better:
        return "unresolved", wins / len(pairs)
    return "no worse", wins / len(pairs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare two benchmark result files")
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load(args.parent), load(args.change)
    print(f"{'workload':14} {'metric':58} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'n':>3} {'win':>5}  verdict")
    for key in sorted(parent.keys() & change.keys()):
        workload, name = key
        meta = metrics.get(name)
        if meta is None:
            continue
        p, c = parent[key], change[key]
        n = min(len(p), len(c))
        result, win = verdict(p[:n], c[:n], meta["better"] == "higher", meta.get("bound"))
        pq, cq = quartiles(p), quartiles(c)
        print(f"{workload:14} {name:58} "
              f"{pq[1]:12.6g} [{pq[0]:9.6g}, {pq[2]:9.6g}] "
              f"{cq[1]:12.6g} [{cq[0]:9.6g}, {cq[2]:9.6g}] {n:3d} {win:5.2f}  {result}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
