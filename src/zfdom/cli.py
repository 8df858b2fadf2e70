"""Command line front end.

Subcommands: ``run`` verifies a graph6 corpus, ``hunt`` searches for
extremal graphs, ``explain`` prints one invariant with its certificate, and
``family`` emits a named family instance as graph6.  Exit codes: 0 clean,
1 when any theorem check reports a violation, 2 for usage or input errors.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from collections.abc import Iterator

from .graphs import Graph6Error, UnsupportedSizeError, emit_graph6, parse_graph6
from .harness import _EXPLAIN_NAMES, CHECK_ORDER, PREDICATES, explain, hunt_extremal, run_corpus


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zfdom",
        description="Exact zero forcing, Grundy domination, total and power "
        "domination invariants for small graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="verify a graph6 corpus line by line")
    run.add_argument("input", nargs="?", default="-", help="graph6 file, - for stdin")
    run.add_argument(
        "--checks",
        help="comma-separated subset of: " + ", ".join(CHECK_ORDER),
    )
    run.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    run.add_argument("--budget-ms", type=int, default=None, metavar="MS",
                     help="per-graph time budget; a check needing a solver past it reports 'timeout'")
    run.add_argument("--jobs", type=int, default=1, help="parallel workers")

    hunt = sub.add_parser("hunt", help="emit graphs matching an extremal predicate")
    hunt.add_argument("--predicate", required=True, choices=sorted(PREDICATES))
    hunt.add_argument("--n", type=int, help="built-in labeled enumeration size (n <= 6)")
    hunt.add_argument("--input", help="external graph6 corpus file instead of --n")

    expl = sub.add_parser("explain", help="print one invariant with a certificate")
    expl.add_argument("graph6")
    expl.add_argument("invariant", help="one of: " + _EXPLAIN_NAMES)

    fam = sub.add_parser("family", help="emit a family instance as graph6")
    fam.add_argument("spec", help="e.g. windmill:3,2  doubleclique:3  gstar:<graph6>  hext:<graph6>:2,2")
    fam.add_argument("--expected", action="store_true",
                     help="also print the claimed invariant values as JSON")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "hunt":
            return _cmd_hunt(args)
        if args.command == "explain":
            print(explain(args.graph6, args.invariant), end="")
            return 0
        if args.command == "family":
            from .families import parse_family_spec  # only this command builds families

            instance = parse_family_spec(args.spec)
            print(emit_graph6(instance.graph))
            if args.expected:
                print(json.dumps({
                    "family": instance.spec_string(),
                    "expected": [
                        {"invariant": e.invariant, "relation": e.relation,
                         "value": e.value, "provenance": e.provenance}
                        for e in instance.expected
                    ],
                }))
            return 0
    except (Graph6Error, UnsupportedSizeError, ValueError, OSError) as exc:
        print(f"zfdom: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


@contextlib.contextmanager
def _input_lines(path: str) -> Iterator[io.TextIOWrapper]:
    """The lines of a graph6 file, or of stdin for ``-``, read lazily as ASCII.

    A line is available as soon as it arrives, so ``run`` reports on a pipe
    before the writer closes it.  A non-ASCII byte becomes a lone surrogate,
    which no graph6 text contains, so only its own line fails to parse, at
    the byte's own offset.  Stdin is left open.
    """
    decoding = {"encoding": "ascii", "errors": "surrogateescape", "newline": None}
    if path != "-":
        with open(path, **decoding) as lines:
            yield lines
        return
    lines = io.TextIOWrapper(sys.stdin.buffer, **decoding)
    try:
        yield lines
    finally:
        lines.detach()


def _cmd_run(args) -> int:
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    if args.budget_ms is not None and args.budget_ms < 0:
        raise ValueError("--budget-ms must not be negative")
    checks = None if args.checks is None else args.checks.split(",")
    with _input_lines(args.input) as lines:
        summary = run_corpus(
            lines,
            sys.stdout,
            checks=checks,
            fmt=args.format,
            budget_ms=args.budget_ms,
            jobs=args.jobs,
        )
    print(json.dumps(summary.to_json()), file=sys.stderr)
    return summary.exit_code


def _cmd_hunt(args) -> int:
    if (args.n is None) == (args.input is None):
        print("zfdom: hunt needs exactly one of --n or --input", file=sys.stderr)
        return 2
    bad_lines: list[int] = []
    graphs = None if args.input is None else _parsed_graphs(args.input, bad_lines)
    for hit in hunt_extremal(args.predicate, n=args.n, graphs=graphs):
        # flushed, so a reader on a pipe sees each hit at once
        print(json.dumps(hit, separators=(",", ":")), flush=True)
    return 2 if bad_lines else 0


def _parsed_graphs(path: str, bad_lines: list[int]):
    """The graphs of a graph6 file's good lines, each parsed as it is read;
    each bad line is reported when it is read and its number kept in ``bad_lines``."""
    with _input_lines(path) as lines:
        for number, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                yield parse_graph6(line.strip())
            except (Graph6Error, UnsupportedSizeError) as exc:
                bad_lines.append(number)
                print(f"zfdom: line {number}: {exc}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
