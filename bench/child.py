"""Child-process entry points of the benchmark.

    child.py setup import
    child.py setup corpus FILE              parse every graph6 line of FILE
    child.py setup family OUT SPEC...       expand family specs into OUT
    child.py catalogue ORDER WHICH...       print catalogues (WHICH: all, connected)
    child.py traced SPANS cli ARGS...       zfdom.cli.main(ARGS) with call tracing
    child.py traced SPANS catalogue ORDER WHICH...

``zfdom`` is imported from the PYTHONPATH the benchmark sets.  A traced
child stores its spans in SPANS; the environment variable BENCH_SPAWNED_NS
carries the parent's monotonic clock reading taken just before the spawn.
"""

from __future__ import annotations

import os
import sys
import time

CATALOGUES = {"all": "graphs_upto_iso", "connected": "connected_graphs_upto_iso"}


def setup(mode: str, args: list[str]) -> int:
    import zfdom

    if mode == "corpus":
        with open(args[0], encoding="ascii") as handle:
            for line in handle:
                zfdom.parse_graph6(line.strip())
    elif mode == "family":
        lines = [zfdom.emit_graph6(zfdom.parse_family_spec(spec).graph) + "\n"
                 for spec in args[1:]]
        with open(args[0], "w", encoding="ascii") as handle:
            handle.writelines(lines)
    elif mode != "import":
        raise SystemExit(f"unknown setup mode {mode!r}")
    return 0


def catalogue(order: str, which: list[str]) -> int:
    from zfdom import _smallgraphs

    out = sys.stdout
    for name in which:
        graphs = getattr(_smallgraphs, CATALOGUES[name])(int(order))
        out.write(f"# {name} {len(graphs)}\n")
        out.writelines(" ".join(map(str, g.adj)) + "\n" for g in graphs)
    return 0


def traced(spans_path: str, target: str, args: list[str]) -> int:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    entered = time.monotonic()
    if target == "cli":
        import zfdom.cli

        code = zfdom.cli.main(args)
    else:
        code = catalogue(args[0], args[1:])
    sys.stdout.flush()
    # the parent read the same monotonic clock just before the spawn
    tracer.write(spans_path, entered - int(os.environ["BENCH_SPAWNED_NS"]) / 1e9)
    return code


def main(argv: list[str]) -> int:
    command, rest = argv[0], argv[1:]
    if command == "setup":
        return setup(rest[0], rest[1:])
    if command == "catalogue":
        return catalogue(rest[0], rest[1:])
    if command == "traced":
        return traced(rest[0], rest[1], rest[2:])
    raise SystemExit(f"unknown command {command!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
