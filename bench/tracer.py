"""Call tracing for zfdom from outside the package.

``Tracer.install`` replaces every public function of the traced modules, in
every ``zfdom`` module namespace that binds it, by a wrapper that records a
span: function name, start, end, parent span and the index of the graph
being processed.  Spans stay in memory and ``Tracer.write`` stores them at
the end of the process; ``load_spans`` and ``summarize`` turn a span file
back into per-function call counts and self times.

A generator function is timed across its iteration: every resume of the
generator is one span, so its self time is the time spent producing items,
not the consumer's work between them.  Its call count still counts calls.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

TRACED_MODULES = (
    "zfdom.graphs",
    "zfdom.forcing",
    "zfdom.domination",
    "zfdom.powerdom",
    "zfdom.constructions",
    "zfdom.harness",
    "zfdom._smallgraphs",
    "zfdom.cli",
)

# bits() is the bitmask iterator the kernels call about a thousand times per
# graph; a span per resume would cost more than the work it measures.
UNTRACED = frozenset({"zfdom.graphs.bits"})

# Entering one of these starts the next graph; a generator listed here starts
# one with every item it yields.
GRAPH_STARTS = frozenset({"zfdom.harness.compute_report"})
GRAPH_YIELDS = frozenset({"zfdom.graphs.enumerate_labeled_graphs"})


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_graph = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.graph = -1

    def install(self) -> None:
        """Import the traced modules and wrap their public functions."""
        import zfdom  # noqa: F401  (imports every traced module but two)
        import zfdom._smallgraphs  # noqa: F401
        import zfdom.cli  # noqa: F401

        wrappers = {}
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "zfdom" or name.startswith("zfdom."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                qualified = f"{value.__module__}.{value.__qualname__}"
                if value.__module__ not in TRACED_MODULES or qualified in UNTRACED:
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(value, qualified)
                setattr(module, attr, wrappers[value])

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        return len(self.names) - 1

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        calls = self.calls
        stack = self.stack
        starts, ends = self.span_start, self.span_end
        add_name, add_parent = self.span_name.append, self.span_parent.append
        add_graph, add_start, add_end = self.span_graph.append, starts.append, ends.append
        clock = time.perf_counter

        def open_span() -> int:
            idx = len(starts)
            add_name(nid)
            add_parent(stack[-1])
            add_graph(self.graph)
            add_end(0.0)
            stack.append(idx)
            add_start(clock())
            return idx

        if inspect.isgeneratorfunction(fn):
            starts_graph = name in GRAPH_YIELDS

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                calls[nid] += 1
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        idx = open_span()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            ends[idx] = clock()
                            stack.pop()
                        if starts_graph:
                            self.graph += 1
                        yield item
                finally:
                    inner.close()

            return traced_generator

        starts_graph = name in GRAPH_STARTS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[nid] += 1
            if starts_graph:
                self.graph += 1
            idx = open_span()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def write(self, path: str, startup_s: float) -> None:
        """Store the spans as ``path`` (JSON header) and ``path.bin`` (arrays)."""
        header = {
            "names": self.names,
            "calls": self.calls,
            "spans": len(self.span_start),
            "graphs": self.graph + 1,
            "startup_s": startup_s,
        }
        with open(path, "w", encoding="ascii") as handle:
            json.dump(header, handle)
        with open(path + ".bin", "wb") as handle:
            for arr in (self.span_name, self.span_parent, self.span_graph,
                        self.span_start, self.span_end):
                arr.tofile(handle)


def load_spans(path: str) -> dict:
    """Read a span file written by ``Tracer.write``."""
    with open(path, encoding="ascii") as handle:
        header = json.load(handle)
    count = header["spans"]
    arrays = []
    with open(path + ".bin", "rb") as handle:
        for code in "iiidd":
            arr = array(code)
            arr.fromfile(handle, count)
            arrays.append(arr)
    header["span_name"], header["span_parent"], header["span_graph"], \
        header["span_start"], header["span_end"] = arrays
    return header


def summarize(trace: dict) -> dict:
    """Per-function calls, self and inclusive seconds, and span durations.

    Self time is a span's duration minus the durations of its child spans;
    spans nest strictly, so children never overlap each other.  Inclusive
    time sums the spans that have no ancestor of the same function.
    """
    names = trace["names"]
    name_of = trace["span_name"]
    parent_of = trace["span_parent"]
    start = trace["span_start"]
    end = trace["span_end"]
    count = len(start)
    duration = [end[i] - start[i] for i in range(count)]
    child = [0.0] * count
    for i in range(count):
        p = parent_of[i]
        if p >= 0:
            child[p] += duration[i]
    self_s = [0.0] * len(names)
    incl_s = [0.0] * len(names)
    spans_by_name: dict[int, list[float]] = {}
    for i in range(count):
        nid = name_of[i]
        self_s[nid] += duration[i] - child[i]
        spans_by_name.setdefault(nid, []).append(duration[i])
        p = parent_of[i]
        while p >= 0 and name_of[p] != nid:
            p = parent_of[p]
        if p < 0:
            incl_s[nid] += duration[i]
    return {
        "calls": dict(zip(names, trace["calls"])),
        "self_s": dict(zip(names, self_s)),
        "incl_s": dict(zip(names, incl_s)),
        "durations": {names[nid]: d for nid, d in spans_by_name.items()},
        "root_s": sum(duration[i] for i in range(count) if parent_of[i] < 0),
        "graphs": trace["graphs"],
        "startup_s": trace["startup_s"],
    }
