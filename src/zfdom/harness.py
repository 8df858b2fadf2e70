"""Corpus verification: per-graph invariants, theorem verdicts, reports.

Reads graph6 lines, computes every exact invariant, and checks each
implemented theorem on each graph.  A theorem whose hypothesis a graph does
not meet gets the verdict ``precondition-not-met`` rather than ``holds``;
any ``VIOLATION`` fails the whole run through the exit code.  Reports are
emitted in input order with a fixed field layout, so identical input
streams produce byte-identical output.
"""

from __future__ import annotations

import collections
import csv
import functools
import io
import itertools
import json
from dataclasses import dataclass, field

from . import constructions, domination, forcing, powerdom
from .graphs import (
    Graph,
    Graph6Error,
    UnsupportedSizeError,
    VertexSet,
    _OutOfTime,
    _meter,
    _twin_seed,
    bits,
    delete_vertex,
    emit_graph6,
    enumerate_labeled_graphs,
    has_clique_component,
    is_chordal,
    is_clique,
    is_connected,
    parse_graph6,
    simplicial_vertices,
)

HOLDS = "holds"
VIOLATION = "VIOLATION"
PRECONDITION = "precondition-not-met"
TIMEOUT = "timeout"


class _Unknown(Exception):
    """An invariant is undefined on the graph."""


# Solvers are looked up on their modules at call time, so a patched or
# traced module attribute sees every call.  The flag marks the invariants
# that are undefined on graphs with isolated vertices.
_SOLVERS = {
    "zero_forcing": (lambda g: forcing.zero_forcing_number(g), False),
    "zgrundy": (lambda g: forcing.z_grundy_number(g), False),
    "grundy_total": (lambda g: forcing.grundy_total_number(g), True),
    "gamma_t": (lambda g: domination.total_domination_number(g), True),
    "upper_gamma_t": (lambda g: domination.upper_total_domination_number(g), True),
    "gamma_p": (lambda g: powerdom.power_domination_number(g), False),
}

INVARIANT_ORDER = ("n", "m", "min_degree", *_SOLVERS)


class _Facts:
    """The invariants of one graph, each solved at most once with its witness.

    Every solver run, a check's own included, goes through ``run``, which
    raises ``_OutOfTime`` rather than start after the work meter's deadline;
    a solver that has started raises it at its next loop step.  The graph's
    connectivity and simplicial vertices are found on first use, once.
    """

    def __init__(self, g: Graph):
        self.g = g
        self.isolate_free = all(g.adj)
        self._solved: dict[str, tuple] = {}

    def run(self, solver, *args):
        _meter.check()
        return solver(*args)

    def solve(self, name: str) -> tuple:
        """(value, witness); raises ``_Unknown`` where the invariant is undefined."""
        solver, needs_isolate_free = _SOLVERS[name]
        if needs_isolate_free and not self.isolate_free:
            raise _Unknown
        if name not in self._solved:
            self._solved[name] = self.run(solver, self.g)
        return self._solved[name]

    def value(self, name: str):
        return self.solve(name)[0]

    @functools.cached_property
    def connected(self) -> bool:
        return is_connected(self.g)

    @functools.cached_property
    def simplicial(self) -> VertexSet:
        return simplicial_vertices(self.g)


# The one definition of each extremal property.  The first two read the
# isolate-free invariant first, so a hunt runs no solver where it is undefined.
_FLAGS = {
    "zgrundy_eq_gamma_t": lambda f: f.value("gamma_t") == f.value("zgrundy"),
    "upper_total_eq_twice_zgrundy":
        lambda f: f.value("upper_gamma_t") == 2 * f.value("zgrundy"),
    "z_eq_min_degree":
        lambda f: f.value("zero_forcing") == f.g.min_degree() if f.g.n else None,
    "gamma_t_eq_zgrundy_eq_3": lambda f: (f.value("zgrundy"), f.value("gamma_t")) == (3, 3),
    "chordal": lambda f: is_chordal(f.g),
    "has_simplicial": lambda f: bool(f.simplicial),
}

FLAG_ORDER = tuple(_FLAGS)


def _require(ok) -> None:
    """Fail the check's precondition unless ``ok``, as an undefined invariant does."""
    if not ok:
        raise _Unknown


def _construct(f: _Facts, construction, *args):
    """``construction``'s validated sequence, or None where a step of its proof fails."""
    try:
        return f.run(construction, f.g, *args)
    except AssertionError:
        return None


def _min_degree_bound(f: _Facts, z) -> bool:
    _require(f.g.n)
    return z >= f.g.min_degree()


def _total_domination_bound(f: _Facts, zg, gt) -> bool:
    _require(f.g.n and not has_clique_component(f.g))
    seq = _construct(f, constructions.z_sequence_from_gamma_t)
    return seq is not None and zg >= gt and len(seq) == gt


def _upper_total_bound(f: _Facts, zg, gt, upper) -> bool:
    _require(f.g.n)
    if not gt <= upper <= 2 * zg:
        return False
    seq = _construct(f, constructions.half_z_sequence_from_minimal_td, f.solve("upper_gamma_t")[1])
    return seq is not None and 2 * len(seq) >= upper


def _two_characterization(f: _Facts, zg, gt) -> bool:
    g = f.g
    _require(f.connected and g.n >= 2 and not is_clique(g, g.full_set()))
    return (gt == 2 and zg == 2) == constructions.non_twin_pairs_see_all(g)


def _simplicial_three_three(f: _Facts, *_) -> bool:
    _require(f.connected and f.simplicial)
    return not _FLAGS["gamma_t_eq_zgrundy_eq_3"](f)


def _simplicial_deletion(f: _Facts, zg, gt) -> bool:
    # deleting either of two twins leaves isomorphic graphs, and a twin
    # of a simplicial vertex is simplicial: keep the highest of each class
    kept = f.simplicial.mask & ~_twin_seed(f.g)
    subgraphs = [delete_vertex(f.g, u) for u in bits(kept)]
    subgraphs = [h for h in subgraphs if all(h.adj)]
    _require(subgraphs)
    for h in subgraphs:
        sub_zg = len(f.run(forcing._grundy_sequence, h, h.cadj))
        sub_gt = f.run(domination._gamma_t_value, h)
        if not (zg - 1 <= sub_zg <= zg and gt - 1 <= sub_gt <= gt):
            return False
    return True


def _min_degree_extremal(f: _Facts, z) -> bool:
    # the one-vertex graph is a genuine degenerate exception: a degree-0
    # vertex power dominates it although Z = 1 > 0 = min degree
    _require(f.g.n >= 2)
    return (z == f.g.min_degree()) == f.run(powerdom.z_equals_delta, f.g)[0]


def _parallel_paths(f: _Facts, gp) -> bool:
    _require(f.g.n)
    # the verdict needs one validated hub, not all of them
    recognized = f.run(lambda h: next(powerdom._validated_hubs(h), None) is not None, f.g)
    return (gp == 1) == recognized


# The one definition of each theorem check, in report order: the invariants
# it reads, and its claim on their values.  A claim tests the theorem's
# hypotheses with ``_require`` and runs every further solver through ``f.run``.
_CHECKS = {
    "duality": (("zero_forcing", "zgrundy"), lambda f, z, zg: z + zg == f.g.n),
    "min_degree_bound": (("zero_forcing",), _min_degree_bound),
    "total_domination_bound": (("zgrundy", "gamma_t"), _total_domination_bound),
    "upper_total_bound": (("zgrundy", "gamma_t", "upper_gamma_t"), _upper_total_bound),
    "two_characterization": (("zgrundy", "gamma_t"), _two_characterization),
    "simplicial_three_three": (("zgrundy", "gamma_t"), _simplicial_three_three),
    "simplicial_deletion": (("zgrundy", "gamma_t"), _simplicial_deletion),
    "min_degree_extremal": (("zero_forcing",), _min_degree_extremal),
    "parallel_paths": (("gamma_p",), _parallel_paths),
}

CHECK_ORDER = tuple(_CHECKS)


def _or_none(read, *args):
    """``read(*args)``, or None where it needs an invariant that is unknown."""
    try:
        return read(*args)
    except (_Unknown, _OutOfTime):
        return None


def _selected_checks(checks) -> tuple:
    """The checks to run, all of them for None; a bad selection raises ValueError."""
    selected = CHECK_ORDER if checks is None else tuple(checks)
    for i, name in enumerate(selected):
        if name not in CHECK_ORDER:
            raise ValueError(f"unknown check {name!r}")
        if name in selected[:i]:
            raise ValueError(f"check {name!r} is selected twice")
    return selected


def compute_report(line: str, checks=None, budget_ms: int | None = None) -> dict:
    """One JSON-ready report for one graph6 line."""
    selected = _selected_checks(checks)
    try:
        g = parse_graph6(line)
    except (Graph6Error, UnsupportedSizeError) as exc:
        # an undecodable input byte is echoed as a backslash escape, keeping output ASCII
        shown = line.encode("utf-8", "surrogateescape").decode("ascii", "backslashreplace")
        return {"graph6": shown, "error": str(exc)}

    facts = _Facts(g)
    inv = {"n": g.n, "m": g.edge_count(), "min_degree": g.min_degree()}
    with _meter.budget(budget_ms):
        inv.update((name, _or_none(facts.value, name)) for name in _SOLVERS)
        return {
            "graph6": line,
            "invariants": inv,
            "verdicts": {name: _run_check(name, facts) for name in CHECK_ORDER if name in selected},
            "flags": {name: _or_none(flag, facts) for name, flag in _FLAGS.items()},
        }


def _run_check(name: str, f: _Facts) -> str:
    """One verdict; ``timeout`` when a solver the check asked for is out of time.

    The check's invariants are read before its claim runs, so one that is
    undefined on the graph fails its preconditions.
    """
    reads, claim = _CHECKS[name]
    try:
        values = [f.value(invariant) for invariant in reads]
        return HOLDS if claim(f, *values) else VIOLATION
    except _OutOfTime:
        return TIMEOUT
    except _Unknown:
        return PRECONDITION


@dataclass
class CorpusSummary:
    graphs: int = 0
    parse_failures: int = 0
    violations: int = 0
    timeouts: int = 0
    verdict_counts: dict = field(default_factory=dict)
    flag_counts: dict = field(default_factory=dict)
    failed_lines: list = field(default_factory=list)

    def absorb(self, report: dict) -> None:
        self.graphs += 1
        if "error" in report:
            self.parse_failures += 1
            self.failed_lines.append(report["graph6"])
            return
        for check, verdict in report["verdicts"].items():
            per = self.verdict_counts.setdefault(check, {})
            per[verdict] = per.get(verdict, 0) + 1
            if verdict == VIOLATION:
                self.violations += 1
            elif verdict == TIMEOUT:
                self.timeouts += 1
        for flag, value in report["flags"].items():
            if value:
                self.flag_counts[flag] = self.flag_counts.get(flag, 0) + 1

    @property
    def exit_code(self) -> int:
        if self.violations:
            return 1
        if self.parse_failures:
            return 2
        return 0

    def to_json(self) -> dict:
        return {
            "graphs": self.graphs,
            "parse_failures": self.parse_failures,
            "failed_lines": self.failed_lines,
            "violations": self.violations,
            "timeouts": self.timeouts,
            "verdicts": self.verdict_counts,
            "extremal_counts": self.flag_counts,
            "exit_code": self.exit_code,
        }


def run_corpus(
    lines,
    out,
    checks=None,
    fmt: str = "jsonl",
    budget_ms: int | None = None,
    jobs: int = 1,
) -> CorpusSummary:
    """Process a graph6 stream and emit one report per line, input order.

    A bad format or check selection raises ValueError before any output.
    Each report is flushed as it is written.  With one job each report is
    written before the next line is read; with more, at most
    ``CHUNKS_PER_JOB * jobs`` chunks of ``CHUNK_LINES`` lines are read and
    not yet written.
    """
    if fmt not in ("jsonl", "csv"):
        raise ValueError(f"unknown format {fmt!r}")
    selected = _selected_checks(checks)
    report_of = functools.partial(compute_report, checks=selected, budget_ms=budget_ms)
    stripped = (line for line in map(str.strip, lines) if line)
    summary = CorpusSummary()
    writer = csv.writer(out, lineterminator="\n") if fmt == "csv" else None
    if writer is not None:
        writer.writerow(
            ["graph6", "error", *INVARIANT_ORDER, *selected, *FLAG_ORDER]
        )
    reports = _pool_map(report_of, stripped, jobs) if jobs > 1 else map(report_of, stripped)
    for report in reports:
        summary.absorb(report)
        if writer is None:
            out.write(json.dumps(report, separators=(",", ":")) + "\n")
        else:
            writer.writerow(_csv_row(report, selected))
        out.flush()
    return summary


CHUNK_LINES = 16
# enough queued work that one slow chunk at the head leaves no worker idle
CHUNKS_PER_JOB = 4


def _pool_map(fn, items, jobs: int):
    """``map(fn, items)`` on ``jobs`` worker processes, in input order.

    Items go to the workers in chunks of ``CHUNK_LINES``.  At most
    ``CHUNKS_PER_JOB * jobs`` chunks are read and not yet yielded, so
    neither the input nor the results are held whole.  Input that ends
    inside its first chunk starts no pool and is mapped in this process.
    """
    chunks = iter(lambda: list(itertools.islice(items, CHUNK_LINES)), [])
    head = list(itertools.islice(chunks, 2))
    if len(head) < 2:
        # the input ends inside the first chunk, which one worker would take
        # whole: map it here rather than pay for a pool
        yield from map(fn, itertools.chain.from_iterable(head))
        return
    # imported here: a run that starts no pool skips the import, a
    # noticeable share of a short run's start-up
    from concurrent.futures import ProcessPoolExecutor

    chunks = itertools.chain(head, chunks)
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        submit = functools.partial(pool.submit, _map_chunk, fn)
        pending = collections.deque(map(submit, itertools.islice(chunks, CHUNKS_PER_JOB * jobs)))
        while pending:
            yield from pending.popleft().result()
            pending.extend(map(submit, itertools.islice(chunks, 1)))


def _map_chunk(fn, chunk: list) -> list:
    return [fn(item) for item in chunk]


def _csv_row(report: dict, selected) -> list:
    if "error" in report:
        return [report["graph6"], report["error"]] + [""] * (
            len(INVARIANT_ORDER) + len(selected) + len(FLAG_ORDER)
        )

    def cell(value):
        return "" if value is None else value

    return (
        [report["graph6"], ""]
        + [cell(report["invariants"][k]) for k in INVARIANT_ORDER]
        + [report["verdicts"].get(k, "") for k in selected]
        + [cell(report["flags"][k]) for k in FLAG_ORDER]
    )


# ---------------------------------------------------------------------------
# extremal hunting


def _cert_zgrundy_eq_gammat(f: _Facts) -> dict:
    gt, dset = f.solve("gamma_t")
    seq = f.solve("zgrundy")[1]
    return {"gamma_t": gt, "gamma_t_set": sorted(dset), "sequence": seq.to_json()}


def _cert_uppertotal_eq_2zgrundy(f: _Facts) -> dict:
    upper, dset = f.solve("upper_gamma_t")
    zg, seq = f.solve("zgrundy")
    return {
        "upper_gamma_t": upper,
        "zgrundy": zg,
        "minimal_td_set": domination.is_minimal_td_set(f.g, dset).to_json(),
        "sequence": seq.to_json(),
    }


def _cert_z_eq_delta(f: _Facts) -> dict:
    z, witness = f.solve("zero_forcing")
    found, hub = powerdom.z_equals_delta(f.g)
    cert: dict = {"zero_forcing": z, "forcing_set": sorted(witness)}
    if found:
        cert["hub"] = hub
        cert["decomposition"] = powerdom.extract_decomposition(f.g, hub).to_json()
    return cert


def _cert_three_three(f: _Facts) -> dict:
    dset, seq = f.solve("gamma_t")[1], f.solve("zgrundy")[1]
    return {"gamma_t_set": sorted(dset), "sequence": seq.to_json()}


def _connected_and(flag: str):
    """A hunt's extra condition: the graph is connected and has ``flag``."""
    return lambda f: f.connected and _FLAGS[flag](f)


# predicate -> (flag, extra condition tested first, certificate builder)
PREDICATES = {
    "zgrundy-eq-gammat": ("zgrundy_eq_gamma_t", None, _cert_zgrundy_eq_gammat),
    "uppertotal-eq-2zgrundy": ("upper_total_eq_twice_zgrundy", None, _cert_uppertotal_eq_2zgrundy),
    "z-eq-delta": ("z_eq_min_degree", None, _cert_z_eq_delta),
    "chordal-3-3": ("gamma_t_eq_zgrundy_eq_3", _connected_and("chordal"), _cert_three_three),
    "simplicial-3-3":
        ("gamma_t_eq_zgrundy_eq_3", _connected_and("has_simplicial"), _cert_three_three),
}


def hunt_extremal(predicate: str, n: int | None = None, graphs=None):
    """Yield {graph6, predicate, certificate} for each matching graph.

    Built-in labeled enumeration covers n <= 6; pass ``graphs`` (an iterable
    of Graph) to hunt over an externally prepared corpus instead.
    """
    try:
        flag, extra, certificate = PREDICATES[predicate]
    except KeyError:
        raise ValueError(
            f"unknown predicate {predicate!r}; choose from {sorted(PREDICATES)}"
        ) from None
    if graphs is None:
        if n is None:
            raise ValueError("hunting needs either a size or an external corpus")
        graphs = enumerate_labeled_graphs(n)
    for g in graphs:
        f = _Facts(g)
        if (extra is None or extra(f)) and _or_none(_FLAGS[flag], f):
            yield {
                "graph6": emit_graph6(g),
                "predicate": predicate,
                "certificate": certificate(f),
            }


# ---------------------------------------------------------------------------
# human-readable certificates


# explain's names for each invariant: its own without underscores, and these
_ALIASES = {name.replace("_", ""): name for name in _SOLVERS} | {
    "z": "zero_forcing",
    "gt": "grundy_total",
    "totaldomination": "gamma_t",
    "gammatupper": "upper_gamma_t",
    "powerdomination": "gamma_p",
}

# the names that explain's help and its unknown-name error list
_EXPLAIN_NAMES = "Z, zgrundy, grundytotal, gammat, gammat_upper, gammap"


def explain(line: str, invariant: str) -> str:
    """Value of one invariant on one graph plus a checkable certificate."""
    g = parse_graph6(line.strip())
    try:
        name = _ALIASES[invariant.lower().replace("_", "")]
    except KeyError:
        raise ValueError(
            f"unknown invariant {invariant!r}; choose from {_EXPLAIN_NAMES}"
        ) from None
    value, witness = _SOLVERS[name][0](g)
    out = io.StringIO()
    print(f"{name} = {value}", file=out)
    if name == "zero_forcing":
        print(f"forcing set: {sorted(witness)}", file=out)
        for forcer, forced in forcing.forcing_closure(g, witness).steps:
            print(f"  {forcer} forces {forced}", file=out)
    elif name == "zgrundy":
        for v, fp in zip(witness.vertices, witness.footprints):
            print(f"  {v} footprints {sorted(fp)}", file=out)
    elif name == "grundy_total":
        print(f"sequence: {list(witness)}", file=out)
    elif name == "gamma_t":
        print(f"minimum total dominating set: {sorted(witness)}", file=out)
    elif name == "upper_gamma_t":
        cert = domination.is_minimal_td_set(g, witness)
        print(f"maximum minimal total dominating set: {sorted(witness)}", file=out)
        for v in sorted(cert.witnesses):
            epn, ipn = cert.witnesses[v]
            print(f"  {v}: epn {sorted(epn)} ipn {sorted(ipn)}", file=out)
    else:
        trace = powerdom.power_closure(g, witness)
        print(f"power dominating set: {sorted(witness)}", file=out)
        print(f"observed after domination step: {sorted(trace.dominated)}", file=out)
        for forcer, forced in trace.steps:
            print(f"  {forcer} forces {forced}", file=out)
        if value == 1:
            decomposition = powerdom.extract_decomposition(g, next(iter(witness)))
            print(f"parallel paths from hub {decomposition.hub}:", file=out)
            for p in decomposition.paths:
                print(f"  {list(p)}", file=out)
    return out.getvalue()
