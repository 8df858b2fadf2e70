"""Corpus verification: per-graph invariants, theorem verdicts, reports.

Reads graph6 lines, computes every exact invariant, and checks each
implemented theorem on each graph.  A theorem whose hypothesis a graph does
not meet gets the verdict ``precondition-not-met`` rather than ``holds``;
any ``VIOLATION`` fails the whole run through the exit code.  Reports are
emitted in input order with a fixed field layout, so identical input
streams produce byte-identical output.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

from . import constructions, domination, forcing, powerdom
from .graphs import (
    Graph,
    Graph6Error,
    UnsupportedSizeError,
    VertexSet,
    delete_vertex,
    emit_graph6,
    enumerate_labeled_graphs,
    has_clique_component,
    is_chordal,
    is_clique,
    is_connected,
    isolated_vertices,
    parse_graph6,
    simplicial_vertices,
)

HOLDS = "holds"
VIOLATION = "VIOLATION"
PRECONDITION = "precondition-not-met"
TIMEOUT = "timeout"

INVARIANT_ORDER = (
    "n",
    "m",
    "min_degree",
    "zero_forcing",
    "zgrundy",
    "grundy_total",
    "gamma_t",
    "upper_gamma_t",
    "gamma_p",
)

CHECK_ORDER = (
    "duality",
    "min_degree_bound",
    "total_domination_bound",
    "upper_total_bound",
    "two_characterization",
    "simplicial_three_three",
    "simplicial_deletion",
    "min_degree_extremal",
    "parallel_paths",
)

FLAG_ORDER = (
    "zgrundy_eq_gamma_t",
    "upper_total_eq_twice_zgrundy",
    "z_eq_min_degree",
    "gamma_t_eq_zgrundy_eq_3",
    "chordal",
    "has_simplicial",
)


class _Unknown(Exception):
    """An invariant is undefined on the graph or out of time."""


class _OutOfTime(_Unknown):
    """A solver would have started after the per-graph deadline."""


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


class _Facts:
    """The invariants of one graph, each solved at most once with its witness.

    Every solver run, a check's own included, goes through ``run``, which
    raises ``_OutOfTime`` rather than start after the deadline.  The graph's
    connectivity and simplicial vertices are found on first use, once.
    """

    def __init__(self, g: Graph, budget_ms: int | None = None):
        self.g = g
        self.isolate_free = not isolated_vertices(g)
        self.deadline = None if budget_ms is None else time.monotonic() + budget_ms / 1000.0
        self._solved: dict[str, tuple] = {}

    def run(self, solver, graph: Graph):
        if self.deadline is not None and time.monotonic() >= self.deadline:
            raise _OutOfTime
        return solver(graph)

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


def _or_none(read, *args):
    """``read(*args)``, or None where it needs an invariant that is unknown."""
    try:
        return read(*args)
    except _Unknown:
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

    facts = _Facts(g, budget_ms)
    inv = {"n": g.n, "m": g.edge_count(), "min_degree": g.min_degree()}
    inv.update((name, _or_none(facts.value, name)) for name in _SOLVERS)
    return {
        "graph6": line,
        "invariants": {k: inv[k] for k in INVARIANT_ORDER},
        "verdicts": {name: _run_check(name, facts) for name in CHECK_ORDER if name in selected},
        "flags": {name: _or_none(_FLAGS[name], facts) for name in FLAG_ORDER},
    }


def _verdict(ok: bool) -> str:
    return HOLDS if ok else VIOLATION


def _run_check(name: str, f: _Facts) -> str:
    """One verdict; ``timeout`` when a solver the check asked for is out of time.

    Each check asks for its invariants before it tests its preconditions; one
    that is undefined on the graph fails them.
    """
    g = f.g
    n = g.n
    try:
        if name == "duality":
            return _verdict(f.value("zero_forcing") + f.value("zgrundy") == n)
        if name == "min_degree_bound":
            z = f.value("zero_forcing")
            return PRECONDITION if n == 0 else _verdict(z >= g.min_degree())
        if name == "total_domination_bound":
            zg, gt = f.value("zgrundy"), f.value("gamma_t")
            if n == 0 or has_clique_component(g):
                return PRECONDITION
            try:
                seq = f.run(constructions.z_sequence_from_gamma_t, g)
            except AssertionError:
                return VIOLATION
            return _verdict(zg >= gt and len(seq) == gt)
        if name == "upper_total_bound":
            zg, gt = f.value("zgrundy"), f.value("gamma_t")
            upper, witness = f.solve("upper_gamma_t")
            if n == 0:
                return PRECONDITION
            if not gt <= upper <= 2 * zg:
                return VIOLATION
            try:
                seq = constructions.half_z_sequence_from_minimal_td(g, witness)
            except AssertionError:
                return VIOLATION
            return _verdict(2 * len(seq) >= upper)
        if name == "two_characterization":
            zg, gt = f.value("zgrundy"), f.value("gamma_t")
            if not f.connected or n < 2 or is_clique(g, g.full_set()):
                return PRECONDITION
            return _verdict((gt == 2 and zg == 2) == constructions.non_twin_pairs_see_all(g))
        if name == "simplicial_three_three":
            three_three = _FLAGS["gamma_t_eq_zgrundy_eq_3"](f)
            if not f.connected or not f.simplicial:
                return PRECONDITION
            return _verdict(not three_three)
        if name == "simplicial_deletion":
            zg, gt = f.value("zgrundy"), f.value("gamma_t")
            subgraphs = [delete_vertex(g, u) for u in f.simplicial]
            subgraphs = [h for h in subgraphs if not isolated_vertices(h)]
            if not subgraphs:
                return PRECONDITION
            for h in subgraphs:
                sub_zg = f.run(forcing.z_grundy_number, h)[0]
                sub_gt = f.run(domination.total_domination_number, h)[0]
                if not (zg - 1 <= sub_zg <= zg and gt - 1 <= sub_gt <= gt):
                    return VIOLATION
            return HOLDS
        if name == "min_degree_extremal":
            z = f.value("zero_forcing")
            # the one-vertex graph is a genuine degenerate exception: a degree-0
            # vertex power dominates it although Z = 1 > 0 = min degree
            if n < 2:
                return PRECONDITION
            witnessed = f.run(powerdom.z_equals_delta, g)[0]
            return _verdict((z == g.min_degree()) == witnessed)
        if name == "parallel_paths":
            gp = f.value("gamma_p")
            if n == 0:
                return PRECONDITION
            # the verdict needs one validated hub, not all of them
            recognized = f.run(lambda h: next(powerdom._validated_hubs(h), None) is not None, g)
            return _verdict((gp == 1) == recognized)
    except _OutOfTime:
        return TIMEOUT
    except _Unknown:
        return PRECONDITION
    raise AssertionError(f"unhandled check {name}")


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
    With one job each report is written before the next line is read.
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
    with ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
        mapper = map if pool is None else functools.partial(pool.map, chunksize=16)
        for report in mapper(report_of, stripped):
            summary.absorb(report)
            if writer is None:
                out.write(json.dumps(report, separators=(",", ":")) + "\n")
            else:
                writer.writerow(_csv_row(report, selected))
    return summary


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


def explain(line: str, invariant: str) -> str:
    """Value of one invariant on one graph plus a checkable certificate."""
    g = parse_graph6(line.strip())
    key = invariant.lower().replace("_", "")
    out = io.StringIO()
    if key in ("z", "zeroforcing"):
        z, witness = forcing.zero_forcing_number(g)
        trace = forcing.forcing_closure(g, witness)
        print(f"zero_forcing = {z}", file=out)
        print(f"forcing set: {sorted(witness)}", file=out)
        for forcer, forced in trace.steps:
            print(f"  {forcer} forces {forced}", file=out)
    elif key == "zgrundy":
        zg, seq = forcing.z_grundy_number(g)
        print(f"zgrundy = {zg}", file=out)
        for v, fp in zip(seq.vertices, seq.footprints):
            print(f"  {v} footprints {sorted(fp)}", file=out)
    elif key in ("grundytotal", "gt"):
        value, seq = forcing.grundy_total_number(g)
        print(f"grundy_total = {value}", file=out)
        print(f"sequence: {list(seq)}", file=out)
    elif key in ("gammat", "totaldomination"):
        gt, dset = domination.total_domination_number(g)
        print(f"gamma_t = {gt}", file=out)
        print(f"minimum total dominating set: {sorted(dset)}", file=out)
    elif key in ("gammatupper", "uppergammat"):
        upper, dset = domination.upper_total_domination_number(g)
        cert = domination.is_minimal_td_set(g, dset)
        print(f"upper_gamma_t = {upper}", file=out)
        print(f"maximum minimal total dominating set: {sorted(dset)}", file=out)
        for v in sorted(cert.witnesses):
            epn, ipn = cert.witnesses[v]
            print(f"  {v}: epn {sorted(epn)} ipn {sorted(ipn)}", file=out)
    elif key in ("gammap", "powerdomination"):
        gp, witness = powerdom.power_domination_number(g)
        trace = powerdom.power_closure(g, witness)
        print(f"gamma_p = {gp}", file=out)
        print(f"power dominating set: {sorted(witness)}", file=out)
        print(f"observed after domination step: {sorted(trace.dominated)}", file=out)
        for forcer, forced in trace.steps:
            print(f"  {forcer} forces {forced}", file=out)
        if gp == 1:
            decomposition = powerdom.extract_decomposition(g, next(iter(witness)))
            print(f"parallel paths from hub {decomposition.hub}:", file=out)
            for p in decomposition.paths:
                print(f"  {list(p)}", file=out)
    else:
        raise ValueError(
            f"unknown invariant {invariant!r}; choose from "
            "Z, zgrundy, grundytotal, gammat, gammat_upper, gammap"
        )
    return out.getvalue()
