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
import io
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from . import constructions, domination, forcing, powerdom
from .graphs import (
    Graph,
    Graph6Error,
    UnsupportedSizeError,
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


class _OutOfTime(Exception):
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
    raises ``_OutOfTime`` rather than start after the deadline.
    """

    def __init__(self, g: Graph, budget_ms: int | None):
        self.g = g
        self.isolate_free = not isolated_vertices(g)
        self.deadline = None if budget_ms is None else time.monotonic() + budget_ms / 1000.0
        self._solved: dict[str, tuple] = {}

    def run(self, solver, graph: Graph):
        if self.deadline is not None and time.monotonic() >= self.deadline:
            raise _OutOfTime
        return solver(graph)

    def solve(self, name: str) -> tuple:
        """(value, witness), or (None, None) where the invariant is undefined."""
        if name not in self._solved:
            solver, needs_isolate_free = _SOLVERS[name]
            undefined = needs_isolate_free and not self.isolate_free
            self._solved[name] = (None, None) if undefined else self.run(solver, self.g)
        return self._solved[name]

    def value(self, name: str):
        return self.solve(name)[0]


def compute_report(line: str, checks=None, budget_ms: int | None = None) -> dict:
    """One JSON-ready report for one graph6 line."""
    selected = CHECK_ORDER if checks is None else tuple(checks)
    for name in selected:
        if name not in CHECK_ORDER:
            raise ValueError(f"unknown check {name!r}")
    try:
        g = parse_graph6(line)
    except (Graph6Error, UnsupportedSizeError) as exc:
        # an undecodable input byte is echoed as a backslash escape, keeping output ASCII
        shown = line.encode("utf-8", "surrogateescape").decode("ascii", "backslashreplace")
        return {"graph6": shown, "error": str(exc)}

    facts = _Facts(g, budget_ms)
    inv = {"n": g.n, "m": g.edge_count(), "min_degree": g.min_degree()}
    for name in _SOLVERS:
        try:
            inv[name] = facts.value(name)
        except _OutOfTime:
            inv[name] = None

    verdicts = {
        name: _run_check(name, facts) for name in CHECK_ORDER if name in selected
    }
    flags = _flags(g, inv)
    return {
        "graph6": line,
        "invariants": {k: inv[k] for k in INVARIANT_ORDER},
        "verdicts": verdicts,
        "flags": flags,
    }


def _verdict(ok: bool) -> str:
    return HOLDS if ok else VIOLATION


def _run_check(name: str, f: _Facts) -> str:
    """One verdict; ``timeout`` when a solver the check asked for is out of time.

    Each check asks for its invariants before it tests its preconditions.
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
            if n == 0 or not f.isolate_free:
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
            if not is_connected(g) or n < 2 or is_clique(g, g.full_set()):
                return PRECONDITION
            return _verdict((gt == 2 and zg == 2) == constructions.non_twin_pairs_see_all(g))
        if name == "simplicial_three_three":
            zg, gt = f.value("zgrundy"), f.value("gamma_t")
            if not is_connected(g) or not f.isolate_free or not simplicial_vertices(g):
                return PRECONDITION
            return _verdict(not (gt == 3 and zg == 3))
        if name == "simplicial_deletion":
            zg, gt = f.value("zgrundy"), f.value("gamma_t")
            if not f.isolate_free:
                return PRECONDITION
            subgraphs = [delete_vertex(g, u) for u in simplicial_vertices(g)]
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
    raise AssertionError(f"unhandled check {name}")


def _flags(g, inv):
    zg = inv["zgrundy"]
    gt = inv["gamma_t"]
    upper = inv["upper_gamma_t"]
    z = inv["zero_forcing"]
    return {
        "zgrundy_eq_gamma_t": None if None in (zg, gt) else zg == gt,
        "upper_total_eq_twice_zgrundy": None if None in (zg, upper) else upper == 2 * zg,
        "z_eq_min_degree": None if z is None or g.n == 0 else z == inv["min_degree"],
        "gamma_t_eq_zgrundy_eq_3": None if None in (zg, gt) else zg == 3 and gt == 3,
        "chordal": is_chordal(g),
        "has_simplicial": bool(simplicial_vertices(g)),
    }


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


def _report_worker(args) -> dict:
    line, checks, budget_ms = args
    return compute_report(line, checks, budget_ms)


def run_corpus(
    lines,
    out,
    checks=None,
    fmt: str = "jsonl",
    budget_ms: int | None = None,
    jobs: int = 1,
) -> CorpusSummary:
    """Process a graph6 stream and emit one report per line, input order."""
    if fmt not in ("jsonl", "csv"):
        raise ValueError(f"unknown format {fmt!r}")
    stripped = [line.strip() for line in lines if line.strip()]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(
                pool.map(
                    _report_worker,
                    [(line, checks, budget_ms) for line in stripped],
                    chunksize=16,
                )
            )
    else:
        reports = [compute_report(line, checks, budget_ms) for line in stripped]

    summary = CorpusSummary()
    selected = list(CHECK_ORDER if checks is None else checks)
    writer = csv.writer(out, lineterminator="\n") if fmt == "csv" else None
    if writer is not None:
        writer.writerow(
            ["graph6", "error", *INVARIANT_ORDER, *selected, *FLAG_ORDER]
        )
    for report in reports:
        summary.absorb(report)
        if fmt == "jsonl":
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


def _cert_zgrundy_eq_gammat(g: Graph) -> dict | None:
    if isolated_vertices(g):
        return None
    gt, dset = domination.total_domination_number(g)
    zg, seq = forcing.z_grundy_number(g)
    if zg != gt:
        return None
    return {"gamma_t": gt, "gamma_t_set": sorted(dset), "sequence": seq.to_json()}


def _cert_uppertotal_eq_2zgrundy(g: Graph) -> dict | None:
    if isolated_vertices(g):
        return None
    upper, dset = domination.upper_total_domination_number(g)
    zg, seq = forcing.z_grundy_number(g)
    if upper != 2 * zg:
        return None
    cert = domination.is_minimal_td_set(g, dset)
    return {
        "upper_gamma_t": upper,
        "zgrundy": zg,
        "minimal_td_set": cert.to_json(),
        "sequence": seq.to_json(),
    }


def _cert_z_eq_delta(g: Graph) -> dict | None:
    if g.n == 0:
        return None
    z, witness = forcing.zero_forcing_number(g)
    if z != g.min_degree():
        return None
    found, hub = powerdom.z_equals_delta(g)
    cert: dict = {"zero_forcing": z, "forcing_set": sorted(witness)}
    if found:
        decomposition = powerdom.extract_decomposition(g, hub)
        cert["hub"] = hub
        cert["decomposition"] = decomposition.to_json()
    return cert


def _cert_three_three(g: Graph, need_chordal: bool) -> dict | None:
    if not is_connected(g) or isolated_vertices(g):
        return None
    if need_chordal:
        if not is_chordal(g):
            return None
    elif not simplicial_vertices(g):
        return None
    zg, seq = forcing.z_grundy_number(g)
    if zg != 3:
        return None
    gt, dset = domination.total_domination_number(g)
    if gt != 3:
        return None
    return {"gamma_t_set": sorted(dset), "sequence": seq.to_json()}


PREDICATES = {
    "zgrundy-eq-gammat": _cert_zgrundy_eq_gammat,
    "uppertotal-eq-2zgrundy": _cert_uppertotal_eq_2zgrundy,
    "z-eq-delta": _cert_z_eq_delta,
    "chordal-3-3": lambda g: _cert_three_three(g, need_chordal=True),
    "simplicial-3-3": lambda g: _cert_three_three(g, need_chordal=False),
}


def hunt_extremal(predicate: str, n: int | None = None, graphs=None):
    """Yield {graph6, predicate, certificate} for each matching graph.

    Built-in labeled enumeration covers n <= 6; pass ``graphs`` (an iterable
    of Graph) to hunt over an externally prepared corpus instead.
    """
    try:
        fn = PREDICATES[predicate]
    except KeyError:
        raise ValueError(
            f"unknown predicate {predicate!r}; choose from {sorted(PREDICATES)}"
        ) from None
    if graphs is None:
        if n is None:
            raise ValueError("hunting needs either a size or an external corpus")
        graphs = enumerate_labeled_graphs(n)
    for g in graphs:
        cert = fn(g)
        if cert is not None:
            yield {
                "graph6": emit_graph6(g),
                "predicate": predicate,
                "certificate": cert,
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
