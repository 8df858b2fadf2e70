import hashlib
import io
import itertools
import json
import pathlib
import sys

import pytest

from zfdom import (
    Graph6Error,
    constructions,
    domination,
    emit_graph6,
    enumerate_labeled_graphs,
    forcing,
    graphs,
    harness,
    is_connected,
    isolated_vertices,
    parse_graph6,
    powerdom,
)
from zfdom.families import cycle, parse_family_spec, path, windmill
from zfdom.harness import (
    CHECK_ORDER,
    CHUNK_LINES,
    CHUNKS_PER_JOB,
    FLAG_ORDER,
    HOLDS,
    INVARIANT_ORDER,
    PRECONDITION,
    TIMEOUT,
    VIOLATION,
    CorpusSummary,
    compute_report,
    explain,
    hunt_extremal,
    run_corpus,
)

from oracles import (
    brute_gamma_p,
    brute_gamma_t,
    brute_skew_forcing_set,
    brute_upper_gamma_t,
    brute_z_grundy,
    brute_zero_forcing,
)


class TestComputeReport:
    def test_triangle_skips_the_clique_bound(self):
        report = compute_report("Bw")
        assert report["invariants"]["n"] == 3
        assert report["verdicts"]["total_domination_bound"] == PRECONDITION
        assert report["verdicts"]["duality"] == HOLDS
        assert tuple(report["invariants"]) == INVARIANT_ORDER
        assert tuple(report["verdicts"]) == CHECK_ORDER
        assert tuple(report["flags"]) == FLAG_ORDER

    def test_parse_failure_becomes_error_record(self):
        report = compute_report("not graph6 \x01")
        assert set(report) == {"graph6", "error"}

    def test_isolated_vertices_blank_the_domination_numbers(self):
        lonely = emit_graph6(_with_isolate())
        report = compute_report(lonely)
        assert report["invariants"]["gamma_t"] is None
        assert report["verdicts"]["upper_total_bound"] == PRECONDITION

    def test_one_vertex_graph_is_outside_the_min_degree_lemma(self):
        report = compute_report("@")
        assert report["verdicts"]["min_degree_extremal"] == PRECONDITION
        assert report["verdicts"]["parallel_paths"] == HOLDS

    def test_zero_budget_times_out(self):
        """The deadline ends with the report: the same graph then gets full
        results from an unbudgeted report, ``explain`` and ``hunt``."""
        g = cycle(5).graph
        token = emit_graph6(g)
        report = compute_report(token, budget_ms=0)
        assert report["invariants"]["zero_forcing"] is None
        assert all(v == TIMEOUT for v in report["verdicts"].values())
        report = compute_report(token)
        assert None not in report["invariants"].values()
        assert TIMEOUT not in report["verdicts"].values()
        assert explain(token, "Z").startswith("zero_forcing = 2\nforcing set: [0, 1]\n")
        (hit,) = hunt_extremal("z-eq-delta", graphs=[g])
        assert hit["certificate"]["decomposition"]["hub"] == 0

    def test_check_selection(self):
        report = compute_report("Bw", checks=("duality",))
        assert list(report["verdicts"]) == ["duality"]
        with pytest.raises(ValueError):
            compute_report("Bw", checks=("nonsense",))


class TestFactCache:
    SOLVERS = (
        (forcing, "zero_forcing_number"),
        (forcing, "z_grundy_number"),
        (forcing, "grundy_total_number"),
        (domination, "total_domination_number"),
        (domination, "upper_total_domination_number"),
        (powerdom, "power_domination_number"),
    )

    @pytest.mark.parametrize(
        "token", ["D{c", emit_graph6(cycle(5).graph), emit_graph6(path(4).graph)]
    )
    def test_each_solver_runs_once_per_graph(self, token, monkeypatch):
        """The harness asks each solver once about the graph itself.

        ``calls`` counts the calls made from harness code.  γt must also
        run exactly once on the graph from any module: the sequence
        construction takes the minimum sets without a γt call of its own.
        Calls on subgraphs (the simplicial deletion check) do not count.
        The minimal TD-set search and the structural tests on the graph are
        counted as Python frames, so a cache hit is not a call.
        """
        g = parse_graph6(token)
        frames = dict.fromkeys(
            ("_minimal_td_masks", "simplicial_vertices", "is_connected", "is_chordal"), 0
        )

        def profile(frame, event, arg):
            name = frame.f_code.co_name
            if event == "call" and name in frames and frame.f_locals.get("g") == g:
                frames[name] += 1

        calls = {name: 0 for _, name in self.SOLVERS}
        any_caller = {name: 0 for _, name in self.SOLVERS}

        def counting(solver, name):
            def wrapper(h):
                if h == g:
                    any_caller[name] += 1
                    if sys._getframe(1).f_globals["__name__"] == harness.__name__:
                        calls[name] += 1
                return solver(h)

            return wrapper

        for module, name in self.SOLVERS:
            monkeypatch.setattr(module, name, counting(getattr(module, name), name))
        characterization_calls = []
        monkeypatch.setattr(
            constructions,
            "check_gamma_two_characterization",
            lambda h: characterization_calls.append(h),
        )
        sys.setprofile(profile)
        try:
            report = compute_report(token)
        finally:
            sys.setprofile(None)
        assert calls == {name: 1 for _, name in self.SOLVERS}
        assert any_caller["total_domination_number"] == 1
        assert characterization_calls == []
        assert TIMEOUT not in report["verdicts"].values()
        assert all(count <= 1 for count in frames.values()), frames

    def test_simplicial_deletion_solves_one_subgraph_per_twin_class(self, monkeypatch):
        """windmill:3,7 has 14 simplicial vertices in 7 pairs of closed twins.

        Deleting either vertex of a pair leaves isomorphic graphs, so the
        check solves 7 subgraphs, not 14.
        """
        g = windmill(3, 7).graph
        solve = forcing._grundy_sequence
        subgraphs = []

        def counting(h, rows):
            if h.n < g.n:
                subgraphs.append(h)
            return solve(h, rows)

        monkeypatch.setattr(forcing, "_grundy_sequence", counting)
        report = compute_report(emit_graph6(g), checks=["simplicial_deletion"])
        assert report["verdicts"] == {"simplicial_deletion": HOLDS}
        assert len(subgraphs) == 7

    @staticmethod
    def out_of_time_after(monkeypatch, module, name):
        """The meter's clock jumps past any deadline once ``module.name`` returns."""
        clock = [0.0]
        monkeypatch.setattr(graphs._meter, "clock", lambda: clock[0])
        solve = getattr(module, name)

        def exhausting(g):
            result = solve(g)
            clock[0] = 10.0
            return result

        monkeypatch.setattr(module, name, exhausting)

    def test_checks_with_computed_inputs_survive_the_deadline(self, monkeypatch):
        """The budget runs out once zgrundy is known: a fake clock jumps past
        the deadline, so the test does not depend on machine speed."""
        self.out_of_time_after(monkeypatch, forcing, "z_grundy_number")
        report = compute_report(emit_graph6(cycle(5).graph), budget_ms=1000)
        invariants = report["invariants"]
        assert invariants["zero_forcing"] == 2 and invariants["zgrundy"] == 3
        for name in ("grundy_total", "gamma_t", "upper_gamma_t", "gamma_p"):
            assert invariants[name] is None
        verdicts = dict(report["verdicts"])
        assert verdicts.pop("duality") == HOLDS
        assert verdicts.pop("min_degree_bound") == HOLDS
        assert set(verdicts.values()) == {TIMEOUT}
        assert report["flags"] == {
            "zgrundy_eq_gamma_t": None,
            "upper_total_eq_twice_zgrundy": None,
            "z_eq_min_degree": True,
            "gamma_t_eq_zgrundy_eq_3": None,
            "chordal": False,
            "has_simplicial": False,
        }

    @pytest.mark.parametrize(
        "token", [emit_graph6(cycle(5).graph), "D{c", emit_graph6(windmill(3, 3).graph)]
    )
    def test_sequence_constructions_respect_the_deadline(self, token, monkeypatch):
        """The budget runs out once Γt is known, so neither sequence
        construction may start: both bounds that build one time out."""
        self.out_of_time_after(monkeypatch, domination, "upper_total_domination_number")
        report = compute_report(token, budget_ms=1000)
        assert report["invariants"]["upper_gamma_t"] is not None
        assert report["verdicts"]["total_domination_bound"] == TIMEOUT
        assert report["verdicts"]["upper_total_bound"] == TIMEOUT

    def test_a_started_solver_stops_at_its_next_tick(self, meter, monkeypatch):
        """A fake clock passes the deadline once the first search has ticked.

        That search is Z's wavefront, which stops at that very tick; no
        later solver starts, so every invariant is unknown and every check
        times out.  The graph is twin-free, so Z's searches start from
        nothing: they run 52 closures without a budget.
        """
        token = "Kgvtr_tm^OKj"
        assert graphs._twin_seed(parse_graph6(token)) == 0
        forcing.zero_forcing_number(parse_graph6(token))
        assert sum(meter.counts.values()) == 52
        meter.counts.clear()
        monkeypatch.setattr(meter, "clock", lambda: 10.0 if meter.counts else 0.0)
        report = compute_report(token, budget_ms=1000)
        assert meter.counts == {"closures:_wavefront_value": 1}
        assert [report["invariants"][name] for name in harness._SOLVERS] == [None] * 6
        assert set(report["verdicts"].values()) == {TIMEOUT}


class TestGoldenReports:
    """Each report on the connected n = 8 catalogue is byte-identical to the
    benchmark's reference line, stored as a SHA-256 prefix per graph."""

    REFERENCE = pathlib.Path(__file__).parents[1] / "bench" / "data" / "connected_n8.tsv"

    def mismatches(self, step: int) -> list:
        rows = [line.split("\t") for line in self.REFERENCE.read_text().splitlines()]
        assert len(rows) == 11117
        return [
            graph6
            for graph6, digest in rows[::step]
            if hashlib.sha256(
                json.dumps(compute_report(graph6), separators=(",", ":")).encode()
            ).hexdigest()[:16] != digest
        ]

    def test_every_twentieth_report(self):
        assert self.mismatches(20) == []

    @pytest.mark.extended
    def test_every_report(self):
        assert self.mismatches(1) == []


class TestSecondSourceAtEight:
    """Each of the six invariants of every connected n = 8 report equals its
    definition-level oracle; grundy_total comes from the skew forcing dual
    (Lin, LAA 2019).  About a minute and a half, mostly the Γt oracle."""

    ORACLES = {
        "zero_forcing": lambda g: brute_zero_forcing(g)[0],
        "zgrundy": brute_z_grundy,
        "grundy_total": lambda g: g.n - len(brute_skew_forcing_set(g)),
        "gamma_t": brute_gamma_t,
        "upper_gamma_t": brute_upper_gamma_t,
        "gamma_p": brute_gamma_p,
    }

    @pytest.mark.oracles8
    def test_every_report_matches_the_oracles(self, connected_eight):
        compared = 0
        for g in connected_eight:
            reported = compute_report(emit_graph6(g))["invariants"]
            for name, oracle in self.ORACLES.items():
                assert reported[name] == oracle(g), (emit_graph6(g), name)
                compared += 1
        assert compared == 6 * 11117


class TestLargeSparseReports:
    """Full reports on sparse graphs where Z and the Grundy numbers are large.

    The JSONL lines were recorded with the covered-mask Grundy DP and the
    ascending-size Z search, which took between 3 and 60 s per graph; each
    must come back byte for byte.
    """

    REPORTS = pathlib.Path(__file__).parent / "data" / "large_sparse_reports.jsonl"

    @pytest.mark.parametrize("spec", ["cycle:28", "path:24", "windmill:3,10", "windmill:4,6"])
    def test_report_is_unchanged(self, spec):
        recorded = {
            json.loads(line)["graph6"]: line
            for line in self.REPORTS.read_text().splitlines(keepends=True)
        }
        token = emit_graph6(parse_family_spec(spec).graph)
        out = io.StringIO()
        assert run_corpus([token], out).exit_code == 0
        assert out.getvalue() == recorded[token]


def _with_isolate():
    from zfdom import Graph

    return Graph.from_edges(3, [(0, 1)])


class TestRunCorpus:
    def lines(self):
        return [emit_graph6(g) + "\n" for g in enumerate_labeled_graphs(4, connected_only=True)]

    def test_clean_corpus(self):
        out = io.StringIO()
        summary = run_corpus(self.lines(), out)
        assert summary.exit_code == 0
        assert summary.graphs == 38 and summary.violations == 0
        assert len(out.getvalue().splitlines()) == 38

    def test_all_connected_order_five(self):
        lines = [
            emit_graph6(g) + "\n"
            for g in enumerate_labeled_graphs(5, connected_only=True)
        ]
        out = io.StringIO()
        summary = run_corpus(lines, out)
        assert summary.exit_code == 0 and summary.violations == 0
        assert summary.graphs == 728
        assert summary.flag_counts["z_eq_min_degree"] > 0  # extremal counts reported

    def test_deterministic_output(self):
        a, b = io.StringIO(), io.StringIO()
        run_corpus(self.lines(), a)
        run_corpus(self.lines(), b)
        assert a.getvalue() == b.getvalue()

    def test_jobs_do_not_change_the_stream(self):
        a, b = io.StringIO(), io.StringIO()
        run_corpus(self.lines()[:10], a)
        run_corpus(self.lines()[:10], b, jobs=2)
        assert a.getvalue() == b.getvalue()

    @pytest.mark.parametrize("count", [CHUNK_LINES, CHUNK_LINES + 1, 38])
    def test_jobs_do_not_change_a_stream_around_one_chunk(self, count):
        """Up to one chunk is mapped in process; one line more starts the pool."""
        lines = self.lines()
        assert len(lines) == 38
        a, b = io.StringIO(), io.StringIO()
        run_corpus(lines[:count], a)
        run_corpus(lines[:count], b, jobs=2)
        assert a.getvalue() == b.getvalue()

    def test_each_report_is_written_before_the_next_line_is_read(self):
        out = io.StringIO()
        tokens = self.lines()[:5]

        def feed():
            for k, token in enumerate(tokens):
                assert len(out.getvalue().splitlines()) == k
                yield token

        assert run_corpus(feed(), out).graphs == 5

    def test_a_pool_reads_a_bounded_number_of_lines_ahead(self):
        pulled = 0
        pulled_at_first_write = []

        lines = list(itertools.islice(itertools.cycle(self.lines()), 200))

        def feed():
            nonlocal pulled
            for line in lines:
                pulled += 1
                yield line

        class Out(io.StringIO):
            def write(self, text):
                if not pulled_at_first_write:
                    pulled_at_first_write.append(pulled)
                return super().write(text)

        out = Out()
        assert run_corpus(feed(), out, jobs=2).graphs == 200
        bound = CHUNKS_PER_JOB * 2 * CHUNK_LINES
        assert bound < 200 and pulled_at_first_write[0] <= bound
        in_one_job = io.StringIO()
        run_corpus(lines, in_one_job)
        assert out.getvalue() == in_one_job.getvalue()

    def test_parse_failures_recorded_and_exit_two(self):
        out = io.StringIO()
        summary = run_corpus(["Bw\n", "zz\x01z\n", "Bg\n"], out)
        assert summary.exit_code == 2
        assert summary.parse_failures == 1 and summary.graphs == 3
        assert summary.failed_lines == ["zz\x01z"]
        rows = [json.loads(line) for line in out.getvalue().splitlines()]
        assert "error" in rows[1] and "error" not in rows[0]

    def test_csv_format(self):
        out = io.StringIO()
        run_corpus(["Bw\n"], out, fmt="csv")
        header, row = out.getvalue().splitlines()
        assert header.split(",")[:3] == ["graph6", "error", "n"]
        assert row.split(",")[0] == "Bw"

    def test_violations_fail_the_run(self):
        summary = CorpusSummary()
        summary.absorb(
            {
                "graph6": "Bw",
                "invariants": {},
                "verdicts": {"duality": VIOLATION},
                "flags": {},
            }
        )
        assert summary.exit_code == 1

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            run_corpus([], io.StringIO(), fmt="xml")


class TestHunt:
    def test_windmill_shows_up_at_its_own_order(self):
        hits = list(hunt_extremal("uppertotal-eq-2zgrundy", n=5))
        tokens = {hit["graph6"] for hit in hits}
        assert emit_graph6(windmill(3, 2).graph) in tokens
        for hit in hits:
            cert = hit["certificate"]
            assert cert["upper_gamma_t"] == 2 * cert["zgrundy"]

    def test_min_degree_extremals_include_paths_and_cycles(self):
        tokens = {hit["graph6"] for hit in hunt_extremal("z-eq-delta", n=5)}
        assert emit_graph6(path(5).graph) in tokens
        assert emit_graph6(cycle(5).graph) in tokens

    def test_no_chordal_three_three_graphs_exist(self):
        assert list(hunt_extremal("chordal-3-3", n=6)) == []

    def test_external_corpus(self):
        graphs = [windmill(3, 2).graph, path(6).graph]
        hits = list(hunt_extremal("uppertotal-eq-2zgrundy", graphs=graphs))
        assert len(hits) == 1

    def test_hits_agree_with_the_report_flags(self, graphs_by_order):
        """Each predicate hits exactly where the report's flags say it should."""
        for n in range(7):
            for g in graphs_by_order[n]:
                flags = compute_report(emit_graph6(g))["flags"]
                three_three = (
                    flags["gamma_t_eq_zgrundy_eq_3"]
                    and is_connected(g)
                    and not isolated_vertices(g)
                )
                expected = {
                    "zgrundy-eq-gammat": flags["zgrundy_eq_gamma_t"],
                    "uppertotal-eq-2zgrundy": flags["upper_total_eq_twice_zgrundy"],
                    "z-eq-delta": flags["z_eq_min_degree"],
                    "chordal-3-3": three_three and flags["chordal"],
                    "simplicial-3-3": three_three and flags["has_simplicial"],
                }
                hits = {
                    predicate: bool(list(hunt_extremal(predicate, graphs=[g])))
                    for predicate in expected
                }
                assert hits == {k: bool(v) for k, v in expected.items()}, emit_graph6(g)

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="unknown predicate"):
            next(hunt_extremal("nonsense", n=4))
        with pytest.raises(ValueError, match="needs either"):
            next(hunt_extremal("z-eq-delta"))


class TestExplain:
    def test_zero_forcing_trace(self):
        text = explain(emit_graph6(path(4).graph), "Z")
        assert "zero_forcing = 1" in text
        assert text.count("forces") == 3

    def test_zgrundy_footprints(self):
        text = explain(emit_graph6(cycle(5).graph), "zgrundy")
        assert "zgrundy = 3" in text and "footprints" in text

    def test_upper_total_certificate(self):
        text = explain("D{c", "gammat_upper")
        assert "upper_gamma_t = 4" in text and "epn" in text

    def test_power_domination_decomposition(self):
        text = explain(emit_graph6(windmill(3, 2).graph), "gammap")
        assert "gamma_p = 1" in text and "parallel paths from hub 0" in text

    def test_unknown_invariant(self):
        with pytest.raises(ValueError, match="unknown invariant"):
            explain("Bw", "treewidth")
        with pytest.raises(Graph6Error):
            explain("xx", "treewidth")

    GRAPHS = ("?", "@", "Bw", "Bg", "C~", "Ch", "D{c", "Ds_", "DQo", "E?bw", "EhCG", "Eqro",
              "FhCKG", "F?~vw")
    NAMES = (
        "Z", "z", "zero_forcing", "zeroforcing", "ZERO_FORCING",
        "zgrundy", "grundy_total", "grundytotal", "gt",
        "gamma_t", "gammat", "totaldomination",
        "upper_gamma_t", "uppergammat", "gammat_upper", "gammatupper",
        "gamma_p", "gammap", "powerdomination",
    )

    def test_every_name_on_fixed_graphs_is_unchanged(self):
        """Every accepted name of the six invariants, on graphs from the empty
        and the one-vertex graph up to the 7-cycle, whose γp certificate has
        force steps.  The hash pins the whole transcript byte for byte."""
        parts = []
        for graph6, name in itertools.product(self.GRAPHS, self.NAMES):
            try:
                text = explain(graph6, name)
            except ValueError as exc:  # an invariant undefined with isolated vertices
                text = f"{type(exc).__name__}: {exc}\n"
            parts.append(f"== {graph6} {name}\n{text}")
        transcript = "".join(parts)
        assert transcript.count(" forces ") == 210
        assert hashlib.sha256(transcript.encode()).hexdigest() == (
            "8d103fc5d8d19c633c178a763d9e9e5cde50cc7ba8c15555ad9eebf3287bd78d"
        )
