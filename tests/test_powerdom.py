import random

import pytest
from hypothesis import given, settings

from zfdom import (
    DecompositionStructureError,
    Graph,
    ParallelPathsDecomposition,
    UnsupportedSizeError,
    VertexSet,
    emit_graph6,
    extract_decomposition,
    forcing_closure,
    is_k_parallel_paths_graph,
    is_outerplanar_small,
    is_power_dominating_set,
    parse_graph6,
    power_closure,
    power_domination_number,
    recognize_parallel_paths,
    validate_decomposition,
    z_equals_delta,
    zero_forcing_number,
)
from zfdom.families import complete, complete_multipartite, cycle, path, star, windmill

from oracles import (
    brute_gamma_p_set,
    brute_zero_forcing,
    hub_path_covers,
    is_failing_choice,
    outerplanar_by_apex,
    parallel_paths_by_definition,
    selection_property_by_definition,
    two_parallel_paths_by_definition,
)
from strategies import graphs

K1 = Graph(1, (0,))
TWO_K2 = Graph.from_edges(4, [(0, 1), (2, 3)])


class TestPowerClosure:
    def test_path_from_one_end(self):
        trace = power_closure(path(5).graph, VertexSet.of([0], 5))
        assert list(trace.dominated) == [0, 1]
        assert trace.final == VertexSet.full(5)

    def test_cycle_finishes_after_domination_step(self):
        trace = power_closure(cycle(4).graph, VertexSet.of([0], 4))
        assert list(trace.dominated) == [0, 1, 3]
        assert len(trace.steps) == 1 and trace.final == VertexSet.full(4)

    def test_stays_inside_the_component(self):
        trace = power_closure(TWO_K2, VertexSet.of([0], 4))
        assert list(trace.final) == [0, 1]

    def test_composes_domination_and_forcing(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(1, 8)
            g = Graph.from_edges(
                n,
                [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3],
            )
            seed = VertexSet.of([v for v in range(n) if rng.random() < 0.3], n)
            dominated = VertexSet.empty(n)
            for v in seed:
                dominated = dominated | g.closed_nbhd(v)
            assert power_closure(g, seed).final == forcing_closure(g, dominated).final


class TestPowerDominationNumber:
    def test_examples(self):
        assert power_domination_number(path(9).graph)[0] == 1
        assert power_domination_number(windmill(3, 2).graph) == (1, VertexSet.of([0], 5))
        assert power_domination_number(TWO_K2)[0] == 2
        assert power_domination_number(K1)[0] == 1

    def test_matches_brute(self, graphs_by_order):
        for n in range(8):
            for g in graphs_by_order[n]:
                gp, witness = power_domination_number(g)
                least = brute_gamma_p_set(g)
                assert (gp, tuple(witness)) == (len(least), least)  # lexicographically least

    def test_never_exceeds_zero_forcing(self, graphs_by_order):
        for n in range(1, 6):
            for g in graphs_by_order[n]:
                assert power_domination_number(g)[0] <= zero_forcing_number(g)[0]

    def test_never_exceeds_total_domination(self, graphs_by_order):
        # a total dominating set observes everything in its domination step
        from zfdom import total_domination_number

        for n in range(1, 7):
            for g in graphs_by_order[n]:
                if any(not g.adj[v] for v in range(n)):
                    continue
                assert power_domination_number(g)[0] <= total_domination_number(g)[0]


def _assert_seed_searches_match_oracles(g: Graph) -> None:
    """Z and gamma_p, values and lexicographically least witnesses, against the definitions."""
    z, forcing_set = zero_forcing_number(g)
    assert (z, tuple(forcing_set)) == brute_zero_forcing(g)
    gp, seed = power_domination_number(g)
    least = brute_gamma_p_set(g)
    assert (gp, tuple(seed)) == (len(least), least)


class TestSeedSearchContracts:
    @settings(max_examples=50, deadline=None, database=None)
    @given(graphs())
    def test_random_graphs_up_to_twelve_vertices(self, g):
        _assert_seed_searches_match_oracles(g)

    def test_path_beyond_sixty_two_vertices(self):
        """Library graphs are not limited to graph6's 62 vertices."""
        order = [63, *range(63), *range(64, 70)]
        g = Graph.from_edges(70, list(zip(order, order[1:])))
        assert zero_forcing_number(g) == (1, VertexSet.of([63], 70))
        assert power_domination_number(g) == (1, VertexSet.of([0], 70))
        assert z_equals_delta(g) == (True, 63)
        _assert_seed_searches_match_oracles(g)


class TestMinDegreeWitness:
    def test_examples(self):
        assert z_equals_delta(path(6).graph) == (True, 0)
        assert z_equals_delta(cycle(6).graph)[0] is True
        k23 = complete_multipartite((2, 3)).graph
        assert z_equals_delta(k23) == (False, None)
        assert zero_forcing_number(k23)[0] == 3 > k23.min_degree()

    def test_hub_is_the_first_traced_power_dominating_vertex(self, graphs_by_order):
        """The hub, which hunt's z-eq-delta certificate names, matches the traced reference."""
        for n in range(8):
            for g in graphs_by_order[n]:
                hubs = [
                    x
                    for x in range(n)
                    if g.degree(x) == g.min_degree()
                    and power_closure(g, VertexSet.of([x], n)).final == g.full_set()
                ]
                assert z_equals_delta(g) == ((True, hubs[0]) if hubs else (False, None))

    def test_one_vertex_graph_is_the_degenerate_case(self):
        # {x} power dominates K_1 with deg 0 = delta although Z(K_1) = 1
        assert z_equals_delta(K1) == (True, 0)
        assert zero_forcing_number(K1)[0] == 1


class TestExtraction:
    def test_path_single_path(self):
        d = extract_decomposition(path(5).graph, 0)
        assert d.paths == ((0, 1, 2, 3, 4),)
        assert d.extra_edges == ()

    def test_cycle_two_paths(self):
        d = extract_decomposition(cycle(4).graph, 0)
        assert d.hub == 0 and len(d.paths) == 2
        assert {len(p) for p in d.paths} == {2, 3}

    def test_clique_star_of_short_paths(self):
        d = extract_decomposition(complete(4).graph, 0)
        assert d.paths == ((0, 1), (0, 2), (0, 3))
        assert len(d.extra_edges) == 3  # the triangle among 1,2,3

    def test_failure_is_none(self):
        assert extract_decomposition(star(3).graph, 1) is None  # a leaf cannot see all

    def test_one_vertex_graph_gets_a_trivial_path(self):
        d = extract_decomposition(K1, 0)
        assert d.paths == ((0,),)
        assert validate_decomposition(K1, d).valid


class TestValidation:
    def test_star_is_vacuously_valid(self):
        s = star(4).graph
        d = extract_decomposition(s, 0)
        report = validate_decomposition(s, d)
        assert report.valid and report.induced_violations == ()

    def test_cycle_decomposition_with_long_and_short_path(self):
        c4 = cycle(4).graph
        d = ParallelPathsDecomposition.from_paths(c4, 0, [(0, 1, 2), (0, 3)])
        report = validate_decomposition(c4, d)
        assert report.valid

    def test_structural_failures(self):
        c4 = cycle(4).graph
        with pytest.raises(DecompositionStructureError, match="cover"):
            validate_decomposition(
                c4, ParallelPathsDecomposition.from_paths(c4, 0, [(0, 1), (0, 3)])
            )
        with pytest.raises(DecompositionStructureError, match="start"):
            validate_decomposition(
                c4, ParallelPathsDecomposition.from_paths(c4, 0, [(1, 2), (0, 3)])
            )
        with pytest.raises(DecompositionStructureError, match="non-edge"):
            validate_decomposition(
                c4, ParallelPathsDecomposition.from_paths(c4, 0, [(0, 2, 1), (0, 3)])
            )
        p4 = path(4).graph
        with pytest.raises(DecompositionStructureError, match="shares"):
            validate_decomposition(
                p4, ParallelPathsDecomposition.from_paths(p4, 1, [(1, 2, 3), (1, 0), (1, 2)])
            )

    def test_out_of_range_vertex_is_an_index_error(self):
        c4 = cycle(4).graph
        with pytest.raises(IndexError):
            validate_decomposition(
                c4, ParallelPathsDecomposition.from_paths(c4, 0, [(0, 1, 9), (0, 3)])
            )

    def test_selection_property_violation(self):
        # path 0-1-2-3 plus chord 1-3: vertex 1 sees two vertices of its tail
        paw = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
        d = ParallelPathsDecomposition.from_paths(paw, 0, [(0, 1, 2, 3)])
        report = validate_decomposition(paw, d)
        assert not report.valid and report.violation == (1,)

    def test_induced_violation_is_reported_not_fatal(self):
        c4 = cycle(4).graph
        d = ParallelPathsDecomposition.from_paths(c4, 0, [(0, 1, 2, 3)])
        report = validate_decomposition(c4, d)
        assert report.valid  # selection property holds on the single path
        assert report.induced_violations == ((0, (0, 3)),)

    def test_extraction_never_leaves_chords(self, connected_by_order):
        for n in range(1, 7):
            for g in connected_by_order[n]:
                for x in range(g.n):
                    d = extract_decomposition(g, x)
                    if d is not None:
                        assert validate_decomposition(g, d).induced_violations == ()


class TestSelectionByDefinition:
    """The chain replay against the selection property's definition, on
    every hub-rooted path cover; the class against γp = 1."""

    @staticmethod
    def check_covers(g, hub):
        """Validate each cover of ``g`` from ``hub``; return (covers, invalid)."""
        covers = invalid = 0
        for cover in hub_path_covers(g, hub):
            d = ParallelPathsDecomposition.from_paths(g, hub, cover)
            report = validate_decomposition(g, d)
            assert report.valid == selection_property_by_definition(g, cover), (g, cover)
            if not report.valid:
                assert is_failing_choice(g, cover, report.violation), (g, cover)
                invalid += 1
            covers += 1
        return covers, invalid

    def test_replay_agrees_with_the_definition_on_every_cover(self, graphs_by_order):
        covers = invalid = 0
        for n in range(7):
            for g in graphs_by_order[n]:
                for hub in range(g.n):
                    c, i = self.check_covers(g, hub)
                    covers, invalid = covers + c, invalid + i
        assert (covers, invalid) == (24896, 19884)

    def test_k33_has_no_valid_cover(self):
        """42 covers from hub 0, none valid, and γp = 2: an oracle that
        skipped the selection property would put K_{3,3} in the class."""
        k33 = complete_multipartite((3, 3)).graph
        assert self.check_covers(k33, 0) == (42, 42)
        assert power_domination_number(k33)[0] == 2
        assert not parallel_paths_by_definition(k33)

    @staticmethod
    def assert_class_is_single_power_domination(corpus):
        for g in corpus:
            assert parallel_paths_by_definition(g) == (
                power_domination_number(g)[0] == 1
            ), emit_graph6(g)

    def test_class_iff_one_vertex_power_dominates(self, connected_by_order):
        for n in range(1, 7):
            self.assert_class_is_single_power_domination(connected_by_order[n])

    @pytest.mark.extended
    def test_class_iff_one_vertex_power_dominates_orders_seven_and_eight(
        self, connected_by_order, connected_eight
    ):
        self.assert_class_is_single_power_domination(connected_by_order[7])
        self.assert_class_is_single_power_domination(connected_eight)


class TestExtraEdges:
    """``extra_edges`` is the sorted list of the edges that no path uses."""

    @staticmethod
    def assert_extra_edges(g):
        for x in range(g.n):
            d = extract_decomposition(g, x)
            if d is not None:
                on_path = {(min(a, b), max(a, b)) for p in d.paths for a, b in zip(p, p[1:])}
                assert d.extra_edges == tuple(e for e in sorted(g.edges()) if e not in on_path)

    def test_every_small_graph(self, graphs_by_order):
        for n in range(1, 8):
            for g in graphs_by_order[n]:
                self.assert_extra_edges(g)

    @settings(max_examples=100, deadline=None, database=None)
    @given(graphs())
    def test_random_graphs_up_to_twelve_vertices(self, g):
        self.assert_extra_edges(g)

    def test_figure_graph(self, figure_three_paths):
        self.assert_extra_edges(figure_three_paths)


class TestRecognition:
    def test_figure_graph(self, figure_three_paths):
        g = figure_three_paths
        assert is_power_dominating_set(g, VertexSet.of([0], g.n))
        d = extract_decomposition(g, 0)
        assert d.paths == (
            (0, 1, 2, 3, 4, 9),
            (0, 5, 6, 7, 8),
            (0, 10, 11, 12, 13),
        )
        assert validate_decomposition(g, d).valid
        assert (0, 3) in recognize_parallel_paths(g)
        assert is_k_parallel_paths_graph(g, 3)

    def test_small_cases(self):
        assert is_k_parallel_paths_graph(path(6).graph, 1)
        assert is_k_parallel_paths_graph(cycle(4).graph, 2)
        assert is_k_parallel_paths_graph(complete(4).graph, 3)
        assert not is_k_parallel_paths_graph(complete(4).graph, 2)
        assert recognize_parallel_paths(K1) == ((0, 1),)
        assert not is_k_parallel_paths_graph(K1, 0)
        assert recognize_parallel_paths(TWO_K2) == ()

    def test_star_recognized_from_center_only(self):
        s = star(3).graph
        assert recognize_parallel_paths(s) == ((0, 3),)


class TestTwoParallelPaths:
    """Row (2012): Z(G) = 2 exactly when G is a graph of two parallel paths."""

    def test_row_characterization_on_every_small_graph(self, graphs_by_order):
        for n in range(7):
            for g in graphs_by_order[n]:
                assert (zero_forcing_number(g)[0] == 2) == two_parallel_paths_by_definition(g)

    def test_fixed_cases(self):
        for n in range(3, 9):
            assert two_parallel_paths_by_definition(cycle(n).graph)
        for n in range(1, 9):
            assert not two_parallel_paths_by_definition(path(n).graph)  # Row excludes paths
        assert two_parallel_paths_by_definition(TWO_K2)
        # K_{2,3} splits into two induced paths (2 and 3 vertices), but two
        # of its cross edges cross in either orientation
        assert not two_parallel_paths_by_definition(complete_multipartite((2, 3)).graph)
        assert not two_parallel_paths_by_definition(parse_graph6("Eqro"))


class TestOuterplanarity:
    def test_known_cases(self):
        assert is_outerplanar_small(cycle(5).graph)
        assert is_outerplanar_small(path(7).graph)
        assert not is_outerplanar_small(complete(4).graph)
        assert not is_outerplanar_small(complete_multipartite((2, 3)).graph)
        wheel = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (4, 2), (4, 3)])
        assert not is_outerplanar_small(wheel)

    def test_chorded_hexagon_counterexample_graph(self):
        # 2-connected maximal outerplanar, delta = 2, and yet Z = 3
        g = parse_graph6("Eqro")
        assert is_outerplanar_small(g) and outerplanar_by_apex(g)
        assert zero_forcing_number(g)[0] == 3
        assert not two_parallel_paths_by_definition(g)

    def test_agrees_with_apex_planarity(self, connected_by_order):
        for n in range(1, 7):
            for g in connected_by_order[n]:
                assert is_outerplanar_small(g) == outerplanar_by_apex(g)

    def test_size_limit(self):
        with pytest.raises(UnsupportedSizeError):
            is_outerplanar_small(path(11).graph)
