import pytest

from zfdom import (
    CliqueComponentError,
    Graph,
    IsolatedVertexError,
    NotTotalDominatingError,
    UnsupportedSizeError,
    VertexSet,
    analyze_k2_components,
    check_extremal_properties,
    check_gamma_two_characterization,
    enumerate_minimal_td_sets,
    fully_adjacent_indices,
    gamma_t_set_minimizing_k2_components,
    half_z_sequence_from_minimal_td,
    is_z_sequence,
    max_minimal_cover_size,
    non_twin_pairs_see_all,
    parse_graph6,
    total_domination_number,
    upper_total_domination_number,
    z_grundy_number,
    z_sequence_from_gamma_t,
)
from zfdom.constructions import PROPERTY_NAMES, _PROPERTIES, _rest_of_graph
from zfdom.families import (
    complete,
    cycle,
    double_clique_matched,
    h_extension,
    path,
    star,
    windmill,
)

K2 = Graph.from_edges(2, [(0, 1)])
C5 = cycle(5).graph


class TestK2ComponentAnalysis:
    def test_windmill_blades(self):
        wd = windmill(3, 2).graph
        analysis = analyze_k2_components(wd, VertexSet.of([1, 2, 3, 4], 5))
        assert analysis.pairs == ((1, 2), (3, 4))
        assert [sorted(r) for r in analysis.regions] == [[1, 2], [3, 4]]
        assert analysis.big_components == ()

    def test_k2_whole_graph(self):
        analysis = analyze_k2_components(K2, VertexSet.full(2))
        assert analysis.pairs == ((0, 1),)
        assert analysis.regions[0] == VertexSet.full(2)
        assert analysis.symmetric == (True,)

    def test_path_middle_pair_sees_everything(self):
        p4 = path(4).graph
        analysis = analyze_k2_components(p4, VertexSet.of([1, 2], 4))
        assert analysis.regions[0] == VertexSet.full(4)
        assert analysis.symmetric == (False,)

    def test_requires_td_set(self):
        with pytest.raises(NotTotalDominatingError):
            analyze_k2_components(C5, VertexSet.of([0, 1], 5))

    def test_region_invariants(self, graphs_by_order):
        # each region contains its pair, regions are pairwise disjoint, and
        # region vertices see the pair but nothing else of the set
        for n in range(2, 6):
            for g in graphs_by_order[n]:
                if any(not g.adj[v] for v in range(n)):
                    continue
                for d in enumerate_minimal_td_sets(g):
                    analysis = analyze_k2_components(g, d)
                    seen = VertexSet.empty(n)
                    for (x, y), region in zip(analysis.pairs, analysis.regions):
                        assert x in region and y in region
                        assert not (seen & region)
                        seen = seen | region
                        pair = VertexSet.of([x, y], n)
                        rest = d - pair
                        for v in region:
                            assert g.adj[v] & pair.mask
                            assert not any(g.has_edge(v, u) for u in rest)


class TestChosenMinimumSet:
    def test_cycle_has_no_k2_components(self):
        d = gamma_t_set_minimizing_k2_components(C5)
        assert sorted(d) == [0, 1, 2]
        assert analyze_k2_components(C5, d).pairs == ()

    def test_star_single_asymmetric_pair(self):
        d = gamma_t_set_minimizing_k2_components(star(3).graph)
        assert sorted(d) == [0, 1]
        analysis = analyze_k2_components(star(3).graph, d)
        assert analysis.pairs == ((0, 1),) and analysis.symmetric == (False,)

    def test_double_clique_matched_pair(self):
        d = gamma_t_set_minimizing_k2_components(double_clique_matched(3).graph)
        assert sorted(d) == [0, 3]

    def test_preconditions(self):
        with pytest.raises(CliqueComponentError):
            gamma_t_set_minimizing_k2_components(complete(3).graph)
        with pytest.raises(IsolatedVertexError):
            gamma_t_set_minimizing_k2_components(Graph.from_edges(2, []))


class TestSequenceFromMinimumSet:
    def test_examples(self):
        assert z_sequence_from_gamma_t(C5).vertices == (1, 0, 2)
        assert len(z_sequence_from_gamma_t(star(3).graph)) == 2
        assert len(z_sequence_from_gamma_t(double_clique_matched(4).graph)) == 2

    def test_length_is_gamma_t_exhaustively(self, connected_by_order):
        from zfdom import is_clique

        for n in range(2, 7):
            for g in connected_by_order[n]:
                if is_clique(g, g.full_set()):
                    continue
                seq = z_sequence_from_gamma_t(g)
                assert len(seq) == total_domination_number(g)[0]
                assert is_z_sequence(g, seq.vertices).valid
                assert z_grundy_number(g)[0] >= len(seq)


class TestHalfSequence:
    def test_windmill_upper_sets(self):
        wd = windmill(3, 2).graph
        seq = half_z_sequence_from_minimal_td(wd, VertexSet.of([1, 2, 3, 4], 5))
        assert len(seq) == 2 and seq.vertices == (1, 3)

    def test_small_cases(self):
        assert len(half_z_sequence_from_minimal_td(K2, VertexSet.full(2))) == 1
        assert half_z_sequence_from_minimal_td(C5, VertexSet.of([0, 1, 2], 5)).vertices == (1, 0, 2)

    def test_rejects_bad_sets(self):
        c4 = cycle(4).graph
        with pytest.raises(ValueError, match="minimal"):
            half_z_sequence_from_minimal_td(c4, VertexSet.of([0, 1, 2], 4))
        with pytest.raises(NotTotalDominatingError):
            half_z_sequence_from_minimal_td(c4, VertexSet.of([0], 4))

    def test_covers_half_of_every_minimal_set(self, graphs_by_order):
        for n in range(1, 7):
            for g in graphs_by_order[n]:
                if any(not g.adj[v] for v in range(n)):
                    continue
                for d in enumerate_minimal_td_sets(g):
                    seq = half_z_sequence_from_minimal_td(g, d)
                    assert 2 * len(seq) >= len(d)
                    assert is_z_sequence(g, seq.vertices).valid


class TestExtremalProperties:
    def test_windmills_satisfy_everything(self):
        for k, n in ((3, 2), (4, 3)):
            g = windmill(k, n).graph
            _, d = upper_total_domination_number(g)
            report = check_extremal_properties(g, d)
            assert tuple(report.properties) == PROPERTY_NAMES
            assert report.all_hold(), report.properties
            assert report.exhaustive

    def test_clique_extension_satisfies_everything(self):
        g = h_extension(path(3).graph, (2, 2)).graph
        _, d = upper_total_domination_number(g)
        report = check_extremal_properties(g, d)
        assert report.all_hold(), report.properties

    def test_refuses_more_than_fifteen_vertices_outside_the_regions(self):
        # n = 20 with Gamma_t = 4 = 2 zgrundy, and the 16 base vertices lie outside
        # both regions: every one of the 65,536 subsets would need a check
        g = h_extension(complete(16).graph, (2, 2)).graph
        _, d = upper_total_domination_number(g)
        with pytest.raises(UnsupportedSizeError, match="at most 15 .* got 16"):
            check_extremal_properties(g, d)

    def test_preconditions(self):
        with pytest.raises(ValueError, match="factor-2"):
            check_extremal_properties(C5, VertexSet.of([0, 1, 2], 5))
        wd = windmill(3, 2).graph
        with pytest.raises(ValueError, match="maximum"):
            check_extremal_properties(wd, VertexSet.of([0, 1], 5))


# Non-extremal inputs (graph6, TD-set) with the first counterexample of each
# property that fails on them; together they break all eight.
SCAN_FAILURES = [
    (
        "BW",
        [0, 2],
        {
            "pair_sees_region_alike": (0, 2),
            "regions_are_cliques": [0, 1, 2],
            "region_closed_twins": [0, 1, 2],
        },
    ),
    (
        "DEg",
        [0, 3, 4],
        {"k2_components_only": [0, 3, 4], "adjacent_share_region": (0, 3), "subset_bound": [0]},
    ),
    (
        "ECp_",
        [0, 2, 3, 5],
        {
            "pair_sees_region_alike": (0, 3),
            "regions_are_cliques": [0, 3, 4],
            "no_region_cross_edges": (0, 1),
            "region_closed_twins": [0, 3, 4],
        },
    ),
    ("EEzO", [2, 3, 4, 5], {"region_closed_twins": [2, 4], "nonadjacent_share_not_one": (0, 1)}),
]


class TestPropertyScans:
    """Every property's scan can report a counterexample.

    On extremal inputs all eight hold, so only inputs that miss the
    preconditions of ``check_extremal_properties`` show that a scan fails
    where it should; they run the scans directly.
    """

    @pytest.mark.parametrize("token, dset, witnesses", SCAN_FAILURES)
    def test_first_counterexamples(self, token, dset, witnesses):
        g = parse_graph6(token)
        analysis = analyze_k2_components(g, VertexSet.of(dset, g.n))
        rest = _rest_of_graph(g, analysis)
        found = {name: next(scan(g, analysis, rest), None) for name, scan in _PROPERTIES.items()}
        assert {name: w for name, w in found.items() if w is not None} == witnesses

    def test_the_inputs_break_every_property(self):
        broken = {name for _, _, witnesses in SCAN_FAILURES for name in witnesses}
        assert broken == set(PROPERTY_NAMES)


class TestSubsetCoverNumbers:
    def test_empty_subset(self):
        wd = windmill(3, 2).graph
        analysis = analyze_k2_components(wd, VertexSet.of([1, 2, 3, 4], 5))
        assert fully_adjacent_indices(wd, analysis, VertexSet.empty(5)) == ()
        assert max_minimal_cover_size(wd, analysis, VertexSet.empty(5)) == 0

    def test_windmill_hub_is_the_only_outside_vertex(self):
        wd = windmill(3, 2).graph
        analysis = analyze_k2_components(wd, VertexSet.of([1, 2, 3, 4], 5))
        hub = VertexSet.of([0], 5)
        assert fully_adjacent_indices(wd, analysis, hub) == (0, 1)
        assert max_minimal_cover_size(wd, analysis, hub) == 1
        with pytest.raises(ValueError):
            fully_adjacent_indices(wd, analysis, VertexSet.of([1], 5))

    def test_extension_single_vertex_covers(self):
        inst = h_extension(Graph.from_edges(2, [(0, 1)]), (2, 2)).graph
        _, d = upper_total_domination_number(inst)
        analysis = analyze_k2_components(inst, d)
        b = VertexSet.of([0], inst.n)
        assert fully_adjacent_indices(inst, analysis, b) == (0, 1)
        assert max_minimal_cover_size(inst, analysis, b) == 1


class TestTwoCharacterization:
    def test_biconditional_examples(self):
        c4 = cycle(4).graph
        assert total_domination_number(c4)[0] == 2 and z_grundy_number(c4)[0] == 2
        assert check_gamma_two_characterization(c4)
        assert check_gamma_two_characterization(C5)
        assert check_gamma_two_characterization(path(4).graph)

    def test_non_twin_pairs_see_all(self):
        assert non_twin_pairs_see_all(cycle(4).graph)  # only twins fail to cover
        assert not non_twin_pairs_see_all(C5)  # N[0] and N[1] miss vertex 3
        assert non_twin_pairs_see_all(complete(4).graph)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            check_gamma_two_characterization(complete(4).graph)
        with pytest.raises(ValueError):
            check_gamma_two_characterization(Graph.from_edges(4, [(0, 1), (2, 3)]))
