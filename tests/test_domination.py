import pytest
from hypothesis import given, settings

from zfdom import (
    Graph,
    IsolatedVertexError,
    NotTotalDominatingError,
    VertexSet,
    components,
    domination,
    enumerate_gamma_t_sets,
    enumerate_minimal_td_sets,
    induced_subgraph,
    is_dominating_set,
    is_minimal_td_set,
    is_total_dominating_set,
    private_neighborhoods,
    total_domination_number,
    upper_total_domination_number,
)
from zfdom.families import (
    complete,
    cycle,
    double_clique_matched,
    g_star,
    path,
    star,
    windmill,
)

from oracles import (
    brute_gamma_t,
    brute_gamma_t_set,
    brute_minimal_td_sets,
    brute_td_masks,
    brute_upper_gamma_t,
    is_td_set_by_sets,
    neighbor_sets,
)
from strategies import isolate_free_graphs

K2 = Graph.from_edges(2, [(0, 1)])
STAR3 = star(3).graph  # center 0, leaves 1..3
C4 = cycle(4).graph
C5 = cycle(5).graph
K4 = complete(4).graph


class TestDominationPredicates:
    def test_star_center(self):
        center = VertexSet.of([0], 4)
        assert is_dominating_set(STAR3, center)
        assert not is_total_dominating_set(STAR3, center)
        assert is_total_dominating_set(STAR3, VertexSet.of([0, 1], 4))

    def test_cycle_pair_misses_a_vertex(self):
        assert not is_total_dominating_set(C5, VertexSet.of([0, 1], 5))


class TestPrivateNeighborhoods:
    def test_k2_internal_privates(self):
        both = VertexSet.full(2)
        pn, epn, ipn = private_neighborhoods(K2, both, 0)
        assert list(pn) == [1] and list(epn) == [] and list(ipn) == [1]

    def test_star_external_privates(self):
        d = VertexSet.of([0, 1], 4)
        pn, epn, ipn = private_neighborhoods(STAR3, d, 0)
        assert list(epn) == [2, 3] and list(ipn) == [1]

    def test_clique_pair(self):
        d = VertexSet.of([0, 1], 4)
        pn, epn, ipn = private_neighborhoods(K4, d, 0)
        assert list(pn) == [1] and list(ipn) == [1] and list(epn) == []

    def test_splits_disjointly(self):
        d = VertexSet.of([0, 1, 2], 5)
        for v in d:
            pn, epn, ipn = private_neighborhoods(C5, d, v)
            assert (epn | ipn) == pn and not (epn & ipn)

    def test_requires_membership(self):
        with pytest.raises(ValueError):
            private_neighborhoods(C5, VertexSet.of([0, 1], 5), 3)


class TestMinimality:
    def test_certificates(self):
        assert is_minimal_td_set(K2, VertexSet.full(2)) is not None
        assert is_minimal_td_set(STAR3, VertexSet.of([0, 1], 4)) is not None
        cert = is_minimal_td_set(C5, VertexSet.of([0, 1, 2], 5))
        assert cert is not None
        assert set(cert.witnesses) == {0, 1, 2}

    def test_redundant_set_is_not_minimal(self):
        assert is_minimal_td_set(C4, VertexSet.of([0, 1, 2], 4)) is None

    def test_non_td_set_raises_distinct_error(self):
        with pytest.raises(NotTotalDominatingError):
            is_minimal_td_set(C5, VertexSet.of([0, 1], 5))

    def test_agrees_with_subset_definition(self, graphs_by_order):
        for n in range(1, 8):
            for g in graphs_by_order[n]:
                nbrs = neighbor_sets(g)
                expected = set(brute_minimal_td_sets(g))
                for mask in range(1 << n):
                    d = VertexSet(mask, n)
                    if not is_td_set_by_sets(nbrs, set(d)):
                        continue
                    cert = is_minimal_td_set(g, d)
                    assert (cert is not None) == (frozenset(d) in expected)

    def test_witnesses_are_the_private_neighborhoods(self, graphs_by_order):
        for n in range(2, 8):
            for g in graphs_by_order[n]:
                if not all(g.adj):
                    continue
                for d in enumerate_minimal_td_sets(g):
                    cert = is_minimal_td_set(g, d)
                    assert cert.dset == d and list(cert.witnesses) == list(d)
                    for v, witness in cert.witnesses.items():
                        assert witness == private_neighborhoods(g, d, v)[1:]


class TestExactNumbers:
    def test_family_values(self):
        for k in (2, 3, 4):
            assert total_domination_number(double_clique_matched(k).graph)[0] == 2
        assert upper_total_domination_number(windmill(3, 2).graph)[0] == 4
        assert upper_total_domination_number(windmill(3, 3).graph)[0] == 6
        for base in (Graph(1, (0,)), path(3).graph, C5, K4):
            assert upper_total_domination_number(g_star(base).graph)[0] == 2

    def test_isolated_vertices_rejected(self):
        lonely = Graph.from_edges(3, [(0, 1)])
        with pytest.raises(IsolatedVertexError):
            total_domination_number(lonely)
        with pytest.raises(IsolatedVertexError):
            upper_total_domination_number(lonely)

    def test_witnesses_and_oracle_agreement(self, graphs_by_order):
        for n in range(1, 6):
            for g in graphs_by_order[n]:
                if any(not g.adj[v] for v in range(n)):
                    continue
                gt, dset = total_domination_number(g)
                assert gt == brute_gamma_t(g)
                assert is_total_dominating_set(g, dset) and len(dset) == gt
                upper, uset = upper_total_domination_number(g)
                assert upper == brute_upper_gamma_t(g)
                assert gt <= upper
                assert is_minimal_td_set(g, uset) is not None


class TestEnumeration:
    def test_k2_single_set_in_both_streams(self):
        assert [sorted(d) for d in enumerate_gamma_t_sets(K2)] == [[0, 1]]
        assert [sorted(d) for d in enumerate_minimal_td_sets(K2)] == [[0, 1]]

    def test_cycle_four_adjacent_pairs(self):
        got = [sorted(d) for d in enumerate_gamma_t_sets(C4)]
        assert got == [[0, 1], [1, 2], [0, 3], [2, 3]]  # ascending mask order

    def test_star_sets(self):
        got = [sorted(d) for d in enumerate_gamma_t_sets(STAR3)]
        assert got == [[0, 1], [0, 2], [0, 3]]

    def test_streams_sorted_by_mask(self, graphs_by_order):
        for g in graphs_by_order[5]:
            if any(not g.adj[v] for v in range(5)):
                continue
            masks = [d.mask for d in enumerate_minimal_td_sets(g)]
            assert masks == sorted(masks)

    def test_every_minimum_set_is_minimal(self, graphs_by_order):
        for n in range(1, 6):
            for g in graphs_by_order[n]:
                if any(not g.adj[v] for v in range(n)):
                    continue
                minimal = set(frozenset(d) for d in enumerate_minimal_td_sets(g))
                for d in enumerate_gamma_t_sets(g):
                    assert frozenset(d) in minimal


class TestPrivateNeighborObservation:
    def test_non_leaf_adjacent_members_have_external_privates(self, graphs_by_order):
        # in any minimal TD-set D, a vertex of a component C of G[D] that is
        # not adjacent to a degree-1 vertex of C keeps an external private
        for n in range(2, 7):
            for g in graphs_by_order[n]:
                if any(not g.adj[v] for v in range(n)):
                    continue
                for d in enumerate_minimal_td_sets(g):
                    sub, labels = induced_subgraph(g, d)
                    comp_masks = {}
                    for comp in components(sub):
                        for i in comp:
                            comp_masks[labels[i]] = tuple(labels[j] for j in comp)
                    for v in d:
                        comp = comp_masks[v]
                        leaves = [
                            u
                            for u in comp
                            if sum(1 for w in comp if g.has_edge(u, w)) == 1
                        ]
                        if any(g.has_edge(v, u) for u in leaves):
                            continue
                        _, epn, _ = private_neighborhoods(g, d, v)
                        assert epn, (sorted(d), v)


def _assert_matches_oracles(g: Graph) -> None:
    """Values, witness contracts and both streams against the definitions."""
    minimal = brute_td_masks(g, minimal=True)
    least = brute_gamma_t_set(g)
    gt, dset = total_domination_number(g)
    assert (gt, tuple(dset)) == (len(least), least)
    upper, uset = upper_total_domination_number(g)
    top = max(mask.bit_count() for mask in minimal)
    assert (upper, uset.mask) == (top, min(m for m in minimal if m.bit_count() == top))
    assert [d.mask for d in enumerate_minimal_td_sets(g)] == minimal
    assert [d.mask for d in enumerate_gamma_t_sets(g)] == [
        mask for mask in brute_td_masks(g) if mask.bit_count() == gt
    ]


class TestEnumeratorContracts:
    def test_every_isolate_free_graph_up_to_seven_vertices(self, graphs_by_order):
        for n in range(8):
            for g in graphs_by_order[n]:
                if all(g.adj[v] for v in range(n)):
                    _assert_matches_oracles(g)

    @settings(max_examples=100, deadline=None, database=None)
    @given(isolate_free_graphs())
    def test_random_graphs_up_to_twelve_vertices(self, g):
        _assert_matches_oracles(g)

    @pytest.mark.parametrize("g", [path(16).graph, cycle(16).graph, windmill(3, 7).graph])
    def test_search_is_pruned_on_sparse_graphs(self, g, meter):
        """The depth-first search visits O(n) nodes per minimal TD-set here.

        Without the feasibility cut the same sets cost about 40 to 550 times
        as many nodes; the count is the work meter's, not a clock reading.
        """
        masks = domination._minimal_td_masks(g)
        assert 0 < meter.counts["td_nodes"] <= 2 * (g.n + 1) * len(masks)


class TestCappedGammaT:
    """γt alone, from the search with a size cap, as the deletion check reads it."""

    def test_matches_brute_on_every_small_graph(self, graphs_by_order):
        for n in range(2, 8):
            for g in graphs_by_order[n]:
                if all(g.adj):
                    assert domination._gamma_t_value(g) == brute_gamma_t(g)

    @settings(max_examples=100, deadline=None, database=None)
    @given(isolate_free_graphs())
    def test_matches_brute_on_random_graphs(self, g):
        assert domination._gamma_t_value(g) == brute_gamma_t(g)

    def test_rejects_isolated_vertices(self):
        with pytest.raises(IsolatedVertexError):
            domination._gamma_t_value(Graph.from_edges(3, [(0, 1)]))

    def test_leaves_the_cached_enumeration_alone(self):
        g = cycle(5).graph
        masks = domination._minimal_td_masks(g)
        before = domination._minimal_td_masks.cache_info()
        assert domination._gamma_t_value(path(4).graph) == 2
        assert domination._minimal_td_masks(g) is masks
        after = domination._minimal_td_masks.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
