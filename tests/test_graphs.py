import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zfdom import (
    Graph,
    Graph6Error,
    UnsupportedSizeError,
    VertexSet,
    are_closed_twins,
    are_open_twins,
    components,
    delete_vertex,
    emit_graph6,
    enumerate_labeled_graphs,
    has_clique_component,
    induced_subgraph,
    is_biconnected,
    is_chordal,
    is_clique,
    is_clique_component,
    is_connected,
    is_dominating_set,
    is_simplicial,
    is_total_dominating_set,
    is_twin_vertex,
    parse_graph6,
    simplicial_vertices,
    windmill,
)
from zfdom.families import complete, cycle, path, star
from zfdom.graphs import (
    _component_masks,
    _edge_pairs,
    _orbit_leaders,
    _pair_relabellings,
    _reach,
    _union,
)

from oracles import (
    components_by_sets,
    encode_graph6_by_hand,
    has_long_induced_cycle,
    is_td_set_by_sets,
    least_relabelled_edge_mask,
    neighbor_sets,
    reached_by_sets,
)
from strategies import graphs, graphs_with_twins

K3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
P3 = Graph.from_edges(3, [(0, 1), (1, 2)])
P4 = path(4).graph
C4 = cycle(4).graph
K4 = complete(4).graph


class TestVertexSet:
    def test_algebra_and_iteration(self):
        a = VertexSet.of([0, 2, 5], 6)
        b = VertexSet.of([2, 3], 6)
        assert list(a) == [0, 2, 5]
        assert len(a) == 3 and 2 in a and 1 not in a
        assert list(a | b) == [0, 2, 3, 5]
        assert list(a & b) == [2]
        assert list(a - b) == [0, 5]
        assert b <= (a | b) and not a <= b
        assert a.add(1) == VertexSet.of([0, 1, 2, 5], 6)
        assert a.remove(5) == VertexSet.of([0, 2], 6)

    def test_bounds_checked(self):
        with pytest.raises(IndexError):
            VertexSet.of([4], 4)
        with pytest.raises(ValueError):
            VertexSet(1 << 4, 4)
        with pytest.raises(ValueError):
            VertexSet.of([0], 3) | VertexSet.of([0], 4)


class TestGraphConstruction:
    def test_from_edges(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert g.edge_count() == 2
        assert sorted(g.edges()) == [(0, 1), (1, 2)]
        assert g.degree(1) == 2 and g.min_degree() == 1 and g.max_degree() == 2

    def test_validation(self):
        with pytest.raises(ValueError, match="asymmetric"):
            Graph(2, (0b10, 0b00))
        with pytest.raises(ValueError, match="loop"):
            Graph(1, (0b1,))
        with pytest.raises(ValueError, match="rows"):
            Graph(2, (0,))
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 2)])

    def test_derived_graphs_equal_checked_ones(self, graphs_by_order, connected_by_order):
        """Graphs made without the row checks equal those the checked constructor makes."""
        derived = [
            *graphs_by_order[6],
            *connected_by_order[6],
            *enumerate_labeled_graphs(4),
            *(induced_subgraph(g, VertexSet(mask, 5))[0]
              for g in graphs_by_order[5] for mask in range(1 << 5)),
        ]
        for h in derived:
            checked = Graph(h.n, h.adj)
            assert type(h) is Graph
            assert (h.n, h.adj, h.cadj) == (checked.n, checked.adj, checked.cadj)

    def test_neighborhoods(self):
        assert list(P3.open_nbhd(1)) == [0, 2]
        assert list(P3.closed_nbhd(1)) == [0, 1, 2]
        assert list(K4.open_nbhd(0)) == [1, 2, 3]
        edgeless = Graph.from_edges(3, [])
        assert list(edgeless.open_nbhd(1)) == []
        with pytest.raises(IndexError):
            P3.open_nbhd(3)


class TestGraph6:
    def test_known_tokens(self):
        assert emit_graph6(K3) == "Bw" and parse_graph6("Bw") == K3
        assert emit_graph6(P3) == "Bg" and parse_graph6("Bg") == P3
        assert emit_graph6(Graph(1, (0,))) == "@"
        assert emit_graph6(Graph(0, ())) == "?"
        assert parse_graph6("?").n == 0

    def test_round_trip_small_orders(self, graphs_by_order):
        for n in range(7):
            for g in graphs_by_order[n]:
                token = emit_graph6(g)
                assert token == encode_graph6_by_hand(g)
                assert parse_graph6(token) == g

    def test_round_trip_full_labeled_n4(self):
        for g in enumerate_labeled_graphs(4):
            assert parse_graph6(emit_graph6(g)) == g

    @staticmethod
    def assert_decodes(g):
        """The rows decoded without checks pass them, and encode back to the token."""
        token = encode_graph6_by_hand(g)
        h = parse_graph6(token)
        checked = Graph(h.n, h.adj)
        assert (h.n, h.adj, h.cadj) == (checked.n, checked.adj, checked.cadj)
        assert h == g and encode_graph6_by_hand(h) == token

    def test_decoded_rows_of_every_small_graph(self, graphs_by_order):
        for n in range(8):
            for g in graphs_by_order[n]:
                self.assert_decodes(g)

    @settings(max_examples=100, deadline=None, database=None)
    @given(graphs())
    def test_decoded_rows_of_random_graphs(self, g):
        self.assert_decodes(g)

    def test_padding_bits_are_ignored(self, graphs_by_order):
        for n in range(2, 8):
            padding = -(n * (n - 1) // 2) % 6
            for g in graphs_by_order[n]:
                token = encode_graph6_by_hand(g)
                noisy = token[:-1] + chr(ord(token[-1]) | (1 << padding) - 1)
                assert parse_graph6(noisy) == g

    def test_parse_errors_carry_offsets(self):
        with pytest.raises(Graph6Error):
            parse_graph6("")
        with pytest.raises(UnsupportedSizeError):
            parse_graph6("~??")
        with pytest.raises(Graph6Error) as err:
            parse_graph6(chr(62) + "w")
        assert err.value.offset == 0
        with pytest.raises(Graph6Error) as err:
            parse_graph6("B" + chr(30))
        assert err.value.offset == 1
        with pytest.raises(Graph6Error) as err:
            parse_graph6("Bww")
        assert err.value.offset == 2
        with pytest.raises(Graph6Error):
            parse_graph6("B")  # truncated edge data

    def test_undecodable_bytes_are_named_by_value(self):
        # bytes read with errors="surrogateescape" arrive as lone surrogates
        line = b"B\xab".decode("ascii", "surrogateescape")
        with pytest.raises(Graph6Error, match=r"^character 0xab outside graph6 range \(byte offset 1\)$"):
            parse_graph6(line)
        with pytest.raises(Graph6Error, match=r"^invalid size byte 0xc3 \(byte offset 0\)$"):
            parse_graph6(b"\xc3\xa9".decode("ascii", "surrogateescape"))
        with pytest.raises(Graph6Error, match=r"^invalid size byte '&' \(byte offset 0\)$"):
            parse_graph6("&")

    def test_emit_rejects_large_graphs(self):
        with pytest.raises(UnsupportedSizeError):
            emit_graph6(Graph.from_edges(63, []))


class TestComponents:
    def test_examples(self):
        assert [sorted(c) for c in components(P3)] == [[0, 1, 2]]
        two_k2 = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert [sorted(c) for c in components(two_k2)] == [[0, 1], [2, 3]]
        edgeless = Graph.from_edges(3, [])
        assert [sorted(c) for c in components(edgeless)] == [[0], [1], [2]]

    def test_partition_property(self, graphs_by_order):
        for g in graphs_by_order[6]:
            comps = components(g)
            union = 0
            for c in comps:
                assert union & c.mask == 0
                union |= c.mask
            assert union == g.full_mask


class TestInducedSubgraph:
    def test_cycle_segment_is_path(self):
        c5 = cycle(5).graph
        sub, labels = induced_subgraph(c5, VertexSet.of([1, 2, 3], 5))
        assert labels == (1, 2, 3)
        assert sorted(sub.edges()) == [(0, 1), (1, 2)]

    def test_full_set_is_identity(self):
        sub, labels = induced_subgraph(C4, VertexSet.full(4))
        assert sub == C4 and labels == (0, 1, 2, 3)

    def test_clique_stays_clique(self):
        k5 = complete(5).graph
        sub, _ = induced_subgraph(k5, VertexSet.of([0, 2, 4], 5))
        assert sub == K3

    def test_delete_vertex(self):
        assert delete_vertex(P3, 2) == Graph.from_edges(2, [(0, 1)])
        with pytest.raises(IndexError):
            delete_vertex(P3, 3)

    @staticmethod
    def assert_deletion_is_induced(g):
        for v in range(g.n):
            h = delete_vertex(g, v)
            rest = VertexSet(g.full_mask & ~(1 << v), g.n)
            assert h == induced_subgraph(g, rest)[0]
            assert h.cadj == Graph(h.n, h.adj).cadj

    def test_deletion_is_the_induced_subgraph_on_every_small_graph(self, graphs_by_order):
        for n in range(1, 8):
            for g in graphs_by_order[n]:
                self.assert_deletion_is_induced(g)

    @settings(max_examples=100, deadline=None, database=None)
    @given(graphs())
    def test_deletion_is_the_induced_subgraph_on_random_graphs(self, g):
        self.assert_deletion_is_induced(g)


class TestCliquesTwinsSimplicial:
    def test_cliques(self):
        assert is_clique(K4, VertexSet.full(4))
        assert not is_clique(P3, VertexSet.of([0, 2], 3))
        assert is_clique(P3, VertexSet.empty(3))

    def test_clique_components(self):
        wd = windmill(3, 2).graph
        assert not any(is_clique_component(wd, c) for c in components(wd))
        assert not has_clique_component(wd)
        assert has_clique_component(K3)
        with pytest.raises(ValueError):
            is_clique_component(P3, VertexSet.of([0], 3))

    def test_twins(self):
        assert are_closed_twins(K3, 0, 1)
        s = star(3).graph
        assert are_open_twins(s, 1, 2)
        assert not are_closed_twins(P4, 0, 3) and not are_open_twins(P4, 0, 3)
        assert is_twin_vertex(K3, 0) and not is_twin_vertex(P4, 0)
        with pytest.raises(ValueError):
            are_closed_twins(K3, 1, 1)

    def test_simplicial(self):
        assert list(simplicial_vertices(P3)) == [0, 2]
        assert list(simplicial_vertices(C4)) == []
        assert list(simplicial_vertices(K4)) == [0, 1, 2, 3]
        assert list(simplicial_vertices(Graph.from_edges(2, []))) == [0, 1]


class TestChordal:
    def test_examples(self):
        assert not is_chordal(C4)
        assert not is_chordal(cycle(5).graph)
        assert is_chordal(P4)
        assert is_chordal(star(4).graph)
        assert is_chordal(K4)
        assert is_chordal(Graph.from_edges(3, []))

    def test_agrees_with_induced_cycle_search(self, graphs_by_order):
        for gs in graphs_by_order.values():
            for g in gs:
                assert is_chordal(g) == (not has_long_induced_cycle(g))

    def test_simplicial_deletion_preserves_chordality(self, connected_by_order):
        for n in range(2, 8):
            for g in connected_by_order[n]:
                if not is_chordal(g):
                    continue
                for v in simplicial_vertices(g):
                    assert is_chordal(delete_vertex(g, v))


class TestBiconnected:
    def test_examples(self):
        assert is_biconnected(C4) and is_biconnected(K3)
        assert not is_biconnected(P4)
        assert not is_biconnected(Graph.from_edges(2, [(0, 1)]))
        assert not is_biconnected(windmill(3, 2).graph)  # hub is a cut vertex


class TestEnumeration:
    def test_counts(self):
        assert sum(1 for _ in enumerate_labeled_graphs(2)) == 2
        assert sum(1 for _ in enumerate_labeled_graphs(3)) == 8
        assert sum(1 for _ in enumerate_labeled_graphs(4, connected_only=True)) == 38

    def test_refuses_large_orders(self):
        with pytest.raises(UnsupportedSizeError):
            next(enumerate_labeled_graphs(7))

    def test_connectivity(self):
        assert is_connected(P3)
        assert not is_connected(Graph.from_edges(4, [(0, 1), (2, 3)]))


def _labeled_leaders(n: int) -> list[int]:
    pairs = _edge_pairs(n)
    return _orbit_leaders(_pair_relabellings(n, pairs), len(pairs))


class TestLabeledOrbitLeaders:
    def test_one_leader_per_isomorphism_class(self):
        counts = [sum(least == mask for mask, least in enumerate(_labeled_leaders(n)))
                  for n in range(7)]
        assert counts == [1, 1, 2, 4, 11, 34, 156]  # OEIS A000088

    def test_each_leader_is_the_least_relabelling(self):
        for n in range(6):
            assert _labeled_leaders(n) == [
                least_relabelled_edge_mask(n, mask) for mask in range(1 << n * (n - 1) // 2)
            ]


def _mask(vertices) -> int:
    return sum(1 << v for v in vertices)


def _sample_masks(n: int) -> list[int]:
    """Every vertex set for n <= 5; else the full set and 24 seeded ones."""
    if n <= 5:
        return list(range(1 << n))
    rng = random.Random(n)
    return [(1 << n) - 1] + [rng.getrandbits(n) for _ in range(24)]


def _assert_agrees_with_sets(g: Graph, masks) -> None:
    """The mask primitives and the predicates built on them, against set definitions."""
    nbrs = neighbor_sets(g)
    everything = set(range(g.n))
    comps = components_by_sets(nbrs, everything)
    assert [set(c) for c in components(g)] == comps
    assert is_connected(g) == (len(comps) <= 1)
    assert is_biconnected(g) == (
        g.n >= 3
        and len(comps) == 1
        and all(len(components_by_sets(nbrs, everything - {v})) == 1 for v in everything)
    )
    simplicial = {v for v in everything if all(b in nbrs[a] for a, b in combinations(nbrs[v], 2))}
    for v in everything:
        assert is_simplicial(g, v) == (v in simplicial)
    assert set(simplicial_vertices(g)) == simplicial
    assert is_chordal(g) == (not has_long_induced_cycle(g))
    for mask in masks:
        s = {v for v in everything if mask >> v & 1}
        assert _union(g.adj, mask) == _mask(set().union(*(nbrs[v] for v in s)))
        assert _union(g.cadj, mask) == _mask(s.union(*(nbrs[v] for v in s)))
        for v in s:
            assert _reach(g.adj, 1 << v, mask) == _mask(reached_by_sets(nbrs, {v}, s))
        assert _component_masks(g.adj, mask) == [_mask(c) for c in components_by_sets(nbrs, s)]
        d = VertexSet(mask, g.n)
        assert is_clique(g, d) == all(b in nbrs[a] for a, b in combinations(s, 2))
        assert is_dominating_set(g, d) == all(v in s or nbrs[v] & s for v in everything)
        assert is_total_dominating_set(g, d) == is_td_set_by_sets(nbrs, s)


class TestMaskPrimitivesAgainstSets:
    def test_every_catalogue_graph(self, graphs_by_order):
        for n, gs in graphs_by_order.items():
            masks = _sample_masks(n)
            for g in gs:
                _assert_agrees_with_sets(g, masks)

    @settings(max_examples=150, deadline=None, database=None)
    @given(st.one_of(graphs(), graphs_with_twins()).flatmap(
        lambda g: st.tuples(st.just(g), st.lists(st.integers(0, g.full_mask), max_size=8))))
    def test_random_graphs(self, case):
        g, masks = case
        _assert_agrees_with_sets(g, [g.full_mask, *masks])
