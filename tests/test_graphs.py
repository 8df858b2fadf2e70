import pytest

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
    is_twin_vertex,
    parse_graph6,
    simplicial_vertices,
    windmill,
)
from zfdom.families import complete, cycle, path, star

from oracles import encode_graph6_by_hand, has_long_induced_cycle

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

    def test_agrees_with_induced_cycle_search(self, connected_by_order):
        for n in range(1, 8):
            for g in connected_by_order[n]:
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
