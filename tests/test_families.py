import itertools

import pytest

from zfdom import (
    Graph,
    VertexSet,
    components,
    delete_vertex,
    emit_graph6,
    grundy_total_number,
    induced_subgraph,
    is_clique,
    parse_graph6,
    total_domination_number,
    upper_total_domination_number,
    z_grundy_number,
    zero_forcing_number,
)
from zfdom._smallgraphs import are_isomorphic
from zfdom.families import (
    DERIVED,
    PAPER,
    FamilyInstance,
    complete,
    complete_multipartite,
    cycle,
    double_clique_matched,
    g_star,
    h_extension,
    parse_family_spec,
    path,
    star,
    windmill,
)


class TestWindmill:
    def test_shape(self):
        inst = windmill(3, 2)
        g = inst.graph
        assert g.n == 5 and g.degree(0) == 4
        assert emit_graph6(g) == "D{c"
        inst4 = windmill(4, 2)
        assert inst4.graph.n == 7

    def test_hub_removal_leaves_disjoint_cliques(self):
        for k, n in ((3, 2), (3, 3), (4, 2), (5, 3)):
            g = windmill(k, n).graph
            rest = delete_vertex(g, 0)
            comps = components(rest)
            assert len(comps) == n
            assert all(len(c) == k - 1 and is_clique(rest, c) for c in comps)

    def test_parameter_bounds(self):
        with pytest.raises(ValueError):
            windmill(2, 2)
        with pytest.raises(ValueError):
            windmill(3, 1)


class TestDoubleClique:
    def test_smallest_is_the_four_cycle(self):
        assert are_isomorphic(double_clique_matched(2).graph, cycle(4).graph)

    def test_regularity(self):
        for k in (2, 3, 4, 5):
            g = double_clique_matched(k).graph
            assert g.n == 2 * k
            assert all(g.degree(v) == k for v in range(g.n))

    def test_parameter_bounds(self):
        with pytest.raises(ValueError):
            double_clique_matched(1)


class TestPlainFamilies:
    def test_star_path_cycle_complete(self):
        assert star(4).graph.degree(0) == 4
        assert path(6).graph.edge_count() == 5
        assert cycle(6).graph.edge_count() == 6
        assert is_clique(complete(5).graph, complete(5).graph.full_set())

    def test_multipartite(self):
        g = complete_multipartite((2, 3)).graph
        assert g.n == 5 and g.edge_count() == 6
        assert not g.has_edge(0, 1) and g.has_edge(0, 2)

    def test_expected_metadata_presence(self):
        assert {e.invariant for e in star(3).expected} == {"zgrundy", "gamma_t"}
        assert star(1).expected == ()  # K_2 is complete; the claim needs >= 2 leaves
        assert {e.invariant for e in path(5).expected} == {"zero_forcing"}
        assert {e.invariant for e in cycle(5).expected} == {
            "zero_forcing",
            "gamma_t",
            "zgrundy",
        }


class TestDerivedFamilies:
    def test_g_star_of_a_point_is_a_path(self):
        inst = g_star(Graph(1, (0,)))
        assert are_isomorphic(inst.graph, path(3).graph)

    def test_g_star_structure(self):
        base = cycle(5).graph
        g = g_star(base).graph
        assert g.n == 7
        assert g.degree(5) == 6  # apex sees base plus companion
        assert g.degree(6) == 1

    def test_h_extension_smallest_is_a_triangle(self):
        inst = h_extension(Graph(1, (0,)), (2,))
        assert are_isomorphic(inst.graph, complete(3).graph)

    def test_h_extension_keeps_base_induced(self):
        base = path(3).graph
        g = h_extension(base, (2, 3)).graph
        for u in range(3):
            for v in range(u + 1, 3):
                assert g.has_edge(u, v) == base.has_edge(u, v)
        assert all(g.has_edge(u, v) for u in range(3) for v in range(3, g.n))

    def test_h_extension_needs_enough_cliques(self):
        with pytest.raises(ValueError, match="at least 3"):
            h_extension(cycle(5).graph, (2, 2))

    def test_h_extension_of_p3_and_a_point_needs_three_cliques(self):
        """With two cliques zgrundy would be 3, not 2, although zgrundy(H) = 2."""
        base = parse_graph6("CE")  # P3 plus an isolated vertex
        assert z_grundy_number(base)[0] == 2
        assert z_grundy_number(parse_graph6("GE~~fc"))[0] == 3  # its extension by K2, K2
        with pytest.raises(ValueError, match="need at least 3 cliques"):
            h_extension(base, (2, 2))


SOLVERS = {
    "zero_forcing": zero_forcing_number,
    "zgrundy": z_grundy_number,
    "gamma_t": total_domination_number,
    "upper_gamma_t": upper_total_domination_number,
    "grundy_total": grundy_total_number,
}


def assert_claims_hold(inst):
    assert inst.expected, inst.spec_string()  # families must carry claims
    for claim in inst.expected:
        actual = SOLVERS[claim.invariant](inst.graph)[0]
        assert claim.holds_for(actual), (inst.spec_string(), claim, actual)


def assert_derived_families_hold(bases):
    """``g_star`` of every base, and ``h_extension`` with 1 up to guard + 2 cliques.

    The guard is zgrundy(H), plus min(#isolated, 2) for a base H with
    isolated vertices, whose claims are then tagged derived; fewer cliques
    are refused.  Cliques have order 2, or all have order 3.  Every accepted
    extension G also checks the abstract's claim directly: G holds H as the
    subgraph induced by its first n(H) vertices, and Z(G) + Γt(G)/2 = n(G).
    """
    for h in bases:
        if h.n:
            assert_claims_hold(g_star(h))
        isolated = sum(not row for row in h.adj)
        guard = max(z_grundy_number(h)[0] + min(isolated, 2), 1)
        for order, ell in itertools.product((2, 3), range(1, guard + 3)):
            if ell < guard:
                with pytest.raises(ValueError, match=f"need at least {guard} cliques"):
                    h_extension(h, (order,) * ell)
                continue
            inst = h_extension(h, (order,) * ell)
            assert_claims_hold(inst)
            assert {c.provenance for c in inst.expected} == {DERIVED if isolated else PAPER}
            g = inst.graph
            assert induced_subgraph(g, VertexSet.of(range(h.n), g.n))[0] == h
            z, upper = zero_forcing_number(g)[0], upper_total_domination_number(g)[0]
            assert 2 * z + upper == 2 * g.n, (inst.spec_string(), z, upper)


class TestClaimsMatchTheSolvers:
    def test_named_families(self):
        instances = (
            [windmill(k, n) for k in (3, 4, 5) for n in (2, 3, 4)]
            + [double_clique_matched(k) for k in range(2, 6)]
            + [star(leaves) for leaves in range(2, 8)]
            + [path(n) for n in range(1, 13)]
            + [cycle(n) for n in range(3, 11)]
            + [complete(n) for n in range(1, 8)]
            + [
                complete_multipartite(sizes)
                for parts in (2, 3)
                for sizes in itertools.product((1, 2, 3), repeat=parts)
            ]
        )
        for inst in instances:
            assert_claims_hold(inst)

    def test_derived_families_on_every_base_up_to_six_vertices(self, graphs_by_order):
        assert_derived_families_hold(g for n in range(7) for g in graphs_by_order[n])

    @pytest.mark.extended
    def test_derived_families_on_seven_vertex_bases(self, graphs_by_order):
        assert_derived_families_hold(graphs_by_order[7])


class TestSpecStrings:
    @pytest.mark.parametrize(
        "spec",
        [
            "windmill:3,2",
            "doubleclique:3",
            "star:4",
            "path:7",
            "cycle:5",
            "complete:4",
            "multipartite:2,2,3",
            "gstar:Bw",
            "hext:Bw:2,2",
        ],
    )
    def test_round_trip(self, spec):
        inst = parse_family_spec(spec)
        assert isinstance(inst, FamilyInstance)
        again = parse_family_spec(inst.spec_string())
        assert again.graph == inst.graph

    def test_bad_specs(self):
        with pytest.raises(ValueError, match="unknown family"):
            parse_family_spec("moebius:5")
        with pytest.raises(ValueError):
            parse_family_spec("windmill:3")
        with pytest.raises(ValueError):
            parse_family_spec("path:x")
