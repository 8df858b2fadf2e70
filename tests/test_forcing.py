import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zfdom import (
    Graph,
    IsolatedVertexError,
    VertexSet,
    ZSequence,
    complement_duality_check,
    forcing,
    forcing_closure,
    grundy_total_number,
    is_z_sequence,
    is_zero_forcing_set,
    z_grundy_number,
    zero_forcing_number,
)
from zfdom.families import (
    complete,
    complete_multipartite,
    cycle,
    double_clique_matched,
    path,
    star,
    windmill,
)

from oracles import (
    brute_grundy_total,
    brute_grundy_total_sequence,
    brute_skew_forcing_set,
    brute_z_grundy,
    brute_z_grundy_sequence,
    brute_zero_forcing,
    forcing_steps_by_sets,
    neighbor_sets,
    skew_forcing_steps,
)
from strategies import graphs, graphs_with_twins, isolate_free_graphs


def random_graph(n, p, rng):
    return Graph.from_edges(
        n,
        [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ],
    )


class TestClosure:
    def test_path_end_forces_down_the_line(self):
        p4 = path(4).graph
        trace = forcing_closure(p4, VertexSet.of([0], 4))
        assert trace.steps == ((0, 1), (1, 2), (2, 3))
        assert trace.final == VertexSet.full(4)

    def test_cycle_single_vertex_stalls(self):
        trace = forcing_closure(cycle(4).graph, VertexSet.of([0], 4))
        assert trace.steps == () and list(trace.final) == [0]

    def test_clique_needs_all_but_one(self):
        trace = forcing_closure(complete(4).graph, VertexSet.of([0, 1, 2], 4))
        assert len(trace.steps) == 1 and trace.final == VertexSet.full(4)

    def test_confluence_under_reversed_ties(self, graphs_by_order):
        rng = random.Random(7)
        for g in graphs_by_order[5]:
            blue = VertexSet.of([v for v in range(5) if rng.random() < 0.4], 5)
            a = forcing_closure(g, blue).final
            b = forcing_closure(g, blue, reverse_ties=True).final
            assert a == b

    def test_recorded_steps_are_legal_forces(self, graphs_by_order):
        rng = random.Random(13)
        for g in graphs_by_order[6]:
            blue = VertexSet.of([v for v in range(6) if rng.random() < 0.4], 6)
            trace = forcing_closure(g, blue)
            current = blue.mask
            for forcer, forced in trace.steps:
                white = g.adj[forcer] & ~current
                assert white == 1 << forced  # unique non-blue neighbor
                current |= white
            assert current == trace.final.mask
            assert trace.initial == blue

    @staticmethod
    def assert_trace_matches_rescan(g, blue_mask):
        nbrs = neighbor_sets(g)
        blue = VertexSet(blue_mask, g.n)
        for reverse_ties in (False, True):
            final, steps = forcing_steps_by_sets(nbrs, blue, highest_first=reverse_ties)
            trace = forcing_closure(g, blue, reverse_ties=reverse_ties)
            assert trace.steps == tuple(steps)
            assert trace.final == VertexSet.of(final, g.n)

    def test_trace_order_is_the_rescan_order(self, graphs_by_order):
        """The closure kernel forces by the least eligible vertex, as a rescan would.

        Every graph with n <= 6 and every blue set, under both tie orders.
        """
        for n in range(7):
            for g in graphs_by_order[n]:
                for blue in range(1 << n):
                    self.assert_trace_matches_rescan(g, blue)

    @settings(max_examples=300, deadline=None, database=None)
    @given(graphs(max_n=12), st.integers(0, (1 << 12) - 1))
    def test_trace_order_is_the_rescan_order_on_random_graphs(self, g, blue):
        self.assert_trace_matches_rescan(g, blue & g.full_mask)

    def test_monotone_in_the_initial_set(self):
        rng = random.Random(11)
        for _ in range(300):
            g = random_graph(8, 0.35, rng)
            small = [v for v in range(8) if rng.random() < 0.3]
            extra = [v for v in range(8) if rng.random() < 0.3]
            s = VertexSet.of(small, 8)
            t = VertexSet.of(set(small) | set(extra), 8)
            assert forcing_closure(g, s).final <= forcing_closure(g, t).final


class TestZeroForcingNumber:
    def test_paths_and_cycles(self):
        assert zero_forcing_number(path(7).graph)[0] == 1
        assert zero_forcing_number(cycle(5).graph)[0] == 2
        assert zero_forcing_number(complete(5).graph)[0] == 4

    def test_forcing_set_examples(self):
        p6 = path(6).graph
        assert is_zero_forcing_set(p6, VertexSet.of([0], 6))
        c5 = cycle(5).graph
        assert is_zero_forcing_set(c5, VertexSet.of([0, 1], 5))
        assert not is_zero_forcing_set(c5, VertexSet.of([0], 5))

    def test_edgeless_needs_everything(self):
        g = Graph.from_edges(3, [])
        assert zero_forcing_number(g) == (3, VertexSet.full(3))

    def test_witness_forces_and_matches_brute(self, graphs_by_order):
        for n in range(8):
            for g in graphs_by_order[n]:
                k, witness = zero_forcing_number(g)
                brute_k, brute_set = brute_zero_forcing(g)
                assert k == brute_k
                assert len(witness) == k and is_zero_forcing_set(g, witness)
                assert tuple(witness) == brute_set  # lexicographically least

    @settings(max_examples=60, deadline=None, database=None)
    @given(graphs_with_twins(max_n=12))
    def test_graphs_with_twins_match_brute(self, g):
        k, witness = zero_forcing_number(g)
        assert (k, tuple(witness)) == brute_zero_forcing(g)

    def test_stars_need_all_leaves_but_one(self):
        for leaves in range(2, 9):
            assert zero_forcing_number(star(leaves).graph) == (
                leaves - 1,
                VertexSet.of(range(1, leaves), leaves + 1),
            )


class TestWavefront:
    def test_value_is_exact(self, graphs_by_order):
        """The seed search would hide a low value: it climbs to the least good size."""
        for n in range(8):
            for g in graphs_by_order[n]:
                value = brute_zero_forcing(g)[0]
                assert forcing._wavefront_value(g) == value
                assert forcing._wavefront_value(g, forcing._twin_seed(g)) == value

    def test_twin_seed_is_every_vertex_with_a_higher_twin(self, graphs_by_order):
        """The least minimum forcing set holds all of it."""
        for n in range(8):
            for g in graphs_by_order[n]:
                expected = VertexSet.of(
                    (u for u in range(n) for v in range(u + 1, n)
                     if g.adj[u] & ~(1 << v) == g.adj[v] & ~(1 << u)),
                    n,
                )
                seed = VertexSet(forcing._twin_seed(g), n)
                assert seed == expected
                assert seed <= VertexSet.of(brute_zero_forcing(g)[1], n)

    @pytest.mark.parametrize(
        "instance, witness",
        [(windmill(3, 10), (0, *range(1, 21, 2))), (star(30), tuple(range(1, 30)))],
        ids=["windmill:3,10", "star:30"],
    )
    def test_twin_classes_start_blue(self, instance, witness, meter):
        """At most ten closures; today windmill:3,10 takes 4 and star:30 takes 2.

        Without the twin seed, windmill:3,10 takes about 60,300 closures,
        almost all in the witness scan, and star:30 would keep about 2^29
        closed masks in the wavefront; the meter's deadline stops it.
        """
        k, found = zero_forcing_number(instance.graph)
        assert (k, tuple(found)) == (len(witness), witness)
        assert sum(meter.counts.values()) <= 10  # Z's searches tick only closures

    @pytest.mark.parametrize(
        "instance, value, witness, closures",
        [
            (windmill(3, 10), 11, (0, 1, 3, 5, 7, 9, 11, 13, 15, 17, 19), 10),
            (windmill(4, 6), 13, (0, 1, 2, 4, 5, 7, 8, 10, 11, 13, 14, 16, 17), 10),
        ],
        ids=["windmill:3,10", "windmill:4,6"],
    )
    def test_large_windmills_are_cheap(self, instance, value, witness, closures, meter):
        """At most ten wavefront closures; today both graphs take three.

        From the twin seed the wavefront runs 3 closures and the seed scan
        one on each graph.
        """
        k, found = zero_forcing_number(instance.graph)
        assert (k, tuple(found)) == (value, witness)
        assert 0 < meter.counts["closures:_wavefront_value"] <= closures


class TestZSequences:
    def test_cycle_prefix_is_valid(self):
        check = is_z_sequence(cycle(5).graph, (0, 1, 2))
        assert check.valid and check.failed_index is None

    def test_closed_twins_fail(self):
        check = is_z_sequence(Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)]), (0, 1))
        assert not check.valid and check.failed_index == 1

    def test_star_footprints(self):
        s = star(3).graph  # center 0, leaves 1..3
        check = is_z_sequence(s, (1, 0))
        assert check.valid
        assert list(check.footprints[0]) == [0, 1]
        assert list(check.footprints[1]) == [2, 3]

    def test_degenerate_sequences(self):
        s = star(3).graph
        assert is_z_sequence(s, ()).valid
        assert is_z_sequence(s, (0,)).valid
        edgeless = Graph.from_edges(2, [])
        assert not is_z_sequence(edgeless, (0,)).valid

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            is_z_sequence(path(3).graph, (0, 0))
        with pytest.raises(IndexError):
            is_z_sequence(path(3).graph, (0, 5))

    def test_one_pass_iterables_are_read_once(self):
        c4 = cycle(4).graph
        assert is_z_sequence(c4, iter([0, 2])) == is_z_sequence(c4, [0, 2])
        assert is_z_sequence(c4, iter([0, 2])).failed_index == 1
        assert ZSequence.build(c4, iter([0, 1])).vertices == (0, 1)
        with pytest.raises(ValueError, match="step 1"):
            ZSequence.build(c4, iter([0, 2]))
        with pytest.raises(ValueError, match="duplicate vertex 0"):
            is_z_sequence(c4, iter([0, 0]))

    def test_footprints_partition_what_they_cover(self, graphs_by_order):
        for g in graphs_by_order[5]:
            _, witness = z_grundy_number(g)
            union = 0
            for fp in witness.footprints:
                assert fp.mask & union == 0
                union |= fp.mask
            for i, v in enumerate(witness.vertices):
                others = witness.footprints[i].mask & ~(1 << v)
                assert others != 0  # everyone footprints a vertex besides itself


class TestZGrundyNumber:
    def test_family_values(self):
        for leaves in (2, 3, 4):
            assert z_grundy_number(star(leaves).graph)[0] == 2
        assert z_grundy_number(double_clique_matched(3).graph)[0] == 3
        assert z_grundy_number(windmill(3, 3).graph)[0] == 3
        assert z_grundy_number(cycle(5).graph)[0] == 3

    def test_edgeless_graph_has_empty_witness(self):
        k, witness = z_grundy_number(Graph.from_edges(4, []))
        assert k == 0 and witness.vertices == ()

    def test_witness_is_valid_and_matches_brute(self, graphs_by_order):
        for n in range(6):
            for g in graphs_by_order[n]:
                k, witness = z_grundy_number(g)
                assert len(witness) == k
                assert is_z_sequence(g, witness.vertices).valid
                assert k == brute_z_grundy(g)


class TestGrundyTotalNumber:
    def test_examples(self):
        assert grundy_total_number(Graph.from_edges(2, [(0, 1)]))[0] == 2
        assert grundy_total_number(cycle(4).graph)[0] == 2  # K_{2,2}
        assert grundy_total_number(path(4).graph)[0] == 4
        assert grundy_total_number(complete_multipartite((2, 3)).graph)[0] == 2

    def test_isolated_vertex_rejected(self):
        with pytest.raises(IsolatedVertexError):
            grundy_total_number(Graph.from_edges(3, [(0, 1)]))

    def test_matches_brute(self, graphs_by_order):
        for n in range(1, 6):
            for g in graphs_by_order[n]:
                if any(not g.adj[v] for v in range(n)):
                    continue
                value, seq = grundy_total_number(g)
                assert value == brute_grundy_total(g)
                covered = set()
                nbrs = neighbor_sets(g)
                for v in seq:  # re-check the open-neighborhood condition
                    assert nbrs[v] - covered
                    covered |= nbrs[v]


class TestGrundyWitnesses:
    def test_both_witnesses_are_the_least_optimum_sequence(self, graphs_by_order):
        for n in range(8):
            for g in graphs_by_order[n]:
                assert z_grundy_number(g)[1].vertices == brute_z_grundy_sequence(g)
                if all(g.adj):
                    assert grundy_total_number(g)[1] == brute_grundy_total_sequence(g)

    @settings(max_examples=40, deadline=None, database=None)
    @given(graphs())
    def test_random_graphs_up_to_twelve_vertices(self, g):
        assert z_grundy_number(g)[1].vertices == brute_z_grundy_sequence(g)
        if all(g.adj):
            assert grundy_total_number(g)[1] == brute_grundy_total_sequence(g)

    @pytest.mark.parametrize(
        "instance, zgrundy, grundy_total",
        [(cycle(28), 26, 26), (path(24), 23, 24), (windmill(3, 10), 10, 20)],
        ids=["cycle:28", "path:24", "windmill:3,10"],
    )
    def test_search_is_pruned_on_sparse_graphs(self, instance, zgrundy, grundy_total, meter):
        """At most 5 n^2 DP states here; a covered-mask memo needs millions on cycle:28."""
        g = instance.graph
        for solver, value in ((z_grundy_number, zgrundy), (grundy_total_number, grundy_total)):
            before = meter.counts.get("dp_states", 0)
            assert solver(g)[0] == value
            assert meter.counts["dp_states"] - before <= 5 * g.n**2


class TestWorkCaps:
    """Work counts of the exact searches over the 853 connected 7-vertex graphs."""

    def test_grundy_dp_states(self, connected_by_order, meter):
        """At most 15,000 DP states for both covers; the DP solves 13,609.

        A state is worth at most its uncovered count, which cuts the scan of
        its moves; without that cut the same DPs solve 25,341 states.
        """
        for g in connected_by_order[7]:
            z_grundy_number(g)
            if all(g.adj):
                grundy_total_number(g)
        assert 0 < meter.counts["dp_states"] <= 15_000

    def test_wavefront_closes_each_grown_mask_once(self, connected_by_order, meter):
        """At most 7,600 wavefront closures; the search runs 7,045.

        Different moves often grow the same mask; closing it on every move
        costs 9,105 closures.
        """
        for g in connected_by_order[7]:
            zero_forcing_number(g)
        assert 0 < meter.counts["closures:_wavefront_value"] <= 7_600


class TestSkewDuality:
    """Lin (LAA 2019): the Grundy total domination number is n - Z_-(G).

    Z_- is the skew zero forcing number.  The constructive half is checked
    too: the vertices a skew forcing set leaves white, in reverse forcing
    order, form a total Grundy sequence in which each forcer is a vertex
    its forced vertex dominates first.
    """

    @staticmethod
    def assert_dual(g):
        seed = brute_skew_forcing_set(g)
        assert grundy_total_number(g)[0] == g.n - len(seed)
        nbrs = neighbor_sets(g)
        blue, steps = skew_forcing_steps(nbrs, seed)
        assert len(blue) == g.n
        covered = set()
        for forcer, forced in reversed(steps):
            assert forcer in nbrs[forced] - covered
            covered |= nbrs[forced]
        assert sorted(forced for _, forced in steps) == sorted(set(range(g.n)) - set(seed))

    def test_isolate_free_graphs_up_to_seven_vertices(self, graphs_by_order):
        for n in range(2, 8):
            for g in graphs_by_order[n]:
                if all(g.adj):
                    self.assert_dual(g)

    @settings(max_examples=100, deadline=None, database=None)
    @given(isolate_free_graphs())
    def test_random_graphs_up_to_twelve_vertices(self, g):
        self.assert_dual(g)


class TestDuality:
    def test_duality_small_orders(self, graphs_by_order):
        for n in range(6):
            for g in graphs_by_order[n]:
                assert zero_forcing_number(g)[0] + z_grundy_number(g)[0] == n

    def test_complement_correspondence_examples(self):
        c5 = cycle(5).graph
        assert complement_duality_check(c5, (0, 1, 2))
        assert complement_duality_check(Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)]), (0, 1))
        assert complement_duality_check(c5, ())
        # {0, 2} orders into no Z-sequence of C4, and {1, 3} does not force it
        assert complement_duality_check(cycle(4).graph, iter([0, 2]))
        with pytest.raises(ValueError, match="duplicate vertex 0"):
            complement_duality_check(c5, iter([0, 0]))

    def test_complement_correspondence_random(self):
        rng = random.Random(3)
        for _ in range(500):
            g = random_graph(7, rng.random(), rng)
            seq = rng.sample(range(7), rng.randint(0, 7))
            assert complement_duality_check(g, tuple(seq))
