"""Acceptance suite: exhaustive desk-scale verification, one test per criterion.

Each passing test prints one ``[acceptance] <id> PASS`` line (shown under
``pytest -s``; failures carry the same tag).  All invariants checked here
are isomorphism invariants, so one labeled representative per isomorphism
class covers every graph of that order.

Criterion 08d checks Row's characterization at minimum degree 2: Z(G) = 2
exactly when G is a graph of two parallel paths (D. D. Row, "A technique
for computing the zero forcing number of a graph with a cut-vertex", LAA
436 (2012) 4423-4432), decided by a definition-level oracle.  Such graphs
are 2-connected and outerplanar, but the converse fails: the 3-sun `Eqro`
(and 3 more graphs at n = 7, 21 at n = 8) is 2-connected, outerplanar, has
minimum degree 2, and Z = 3.  So the shape is checked as a necessary
condition only, and the graphs that refute the unqualified equivalence
are reported.
"""

import itertools
import random

import pytest

from zfdom import (
    Graph,
    VertexSet,
    check_extremal_properties,
    check_gamma_two_characterization,
    emit_graph6,
    enumerate_labeled_graphs,
    enumerate_minimal_td_sets,
    delete_vertex,
    forcing_closure,
    grundy_total_number,
    half_z_sequence_from_minimal_td,
    hunt_extremal,
    is_biconnected,
    is_clique,
    is_k_parallel_paths_graph,
    is_outerplanar_small,
    is_z_sequence,
    isolated_vertices,
    parse_graph6,
    power_domination_number,
    recognize_parallel_paths,
    simplicial_vertices,
    total_domination_number,
    upper_total_domination_number,
    validate_decomposition,
    extract_decomposition,
    z_equals_delta,
    z_grundy_number,
    z_sequence_from_gamma_t,
    zero_forcing_number,
)
from zfdom.families import (
    complete,
    complete_multipartite,
    cycle,
    double_clique_matched,
    g_star,
    h_extension,
    path,
    star,
    windmill,
)

from oracles import two_parallel_paths_by_definition


def _report(tag: str, detail: str) -> None:
    print(f"[acceptance] {tag} PASS - {detail}")


def _isolate_free(graphs):
    return [g for g in graphs if g.n and not isolated_vertices(g)]


def test_01_duality_of_forcing_and_sequence_numbers(connected_by_order):
    """Z(G) + zgrundy(G) = n(G), the two sides found by independent searches.

    The zero forcing number comes from an ascending subset search over
    closures; the sequence number from a covered-mask DP over orders.
    """
    checked = 0
    for n in range(1, 8):
        for g in connected_by_order[n]:
            assert zero_forcing_number(g)[0] + z_grundy_number(g)[0] == n, emit_graph6(g)
            checked += 1
    _report("01", f"duality exact on {checked} connected graphs, n <= 7")


def test_02_sequence_built_from_minimum_total_dominating_set(connected_by_order):
    checked = 0
    for n in range(2, 8):
        for g in connected_by_order[n]:
            if is_clique(g, g.full_set()):
                continue
            gt = total_domination_number(g)[0]
            zg = z_grundy_number(g)[0]
            assert gt <= zg <= grundy_total_number(g)[0], emit_graph6(g)
            seq = z_sequence_from_gamma_t(g)
            assert len(seq) == gt, emit_graph6(g)
            assert is_z_sequence(g, seq.vertices).valid, emit_graph6(g)
            checked += 1
    _report("02", f"sequence of length gamma_t built on {checked} graphs, n <= 7")


def test_03_upper_total_domination_factor_two(graphs_by_order):
    checked = 0
    for n in range(1, 8):
        for g in _isolate_free(graphs_by_order[n]):
            upper = upper_total_domination_number(g)[0]
            assert upper <= 2 * z_grundy_number(g)[0], emit_graph6(g)
            checked += 1
    half_checked = 0
    for n in range(1, 7):
        for g in _isolate_free(graphs_by_order[n]):
            for d in enumerate_minimal_td_sets(g):
                seq = half_z_sequence_from_minimal_td(g, d)
                assert 2 * len(seq) >= len(d), (emit_graph6(g), sorted(d))
                half_checked += 1
    _report(
        "03",
        f"factor-2 bound on {checked} isolate-free graphs (n <= 7); "
        f"half-sequences for {half_checked} minimal sets (n <= 6)",
    )


SOLVERS = {
    "zero_forcing": lambda g: zero_forcing_number(g)[0],
    "zgrundy": lambda g: z_grundy_number(g)[0],
    "gamma_t": lambda g: total_domination_number(g)[0],
    "upper_gamma_t": lambda g: upper_total_domination_number(g)[0],
    "grundy_total": lambda g: grundy_total_number(g)[0],
}


def test_04_family_values_match_the_exact_solvers():
    instances = (
        [windmill(k, n) for k in (3, 4) for n in (2, 3)]
        + [double_clique_matched(k) for k in (2, 3, 4)]
        + [star(leaves) for leaves in (2, 3, 4, 5)]
        + [cycle(5)]
        + [path(n) for n in range(1, 13)]
        + [g_star(b) for b in (
            Graph(1, (0,)),
            path(3).graph,
            path(4).graph,
            cycle(5).graph,
            complete(4).graph,
        )]
        + [
            h_extension(Graph(1, (0,)), (2,)),
            h_extension(Graph.from_edges(2, [(0, 1)]), (2, 2)),
            h_extension(path(3).graph, (2, 3)),
            h_extension(path(4).graph, (2, 2, 2)),
            h_extension(cycle(5).graph, (2, 2, 2)),
        ]
        + [complete_multipartite(s) for s in ((2, 2), (2, 3), (1, 1, 2))]
        + [complete(n) for n in (1, 3, 5)]
        + [cycle(n) for n in (3, 4, 6)]
    )
    values = 0
    for inst in instances:
        assert inst.expected, inst.spec_string()  # families must carry claims
        for claim in inst.expected:
            actual = SOLVERS[claim.invariant](inst.graph)
            assert claim.holds_for(actual), (inst.spec_string(), claim, actual)
            values += 1
    # values singled out in the gate, stated explicitly
    assert zero_forcing_number(cycle(5).graph)[0] == 2
    for leaves in (2, 3, 4, 5):
        g = star(leaves).graph
        assert z_grundy_number(g)[0] == 2 and total_domination_number(g)[0] == 2
    _report("04", f"{values} claimed family values across {len(instances)} instances")


def test_05_two_characterization_biconditional(connected_by_order):
    checked = 0
    for n in range(2, 8):
        for g in connected_by_order[n]:
            if is_clique(g, g.full_set()):
                continue
            assert check_gamma_two_characterization(g), emit_graph6(g)
            checked += 1
    _report("05", f"value-2 characterization on {checked} graphs, n <= 7")


def _assert_no_three_three(graphs):
    simplicial_hits = list(hunt_extremal("simplicial-3-3", graphs=graphs))
    chordal_hits = list(hunt_extremal("chordal-3-3", graphs=graphs))
    assert simplicial_hits == [], [h["graph6"] for h in simplicial_hits]
    assert chordal_hits == []
    return len(graphs)


def test_06_no_simplicial_graph_with_both_numbers_three(connected_by_order):
    total = 0
    for n in range(1, 8):
        total += _assert_no_three_three(connected_by_order[n])
    _report("06", f"no hit among {total} connected graphs, n <= 7")


@pytest.mark.extended
def test_06_extended_order_eight(connected_eight):
    total = _assert_no_three_three(connected_eight)
    _report("06x", f"no hit among {total} connected graphs, n = 8")


def test_07_simplicial_deletion_moves_each_number_by_at_most_one(graphs_by_order):
    checked = 0
    for n in range(2, 8):
        for g in _isolate_free(graphs_by_order[n]):
            zg = z_grundy_number(g)[0]
            gt = total_domination_number(g)[0]
            for u in simplicial_vertices(g):
                h = delete_vertex(g, u)
                if not h.n or isolated_vertices(h):
                    continue
                assert zg - 1 <= z_grundy_number(h)[0] <= zg, (emit_graph6(g), u)
                assert gt - 1 <= total_domination_number(h)[0] <= gt, (emit_graph6(g), u)
                checked += 1
    _report("07", f"{checked} (graph, simplicial vertex) deletions, n <= 7")


def test_08a_min_degree_attainment_iff_single_low_degree_power_dominator(connected_by_order):
    # the one-vertex graph is the documented degenerate case: its lone
    # vertex power dominates at degree 0 although the forcing number is 1
    k1 = connected_by_order[1][0]
    assert z_equals_delta(k1) == (True, 0) and zero_forcing_number(k1)[0] == 1
    checked = 0
    for n in range(2, 8):
        for g in connected_by_order[n]:
            attained = zero_forcing_number(g)[0] == g.min_degree()
            assert attained == z_equals_delta(g)[0], emit_graph6(g)
            checked += 1
    _report("08a", f"witness equivalence on {checked} connected graphs, 2 <= n <= 7")


def test_08b_single_power_dominator_iff_parallel_paths(connected_by_order):
    checked = 0
    for n in range(1, 8):
        for g in connected_by_order[n]:
            recognized = recognize_parallel_paths(g)
            assert (power_domination_number(g)[0] == 1) == bool(recognized), emit_graph6(g)
            for x in range(g.n):
                d = extract_decomposition(g, x)
                if d is not None:
                    assert validate_decomposition(g, d).valid, (emit_graph6(g), x)
            checked += 1
    _report("08b", f"recognition equivalence on {checked} connected graphs, n <= 7")


def test_08c_min_degree_attainment_iff_min_degree_many_paths(connected_by_order):
    checked = 0
    for n in range(1, 8):
        for g in connected_by_order[n]:
            attained = zero_forcing_number(g)[0] == g.min_degree()
            assert attained == is_k_parallel_paths_graph(g, g.min_degree()), emit_graph6(g)
            checked += 1
    _report("08c", f"path-count equivalence on {checked} connected graphs, n <= 7")


def _outerplanar_mismatches(graphs):
    mismatches = []
    for g in graphs:
        if g.min_degree() != 2:
            continue
        forcing_two = zero_forcing_number(g)[0] == 2
        shape = is_biconnected(g) and is_outerplanar_small(g)
        if forcing_two != shape:
            mismatches.append((emit_graph6(g), forcing_two, shape))
    return mismatches


def _row_characterization(graphs):
    """Check Row's theorem on the minimum-degree-2 graphs among ``graphs``.

    Returns how many graphs were checked and the graph6 tokens of the
    2-connected outerplanar ones that are not graphs of two parallel paths.
    """
    checked = 0
    outside = []
    for g in graphs:
        if g.min_degree() != 2:
            continue
        parallel = two_parallel_paths_by_definition(g)
        shape = is_biconnected(g) and is_outerplanar_small(g)
        assert (zero_forcing_number(g)[0] == 2) == parallel, emit_graph6(g)
        assert shape or not parallel, emit_graph6(g)
        assert is_k_parallel_paths_graph(g, 2) == parallel, emit_graph6(g)
        if shape and not parallel:
            outside.append(emit_graph6(g))
        checked += 1
    return checked, outside


def _outside_detail(outside):
    shown = ", ".join(outside[:5]) + (", ..." if len(outside) > 5 else "")
    return (
        f"{len(outside)} 2-connected outerplanar graphs outside the class "
        f"(Z >= 3): {shown}"
    )


def test_08d_min_degree_two_forcing_iff_biconnected_outerplanar(connected_by_order):
    """Minimum degree 2: Z = 2 iff a graph of two parallel paths (Row 2012).

    Every graph of two parallel paths with minimum degree 2 is 2-connected
    and outerplanar, and the class agrees with the paper's graphs of two
    parallel paths from a hub (`is_k_parallel_paths_graph(g, 2)`).  The
    converse of the shape condition is false: the 3-sun `Eqro` and three
    graphs at n = 7 are 2-connected, outerplanar and have Z = 3; they are
    reported, not asserted as golden values.
    """
    checked, outside = _row_characterization(
        g for n in range(3, 8) for g in connected_by_order[n]
    )
    _report(
        "08d",
        f"Z = 2 iff two parallel paths on {checked} minimum-degree-2 graphs, "
        f"n <= 7; {_outside_detail(outside)}",
    )


def test_08d_forward_direction_holds(connected_by_order):
    checked = 0
    for n in range(3, 8):
        for g in connected_by_order[n]:
            if g.min_degree() != 2 or zero_forcing_number(g)[0] != 2:
                continue
            assert is_biconnected(g) and is_outerplanar_small(g), emit_graph6(g)
            checked += 1
    _report("08d-forward", f"forcing 2 implies 2-connected outerplanar on {checked} graphs")


@pytest.mark.extended
def test_08d_extended_order_eight(connected_eight):
    """Row's characterization at n = 8, where 21 graphs refute the converse."""
    checked, outside = _row_characterization(connected_eight)
    _report(
        "08dx",
        f"Z = 2 iff two parallel paths on {checked} minimum-degree-2 graphs, "
        f"n = 8; {_outside_detail(outside)}",
    )


@pytest.mark.extended
def test_08d_extended_forward_direction_holds(connected_eight):
    bad = [
        (token, two, shape)
        for token, two, shape in _outerplanar_mismatches(connected_eight)
        if two and not shape
    ]
    assert bad == []
    _report("08dx-forward", "forcing 2 implies 2-connected outerplanar at n = 8")


def _extremal_properties_hold(graphs):
    """(extremal graphs, maximum minimal TD-sets, subset checks), asserting criterion 09."""
    extremal = sets_checked = subset_checks = 0
    for g in _isolate_free(graphs):
        upper = upper_total_domination_number(g)[0]
        if upper != 2 * z_grundy_number(g)[0]:
            continue
        extremal += 1
        for d in enumerate_minimal_td_sets(g):
            if len(d) != upper:
                continue
            report = check_extremal_properties(g, d)
            assert report.exhaustive
            assert report.all_hold(), (emit_graph6(g), sorted(d), report.properties)
            sets_checked += 1
            subset_checks += report.subset_checks
    return extremal, sets_checked, subset_checks


def test_09_properties_of_factor_two_extremal_graphs(graphs_by_order):
    extremal, sets_checked, _ = _extremal_properties_hold(
        g for n in range(1, 8) for g in graphs_by_order[n]
    )
    assert extremal > 0
    _report("09", f"all eight properties on {sets_checked} maximum sets of {extremal} graphs")


@pytest.mark.extended
def test_09_extended_order_eight(connected_eight):
    """Criterion 09 on every maximum minimal TD-set of the connected n = 8 graphs."""
    counts = _extremal_properties_hold(connected_eight)
    assert counts == (25, 115, 470)
    _report("09x", "all eight properties on 115 maximum sets of 25 graphs, n = 8")


def test_10a_graph6_round_trip_on_full_enumeration():
    count = 0
    for n in range(7):
        for g in enumerate_labeled_graphs(n):
            assert parse_graph6(emit_graph6(g)) == g
            count += 1
    _report("10a", f"graph6 round trip on {count} labeled graphs, n <= 6")


def test_10b_closure_confluent_under_reversed_ties(connected_by_order):
    rng = random.Random(2)
    checked = 0
    for n in range(1, 8):
        for g in connected_by_order[n]:
            for _ in range(2):
                blue = VertexSet.of([v for v in range(n) if rng.random() < 0.4], n)
                assert (
                    forcing_closure(g, blue).final
                    == forcing_closure(g, blue, reverse_ties=True).final
                )
                checked += 1
    _report("10b", f"confluence on {checked} (graph, set) pairs")


def test_10c_closure_monotone_on_random_pairs():
    rng = random.Random(20240)
    for _ in range(10_000):
        n = rng.randint(1, 9)
        g = Graph.from_edges(
            n,
            [
                (u, v)
                for u, v in itertools.combinations(range(n), 2)
                if rng.random() < 0.4
            ],
        )
        small = {v for v in range(n) if rng.random() < 0.3}
        larger = small | {v for v in range(n) if rng.random() < 0.3}
        final_small = forcing_closure(g, VertexSet.of(small, n)).final
        final_large = forcing_closure(g, VertexSet.of(larger, n)).final
        assert final_small <= final_large
    _report("10c", "monotonicity on 10000 random nested pairs")


def test_10d_power_domination_below_zero_forcing(graphs_by_order):
    checked = 0
    for n in range(1, 8):
        for g in graphs_by_order[n]:
            z = zero_forcing_number(g)[0]
            assert power_domination_number(g)[0] <= z, emit_graph6(g)
            assert z >= g.min_degree(), emit_graph6(g)
            checked += 1
    _report(
        "10d",
        f"power domination <= zero forcing and min-degree bound on {checked} graphs",
    )
