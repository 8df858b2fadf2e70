"""The isomorph-reduced catalogues feeding the exhaustive suites."""

import hashlib
import random
import time
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import isomorphic_by_permutation
from strategies import circulants, cycle_unions, graphs, graphs_with_twins
from zfdom import Graph, emit_graph6, is_connected
from zfdom._smallgraphs import (
    are_isomorphic,
    canonical_code,
    connected_graphs_upto_iso,
    graphs_upto_iso,
)
from zfdom.families import complete, complete_multipartite, cycle, path, star


def _relabeled(g: Graph, perm) -> Graph:
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_counts_match_the_published_sequences():
    assert [len(graphs_upto_iso(n)) for n in range(8)] == [1, 1, 2, 4, 11, 34, 156, 1044]
    assert [len(connected_graphs_upto_iso(n)) for n in range(1, 8)] == [1, 1, 2, 6, 21, 112, 853]


# The cached n = 8 corpus of the extended suite and the benchmark's
# reference data are keyed to these representatives in this order.
@pytest.mark.parametrize(
    ("catalogue", "sha256_prefix"),
    [(graphs_upto_iso, "aa8347fb48e37dde"), (connected_graphs_upto_iso, "3281f929c85ff3da")],
)
def test_order_seven_catalogues_keep_their_representatives_and_order(catalogue, sha256_prefix):
    text = "".join(emit_graph6(g) + "\n" for g in catalogue(7))
    assert hashlib.sha256(text.encode("ascii")).hexdigest()[:16] == sha256_prefix


def test_connected_catalogue_is_connected():
    for n in range(1, 7):
        assert all(is_connected(g) for g in connected_graphs_upto_iso(n))


def test_connected_catalogue_matches_filtered_full_catalogue():
    for n in range(1, 8):
        filtered = {canonical_code(g.adj) for g in graphs_upto_iso(n) if is_connected(g)}
        direct = {canonical_code(g.adj) for g in connected_graphs_upto_iso(n)}
        assert filtered == direct


def test_canonical_code_is_relabeling_invariant():
    rng = random.Random(17)
    for g in graphs_upto_iso(6)[::7]:
        code = canonical_code(g.adj)
        for _ in range(5):
            perm = list(range(6))
            rng.shuffle(perm)
            assert canonical_code(_relabeled(g, perm).adj) == code


def test_isomorphism_agrees_with_the_permutation_oracle_up_to_six_vertices():
    """Every same-order, same-size pair of the catalogue, the second relabeled."""
    rng = random.Random(6)
    for n in range(7):
        by_size: dict[int, list[Graph]] = {}
        for g in graphs_upto_iso(n):
            by_size.setdefault(g.edge_count(), []).append(g)
        for same_size in by_size.values():
            for g, h in combinations_with_replacement(same_size, 2):
                perm = list(range(n))
                rng.shuffle(perm)
                relabeled = _relabeled(h, perm)
                expected = g is h
                assert isomorphic_by_permutation(g, relabeled) == expected
                assert are_isomorphic(g, relabeled) == expected


@settings(max_examples=150, deadline=None, database=None)
@given(st.one_of(graphs(), graphs_with_twins(), circulants(), cycle_unions()).flatmap(
    lambda g: st.tuples(st.just(g), st.permutations(range(g.n)))))
def test_canonical_code_is_relabeling_invariant_up_to_twelve_vertices(case):
    g, perm = case
    assert canonical_code(_relabeled(g, perm).adj) == canonical_code(g.adj)


def _cartesian_product(g: Graph, h: Graph) -> Graph:
    edges = [(u * h.n + x, v * h.n + x) for u, v in g.edges() for x in range(h.n)]
    edges += [(u * h.n + x, u * h.n + y) for u in range(g.n) for x, y in h.edges()]
    return Graph.from_edges(g.n * h.n, edges)


PETERSEN = Graph.from_edges(
    10,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
)

SYMMETRIC = {
    "K9": complete(9).graph,
    "edgeless 9": Graph(9, [0] * 9),
    "C9": cycle(9).graph,
    "K3 x K3": _cartesian_product(complete(3).graph, complete(3).graph),
    "K4,5": complete_multipartite((4, 5)).graph,
    "Q3": _cartesian_product(
        _cartesian_product(complete(2).graph, complete(2).graph), complete(2).graph),
    "Petersen": PETERSEN,
}


def test_symmetric_graphs_canonicalise_quickly():
    """Graphs with large automorphism groups: a relabeled copy gets the same code.

    A search over every order inside the refined classes would try 9! orders
    on each 9-vertex graph and take seconds; the time bound is loose.
    """
    rng = random.Random(9)
    pairs = []
    for name, g in SYMMETRIC.items():
        perm = list(range(g.n))
        rng.shuffle(perm)
        pairs.append((name, g, _relabeled(g, perm)))
    start = time.perf_counter()
    codes = {name: (canonical_code(g.adj), canonical_code(h.adj)) for name, g, h in pairs}
    elapsed = time.perf_counter() - start
    assert {name: a == b for name, (a, b) in codes.items()} == dict.fromkeys(SYMMETRIC, True)
    assert elapsed < 1.0


def test_isomorphism_spot_checks():
    assert are_isomorphic(cycle(4).graph, Graph.from_edges(4, [(0, 2), (2, 1), (1, 3), (3, 0)]))
    assert not are_isomorphic(cycle(4).graph, path(4).graph)
    assert not are_isomorphic(star(3).graph, path(4).graph)
