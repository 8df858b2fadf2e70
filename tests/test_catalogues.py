"""The isomorph-reduced catalogues feeding the exhaustive suites."""

import hashlib
import pathlib
import random
import time
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import automorphisms_by_permutation, isomorphic_by_permutation
from strategies import circulants, cycle_unions, graphs, graphs_with_twins
from zfdom import Graph, UnsupportedSizeError, emit_graph6, is_connected
from zfdom import _smallgraphs
from zfdom._smallgraphs import (
    _search,
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


def test_building_both_order_seven_catalogues_canonicalises_9918_children(monkeypatch, meter):
    """A machine-independent work count: one child per orbit of its parent's group.

    Canonicalising every subset's child cost 19,106 calls.
    """
    monkeypatch.setattr(_smallgraphs, "_all_cache", {})
    monkeypatch.setattr(_smallgraphs, "_connected_cache", {})
    graphs_upto_iso(7)
    connected_graphs_upto_iso(7)
    assert meter.counts["children"] == 9918


@pytest.mark.parametrize("catalogue", [graphs_upto_iso, connected_graphs_upto_iso])
def test_catalogues_refuse_more_than_nine_vertices_at_once(catalogue, monkeypatch):
    start = time.perf_counter()
    with pytest.raises(UnsupportedSizeError):
        catalogue(10)
    assert time.perf_counter() - start < 0.1

    class Extending(Exception):
        pass

    def extend(parents, include_empty):
        raise Extending

    monkeypatch.setattr(_smallgraphs, "_extend", extend)
    with pytest.raises(Extending):  # order 9 is built, not refused
        catalogue(9)


@pytest.mark.extended
def test_order_eight_connected_catalogue_regenerates_the_cached_corpus(monkeypatch):
    """Generation itself, not the ``connected_eight`` fixture, which reads the file."""
    monkeypatch.delitem(_smallgraphs._connected_cache, 8, raising=False)
    cached = pathlib.Path(__file__).parent / ".corpus_cache" / "connected_n8.g6"
    text = "".join(emit_graph6(g) + "\n" for g in connected_graphs_upto_iso(8))
    assert text.encode("ascii") == cached.read_bytes()


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


def _generated_group(generators, n):
    """Every product of ``generators``, as tuples of vertex images."""
    group = {tuple(range(n))}
    frontier = list(group)
    for p in frontier:  # the loop also visits the permutations appended below
        for g in generators:
            q = tuple(g[v] for v in p)
            if q not in group:
                group.add(q)
                frontier.append(q)
    return group


def _image(perm, subset):
    return sum(1 << perm[v] for v in range(len(perm)) if subset >> v & 1)


def test_search_generators_generate_the_whole_automorphism_group():
    for n in range(7):
        for g in graphs_upto_iso(n):
            expected = automorphisms_by_permutation(g)
            assert _generated_group(_search(g.adj)[1], n) == expected


@pytest.mark.parametrize("include_empty", [True, False])
def test_extension_canonicalises_the_least_subset_of_each_orbit(include_empty, monkeypatch):
    coded = []

    def recording(adj):
        m = len(adj) - 1
        coded.append((tuple(row & ~(1 << m) for row in adj[:m]), adj[m]))
        return canonical_code(adj)

    monkeypatch.setattr(_smallgraphs, "canonical_code", recording)
    expected = []
    for n in range(7):
        parents = graphs_upto_iso(n)
        _smallgraphs._extend(parents, include_empty)
        for parent in parents:
            group = automorphisms_by_permutation(parent)
            expected += [
                (parent.adj, subset)
                for subset in range(0 if include_empty else 1, 1 << n)
                if all(_image(p, subset) >= subset for p in group)
            ]
    assert coded == expected


def test_symmetric_graphs_have_the_vertex_orbits_of_their_groups():
    """Orbits under the generators alone: the closure of K9's would hold 9! maps."""
    orbit_counts = {}
    for name, g in SYMMETRIC.items():
        generators = _search(g.adj)[1]
        placed: set[int] = set()
        orbit_counts[name] = 0
        for v in range(g.n):
            if v in placed:
                continue
            orbit_counts[name] += 1
            placed.add(v)
            orbit = [v]
            for u in orbit:  # the loop also visits the vertices appended below
                for p in generators:
                    if p[u] not in placed:
                        placed.add(p[u])
                        orbit.append(p[u])
    assert orbit_counts == {name: 2 if name == "K4,5" else 1 for name in SYMMETRIC}


def test_isomorphism_spot_checks():
    assert are_isomorphic(cycle(4).graph, Graph.from_edges(4, [(0, 2), (2, 1), (1, 3), (3, 0)]))
    assert not are_isomorphic(cycle(4).graph, path(4).graph)
    assert not are_isomorphic(star(3).graph, path(4).graph)
