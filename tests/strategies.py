"""Hypothesis strategies for random labeled graphs, shared by the test modules."""

from hypothesis import strategies as st

from zfdom import Graph


@st.composite
def graphs(draw, max_n=12):
    """Random labeled graphs on 2..max_n vertices, isolated vertices allowed."""
    n = draw(st.integers(2, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph.from_edges(n, draw(st.sets(st.sampled_from(pairs))))


@st.composite
def isolate_free_graphs(draw, max_n=12):
    """Random graphs on 2..max_n vertices; an isolated vertex is joined to its successor."""
    n = draw(st.integers(2, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs)))
    g = Graph.from_edges(n, edges)
    extra = {(min(v, (v + 1) % n), max(v, (v + 1) % n)) for v in range(n) if not g.adj[v]}
    return Graph.from_edges(n, edges | extra)
