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


@st.composite
def graphs_with_twins(draw, max_n=12):
    """Random graphs grown to at most max_n vertices by adding true and false twins.

    Each added vertex copies the neighborhood of an earlier vertex and, for a
    true twin, is joined to it as well.
    """
    base = draw(graphs(max_n=max_n // 2))
    rows = list(base.adj)
    for _ in range(draw(st.integers(1, max_n - base.n))):
        v = draw(st.integers(0, len(rows) - 1))
        w = len(rows)
        row = rows[v] | (1 << v if draw(st.booleans()) else 0)
        for u in range(w):
            if row >> u & 1:
                rows[u] |= 1 << w
        rows.append(row)
    return Graph(len(rows), rows)


@st.composite
def circulants(draw, max_n=12):
    """Circulant graphs on 3..max_n vertices: regular and vertex-transitive."""
    n = draw(st.integers(3, max_n))
    jumps = draw(st.sets(st.integers(1, n // 2), min_size=1))
    return Graph.from_edges(n, {(i, (i + j) % n) for i in range(n) for j in jumps})


@st.composite
def cycle_unions(draw, max_n=12):
    """Disjoint unions of cycles, or their complements.

    Regular, and vertex-transitive only when all cycles have one length, so
    equitable refinement alone does not always find the automorphism orbits.
    """
    lengths = [draw(st.integers(3, max_n))]
    while max_n - sum(lengths) >= 3 and draw(st.booleans()):
        lengths.append(draw(st.integers(3, max_n - sum(lengths))))
    edges, start = set(), 0
    for k in lengths:
        edges |= {(start + i, start + (i + 1) % k) for i in range(k)}
        start += k
    if draw(st.booleans()):
        edges = {(u, v) for u in range(start) for v in range(u + 1, start)} - {
            (min(e), max(e)) for e in edges}
    return Graph.from_edges(start, edges)
