"""Bitmask-backed simple graphs and small-graph utilities.

Vertices are integers 0..n-1 and every vertex set is an integer bitmask,
which keeps the exhaustive searches in the other modules cheap.  Graphs are
immutable after construction and safe to share between workers.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence


class Graph6Error(ValueError):
    """Malformed graph6 text; carries the offending byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class UnsupportedSizeError(ValueError):
    """Requested size is outside the supported desk-scale range."""


class IsolatedVertexError(ValueError):
    """An operation that needs an isolate-free graph met an isolated vertex."""


def isolated_vertices(g: Graph) -> VertexSet:
    """Vertices of degree zero."""
    mask = 0
    for v in range(g.n):
        if not g.adj[v]:
            mask |= 1 << v
    return VertexSet(mask, g.n)


def require_isolate_free(g: Graph) -> None:
    isolates = isolated_vertices(g)
    if isolates:
        raise IsolatedVertexError(f"graph has isolated vertices {sorted(isolates)}")


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class VertexSet:
    """Immutable subset of {0, ..., n-1} backed by a bitmask.

    All set algebra is mask arithmetic; two sets must belong to graphs of
    the same order to be combined.
    """

    __slots__ = ("mask", "n")

    def __init__(self, mask: int, n: int):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if mask < 0 or mask >> n:
            raise ValueError(f"mask {mask:#x} has members outside 0..{n - 1}")
        self.mask = mask
        self.n = n

    @classmethod
    def of(cls, vertices: Iterable[int], n: int) -> VertexSet:
        mask = 0
        for v in vertices:
            if not 0 <= v < n:
                raise IndexError(f"vertex {v} out of range 0..{n - 1}")
            mask |= 1 << v
        return cls(mask, n)

    @classmethod
    def empty(cls, n: int) -> VertexSet:
        return cls(0, n)

    @classmethod
    def full(cls, n: int) -> VertexSet:
        return cls((1 << n) - 1, n)

    def _check(self, other: VertexSet) -> None:
        if self.n != other.n:
            raise ValueError("vertex sets belong to graphs of different order")

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and self.mask >> v & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return bits(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __or__(self, other: VertexSet) -> VertexSet:
        self._check(other)
        return VertexSet(self.mask | other.mask, self.n)

    def __and__(self, other: VertexSet) -> VertexSet:
        self._check(other)
        return VertexSet(self.mask & other.mask, self.n)

    def __sub__(self, other: VertexSet) -> VertexSet:
        self._check(other)
        return VertexSet(self.mask & ~other.mask, self.n)

    def __le__(self, other: VertexSet) -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def issubset(self, other: VertexSet) -> bool:
        return self <= other

    def add(self, v: int) -> VertexSet:
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} out of range 0..{self.n - 1}")
        return VertexSet(self.mask | 1 << v, self.n)

    def remove(self, v: int) -> VertexSet:
        if v not in self:
            raise KeyError(v)
        return VertexSet(self.mask & ~(1 << v), self.n)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, VertexSet)
            and self.mask == other.mask
            and self.n == other.n
        )

    def __hash__(self) -> int:
        return hash((self.mask, self.n))

    def __repr__(self) -> str:
        return "VertexSet({%s})" % ", ".join(str(v) for v in self)


class Graph:
    """Immutable simple undirected graph with bitmask adjacency rows.

    ``adj[v]`` is the open-neighborhood mask of ``v`` and ``cadj[v]`` the
    closed one.  Adjacency is validated (symmetric, loop-free) at
    construction time.
    """

    __slots__ = ("n", "adj", "cadj")

    def __init__(self, n: int, adj: Sequence[int]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if len(adj) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(adj)}")
        rows = tuple(adj)
        for v, row in enumerate(rows):
            if row < 0 or row >> n:
                raise ValueError(f"adjacency row of {v} mentions vertices >= {n}")
            if row >> v & 1:
                raise ValueError(f"loop at vertex {v}")
        for v, row in enumerate(rows):
            for u in bits(row):
                if not rows[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
        self._fill(n, rows)

    @classmethod
    def _derived(cls, n: int, adj: Sequence[int]) -> Graph:
        """A graph on rows built by this package from valid ones, not checked again.

        The rows must be what the public constructor accepts: ``n`` of them,
        in range, loop-free and symmetric.
        """
        g = cls.__new__(cls)
        g._fill(n, tuple(adj))
        return g

    def _fill(self, n: int, rows: tuple[int, ...]) -> None:
        self.n = n
        self.adj = rows
        self.cadj = tuple(row | 1 << v for v, row in enumerate(rows))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> Graph:
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def vertices(self) -> range:
        return range(self.n)

    def edges(self) -> Iterator[tuple[int, int]]:
        for v in range(self.n):
            for u in bits(self.adj[v] >> v):
                yield (v, u + v)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return self.adj[u] >> v & 1 == 1

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.adj[v].bit_count()

    def min_degree(self) -> int:
        if self.n == 0:
            return 0
        return min(row.bit_count() for row in self.adj)

    def max_degree(self) -> int:
        if self.n == 0:
            return 0
        return max(row.bit_count() for row in self.adj)

    def open_nbhd(self, v: int) -> VertexSet:
        self._check_vertex(v)
        return VertexSet(self.adj[v], self.n)

    def closed_nbhd(self, v: int) -> VertexSet:
        self._check_vertex(v)
        return VertexSet(self.cadj[v], self.n)

    def vertex_set(self, vertices: Iterable[int]) -> VertexSet:
        return VertexSet.of(vertices, self.n)

    def full_set(self) -> VertexSet:
        return VertexSet(self.full_mask, self.n)

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} out of range 0..{self.n - 1}")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph({self.n}, edges={sorted(self.edges())})"


# ---------------------------------------------------------------------------
# graph6 codec (short form only, n <= 62)

_G6_MAX = 62


def _shown(ch: str) -> str:
    """A character for an error message; an undecodable input byte by its value.

    Input read with ``errors="surrogateescape"`` carries such a byte as a
    lone surrogate, which says nothing to the reader.
    """
    if "\udc80" <= ch <= "\udcff":
        return f"0x{ord(ch) - 0xDC00:02x}"
    return repr(ch)


def parse_graph6(text: str) -> Graph:
    """Decode one short-form graph6 token into a labeled graph.

    Strict about the size byte, the 63..126 character range and trailing
    garbage; padding bits beyond the edge data are ignored.
    """
    if not text:
        raise Graph6Error("empty graph6 string", 0)
    first = ord(text[0])
    if first == 126:
        raise UnsupportedSizeError("long-form graph6 (n > 62) is not supported")
    if not 63 <= first <= 63 + _G6_MAX:
        raise Graph6Error(f"invalid size byte {_shown(text[0])}", 0)
    n = first - 63
    need_bits = n * (n - 1) // 2
    need_bytes = (need_bits + 5) // 6
    if len(text) < 1 + need_bytes:
        raise Graph6Error(
            f"truncated edge data, expected {need_bytes} bytes after the size byte",
            len(text),
        )
    if len(text) > 1 + need_bytes:
        raise Graph6Error("trailing garbage after edge data", 1 + need_bytes)
    rows = [0] * n
    pos = 0  # index into the edge bit stream
    pairs = [(i, j) for j in range(n) for i in range(j)]
    for off, ch in enumerate(text[1:], start=1):
        value = ord(ch) - 63
        if not 0 <= value <= 63:
            raise Graph6Error(f"character {_shown(ch)} outside graph6 range", off)
        for k in range(5, -1, -1):
            if pos >= need_bits:
                break
            if value >> k & 1:
                i, j = pairs[pos]
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            pos += 1
    return Graph(n, rows)


def emit_graph6(g: Graph) -> str:
    """Encode a labeled graph as a short-form graph6 token."""
    if g.n > _G6_MAX:
        raise UnsupportedSizeError(f"graph6 short form supports n <= {_G6_MAX}, got {g.n}")
    out = [chr(63 + g.n)]
    buf = 0
    filled = 0
    for j in range(g.n):
        for i in range(j):
            buf = buf << 1 | (g.adj[i] >> j & 1)
            filled += 1
            if filled == 6:
                out.append(chr(63 + buf))
                buf = 0
                filled = 0
    if filled:
        out.append(chr(63 + (buf << (6 - filled))))
    return "".join(out)


# ---------------------------------------------------------------------------
# structural predicates and decompositions


def _component_masks(g: Graph, within: int) -> list[int]:
    """Component masks of the subgraph induced by ``within``, by min vertex."""
    out = []
    remaining = within
    while remaining:
        comp = remaining & -remaining
        frontier = comp
        while frontier:
            grown = 0
            for v in bits(frontier):
                grown |= g.adj[v]
            frontier = grown & within & ~comp
            comp |= frontier
        out.append(comp)
        remaining &= ~comp
    return out


def components(g: Graph) -> list[VertexSet]:
    """Connected components, ordered by their minimum vertex."""
    return [VertexSet(comp, g.n) for comp in _component_masks(g, g.full_mask)]


def is_connected(g: Graph) -> bool:
    return len(components(g)) <= 1


def induced_subgraph(g: Graph, s: VertexSet) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced by ``s`` plus the new-to-old vertex relabeling."""
    if s.n != g.n:
        raise ValueError("vertex set belongs to a graph of different order")
    labels = tuple(s)
    index = {old: new for new, old in enumerate(labels)}
    rows = []
    for old in labels:
        row = 0
        for u in bits(g.adj[old] & s.mask):
            row |= 1 << index[u]
        rows.append(row)
    return Graph._derived(len(labels), rows), labels


def delete_vertex(g: Graph, v: int) -> Graph:
    g._check_vertex(v)
    sub, _ = induced_subgraph(g, VertexSet(g.full_mask & ~(1 << v), g.n))
    return sub


def is_clique(g: Graph, s: VertexSet) -> bool:
    """True when every pair of vertices in ``s`` is adjacent."""
    if s.n != g.n:
        raise ValueError("vertex set belongs to a graph of different order")
    for v in bits(s.mask):
        if s.mask & ~g.cadj[v]:
            return False
    return True


def is_clique_component(g: Graph, c: VertexSet) -> bool:
    if c not in components(g):
        raise ValueError("argument is not a connected component")
    return is_clique(g, c)


def has_clique_component(g: Graph) -> bool:
    return any(is_clique(g, c) for c in components(g))


def are_closed_twins(g: Graph, u: int, v: int) -> bool:
    g._check_vertex(u)
    g._check_vertex(v)
    if u == v:
        raise ValueError("twin check needs two distinct vertices")
    return g.cadj[u] == g.cadj[v]


def are_open_twins(g: Graph, u: int, v: int) -> bool:
    g._check_vertex(u)
    g._check_vertex(v)
    if u == v:
        raise ValueError("twin check needs two distinct vertices")
    return g.adj[u] == g.adj[v]


def are_twins(g: Graph, u: int, v: int) -> bool:
    return are_closed_twins(g, u, v) or are_open_twins(g, u, v)


def is_twin_vertex(g: Graph, v: int) -> bool:
    return any(u != v and are_twins(g, u, v) for u in range(g.n))


def is_simplicial(g: Graph, v: int) -> bool:
    """True when the open neighborhood of ``v`` induces a clique."""
    g._check_vertex(v)
    nbrs = g.adj[v]
    for u in bits(nbrs):
        if nbrs & ~g.cadj[u]:
            return False
    return True


def simplicial_vertices(g: Graph) -> VertexSet:
    mask = 0
    for v in range(g.n):
        if is_simplicial(g, v):
            mask |= 1 << v
    return VertexSet(mask, g.n)


def is_chordal(g: Graph) -> bool:
    """Chordality via a maximum-cardinality-search elimination ordering.

    The MCS visiting order, reversed, is a perfect elimination ordering
    exactly when the graph is chordal, so it suffices to check that each
    vertex's earlier-visited neighbors form a clique.
    """
    n = g.n
    weight = [0] * n
    visited = 0
    order = []
    for _ in range(n):
        v = max(
            (u for u in range(n) if not visited >> u & 1),
            key=lambda u: (weight[u], -u),
        )
        back = g.adj[v] & visited
        if not is_clique(g, VertexSet(back, n)):
            return False
        order.append(v)
        visited |= 1 << v
        for u in bits(g.adj[v] & ~visited):
            weight[u] += 1
    return True


def is_biconnected(g: Graph) -> bool:
    """Two-connectivity: at least three vertices, connected, no cut vertex."""
    if g.n < 3 or not is_connected(g):
        return False
    return all(is_connected(delete_vertex(g, v)) for v in range(g.n))


# ---------------------------------------------------------------------------
# exhaustive labeled enumeration

_ENUM_MAX = 6


def enumerate_labeled_graphs(n: int, connected_only: bool = False) -> Iterator[Graph]:
    """Yield every labeled simple graph on ``n`` vertices exactly once.

    Refuses n > 6: the count doubles per vertex pair and larger orders are
    delegated to externally prepared corpora.
    """
    if n > _ENUM_MAX:
        raise UnsupportedSizeError(
            f"labeled enumeration supports n <= {_ENUM_MAX}, got {n}"
        )
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    pairs = list(itertools.combinations(range(n), 2))
    for edge_mask in range(1 << len(pairs)):
        rows = [0] * n
        for k, (i, j) in enumerate(pairs):
            if edge_mask >> k & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        g = Graph._derived(n, rows)
        if connected_only and not is_connected(g):
            continue
        yield g
