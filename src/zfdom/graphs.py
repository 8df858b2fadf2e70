"""Bitmask-backed simple graphs and small-graph utilities.

Vertices are integers 0..n-1 and every vertex set is an integer bitmask,
which keeps the exhaustive searches in the other modules cheap.  Graphs are
immutable after construction and safe to share between workers.
"""

from __future__ import annotations

import _thread
import contextlib
import itertools
import time
from collections.abc import Iterable, Iterator, Sequence


class _OutOfTime(Exception):
    """The work meter's deadline has passed."""


class _Meter:
    """The exact searches' work, one count per kind, and one deadline per thread.

    The searches tick it once per loop step: ``dp_states``, ``td_nodes``,
    ``closures:<caller>`` and the catalogues' ``children``.  A tick at or past
    the calling thread's deadline, a ``clock`` reading, raises ``_OutOfTime``.
    """

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}
        self.deadlines: dict[int, float] = {}  # by thread identifier
        self.clock = time.monotonic

    def check(self) -> None:
        deadline = self.deadlines.get(_thread.get_ident())
        if deadline is not None and self.clock() >= deadline:
            raise _OutOfTime

    def tick(self, kind: str) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1
        if self.deadlines:
            self.check()

    @contextlib.contextmanager
    def budget(self, ms: int | None):
        """Inside the block this thread's deadline is ``ms`` milliseconds away; None keeps it."""
        thread = _thread.get_ident()
        outer = self.deadlines.get(thread)
        if ms is not None:
            self.deadlines[thread] = self.clock() + ms / 1000.0
        try:
            yield
        finally:
            if outer is None:
                self.deadlines.pop(thread, None)
            else:
                self.deadlines[thread] = outer


_meter = _Meter()


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
    if not all(g.adj):
        raise IsolatedVertexError(f"graph has isolated vertices {sorted(isolated_vertices(g))}")


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
        return min(map(int.bit_count, self.adj))

    def max_degree(self) -> int:
        if self.n == 0:
            return 0
        return max(map(int.bit_count, self.adj))

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


# each graph6 edge character as its six bits, in stream order
_G6_BITS = {63 + value: format(value, "06b") for value in range(64)}


def parse_graph6(text: str) -> Graph:
    """Decode one short-form graph6 token into a labeled graph.

    Strict about the size byte, the 63..126 character range and trailing
    garbage; padding bits beyond the edge data are ignored.  The edge bits
    are read as one integer with the first bit lowest, so the pair i < j is
    bit j(j - 1)/2 + i, and the j bits from j(j - 1)/2 on are the row of j
    below j.
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
    stream = text[1:].translate(_G6_BITS)
    if len(stream) != 6 * need_bytes:
        # a character outside the range was left as it is, one position long
        for off, ch in enumerate(text[1:], start=1):
            if not 63 <= ord(ch) <= 126:
                raise Graph6Error(f"character {_shown(ch)} outside graph6 range", off)
    edges = int(stream[need_bits - 1 :: -1], 2) if need_bits else 0
    rows = [0] * n
    for j in range(1, n):
        below = edges & ((1 << j) - 1)
        edges >>= j
        rows[j] |= below
        while below:
            low = below & -below
            rows[low.bit_length() - 1] |= 1 << j
            below ^= low
    return Graph._derived(n, rows)


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


def _union(rows, mask: int) -> int:
    """The union of ``rows[v]`` over the vertices ``v`` of ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= rows[low.bit_length() - 1]
        mask ^= low
    return out


def _reach(rows, seed: int, within: int) -> int:
    """``seed`` and every vertex of ``within`` that chains of ``rows`` reach from it."""
    reached = todo = seed
    while todo:
        # the union of the frontier's rows, inline: this runs on the Grundy DP's hot path
        grown = 0
        while todo:
            low = todo & -todo
            grown |= rows[low.bit_length() - 1]
            todo ^= low
        todo = grown & within & ~reached
        reached |= todo
    return reached


def _is_clique(g: Graph, mask: int) -> bool:
    """True when every pair of vertices in ``mask`` is adjacent."""
    cadj = g.cadj
    todo = mask
    while todo:
        low = todo & -todo
        if mask & ~cadj[low.bit_length() - 1]:
            return False
        todo ^= low
    return True


def _twin_seed(g: Graph) -> int:
    """The vertices that have a twin (open or closed) of higher index, as a mask.

    Two white twins are never forced: a vertex adjacent to one is adjacent
    to both.  So every zero forcing set holds all but one vertex of each
    class of pairwise twins.  Swapping two twins is an automorphism, so the
    lexicographically least minimum forcing set leaves out only the highest
    vertex of each class, and holds this mask.
    """
    # u and v are open twins when adj[u] == adj[v], closed ones when
    # cadj[u] == cadj[v]; an open row never equals a closed one
    seen = set()
    seed = 0
    for v in range(g.n - 1, -1, -1):
        if g.adj[v] in seen or g.cadj[v] in seen:
            seed |= 1 << v
        seen.add(g.adj[v])
        seen.add(g.cadj[v])
    return seed


def _component_masks(g: Graph, within: int) -> list[int]:
    """Component masks of the subgraph induced by ``within``, by min vertex."""
    out = []
    while within:
        comp = _reach(g.adj, within & -within, within)
        out.append(comp)
        within &= ~comp
    return out


def components(g: Graph) -> list[VertexSet]:
    """Connected components, ordered by their minimum vertex."""
    return [VertexSet(comp, g.n) for comp in _component_masks(g, g.full_mask)]


def is_connected(g: Graph) -> bool:
    return g.n == 0 or _reach(g.adj, 1, g.full_mask) == g.full_mask


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
    """``g - v``, the vertices above ``v`` renumbered down by one."""
    g._check_vertex(v)
    below = (1 << v) - 1
    rows = [row & below | row >> 1 & ~below for row in g.adj]
    del rows[v]
    return Graph._derived(g.n - 1, rows)


def is_clique(g: Graph, s: VertexSet) -> bool:
    """True when every pair of vertices in ``s`` is adjacent."""
    if s.n != g.n:
        raise ValueError("vertex set belongs to a graph of different order")
    return _is_clique(g, s.mask)


def is_clique_component(g: Graph, c: VertexSet) -> bool:
    if c not in components(g):
        raise ValueError("argument is not a connected component")
    return is_clique(g, c)


def has_clique_component(g: Graph) -> bool:
    return any(_is_clique(g, comp) for comp in _component_masks(g, g.full_mask))


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
    return _is_clique(g, g.adj[v])


def _simplicial_mask(g: Graph, within: int) -> int:
    """The vertices of ``within`` whose neighbors inside ``within`` form a clique."""
    adj = g.adj
    mask = 0
    todo = within
    while todo:
        low = todo & -todo
        if _is_clique(g, adj[low.bit_length() - 1] & within):
            mask |= low
        todo ^= low
    return mask


def simplicial_vertices(g: Graph) -> VertexSet:
    return VertexSet(_simplicial_mask(g, g.full_mask), g.n)


def is_chordal(g: Graph) -> bool:
    """Chordality by repeated deletion of simplicial vertices.

    A graph is chordal exactly when deleting simplicial vertices, over and
    over, empties it (Fulkerson & Gross, "Incidence matrices and interval
    graphs", Pacific J. Math. 1965).  A simplicial vertex stays simplicial
    when other vertices are deleted, so each round deletes all of them; a
    round that finds none leaves a subgraph that is not chordal.
    """
    left = g.full_mask
    while left:
        simplicial = _simplicial_mask(g, left)
        if not simplicial:
            return False
        left &= ~simplicial
    return True


def is_biconnected(g: Graph) -> bool:
    """Two-connectivity: at least three vertices, connected, no cut vertex."""
    if g.n < 3 or not is_connected(g):
        return False
    for v in range(g.n):
        rest = g.full_mask & ~(1 << v)
        if _reach(g.adj, rest & -rest, rest) != rest:
            return False
    return True


# ---------------------------------------------------------------------------
# exhaustive labeled enumeration

_ENUM_MAX = 6


def _edge_pairs(n: int) -> list[tuple[int, int]]:
    """The vertex pairs whose bits, lowest first, make an edge mask on ``n`` vertices."""
    if n > _ENUM_MAX:
        raise UnsupportedSizeError(
            f"labeled enumeration supports n <= {_ENUM_MAX}, got {n}"
        )
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    return list(itertools.combinations(range(n), 2))


def _labeled_graph(n: int, pairs: Sequence[tuple[int, int]], edge_mask: int) -> Graph:
    rows = [0] * n
    for k, (i, j) in enumerate(pairs):
        if edge_mask >> k & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return Graph._derived(n, rows)


def enumerate_labeled_graphs(n: int, connected_only: bool = False) -> Iterator[Graph]:
    """Yield every labeled simple graph on ``n`` vertices exactly once.

    Refuses n > 6: the count doubles per vertex pair and larger orders are
    delegated to externally prepared corpora.
    """
    pairs = _edge_pairs(n)
    for edge_mask in range(1 << len(pairs)):
        g = _labeled_graph(n, pairs, edge_mask)
        if connected_only and not is_connected(g):
            continue
        yield g


def _pair_relabellings(n: int, pairs: Sequence[tuple[int, int]]) -> list[list[int]]:
    """The permutations of ``pairs``, as image lists, that the vertex relabellings
    (0 1) and (0 1 ... n-1) induce; those two generate every relabelling."""
    index = {pair: k for k, pair in enumerate(pairs)}
    return [
        [index[min(sigma[i], sigma[j]), max(sigma[i], sigma[j])] for i, j in pairs]
        for sigma in ([1, 0, *range(2, n)], [*range(1, n), 0])
    ]


def _orbit_leaders(generators: Sequence[Sequence[int]], m: int) -> list[int]:
    """``leader[subset]``: the least subset of ``range(m)`` in ``subset``'s orbit
    under the group that ``generators``, permutations as image lists, generate."""
    images = []
    for perm in generators:
        image = [0]  # image[subset] is the image of the subset bitmask
        for target in perm:
            bit = 1 << target
            image += [t | bit for t in image]
        images.append(image)
    leader = [-1] * (1 << m)
    for subset in range(1 << m):
        if leader[subset] >= 0:
            continue
        leader[subset] = subset
        orbit = [subset]
        for s in orbit:  # the loop also visits the subsets appended below
            for image in images:
                t = image[s]
                if leader[t] < 0:
                    leader[t] = subset
                    orbit.append(t)
    return leader
