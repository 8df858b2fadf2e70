"""Internal catalogues of small graphs up to isomorphism.

Prepares the isomorph-reduced corpora that the exhaustive verification
suite ingests (one labeled representative per isomorphism class).  Each
order is built from the one below by adding a vertex in every possible way
and keeping the first child of each isomorphism class, recognised by a
canonical code from an individualisation-refinement search (McKay &
Piperno, "Practical graph isomorphism, II", J. Symbolic Comput. 2014).
Not part of the public API: the library itself never canonicalizes, and
the CLI only enumerates labeled graphs up to n = 6.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from .graphs import Graph, bits

_all_cache: dict[int, list[Graph]] = {}
_connected_cache: dict[int, list[Graph]] = {}


def _refine(adj: Sequence[int], cells: list[int], splitters: list[int]) -> list[int]:
    """Refine the ordered partition ``cells`` until it is equitable.

    Cells and splitters are vertex bitmasks.  Each splitter divides every
    cell by the number of neighbours its vertices have in the splitter; the
    parts replace the cell in ascending count order and become splitters in
    turn.  Every step depends only on counts and cell positions, so the
    result commutes with relabelling the graph.
    """
    n = len(adj)
    for s in splitters:  # the loop also visits the splitters appended below
        if len(cells) == n:
            break
        out = []
        for cell in cells:
            if not cell & (cell - 1):
                out.append(cell)
                continue
            groups: dict[int, int] = {}
            rest = cell
            while rest:
                low = rest & -rest
                k = (adj[low.bit_length() - 1] & s).bit_count()
                if k in groups:
                    groups[k] |= low
                else:
                    groups[k] = low
                rest ^= low
            if len(groups) == 1:
                out.append(cell)
                continue
            parts = [groups[k] for k in sorted(groups)]
            out.extend(parts)
            splitters.extend(parts)
        cells = out
    return cells


def _leaf_codes(adj: Sequence[int], cells: list[int]) -> Iterator[int]:
    """Adjacency codes of the discrete leaves below an equitable partition.

    The search individualises each vertex of the first non-singleton cell
    in turn and refines from it.  A vertex is skipped when it is a twin of
    a sibling already tried, ``adj[u] - v == adj[v] - u``: swapping twins
    is an automorphism that fixes the path, so its subtree has the same
    leaf codes.
    """
    n = len(adj)
    if len(cells) == n:
        code = 0
        order = [cell.bit_length() - 1 for cell in cells]
        for i, u in enumerate(order):
            row = adj[u]
            for v in order[i + 1:]:
                code = code << 1 | (row >> v & 1)
        yield code
        return
    i = next(i for i, cell in enumerate(cells) if cell & (cell - 1))
    target = cells[i]
    tried: list[int] = []
    for v in bits(target):
        if any(adj[u] & ~(1 << v) == adj[v] & ~(1 << u) for u in tried):
            continue
        tried.append(v)
        child = cells[:i] + [1 << v, target ^ 1 << v] + cells[i + 1:]
        yield from _leaf_codes(adj, _refine(adj, child, [1 << v]))


def canonical_code(adj: Sequence[int]) -> int:
    """Isomorphism-invariant integer identifying a graph among same-order graphs.

    ``adj`` is the graph's list of adjacency bitmask rows.  The code is the
    least upper-triangle adjacency code over the leaves of the
    individualisation-refinement search tree, whose leaves are the vertex
    orders read off the discrete partitions.  Two graphs of equal order get
    the same code exactly when they are isomorphic.
    """
    n = len(adj)
    if n <= 1:
        return 0
    everyone = (1 << n) - 1
    return min(_leaf_codes(adj, _refine(adj, [everyone], [everyone])))


def graphs_upto_iso(n: int) -> list[Graph]:
    """All simple graphs on ``n`` vertices, one per isomorphism class.

    Built by extending the (n-1)-catalogue with a new vertex attached to
    every subset and deduplicating via canonical codes.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n not in _all_cache:
        if n == 0:
            _all_cache[0] = [Graph(0, ())]
        else:
            _all_cache[n] = _extend(graphs_upto_iso(n - 1), include_empty=True)
    return _all_cache[n]


def connected_graphs_upto_iso(n: int) -> list[Graph]:
    """Connected graphs on ``n`` vertices, one per isomorphism class.

    Every connected graph has a non-cut vertex, so extending connected
    (n-1)-graphs by a vertex with a nonempty neighborhood reaches them all.
    """
    if n < 1:
        raise ValueError("vertex count must be positive")
    if n not in _connected_cache:
        if n == 1:
            _connected_cache[1] = [Graph(1, (0,))]
        else:
            _connected_cache[n] = _extend(
                connected_graphs_upto_iso(n - 1), include_empty=False
            )
    return _connected_cache[n]


def _extend(parents: list[Graph], include_empty: bool) -> list[Graph]:
    """First child of each isomorphism class, in enumeration order."""
    seen: set[int] = set()
    out: list[Graph] = []
    for parent in parents:
        m = parent.n
        start = 0 if include_empty else 1
        for subset in range(start, 1 << m):
            rows = [row | (subset >> v & 1) << m for v, row in enumerate(parent.adj)]
            rows.append(subset)
            code = canonical_code(rows)
            if code not in seen:
                seen.add(code)
                out.append(Graph(m + 1, rows))
    return out


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n:
        return False
    return canonical_code(g.adj) == canonical_code(h.adj)
