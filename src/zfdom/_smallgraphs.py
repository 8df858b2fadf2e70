"""Internal catalogues of small graphs up to isomorphism.

Prepares the isomorph-reduced corpora that the exhaustive verification
suite ingests (one labeled representative per isomorphism class).  Each
order is built from the one below by adding a vertex in every possible way
and keeping the first child of each isomorphism class, recognised by a
canonical code from an individualisation-refinement search (McKay &
Piperno, "Practical graph isomorphism, II", J. Symbolic Comput. 2014).
The same search yields generators of the parent's automorphism group, and
only one child per orbit of that group is canonicalised (McKay,
"Isomorph-free exhaustive generation", J. Algorithms 1998).  Orders above
9 are refused.
Not part of the public API: the library itself never canonicalizes, and
the CLI only enumerates labeled graphs up to n = 6.
"""

from __future__ import annotations

from collections.abc import Sequence

from .graphs import Graph, UnsupportedSizeError, _meter, _orbit_leaders

# Orders the catalogues build.  Order 10 has 12,005,168 classes, hours of work.
_CATALOGUE_MAX = 9

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


def _search(adj: Sequence[int]) -> tuple[int, list[list[int]]]:
    """Least leaf code of the individualisation-refinement tree, and the graph's symmetries.

    The search individualises each vertex of the first non-singleton cell
    in turn and refines from it.  A vertex ``v`` is skipped when it is a
    twin of a sibling ``u`` already tried, ``adj[u] - v == adj[v] - u``:
    swapping twins is an automorphism that fixes the path, so it maps the
    subtree of ``u`` onto that of ``v``.  A leaf's code is the upper-triangle
    adjacency code of the vertex order read off its discrete partition.

    Returns the least code and permutations, as image lists, that generate
    the automorphism group: the skipped twin swaps, and the map from the
    first leaf reached with each code to every later leaf with that code.
    Each least leaf of the unpruned tree is a twin-swap image of a reached
    one, and an automorphism is fixed by the least leaf it sends the first
    reached one to, so these generate the whole group.
    """
    n = len(adj)
    generators: list[list[int]] = []
    best = -1
    first: list[int] = []

    def visit(cells: list[int]) -> None:
        nonlocal best, first
        if len(cells) == n:
            code = 0
            order = [cell.bit_length() - 1 for cell in cells]
            for i, u in enumerate(order):
                row = adj[u]
                for v in order[i + 1:]:
                    code = code << 1 | (row >> v & 1)
            if code == best:
                perm = [0] * n
                for u, v in zip(first, order):
                    perm[u] = v
                generators.append(perm)
            elif best < 0 or code < best:
                best, first = code, order
            return
        i = next(i for i, cell in enumerate(cells) if cell & (cell - 1))
        target = cells[i]
        tried: list[int] = []
        rest = target
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            twin = next((u for u in tried if adj[u] & ~low == adj[v] & ~(1 << u)), None)
            if twin is None:
                tried.append(v)
                visit(_refine(adj, cells[:i] + [low, target ^ low] + cells[i + 1:], [low]))
            else:
                perm = list(range(n))
                perm[twin], perm[v] = v, twin
                generators.append(perm)

    everyone = (1 << n) - 1
    visit(_refine(adj, [everyone] if n else [], [everyone]))  # no cell when n = 0
    return best, generators


def canonical_code(adj: Sequence[int]) -> int:
    """Isomorphism-invariant integer identifying a graph among same-order graphs.

    ``adj`` is the graph's list of adjacency bitmask rows.  The code is the
    least upper-triangle adjacency code over the leaves of the
    individualisation-refinement search tree, whose leaves are the vertex
    orders read off the discrete partitions.  Two graphs of equal order get
    the same code exactly when they are isomorphic.
    """
    return _search(adj)[0]


def graphs_upto_iso(n: int) -> list[Graph]:
    """All simple graphs on ``n`` vertices, one per isomorphism class.

    Built by extending the (n-1)-catalogue with a new vertex attached to
    every subset and deduplicating via canonical codes.  Refuses n > 9.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    _check_order(n)
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
    Refuses n > 9.
    """
    if n < 1:
        raise ValueError("vertex count must be positive")
    _check_order(n)
    if n not in _connected_cache:
        if n == 1:
            _connected_cache[1] = [Graph(1, (0,))]
        else:
            _connected_cache[n] = _extend(
                connected_graphs_upto_iso(n - 1), include_empty=False
            )
    return _connected_cache[n]


def _check_order(n: int) -> None:
    if n > _CATALOGUE_MAX:
        raise UnsupportedSizeError(f"catalogues support n <= {_CATALOGUE_MAX}, got {n}")


def _extend(parents: list[Graph], include_empty: bool) -> list[Graph]:
    """First child of each isomorphism class, in enumeration order.

    A child joins a new vertex to a subset of its parent's vertices.
    Subsets in one orbit of the parent's automorphism group give isomorphic
    children, and the least of them comes first, so only that one is
    canonicalised: a later one could never be the first of its class.
    """
    seen: set[int] = set()
    out: list[Graph] = []
    start = 0 if include_empty else 1
    for parent in parents:
        m = parent.n
        leader = _orbit_leaders(_search(parent.adj)[1], m)
        for subset in range(start, 1 << m):
            if leader[subset] != subset:
                continue
            rows = [row | (subset >> v & 1) << m for v, row in enumerate(parent.adj)]
            rows.append(subset)
            _meter.tick("children")
            code = canonical_code(rows)
            if code not in seen:
                seen.add(code)
                out.append(Graph._derived(m + 1, rows))
    return out


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n:
        return False
    return canonical_code(g.adj) == canonical_code(h.adj)
