"""Definition-level brute-force oracles, independent of the library solvers.

Everything here works on plain Python sets and does no memoization or
pruning beyond what the definitions force, so these routines stay slow and
trustworthy.  The solvers are cross-checked against them on small orders.
"""

from itertools import combinations, permutations

from zfdom import Graph


def neighbor_sets(g: Graph) -> dict[int, set[int]]:
    nbrs = {v: set() for v in range(g.n)}
    for u, v in g.edges():
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def reached_by_sets(nbrs: dict[int, set[int]], seed, within) -> set[int]:
    """``seed`` and every vertex of ``within`` that a path inside ``within`` reaches from it."""
    reached = set(seed)
    frontier = list(reached)
    while frontier:
        for u in nbrs[frontier.pop()] & set(within) - reached:
            reached.add(u)
            frontier.append(u)
    return reached


def components_by_sets(nbrs: dict[int, set[int]], within) -> list[set[int]]:
    """Components of the subgraph induced by ``within``, by least vertex."""
    out = []
    left = set(within)
    while left:
        out.append(reached_by_sets(nbrs, {min(left)}, left))
        left -= out[-1]
    return out


def forcing_steps_by_sets(
    nbrs: dict[int, set[int]], blue, highest_first: bool = False
) -> tuple[set[int], list[tuple[int, int]]]:
    """Zero forcing to its fixed point, with the forces in the order made.

    Every force rescans the blue vertices, and the lowest one with exactly
    one white neighbor forces that neighbor (the highest one under
    ``highest_first``).
    This is the trace order that ``forcing_closure`` documents.
    """
    blue = set(blue)
    steps = []
    while True:
        for u in sorted(blue, reverse=highest_first):
            white = nbrs[u] - blue
            if len(white) == 1:
                forced = white.pop()
                steps.append((u, forced))
                blue.add(forced)
                break
        else:
            return blue, steps


def closure_by_sets(nbrs: dict[int, set[int]], blue) -> set[int]:
    return forcing_steps_by_sets(nbrs, blue)[0]


def brute_zero_forcing(g: Graph) -> tuple[int, tuple[int, ...]]:
    nbrs = neighbor_sets(g)
    for k in range(g.n + 1):
        for combo in combinations(range(g.n), k):
            if len(closure_by_sets(nbrs, combo)) == g.n:
                return k, combo
    raise AssertionError("the full vertex set always forces")


def skew_forcing_steps(nbrs: dict[int, set[int]], blue) -> tuple[set[int], list[tuple[int, int]]]:
    """Skew forcing to its fixed point, with the forces in the order made.

    Any vertex, blue or white, with exactly one white neighbor forces that
    neighbor; the lowest such vertex moves first.
    """
    blue = set(blue)
    steps = []
    while True:
        for u in sorted(nbrs):
            white = nbrs[u] - blue
            if len(white) == 1:
                forced = white.pop()
                steps.append((u, forced))
                blue.add(forced)
                break
        else:
            return blue, steps


def brute_skew_forcing_set(g: Graph) -> tuple[int, ...]:
    """The first skew forcing set in ``combinations`` order: smallest, then lexicographically least."""
    nbrs = neighbor_sets(g)
    for k in range(g.n + 1):
        for combo in combinations(range(g.n), k):
            if len(skew_forcing_steps(nbrs, combo)[0]) == g.n:
                return combo
    raise AssertionError("the full vertex set always skew forces")


def _least_longest_sequence(g: Graph, closed: bool) -> tuple[int, ...]:
    """The lexicographically least among the longest valid sequences.

    An entry is valid when it has a neighbor outside the neighborhoods of
    the earlier entries: closed ones for Z-sequences, open ones for the
    total variant.  Depth-first search in ascending vertex order meets the
    sequences in lexicographic order, so the first longest one is the least.
    """
    nbrs = neighbor_sets(g)
    best: tuple[int, ...] = ()

    def extend(sequence: tuple[int, ...], covered: set[int]) -> None:
        nonlocal best
        if len(sequence) > len(best):
            best = sequence
        for v in range(g.n):
            if v not in sequence and nbrs[v] - covered:
                reach = nbrs[v] | {v} if closed else nbrs[v]
                extend(sequence + (v,), covered | reach)

    extend((), set())
    return best


def brute_z_grundy_sequence(g: Graph) -> tuple[int, ...]:
    return _least_longest_sequence(g, closed=True)


def brute_grundy_total_sequence(g: Graph) -> tuple[int, ...]:
    return _least_longest_sequence(g, closed=False)


def brute_z_grundy(g: Graph) -> int:
    return len(brute_z_grundy_sequence(g))


def brute_grundy_total(g: Graph) -> int:
    return len(brute_grundy_total_sequence(g))


def is_td_set_by_sets(nbrs: dict[int, set[int]], d) -> bool:
    d = set(d)
    return all(nbrs[v] & d for v in nbrs)


def brute_gamma_t_set(g: Graph) -> tuple[int, ...] | None:
    """The first TD-set in ``combinations`` order: smallest, then lexicographically least."""
    nbrs = neighbor_sets(g)
    for k in range(g.n + 1):
        for combo in combinations(range(g.n), k):
            if is_td_set_by_sets(nbrs, combo):
                return combo
    return None


def brute_gamma_t(g: Graph) -> int | None:
    witness = brute_gamma_t_set(g)
    return None if witness is None else len(witness)


def is_minimal_td_set_by_deletion(nbrs: dict[int, set[int]], d) -> bool:
    """A TD-set none of whose members can be dropped.

    Single deletions suffice: any superset of a TD-set totally dominates, so
    a TD proper subset S of D makes D - {v} a TD-set for each v outside S.
    """
    d = set(d)
    return is_td_set_by_sets(nbrs, d) and not any(
        is_td_set_by_sets(nbrs, d - {v}) for v in d
    )


def brute_td_masks(g: Graph, minimal: bool = False) -> list[int]:
    """Masks of the (minimal) TD-sets in ascending order."""
    nbrs = neighbor_sets(g)
    test = is_minimal_td_set_by_deletion if minimal else is_td_set_by_sets
    return [
        mask
        for mask in range(1 << g.n)
        if test(nbrs, {v for v in range(g.n) if mask >> v & 1})
    ]


def brute_minimal_td_sets(g: Graph) -> list[frozenset[int]]:
    """Minimal by the raw definition: no proper subset totally dominates."""
    nbrs = neighbor_sets(g)
    out = []
    for k in range(g.n + 1):
        for combo in combinations(range(g.n), k):
            d = set(combo)
            if not is_td_set_by_sets(nbrs, d):
                continue
            proper = (
                set(sub)
                for r in range(len(d))
                for sub in combinations(sorted(d), r)
            )
            if not any(is_td_set_by_sets(nbrs, s) for s in proper):
                out.append(frozenset(d))
    return out


def brute_upper_gamma_t(g: Graph) -> int | None:
    sets = brute_minimal_td_sets(g)
    return max((len(s) for s in sets), default=None)


def brute_gamma_p_set(g: Graph) -> tuple[int, ...]:
    """The first power dominating set in ``combinations`` order: smallest, then lexicographically least."""
    nbrs = neighbor_sets(g)
    for k in range(g.n + 1):
        for combo in combinations(range(g.n), k):
            observed = set(combo)
            for v in combo:
                observed |= nbrs[v]
            if len(closure_by_sets(nbrs, observed)) == g.n:
                return combo
    raise AssertionError("the full vertex set always power dominates")


def brute_gamma_p(g: Graph) -> int:
    return len(brute_gamma_p_set(g))


def has_long_induced_cycle(g: Graph) -> bool:
    """An induced cycle on at least four vertices (chordality oracle)."""
    nbrs = neighbor_sets(g)
    for k in range(4, g.n + 1):
        for combo in combinations(range(g.n), k):
            inside = set(combo)
            degs = [len(nbrs[v] & inside) for v in combo]
            if any(d != 2 for d in degs):
                continue
            # all degrees two: a disjoint union of cycles; connected <=> one cycle
            start = combo[0]
            seen = {start}
            frontier = {start}
            while frontier:
                frontier = set().union(*(nbrs[v] & inside for v in frontier)) - seen
                seen |= frontier
            if seen == inside:
                return True
    return False


def isomorphic_by_permutation(g: Graph, h: Graph) -> bool:
    """Whether some bijection of the vertices maps the edges of ``g`` onto those of ``h``.

    Tries all n! maps.  With equal edge counts, a map that sends every edge
    of ``g`` to an edge of ``h`` is onto the edges of ``h``.
    """
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    targets = set(h.edges())
    targets |= {(v, u) for u, v in targets}
    edges = list(g.edges())
    return any(
        all((p[u], p[v]) in targets for u, v in edges)
        for p in permutations(range(g.n))
    )


def automorphisms_by_permutation(g: Graph) -> set[tuple[int, ...]]:
    """Every automorphism of ``g``, as the tuple of vertex images.

    Tries all n! maps and keeps those that send every edge to an edge.
    """
    edges = list(g.edges())
    targets = set(edges) | {(v, u) for u, v in edges}
    return {
        p for p in permutations(range(g.n))
        if all((p[u], p[v]) in targets for u, v in edges)
    }


def encode_graph6_by_hand(g: Graph) -> str:
    """Direct transcription of the graph6 byte layout."""
    assert g.n <= 62
    bit_text = ""
    for j in range(g.n):
        for i in range(j):
            bit_text += "1" if g.has_edge(i, j) else "0"
    bit_text += "0" * (-len(bit_text) % 6)
    token = chr(g.n + 63)
    for k in range(0, len(bit_text), 6):
        token += chr(int(bit_text[k : k + 6], 2) + 63)
    return token


# ---------------------------------------------------------------------------
# planarity via Kuratowski subdivisions; outerplanarity via an apex vertex


def _simple_path_interiors(nbrs, s, t, allowed):
    found = set()

    def walk(v, interior):
        if t in nbrs[v]:
            found.add(frozenset(interior))
        for u in nbrs[v] & allowed - interior:
            walk(u, interior | {u})

    walk(s, set())
    return found


def _realize_disjoint_paths(nbrs, pairs, branch, used, idx, verts):
    if idx == len(pairs):
        return True
    s, t = pairs[idx]
    allowed = verts - branch - used
    for interior in _simple_path_interiors(nbrs, s, t, allowed):
        if _realize_disjoint_paths(nbrs, pairs, branch, used | interior, idx + 1, verts):
            return True
    return False


def _has_k5_subdivision(nbrs, verts):
    candidates = [v for v in verts if len(nbrs[v]) >= 4]
    for branch in combinations(candidates, 5):
        pairs = list(combinations(branch, 2))
        if _realize_disjoint_paths(nbrs, pairs, set(branch), set(), 0, verts):
            return True
    return False


def _has_k33_subdivision(nbrs, verts):
    candidates = [v for v in verts if len(nbrs[v]) >= 3]
    for six in combinations(candidates, 6):
        for left in combinations(six, 3):
            if six[0] not in left:
                continue  # fixing the smallest vertex's side halves the work
            right = [v for v in six if v not in left]
            pairs = [(a, b) for a in left for b in right]
            if _realize_disjoint_paths(nbrs, pairs, set(six), set(), 0, verts):
                return True
    return False


def is_planar_by_subdivisions(nbrs, verts) -> bool:
    return not _has_k5_subdivision(nbrs, verts) and not _has_k33_subdivision(nbrs, verts)


def outerplanar_by_apex(g: Graph) -> bool:
    """Outerplanar iff the graph plus a universal apex vertex is planar."""
    nbrs = neighbor_sets(g)
    apex = g.n
    nbrs[apex] = set(range(g.n))
    for v in range(g.n):
        nbrs[v].add(apex)
    return is_planar_by_subdivisions(nbrs, set(range(g.n + 1)))


# ---------------------------------------------------------------------------
# Row's graphs of two parallel paths (the graphs with zero forcing number 2)


def _induced_path_order(nbrs, verts):
    """The vertices of ``verts`` in path order if they induce a path, else None."""
    inside = {v: nbrs[v] & verts for v in verts}
    if sum(len(s) for s in inside.values()) != 2 * (len(verts) - 1):
        return None
    ends = sorted(v for v in verts if len(inside[v]) <= 1)
    if not ends:
        return None
    order = [ends[0]]
    while len(order) < len(verts):
        step = inside[order[-1]] - set(order)
        if len(step) != 1:
            return None
        order.append(step.pop())
    return order  # |verts| - 1 edges, all on this walk: no chords


def two_parallel_paths_by_definition(g: Graph) -> bool:
    """Row's graph of two parallel paths, decided from the definition.

    Two vertex-disjoint induced paths a_0..a_p and b_0..b_q cover V; for one
    of the two relative orientations no two cross edges (a_i, b_j) and
    (a_k, b_l) cross, that is (i - k)(j - l) >= 0 for every pair; and the
    graph is not itself a path.  Row (LAA 436 (2012) 4423-4432) proves that
    Z(G) = 2 exactly on this class.
    """
    nbrs = neighbor_sets(g)
    everything = set(range(g.n))
    if _induced_path_order(nbrs, everything) is not None:
        return False
    for size in range(g.n - 1):
        for rest in combinations(range(1, g.n), size):
            side = {0, *rest}  # the path through vertex 0, so each split is seen once
            a = _induced_path_order(nbrs, side)
            b = _induced_path_order(nbrs, everything - side)
            if a is None or b is None:
                continue
            cross = [
                (i, j) for i, u in enumerate(a) for j, v in enumerate(b) if v in nbrs[u]
            ]
            for sign in (1, -1):  # -1 reverses the second path
                if all(
                    sign * (i - k) * (j - l) >= 0
                    for (i, j), (k, l) in combinations(cross, 2)
                ):
                    return True
    return False
