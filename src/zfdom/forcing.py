"""Zero forcing closure, exact Z(G), and the sequence-based Grundy numbers.

The color-change rule turns a blue vertex's unique non-blue neighbor blue.
Z(G) is the cost of the cheapest way to grow closed blue sets from nothing
to the whole graph (a wavefront search); the witness then comes from the
seed search that also serves the power domination number, scanning only
seeds of size Z(G): the union of the seed's rows (single vertices for Z,
closed neighborhoods for power domination) starts blue and must close to
the whole graph.  Z-sequences are the dual object: vertex orders in which
every entry still sees a vertex outside the union of the previous closed
neighborhoods.  Their DP, shared with the total variant, keys its memo by
the uncovered vertices and splits them into independent groups.  The two
exact solvers for Z and zgrundy are deliberately independent searches so
the duality Z(G) + zgrundy(G) = n(G) can be verified rather than assumed.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .graphs import Graph, VertexSet, _reach, _twin_seed, _union, require_isolate_free


@dataclass(frozen=True)
class PropagationTrace:
    """One run of the color-change rule to its fixed point."""

    initial: VertexSet
    steps: tuple[tuple[int, int], ...]  # (forcing vertex, forced vertex)
    final: VertexSet

    def to_json(self) -> dict:
        return {
            "initial": sorted(self.initial),
            "steps": [list(step) for step in self.steps],
            "final": sorted(self.final),
        }


def _closure_mask(g: Graph, mask: int, steps: list | None = None) -> int:
    """Fixed point of the color-change rule, masks only.

    A blue vertex can force only once its white neighbors are down to one,
    so each blue vertex is looked at once, and again after a neighbor
    turns blue.  Every vertex that can force waits in ``todo``, which is
    taken lowest first, so each force is made by the least vertex able to
    make it.  Each force is appended to ``steps``, when given, as the pair
    (forcing vertex, forced vertex).
    """
    adj = g.adj
    full = g.full_mask
    todo = mask
    while todo and mask != full:
        low = todo & -todo
        todo ^= low
        white = adj[low.bit_length() - 1] & ~mask
        if white and not white & (white - 1):
            mask |= white
            if steps is not None:
                steps.append((low.bit_length() - 1, white.bit_length() - 1))
            # the forced vertex and its blue neighbors have fewer white neighbors
            todo |= (adj[white.bit_length() - 1] | white) & mask
    return mask


def _reversed_bits(mask: int, n: int) -> int:
    """``mask`` with vertex v renamed n - 1 - v."""
    return int(format(mask, f"0{n}b")[::-1], 2)


def forcing_closure(g: Graph, blue: VertexSet, reverse_ties: bool = False) -> PropagationTrace:
    """Apply the color-change rule until no force is possible.

    The final set does not depend on the order of rule applications; the
    recorded trace applies, at each step, the lowest-index eligible forcing
    vertex (highest-index under ``reverse_ties``, used to test confluence:
    the closure then runs on the graph with its labels reversed).
    """
    if blue.n != g.n:
        raise ValueError("blue set belongs to a graph of different order")
    steps = []
    if reverse_ties:
        last = g.n - 1
        mirror = Graph._derived(g.n, [_reversed_bits(row, g.n) for row in reversed(g.adj)])
        final = _reversed_bits(_closure_mask(mirror, _reversed_bits(blue.mask, g.n), steps), g.n)
        steps = [(last - v, last - u) for v, u in steps]
    else:
        final = _closure_mask(g, blue.mask, steps)
    return PropagationTrace(blue, tuple(steps), VertexSet(final, g.n))


def is_zero_forcing_set(g: Graph, s: VertexSet) -> bool:
    if s.n != g.n:
        raise ValueError("set belongs to a graph of different order")
    return _closure_mask(g, s.mask) == g.full_mask


def _least_seed(g: Graph, rows, start: int, base: int = 0) -> tuple[int, VertexSet]:
    """Least seed size from ``start`` on, with the lexicographically least seed.

    A seed is good when the union of its vertices' ``rows`` closes to the
    whole vertex set; every row holds its own vertex, so the search ends.
    Only seeds that hold every vertex of the mask ``base`` are scanned: each
    is ``base`` joined with a subset of the other vertices, and those seeds
    come in the same lexicographic order as the subsets.
    """
    n = g.n
    full = g.full_mask
    free = [v for v in range(n) if not base >> v & 1]
    blue = _union(rows, base)
    for k in range(start, n + 1):
        for combo in itertools.combinations(free, k - base.bit_count()):
            mask = blue
            for v in combo:
                mask |= rows[v]
            if _closure_mask(g, mask) == full:
                return k, VertexSet.of(combo, n) | VertexSet(base, n)
    raise AssertionError("unreachable: the full vertex set always closes")


@functools.cache
def _unit_rows(n: int) -> tuple[int, ...]:
    """Single-vertex rows for Z's seed search, built once per order."""
    return tuple(1 << v for v in range(n))


def _wavefront_value(g: Graph, seed: int = 0) -> int:
    """Z(G) as the cheapest way to grow the closure of ``seed`` into V by closures.

    ``seed`` must lie inside some minimum forcing set; the search starts
    from its closure at cost |seed|.  A state is a closed blue mask S.  A
    move picks a vertex v whose closed neighborhood leaves S and jumps to
    the closure of S | N[v]; it costs |N[v] - S| - 1 seed vertices, since v
    then forces the last of them, or one when only v itself is white (a
    closed S leaves no blue vertex with exactly one white neighbor).
    Dijkstra over integer costs, one bucket per cost level: the first level
    holding V is Z(G) (the wavefront search of Brimkov, Fast and Hicks,
    EJOR 2019).  A move into V at cost c ends the search at once when
    c <= max(min degree, level + 1), since every other route costs at least
    level + 1 and Z(G) is at least the minimum degree.  Different moves
    often grow the same mask, so each grown mask is closed once.
    """
    n = g.n
    cadj = g.cadj
    full = g.full_mask
    floor = g.min_degree()  # Z(G) >= min degree
    start = _closure_mask(g, seed)
    cost = {start: seed.bit_count()}
    # closure[grown]: the closure of each mask grown so far
    closure = {}
    levels = [[] for _ in range(n + 1)]
    levels[cost[start]].append(start)
    for level, states in enumerate(levels):
        if cost.get(full) == level:
            return level
        for blue in states:
            if cost[blue] != level:
                continue  # reached more cheaply after it was queued
            for v in range(n):
                white = cadj[v] & ~blue
                if white:
                    step = level + max(white.bit_count() - 1, 1)
                    grown = blue | white
                    closed = closure.get(grown)
                    if closed is None:
                        closed = closure[grown] = grown if grown in cost else _closure_mask(g, grown)
                    if step < cost.get(closed, n + 1):
                        if closed == full and step <= max(floor, level + 1):
                            return step  # nothing left in the queue can beat it
                        cost[closed] = step
                        levels[step].append(closed)
    raise AssertionError("unreachable: every move adds at least its cost in vertices")


def zero_forcing_number(g: Graph) -> tuple[int, VertexSet]:
    """Exact Z(G) with the lexicographically least minimum forcing set.

    Both searches start from the twin seed, which that witness holds: the
    wavefront search gives the value, and the seed search then scans only
    that one size, in lexicographic order, for the rest of the witness.
    """
    seed = _twin_seed(g)
    return _least_seed(g, _unit_rows(g.n), _wavefront_value(g, seed), seed)


@dataclass(frozen=True)
class SequenceCheck:
    """Outcome of a Z-sequence validity check with per-step footprints."""

    valid: bool
    footprints: tuple[VertexSet, ...]  # up to and excluding the failing step
    failed_index: int | None

    def __bool__(self) -> bool:
        return self.valid


@dataclass(frozen=True)
class ZSequence:
    """A valid Z-sequence together with the vertices each step footprints."""

    graph: Graph
    vertices: tuple[int, ...]
    footprints: tuple[VertexSet, ...]

    @classmethod
    def build(cls, g: Graph, vertices) -> ZSequence:
        vertices = tuple(vertices)
        check = is_z_sequence(g, vertices)
        if not check.valid:
            raise ValueError(f"not a Z-sequence: step {check.failed_index} has no new open neighbor")
        return cls(g, vertices, check.footprints)

    def __len__(self) -> int:
        return len(self.vertices)

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "footprints": [sorted(fp) for fp in self.footprints],
        }


def _distinct_vertices(g: Graph, vertices) -> tuple[int, ...]:
    """``vertices``, read once, as a tuple; an out-of-range or repeated entry raises."""
    out = tuple(vertices)
    seen = 0
    for v in out:
        g._check_vertex(v)
        if seen >> v & 1:
            raise ValueError(f"duplicate vertex {v} in sequence")
        seen |= 1 << v
    return out


def is_z_sequence(g: Graph, vertices) -> SequenceCheck:
    """Check the Z-sequence condition at every step and report footprints.

    Every entry, including the first, must have a neighbor outside the union
    of the previous closed neighborhoods; a one-vertex sequence is therefore
    valid exactly when its vertex has a neighbor, and the empty sequence is
    valid.  Duplicate or out-of-range entries raise.
    """
    covered = 0
    footprints = []
    for i, v in enumerate(_distinct_vertices(g, vertices)):
        if not g.adj[v] & ~covered:
            return SequenceCheck(False, tuple(footprints), i)
        footprints.append(VertexSet(g.cadj[v] & ~covered, g.n))
        covered |= g.cadj[v]
    return SequenceCheck(True, tuple(footprints), None)


def _grundy_sequence(g: Graph, rows) -> list[int]:
    """Lexicographically least longest sequence over the cover ``rows``.

    Each entry's open neighborhood must leave the union of the earlier
    entries' rows: ``g.cadj`` gives Z-sequences, ``g.adj`` the total
    variant.  The memo is keyed by the uncovered mask U, which always equals
    the union of the candidates' footprints ``rows[v] & U`` (isolated
    vertices are dropped at the start, and every later vertex of U keeps a
    neighbor, which is a candidate).  Candidates whose footprints do not
    overlap, even through others, never interact, so the value is the sum
    over those groups, each memoised on its own mask (component caching, as
    in model counting).  Every step removes a vertex of U, so a state is
    worth at most its uncovered count: each state scans the uncovered masks
    it can move to largest first and stops at the first one too small to
    raise its value, or once the value reaches the number of candidates,
    since no vertex is appendable twice.  The witness walk skips the moves
    that the same count rules out.
    """
    n = g.n
    adj = g.adj
    # link[u]: the union of the rows that hold u; rows are symmetric, so
    # those are the rows of the vertices in rows[u]
    link = []
    for row in rows:
        joined = 0
        while row:
            low = row & -row
            joined |= rows[low.bit_length() - 1]
            row ^= low
        link.append(joined)
    memo = {0: 0}

    def best(uncovered: int) -> int:
        low = uncovered & -uncovered
        if link[low.bit_length() - 1] & uncovered != uncovered:
            if _reach(link, low, uncovered) != uncovered:
                value = 0
                rest = uncovered
                while rest:
                    group = _reach(link, rest & -rest, rest)
                    sub = memo.get(group)
                    value += best(group) if sub is None else sub
                    rest ^= group
                memo[uncovered] = value
                return value
        rests = [uncovered & ~rows[v] for v in range(n) if adj[v] & uncovered]
        candidates = len(rests)
        rests.sort(key=int.bit_count, reverse=True)
        value = 0
        for rest in rests:
            if rest.bit_count() < value:
                break  # best(rest) <= |rest|, so this and every later move falls short
            sub = memo.get(rest)
            if sub is None:
                sub = best(rest)
            if sub >= value:
                value = sub + 1
                if value == candidates:
                    break
        memo[uncovered] = value
        return value

    sequence = []
    uncovered = _union(adj, g.full_mask)
    remaining = memo.get(uncovered)
    if remaining is None:
        remaining = best(uncovered)
    while remaining:
        for v in range(n):
            if adj[v] & uncovered:
                rest = uncovered & ~rows[v]
                if rest.bit_count() + 1 < remaining:
                    continue  # best(rest) <= |rest| cannot finish the sequence
                sub = memo.get(rest)
                if sub is None:
                    sub = best(rest)
                if sub + 1 == remaining:
                    sequence.append(v)
                    uncovered = rest
                    remaining = sub
                    break
    return sequence


def z_grundy_number(g: Graph) -> tuple[int, ZSequence]:
    """Exact Z-Grundy domination number with a witness sequence.

    Covers closed neighborhoods, so a vertex is appendable exactly when its
    open neighborhood leaves the covered mask.  The witness is the
    lexicographically least optimum sequence.  Edgeless graphs (and
    isolated vertices generally) contribute nothing.
    """
    sequence = _grundy_sequence(g, g.cadj)
    return len(sequence), ZSequence.build(g, sequence)


def grundy_total_number(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact Grundy total domination number (open-neighborhood variant).

    Same search with open neighborhoods on both sides of the condition, and
    the same lexicographically least witness.  Requires an isolate-free
    graph; an isolated vertex could never be totally dominated by any
    sequence.
    """
    require_isolate_free(g)
    sequence = _grundy_sequence(g, g.adj)
    return len(sequence), tuple(sequence)


def complement_duality_check(g: Graph, vertices) -> bool:
    """Whether [the vertices admit a Z-sequence order] iff [complement forces].

    The correspondence between Z-sequences and zero forcing sets is a
    statement about the underlying vertex set: a particular order may fail
    while a reordering succeeds.  The left side is decided by searching
    orders directly, independent of the closure computation on the right,
    so a True return genuinely cross-checks the theorem.  Must return True
    on every input.
    """
    mask = sum(1 << v for v in _distinct_vertices(g, vertices))
    left = _orderable_as_z_sequence(g, mask)
    complement = VertexSet(g.full_mask & ~mask, g.n)
    return left == is_zero_forcing_set(g, complement)


def _orderable_as_z_sequence(g: Graph, mask: int) -> bool:
    adj = g.adj
    cadj = g.cadj

    def extend(remaining: int, covered: int) -> bool:
        if not remaining:
            return True
        todo = remaining
        while todo:
            v = (todo & -todo).bit_length() - 1
            todo &= todo - 1
            if adj[v] & ~covered and extend(remaining & ~(1 << v), covered | cadj[v]):
                return True
        return False

    return extend(mask, 0)
