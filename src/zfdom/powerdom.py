"""Power domination and graphs of k internally parallel paths.

The power domination process observes the closed neighborhood of a seed set
and then runs zero forcing, so gamma_p is zero forcing from N[S]: it comes
from the seed search that also gives Z, run over closed-neighborhood rows
on masks only.  The traced path (``power_closure``) serves certificates
and explanations; the decomposition below replays the steps that the
same closure kernel records.

A single-vertex seed certifies the structure of the whole graph: replaying
its propagation from a hub assigns every vertex to one of deg(hub) paths,
and those paths satisfy a selection property (some chosen interior vertex
has exactly one neighbor among the chosen tails).  Recognition extracts
the paths from the propagation, and validation decides the selection
property by replaying the paths as forcing chains.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass

from .forcing import _closure_mask, _least_seed, forcing_closure
from .graphs import Graph, UnsupportedSizeError, VertexSet, _meter, _union, bits


@dataclass(frozen=True)
class PowerTrace:
    """Domination step followed by a zero forcing propagation."""

    seed: VertexSet
    dominated: VertexSet  # closed neighborhood of the seed
    steps: tuple[tuple[int, int], ...]
    final: VertexSet

    def to_json(self) -> dict:
        return {
            "seed": sorted(self.seed),
            "dominated": sorted(self.dominated),
            "steps": [list(step) for step in self.steps],
            "final": sorted(self.final),
        }


def power_closure(g: Graph, s: VertexSet) -> PowerTrace:
    """Observe N[s], then propagate with the color-change rule."""
    if s.n != g.n:
        raise ValueError("seed belongs to a graph of different order")
    trace = forcing_closure(g, VertexSet(_union(g.cadj, s.mask), g.n))
    return PowerTrace(s, trace.initial, trace.steps, trace.final)


def is_power_dominating_set(g: Graph, s: VertexSet) -> bool:
    return power_closure(g, s).final.mask == g.full_mask


def power_domination_number(g: Graph) -> tuple[int, VertexSet]:
    """Exact power domination number with the lexicographically least witness."""
    return _least_seed(g, g.cadj, 0)


def z_equals_delta(g: Graph) -> tuple[bool, int | None]:
    """Whether some minimum-degree vertex power dominates alone.

    Returns the first such vertex in index order.  Equivalence of this with
    Z(G) = min degree is a theorem for graphs with at least two vertices and
    is asserted by the harness, not here.
    """
    delta = g.min_degree()
    for x in range(g.n):
        if g.degree(x) == delta:
            _meter.tick("closures:z_equals_delta")
            if _closure_mask(g, g.cadj[x]) == g.full_mask:
                return True, x
    return False, None


# ---------------------------------------------------------------------------
# internally parallel paths


class DecompositionStructureError(ValueError):
    """The paths do not form a hub-rooted internally disjoint cover."""


@dataclass(frozen=True)
class ParallelPathsDecomposition:
    """Hub vertex with internally disjoint paths covering the graph.

    Each path starts at the hub; ``extra_edges`` lists the edges of the
    graph that lie on no path.  The one-vertex graph is represented by a
    single trivial path (hub only).
    """

    hub: int
    paths: tuple[tuple[int, ...], ...]
    extra_edges: tuple[tuple[int, int], ...]

    @classmethod
    def from_paths(cls, g: Graph, hub: int, paths) -> ParallelPathsDecomposition:
        paths = tuple(tuple(p) for p in paths)
        n = g.n
        # on_path[v]: v's neighbors along the paths, as a mask
        on_path = [0] * n
        for path in paths:
            for a, b in zip(path, path[1:]):
                if 0 <= a < n and 0 <= b < n:
                    on_path[a] |= 1 << b
                    on_path[b] |= 1 << a
        # the edges (v, u) with v < u, in sorted order, that no path uses
        extra = tuple(
            (v, u)
            for v in range(n)
            for u in bits(g.adj[v] & ~on_path[v] & ~((2 << v) - 1))
        )
        return cls(hub, paths, extra)

    def to_json(self) -> dict:
        return {
            "hub": self.hub,
            "paths": [list(p) for p in self.paths],
            "extra_edges": [list(e) for e in self.extra_edges],
        }


@dataclass(frozen=True)
class DecompositionReport:
    """Result of the selection-property check.

    ``violation`` names a failing choice of interior vertices (one per
    chosen path); chords inside a path are recorded separately and do not
    fail the check.
    """

    valid: bool
    violation: tuple[int, ...] | None
    induced_violations: tuple[tuple[int, tuple[int, int]], ...]

    def __bool__(self) -> bool:
        return self.valid


def validate_decomposition(g: Graph, d: ParallelPathsDecomposition) -> DecompositionReport:
    """Structural check, then the selection property by replaying the paths.

    Structure (paths rooted at the hub, internally disjoint, covering the
    graph) raises on violation.  The property quantifies over every
    nonempty choice of non-end vertices from distinct paths: some chosen
    vertex must have exactly one neighbor in the union of the chosen tails.

    It is decided by replaying the paths as forcing chains.  The hub and
    each path's second vertex start blue, and each path's tip starts at its
    second vertex (at the hub for a hub-only path).  Until nothing moves, a
    tip that is not its path's last vertex forces its successor when that
    is its only white neighbor, and the tip advances.  The property holds
    exactly when every path plays out:

    - If the replay stops early, the white set is the union of the tails of
      the stuck tips, and each of them sees its successor and another white
      vertex, so the stuck tips are a failing choice: ``violation``.
    - If it finishes, take any choice S with tail union T, and let w be the
      vertex of T forced first.  Its forcer is its path predecessor p, and
      p is not in T, or it would have been forced before w; so p is the
      vertex s of S on w's path.  When s forced w, every other neighbor of
      s in T was already blue, hence forced before w, which cannot be; so
      w is s's only neighbor in T.

    The replay ends the same whatever the order of its moves, and an
    extraction's forces are its moves, so every extraction validates.
    Chords inside a path are recorded separately and do not fail the check.
    """
    n = g.n
    hub = d.hub
    g._check_vertex(hub)
    cover = 1 << hub
    for idx, path in enumerate(d.paths):
        if not path or path[0] != hub:
            raise DecompositionStructureError(f"path {idx} does not start at the hub")
        if len(set(path)) != len(path):
            raise DecompositionStructureError(f"path {idx} repeats a vertex")
        for a, b in zip(path, path[1:]):
            if not (0 <= a < n and 0 <= b < n and g.adj[a] >> b & 1):
                g.has_edge(a, b)  # a vertex out of range raises IndexError here
                raise DecompositionStructureError(
                    f"path {idx} uses the non-edge ({a}, {b})"
                )
        mask = 0
        for v in path:
            mask |= 1 << v
        if mask & cover & ~(1 << hub):
            raise DecompositionStructureError(
                f"path {idx} shares a non-hub vertex with an earlier path"
            )
        cover |= mask
    if cover != g.full_mask:
        raise DecompositionStructureError("paths do not cover the vertex set")

    # every vertex is in range now: each path is the hub alone or a chain of edges
    induced = []
    for idx, path in enumerate(d.paths):
        for i, a in enumerate(path):
            row = g.adj[a]
            for b in path[i + 2 :]:
                if row >> b & 1:
                    induced.append((idx, (a, b)))

    # tips[i] indexes path i's tip; white is the union of the tips' tails
    tips = [min(1, len(path) - 1) for path in d.paths]
    white = 0
    for path in d.paths:
        for v in path[2:]:
            white |= 1 << v
    before = None
    while white != before:
        before = white
        for idx, path in enumerate(d.paths):
            i = tips[idx]
            while i + 1 < len(path) and g.adj[path[i]] & white == 1 << path[i + 1]:
                i += 1
                white ^= 1 << path[i]
            tips[idx] = i
    stuck = tuple(path[i] for path, i in zip(d.paths, tips) if i + 1 < len(path))
    return DecompositionReport(not stuck, stuck or None, tuple(induced))


def extract_decomposition(g: Graph, x: int) -> ParallelPathsDecomposition | None:
    """Replay the propagation from hub ``x`` into per-path assignments.

    Returns None when {x} is not power dominating.  Each forced vertex
    extends the path of its forcer, which is always a current path tip:
    blue vertices off the tips have no non-blue neighbors left.
    """
    g._check_vertex(x)
    if g.n == 1:
        return ParallelPathsDecomposition.from_paths(g, x, [(x,)])
    steps = []
    _meter.tick("closures:extract_decomposition")
    if _closure_mask(g, g.cadj[x], steps) != g.full_mask:
        return None
    paths = [[x, v] for v in bits(g.adj[x])]
    tip_to_path = {path[1]: i for i, path in enumerate(paths)}
    for forcer, forced in steps:
        idx = tip_to_path.pop(forcer, None)
        if idx is None:
            raise AssertionError("forcing vertex is not a path tip")
        paths[idx].append(forced)
        tip_to_path[forced] = idx
    return ParallelPathsDecomposition.from_paths(g, x, paths)


def _validated_hubs(g: Graph) -> Iterator[tuple[int, int]]:
    """Lazily yield (hub, path count) for each hub whose extraction validates."""
    for x in range(g.n):
        d = extract_decomposition(g, x)
        if d is not None and validate_decomposition(g, d).valid:
            yield x, len(d.paths)


def recognize_parallel_paths(g: Graph) -> tuple[tuple[int, int], ...]:
    """All (hub, path count) pairs whose extraction passes validation."""
    return tuple(_validated_hubs(g))


def is_k_parallel_paths_graph(g: Graph, k: int) -> bool:
    """Whether some hub yields a validated decomposition into ``k`` paths."""
    return any(count == k for _, count in _validated_hubs(g))


# ---------------------------------------------------------------------------
# outerplanarity at desk scale

_OUTERPLANAR_MAX = 10


def is_outerplanar_small(g: Graph) -> bool:
    """Brute-force outerplanarity for n <= 10.

    Outerplanar means no K4 minor and no K_{2,3} minor; both patterns have
    maximum degree 3, so minors reduce to subdivisions, found here by
    packing internally disjoint paths between branch vertices.
    """
    if g.n > _OUTERPLANAR_MAX:
        raise UnsupportedSizeError(
            f"outerplanarity check supports n <= {_OUTERPLANAR_MAX}, got {g.n}"
        )
    return not _has_k4_subdivision(g) and not _has_k23_subdivision(g)


def _interior_choices(g: Graph, s: int, t: int, allowed: int) -> list[int]:
    """Interior vertex masks of simple s-t paths with interiors in ``allowed``."""
    out = []
    seen = set()

    def walk(v: int, interior: int) -> None:
        if g.adj[v] >> t & 1:
            if interior not in seen:
                seen.add(interior)
                out.append(interior)
        for u in bits(g.adj[v] & allowed & ~interior):
            walk(u, interior | 1 << u)

    walk(s, 0)
    return out


def _pack_paths(g: Graph, pairs, branch_mask: int, used: int, idx: int) -> bool:
    if idx == len(pairs):
        return True
    s, t = pairs[idx]
    allowed = g.full_mask & ~branch_mask & ~used
    for interior in _interior_choices(g, s, t, allowed):
        if _pack_paths(g, pairs, branch_mask, used | interior, idx + 1):
            return True
    return False


def _has_k4_subdivision(g: Graph) -> bool:
    eligible = [v for v in range(g.n) if g.degree(v) >= 3]
    for branch in itertools.combinations(eligible, 4):
        mask = 0
        for v in branch:
            mask |= 1 << v
        pairs = list(itertools.combinations(branch, 2))
        if _pack_paths(g, pairs, mask, 0, 0):
            return True
    return False


def _has_k23_subdivision(g: Graph) -> bool:
    deg2 = [v for v in range(g.n) if g.degree(v) >= 2]
    deg3 = [v for v in deg2 if g.degree(v) >= 3]
    for a, b in itertools.combinations(deg3, 2):
        for trio in itertools.combinations([v for v in deg2 if v not in (a, b)], 3):
            mask = 1 << a | 1 << b
            for v in trio:
                mask |= 1 << v
            pairs = [(side, v) for v in trio for side in (a, b)]
            if _pack_paths(g, pairs, mask, 0, 0):
                return True
    return False
