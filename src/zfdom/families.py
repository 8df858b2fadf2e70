"""Deterministic generators for the named graph families.

Each instance carries the invariant values claimed for the family, tagged
with provenance so verification can tell literature claims from values this
project derived itself.  Labeling conventions are fixed (hub first, cliques
consecutive) to keep graph6 output reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .forcing import z_grundy_number
from .graphs import _G6_MAX, Graph, UnsupportedSizeError, emit_graph6, parse_graph6

PAPER = "paper"
DERIVED = "derived"


@dataclass(frozen=True)
class ExpectedValue:
    invariant: str
    value: int
    provenance: str
    relation: str = "=="  # "==" or ">="

    def holds_for(self, actual: int) -> bool:
        if self.relation == "==":
            return actual == self.value
        if self.relation == ">=":
            return actual >= self.value
        raise ValueError(f"unknown relation {self.relation!r}")


@dataclass(frozen=True)
class FamilyInstance:
    graph: Graph
    family: str
    params: tuple[tuple[str, object], ...]
    expected: tuple[ExpectedValue, ...]

    def spec_string(self) -> str:
        segments: list[str] = []
        pending_ints: list[str] = []
        for _, value in self.params:
            if isinstance(value, str):
                if pending_ints:
                    segments.append(",".join(pending_ints))
                    pending_ints = []
                segments.append(value)
            elif isinstance(value, tuple):
                pending_ints.extend(str(x) for x in value)
            else:
                pending_ints.append(str(value))
        if pending_ints:
            segments.append(",".join(pending_ints))
        return ":".join([self.family, *segments])


def windmill(k: int, n: int) -> FamilyInstance:
    """n copies of K_k glued at one universal hub vertex (vertex 0)."""
    if k < 3 or n < 2:
        raise ValueError("windmill needs clique size >= 3 and >= 2 blades")
    order = n * (k - 1) + 1
    edges = []
    for blade in range(n):
        lo = 1 + blade * (k - 1)
        blade_vertices = range(lo, lo + k - 1)
        edges.extend((0, v) for v in blade_vertices)
        edges.extend(itertools.combinations(blade_vertices, 2))
    g = Graph.from_edges(order, edges)
    _validate_windmill(g, k, n)
    return FamilyInstance(
        g,
        "windmill",
        (("k", k), ("n", n)),
        (
            ExpectedValue("zgrundy", n, PAPER),
            ExpectedValue("upper_gamma_t", 2 * n, PAPER),
        ),
    )


def _validate_windmill(g: Graph, k: int, n: int) -> None:
    hub_degree = n * (k - 1)
    hubs = [v for v in range(g.n) if g.degree(v) == hub_degree]
    if g.n != hub_degree + 1 or hubs != [0]:
        raise AssertionError("windmill construction violated its shape")


def double_clique_matched(k: int) -> FamilyInstance:
    """Two K_k's joined by a perfect matching (i in one copy to i+k in the other)."""
    if k < 2:
        raise ValueError("matched double clique needs k >= 2")
    edges = list(itertools.combinations(range(k), 2))
    edges += list(itertools.combinations(range(k, 2 * k), 2))
    edges += [(i, i + k) for i in range(k)]
    g = Graph.from_edges(2 * k, edges)
    if any(g.degree(v) != k for v in range(g.n)):
        raise AssertionError("matched double clique must be k-regular")
    return FamilyInstance(
        g,
        "doubleclique",
        (("k", k),),
        (
            ExpectedValue("zgrundy", k, PAPER),
            ExpectedValue("gamma_t", 2, PAPER),
        ),
    )


def star(leaves: int) -> FamilyInstance:
    """K_{1,leaves} with the center labeled 0."""
    if leaves < 1:
        raise ValueError("star needs at least one leaf")
    g = Graph.from_edges(leaves + 1, [(0, v) for v in range(1, leaves + 1)])
    expected = ()
    if leaves >= 2:
        expected = (
            ExpectedValue("zgrundy", 2, PAPER),
            ExpectedValue("gamma_t", 2, PAPER),
        )
    return FamilyInstance(g, "star", (("leaves", leaves),), expected)


def path(n: int) -> FamilyInstance:
    if n < 1:
        raise ValueError("path needs at least one vertex")
    g = Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])
    return FamilyInstance(
        g, "path", (("n", n),), (ExpectedValue("zero_forcing", 1, PAPER),)
    )


def cycle(n: int) -> FamilyInstance:
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    g = Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])
    expected = [ExpectedValue("zero_forcing", 2, DERIVED)]
    if n == 5:
        expected += [
            ExpectedValue("gamma_t", 3, PAPER),
            ExpectedValue("zgrundy", 3, PAPER),
        ]
    return FamilyInstance(g, "cycle", (("n", n),), tuple(expected))


def complete(n: int) -> FamilyInstance:
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    g = Graph.from_edges(n, itertools.combinations(range(n), 2))
    expected = [ExpectedValue("zero_forcing", max(n - 1, 1), DERIVED)]
    if n >= 2:
        expected.append(ExpectedValue("zgrundy", 1, DERIVED))
    return FamilyInstance(g, "complete", (("n", n),), tuple(expected))


def complete_multipartite(sizes: tuple[int, ...]) -> FamilyInstance:
    """Complete multipartite graph with consecutive parts."""
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("part sizes must be positive")
    parts = []
    start = 0
    for s in sizes:
        parts.append(range(start, start + s))
        start += s
    edges = [
        (u, v)
        for a, b in itertools.combinations(range(len(parts)), 2)
        for u in parts[a]
        for v in parts[b]
    ]
    g = Graph.from_edges(start, edges)
    expected = ()
    if len(sizes) >= 2:
        # connected totally 2-uniform: both open-variant numbers equal 2
        expected = (
            ExpectedValue("gamma_t", 2, PAPER),
            ExpectedValue("grundy_total", 2, PAPER),
        )
    return FamilyInstance(g, "multipartite", (("sizes", sizes),), expected)


def g_star(base: Graph) -> FamilyInstance:
    """Base graph plus a dominating apex with one pendant companion.

    Vertex n is adjacent to everything in the base and to the new vertex
    n+1, which has no other neighbor.  Every minimal TD-set must be {apex,
    something}, so the upper total domination number collapses to 2 while
    the Z-Grundy number can only grow.
    """
    n = base.n
    if n < 1:
        raise ValueError("base graph needs at least one vertex")
    edges = list(base.edges())
    edges += [(v, n) for v in range(n)]
    edges.append((n, n + 1))
    g = Graph.from_edges(n + 2, edges)
    base_grundy, _ = z_grundy_number(base)
    return FamilyInstance(
        g,
        "gstar",
        (("base", emit_graph6(base)),),
        (
            ExpectedValue("upper_gamma_t", 2, PAPER),
            ExpectedValue("zgrundy", base_grundy + 1, PAPER, relation=">="),
        ),
    )


def h_extension(h: Graph, sizes: tuple[int, ...]) -> FamilyInstance:
    """Base graph joined completely to a row of mutually disjoint cliques.

    Each clique has order >= 2, and the base stays induced on its original
    labels.  The claims zgrundy = l and upper_gamma_t = 2l, for l cliques,
    need l >= zgrundy(base).  That guard alone admits false claims when the
    base has isolated vertices: on P3 plus an isolated vertex with two
    cliques, zgrundy is 3.  Such a base needs l >= zgrundy(base) +
    min(#isolated, 2), a bound found by an exhaustive sweep of small bases
    rather than taken from the paper, so its claims are tagged derived.
    The guard is raised instead of refusing those bases, so that every base
    still has an extension.
    """
    if not sizes or any(s < 2 for s in sizes):
        raise ValueError("clique sizes must be at least 2")
    ell = len(sizes)
    isolated = sum(not row for row in h.adj)
    need = z_grundy_number(h)[0] + min(isolated, 2)
    if ell < need:
        raise ValueError(f"need at least {need} cliques for this base, got {ell}")
    provenance = DERIVED if isolated else PAPER
    edges = list(h.edges())
    start = h.n
    clique_vertices = []
    for s in sizes:
        block = range(start, start + s)
        edges.extend(itertools.combinations(block, 2))
        clique_vertices.extend(block)
        start += s
    edges.extend((u, v) for u in range(h.n) for v in clique_vertices)
    g = Graph.from_edges(start, edges)
    for u in range(h.n):  # base must stay induced
        if g.adj[u] & ((1 << h.n) - 1) != h.adj[u]:
            raise AssertionError("extension changed the base subgraph")
    return FamilyInstance(
        g,
        "hext",
        (("base", emit_graph6(h)), ("sizes", sizes)),
        (
            ExpectedValue("upper_gamma_t", 2 * ell, provenance),
            ExpectedValue("zgrundy", ell, provenance),
        ),
    )


# name -> (constructor, number of integer parameters; None takes any number)
_INT_FAMILIES = {
    "windmill": (windmill, 2),
    "doubleclique": (double_clique_matched, 1),
    "star": (star, 1),
    "path": (path, 1),
    "cycle": (cycle, 1),
    "complete": (complete, 1),
    "multipartite": (lambda *sizes: complete_multipartite(sizes), None),
}


def parse_family_spec(text: str) -> FamilyInstance:
    """Build a family instance from a CLI spec string.

    Forms: ``windmill:3,2``, ``doubleclique:3``, ``star:4``, ``path:7``,
    ``cycle:5``, ``complete:4``, ``multipartite:2,2,3``, ``gstar:<graph6>``
    and ``hext:<graph6>:2,2``.  Every family's order is at least the sum of
    its integer parameters, so a spec whose parameters sum to more than the
    graph6 limit of 62 vertices is refused before any edge is built.
    """
    name, _, rest = text.partition(":")
    try:
        if name in _INT_FAMILIES:
            build, count = _INT_FAMILIES[name]
            return build(*_ints(rest, count))
        if name == "gstar":
            return g_star(parse_graph6(rest))
        if name == "hext":
            token, _, size_text = rest.partition(":")
            return h_extension(parse_graph6(token), tuple(_ints(size_text, None)))
    except ValueError as exc:
        raise ValueError(f"bad family spec {text!r}: {exc}") from exc
    raise ValueError(f"unknown family {name!r}")


def _ints(text: str, count: int | None) -> list[int]:
    parts = [p for p in text.split(",") if p != ""]
    if not parts or (count is not None and len(parts) != count):
        raise ValueError(f"expected {count or 'some'} integer parameters")
    values = [int(p) for p in parts]
    if sum(values) > _G6_MAX:
        raise UnsupportedSizeError(
            f"parameters summing to {sum(values)} give more than {_G6_MAX} vertices, "
            "the graph6 short-form limit"
        )
    return values
