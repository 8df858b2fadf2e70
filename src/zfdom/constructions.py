"""Z-sequences built from total dominating sets, and extremal-graph checks.

Two constructions are implemented as executable proofs.  From a carefully
chosen minimum TD-set one can order all of its vertices into a Z-sequence
(so the Z-Grundy number is at least the total domination number); from any
minimal TD-set one can order at least half of it (so the upper total
domination number is at most twice the Z-Grundy number).  Both results are
re-validated on every call, and the module also evaluates the property list
that graphs attaining the factor-2 bound must satisfy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .domination import (
    NotTotalDominatingError,
    _gamma_t_masks,
    is_minimal_td_set,
    is_total_dominating_set,
    total_domination_number,
    upper_total_domination_number,
)
from .forcing import ZSequence, z_grundy_number
from .graphs import (
    Graph,
    UnsupportedSizeError,
    VertexSet,
    _component_masks,
    _union,
    bits,
    has_clique_component,
    induced_subgraph,
    is_clique,
    is_connected,
    require_isolate_free,
)


class CliqueComponentError(ValueError):
    """A construction that forbids clique components met one."""


@dataclass(frozen=True)
class K2ComponentAnalysis:
    """K2-components of G[D] and the regions they exclusively dominate.

    ``regions[i]`` holds the vertices totally dominated by ``pairs[i]`` and
    by nothing else in D; it always contains the pair itself.  A pair is
    flagged symmetric when both endpoints see the same region vertices
    (other than each other).
    """

    dset: VertexSet
    pairs: tuple[tuple[int, int], ...]
    regions: tuple[VertexSet, ...]
    symmetric: tuple[bool, ...]
    big_components: tuple[VertexSet, ...]  # components of G[D] on >= 3 vertices

    def symmetric_count(self) -> int:
        return sum(self.symmetric)


def _k2_split(g: Graph, dmask: int) -> tuple[list, list[int], list[bool], list[int]]:
    """(pairs, regions, symmetric flags, larger components) of G[dmask], as masks.

    The first three describe the K2-components, as ``analyze_k2_components``
    does; the last holds the masks of the components on >= 3 vertices.
    """
    adj = g.adj
    pairs = []
    regions = []
    symmetric = []
    bigs = []
    for comp in _component_masks(adj, dmask):
        if comp.bit_count() == 2:
            x = (comp & -comp).bit_length() - 1
            y = (comp & comp - 1).bit_length() - 1
            region = (adj[x] | adj[y]) & ~_union(adj, dmask & ~comp)
            pairs.append((x, y))
            regions.append(region)
            symmetric.append(adj[x] & region & ~(1 << y) == adj[y] & region & ~(1 << x))
        else:
            bigs.append(comp)
    return pairs, regions, symmetric, bigs


def analyze_k2_components(g: Graph, d: VertexSet) -> K2ComponentAnalysis:
    """Split G[d] into K2-components (with exclusive regions) and the rest."""
    if not is_total_dominating_set(g, d):
        raise NotTotalDominatingError(f"{sorted(d)} is not a total dominating set")
    pairs, regions, symmetric, bigs = _k2_split(g, d.mask)
    return K2ComponentAnalysis(
        d,
        tuple(pairs),
        tuple(VertexSet(region, g.n) for region in regions),
        tuple(symmetric),
        tuple(VertexSet(comp, g.n) for comp in bigs),
    )


def gamma_t_set_minimizing_k2_components(g: Graph) -> VertexSet:
    """The minimum TD-set the sequence construction wants to start from.

    Among all minimum TD-sets, minimize the number of K2-components of the
    induced subgraph, then the number of symmetrically linked ones, and take
    the first in mask order.  An exchange argument shows the winner has no
    symmetrically linked K2-component at all; that is asserted, not assumed.
    """
    return _least_k2_analysis(g).dset


def _least_k2_analysis(g: Graph) -> K2ComponentAnalysis:
    """The K2 analysis of ``gamma_t_set_minimizing_k2_components(g)``.

    The sets are ranked on masks; only the winner is analysed in full.
    """
    require_isolate_free(g)
    if has_clique_component(g):
        raise CliqueComponentError("graph has a clique component")

    def rank(mask: int) -> tuple[int, int]:
        if _union(g.adj, mask) != g.full_mask:
            raise NotTotalDominatingError(f"{list(bits(mask))} is not a total dominating set")
        pairs, _, symmetric, _ = _k2_split(g, mask)
        return len(pairs), sum(symmetric)

    best = analyze_k2_components(g, VertexSet(min(_gamma_t_masks(g), key=rank), g.n))
    if best.symmetric_count() != 0:
        raise AssertionError(
            "every minimum total dominating set kept a symmetrically linked "
            "K2-component; the exchange argument rules this out"
        )
    return best


def _component_vertex_order(g: Graph, comp_mask: int) -> list[int]:
    """Leaf-neighbors of the component first, then the rest, ascending.

    Within a component of G[D] on >= 3 vertices, a vertex adjacent to a
    degree-1 vertex of the component footprints that vertex (an internal
    private neighbor); the remaining vertices footprint an external private
    neighbor instead, so they may come later in any order.
    """
    leaves = 0
    for v in bits(comp_mask):
        if (g.adj[v] & comp_mask).bit_count() == 1:
            leaves |= 1 << v
    first = [v for v in bits(comp_mask) if g.adj[v] & leaves]
    rest = [v for v in bits(comp_mask) if not g.adj[v] & leaves]
    return first + rest


def _sequence_of(g: Graph, analysis: K2ComponentAnalysis, pair_part: list[int]) -> ZSequence:
    """The large components of G[D] in vertex order, then ``pair_part``, validated."""
    sequence: list[int] = []
    for comp in analysis.big_components:
        sequence.extend(_component_vertex_order(g, comp.mask))
    sequence.extend(pair_part)
    try:
        return ZSequence.build(g, sequence)
    except ValueError as exc:
        raise AssertionError(f"construction produced an invalid sequence: {exc}") from exc


def z_sequence_from_gamma_t(g: Graph) -> ZSequence:
    """A validated Z-sequence whose vertex set is a minimum TD-set.

    Orders each large component of G[D] (leaf-neighbors first), then each
    K2-component as (y, x) where x keeps a region neighbor outside N[y] to
    footprint.  The result has length exactly the total domination number.
    """
    analysis = _least_k2_analysis(g)
    pair_part: list[int] = []
    for (x, y), region in zip(analysis.pairs, analysis.regions):
        if g.adj[x] & ~g.cadj[y] & region.mask:
            pair_part.extend((y, x))
        elif g.adj[y] & ~g.cadj[x] & region.mask:
            pair_part.extend((x, y))
        else:
            raise AssertionError(
                "asymmetric K2-component has no one-sided region neighbor"
            )
    return _sequence_of(g, analysis, pair_part)


def half_z_sequence_from_minimal_td(g: Graph, d: VertexSet) -> ZSequence:
    """A validated Z-sequence covering at least half of a minimal TD-set.

    Large components of G[d] contribute all their vertices; each
    K2-component contributes its lower vertex, which footprints its partner.
    """
    if is_minimal_td_set(g, d) is None:
        raise ValueError(f"{sorted(d)} is not a minimal total dominating set")
    analysis = analyze_k2_components(g, d)
    seq = _sequence_of(g, analysis, [x for x, _y in analysis.pairs])
    assert 2 * len(seq) >= len(d)
    return seq


# ---------------------------------------------------------------------------
# properties of graphs with upper total domination = 2 * Z-Grundy


@dataclass(frozen=True)
class ExtremalPropertyReport:
    """Per-property verdicts for one maximum minimal TD-set.

    A False entry is a counterexample to the implementation (the properties
    are theorems); ``witnesses`` carries whatever made a property fail.
    ``subset_checks`` counts the subset-bound evaluations.  ``exhaustive``
    is always True: the subset bound is checked on every subset or the
    report is refused.
    """

    properties: dict[str, bool]
    witnesses: dict[str, object] = field(default_factory=dict)
    subset_checks: int = 0
    exhaustive: bool = True

    def all_hold(self) -> bool:
        return all(self.properties.values())


_SUBSET_EXHAUSTIVE_MAX = 15


def _rest_of_graph(g: Graph, analysis: K2ComponentAnalysis) -> VertexSet:
    mask = g.full_mask
    for region in analysis.regions:
        mask &= ~region.mask
    return VertexSet(mask, g.n)


def _full_regions(g: Graph, analysis: K2ComponentAnalysis, u: int) -> int:
    """The indices of the regions ``u`` is adjacent to in full, as a mask."""
    return sum(1 << i for i, r in enumerate(analysis.regions) if g.adj[u] & r.mask == r.mask)


def fully_adjacent_indices(g: Graph, analysis: K2ComponentAnalysis, b: VertexSet) -> tuple[int, ...]:
    """Indices of regions some vertex of ``b`` is adjacent to in full."""
    if not b <= _rest_of_graph(g, analysis):
        raise ValueError("subset must avoid the exclusively dominated regions")
    indices = 0
    for u in b:
        indices |= _full_regions(g, analysis, u)
    return tuple(bits(indices))


def max_minimal_cover_size(g: Graph, analysis: K2ComponentAnalysis, b: VertexSet) -> int | None:
    """Largest inclusion-minimal index set whose pair-lows dominate ``b``.

    Covers draw from the fully adjacent indices of ``b``; coverage of a
    vertex means adjacency to the lower pair vertex.  None when no cover
    exists (impossible on genuinely extremal inputs).
    """
    if not b:
        return 0
    candidates = fully_adjacent_indices(g, analysis, b)
    minimal_sizes = []
    for r in range(1, len(candidates) + 1):
        for chosen in itertools.combinations(candidates, r):
            lows = [1 << analysis.pairs[i][0] for i in chosen]
            cover = sum(lows)  # the pairs are disjoint, so their lows are distinct bits
            if b.mask & ~_union(g.adj, cover):
                continue
            if any(not b.mask & ~_union(g.adj, cover ^ low) for low in lows):
                continue  # not inclusion-minimal
            minimal_sizes.append(r)
    return max(minimal_sizes) if minimal_sizes else None


def _rest_pairs(g: Graph, analysis: K2ComponentAnalysis, rest: VertexSet):
    """(u, v, number of regions both see in full) for each pair u < v of ``rest``."""
    for u, v in itertools.combinations(rest, 2):
        yield u, v, (_full_regions(g, analysis, u) & _full_regions(g, analysis, v)).bit_count()


def _subset_bound_failures(g: Graph, analysis: K2ComponentAnalysis, rest: VertexSet):
    """The subsets B of ``rest``, smallest first, on which the bound fails.

    The bound: zgrundy of B without its isolated vertices, plus the largest
    minimal cover of those isolated vertices, is at most the number of
    regions B sees in full.
    """
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            b = VertexSet.of(combo, g.n)
            isolated = VertexSet(sum(1 << u for u in combo if not g.adj[u] & b.mask), g.n)
            lhs_grundy, _ = z_grundy_number(induced_subgraph(g, b - isolated)[0])
            cover = max_minimal_cover_size(g, analysis, isolated)
            if cover is None or lhs_grundy + cover > len(fully_adjacent_indices(g, analysis, b)):
                yield list(combo)


# Each scan (g, analysis, rest) yields the property's counterexamples in a
# fixed order; the first one is the witness.
_PROPERTIES = {
    "k2_components_only": lambda g, a, rest: (sorted(comp) for comp in a.big_components),
    "pair_sees_region_alike": lambda g, a, rest: (
        (x, y) for (x, y), r in zip(a.pairs, a.regions) if g.cadj[x] & r.mask != g.cadj[y] & r.mask
    ),
    "regions_are_cliques": lambda g, a, rest: (sorted(r) for r in a.regions if not is_clique(g, r)),
    "no_region_cross_edges": lambda g, a, rest: (
        (i, j)
        for i, j in itertools.combinations(range(len(a.regions)), 2)
        if _union(g.adj, a.regions[i].mask) & a.regions[j].mask
    ),
    "region_closed_twins": lambda g, a, rest: (
        sorted(r) for r in a.regions if len({g.cadj[v] for v in r}) > 1
    ),
    "adjacent_share_region": lambda g, a, rest: (
        (u, v) for u, v, shared in _rest_pairs(g, a, rest) if g.has_edge(u, v) and not shared
    ),
    "nonadjacent_share_not_one": lambda g, a, rest: (
        (u, v) for u, v, shared in _rest_pairs(g, a, rest) if not g.has_edge(u, v) and shared == 1
    ),
    "subset_bound": _subset_bound_failures,
}

PROPERTY_NAMES = tuple(_PROPERTIES)


def check_extremal_properties(g: Graph, d: VertexSet) -> ExtremalPropertyReport:
    """Evaluate the eight structural properties of a factor-2 extremal graph.

    Preconditions (checked): the upper total domination number equals twice
    the Z-Grundy number and ``d`` is a maximum minimal TD-set.  The subset
    bound is checked on every subset of the vertices outside the regions, so
    more than 15 of them raise ``UnsupportedSizeError``.
    """
    gk, _ = z_grundy_number(g)
    uk, _ = upper_total_domination_number(g)
    if uk != 2 * gk:
        raise ValueError("graph does not attain the factor-2 bound")
    if is_minimal_td_set(g, d) is None or len(d) != uk:
        raise ValueError("set is not a maximum minimal total dominating set")

    analysis = analyze_k2_components(g, d)
    rest = _rest_of_graph(g, analysis)
    if len(rest) > _SUBSET_EXHAUSTIVE_MAX:
        raise UnsupportedSizeError(
            f"the subset bound is checked on at most {_SUBSET_EXHAUSTIVE_MAX} vertices "
            f"outside the regions, got {len(rest)}"
        )
    found = {name: next(scan(g, analysis, rest), None) for name, scan in _PROPERTIES.items()}
    return ExtremalPropertyReport(
        {name: witness is None for name, witness in found.items()},
        {name: witness for name, witness in found.items() if witness is not None},
        1 << len(rest),
    )


def non_twin_pairs_see_all(g: Graph) -> bool:
    """Whether the closed neighborhoods of every non-twin pair cover V.

    Twins are closed or open twins.  This is the structural side of the
    characterization of graphs whose total domination and Z-Grundy numbers
    both equal 2.
    """
    for x, y in itertools.combinations(range(g.n), 2):
        if g.cadj[x] == g.cadj[y] or g.adj[x] == g.adj[y]:
            continue
        if g.cadj[x] | g.cadj[y] != g.full_mask:
            return False
    return True


def check_gamma_two_characterization(g: Graph) -> bool:
    """Whether [both invariants equal 2] iff [non-twin pairs jointly see V].

    The biconditional is a theorem for connected non-complete graphs, so a
    False return is a counterexample to the implementation.
    """
    if not is_connected(g):
        raise ValueError("graph must be connected")
    if is_clique(g, g.full_set()):
        raise ValueError("graph must not be complete")
    left = total_domination_number(g)[0] == 2 and z_grundy_number(g)[0] == 2
    return left == non_twin_pairs_see_all(g)
