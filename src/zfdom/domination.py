"""Total dominating sets: exact minimum and upper (max minimal) numbers.

A TD-set gives every vertex a neighbor inside it.  Minimality is certified
through private neighborhoods: D is a minimal TD-set exactly when each of
its vertices keeps a private neighbor (internal or external).

One pruned depth-first search, ``_minimal_td_masks``, lists every minimal
TD-set; γt, Γt and both enumeration streams are read off that list, which is
kept for the last graph searched.  A minimum TD-set is minimal, so γt is the
least size in it.  Streams are ordered by ascending mask value so downstream
constructions are reproducible; the γt witness is the lexicographically
least minimum set and the Γt witness the first maximum set in mask order.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from dataclasses import dataclass

from .graphs import Graph, VertexSet, _meter, _union, bits, require_isolate_free


class NotTotalDominatingError(ValueError):
    """The given set fails to totally dominate the graph."""


def is_dominating_set(g: Graph, d: VertexSet) -> bool:
    """Every vertex is in a closed neighborhood of ``d``."""
    if d.n != g.n:
        raise ValueError("set belongs to a graph of different order")
    return _union(g.cadj, d.mask) == g.full_mask


def is_total_dominating_set(g: Graph, d: VertexSet) -> bool:
    """Every vertex has a neighbor in ``d`` (open neighborhoods)."""
    if d.n != g.n:
        raise ValueError("set belongs to a graph of different order")
    return _union(g.adj, d.mask) == g.full_mask


def _private(g: Graph, d: VertexSet) -> dict[int, int]:
    """pn(v, D) of each member v of ``d``: the vertices whose only D-neighbor is v, as masks."""
    private = dict.fromkeys(d, 0)
    for w in range(g.n):
        inside = g.adj[w] & d.mask
        if inside and not inside & (inside - 1):
            private[inside.bit_length() - 1] |= 1 << w
    return private


def private_neighborhoods(g: Graph, d: VertexSet, v: int) -> tuple[VertexSet, VertexSet, VertexSet]:
    """(pn, epn, ipn) of ``v`` with respect to ``d``.

    pn(v, D) collects the vertices whose only D-neighbor is v; epn and ipn
    split it outside/inside D.
    """
    if v not in d:
        raise ValueError(f"vertex {v} is not in the set")
    pn = _private(g, d)[v]
    n = g.n
    return (
        VertexSet(pn, n),
        VertexSet(pn & ~d.mask, n),
        VertexSet(pn & d.mask, n),
    )


@dataclass(frozen=True)
class TDCertificate:
    """A minimal TD-set with each member's private-neighbor witnesses."""

    dset: VertexSet
    witnesses: dict[int, tuple[VertexSet, VertexSet]]  # v -> (epn, ipn)

    def to_json(self) -> dict:
        return {
            "set": sorted(self.dset),
            "witnesses": {
                str(v): {"epn": sorted(epn), "ipn": sorted(ipn)}
                for v, (epn, ipn) in self.witnesses.items()
            },
        }


def is_minimal_td_set(g: Graph, d: VertexSet) -> TDCertificate | None:
    """Certificate when ``d`` is a minimal TD-set, None when merely a TD-set.

    Raises NotTotalDominatingError when ``d`` does not totally dominate, so
    callers can tell "not minimal" apart from "not even dominating".
    """
    if not is_total_dominating_set(g, d):
        raise NotTotalDominatingError(f"{sorted(d)} is not a total dominating set")
    witnesses = {}
    for v, pn in _private(g, d).items():
        if not pn:
            return None
        witnesses[v] = (VertexSet(pn & ~d.mask, g.n), VertexSet(pn & d.mask, g.n))
    return TDCertificate(d, witnesses)


def _minimal_td_search(g: Graph, least: bool) -> list[int]:
    """Masks of minimal TD-sets of ``g``: all of them, or with ``least`` a minimum one last.

    Depth-first search over the vertices by descending degree (ties: lower
    index first), keeping ``once``/``twice``, the vertices with at least one
    and at least two neighbors in the chosen set.  A branch is cut when a
    vertex outside ``once`` has no neighbor left among the undecided
    vertices, or when a member has no private neighbor ``adj & ~twice``:
    adding vertices only shrinks private neighborhoods.  A chosen set that
    totally dominates is recorded and not extended, since every proper
    superset of a TD-set has a redundant member.  With ``least``, a branch
    is also cut once it cannot beat the smallest set recorded so far, so
    each recorded set is smaller than the one before and the last is a
    minimum TD-set.  Memory is O(n) plus the output and the recursion is at
    most n + 1 deep.
    """
    require_isolate_free(g)
    n, adj, full = g.n, g.adj, g.full_mask
    order = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
    # reach[i]: the vertices some undecided vertex order[i:] can still dominate
    reach = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        reach[i] = reach[i + 1] | adj[order[i]]
    found = []
    # a branch whose members number cap - 1 cannot beat the sets found; n + 1
    # cuts nothing, since a set that holds every vertex totally dominates
    cap = n + 1

    def extend(i: int, chosen: int, members: tuple, once: int, twice: int) -> None:
        nonlocal cap
        _meter.tick("td_nodes")
        if once == full:
            found.append(chosen)
            if least:
                cap = len(members)
            return
        if full & ~once & ~reach[i] or len(members) + 1 >= cap:
            return
        v = order[i]
        row = adj[v]
        grown = twice | once & row
        # v's own private neighbors are the vertices it dominates first
        if row & ~once and (
            grown == twice or all(adj[u] & ~grown for u in members)
        ):
            extend(i + 1, chosen | 1 << v, members + (v,), once | row, grown)
        extend(i + 1, chosen, members, once, twice)

    extend(0, 0, (), 0, 0)
    return found


@functools.lru_cache(maxsize=1)
def _minimal_td_masks(g: Graph) -> tuple[int, ...]:
    """Masks of all minimal TD-sets of ``g``, ascending; kept for the last graph."""
    return tuple(sorted(_minimal_td_search(g, least=False)))


def _gamma_t_value(g: Graph) -> int:
    """γt alone, for a graph whose sets no one reads: it leaves the cache alone."""
    return _minimal_td_search(g, least=True)[-1].bit_count()


def _gamma_t_masks(g: Graph) -> list[int]:
    """Masks of all minimum TD-sets of ``g``, ascending."""
    masks = _minimal_td_masks(g)
    k = min(map(int.bit_count, masks))
    return [mask for mask in masks if mask.bit_count() == k]


def total_domination_number(g: Graph) -> tuple[int, VertexSet]:
    """Exact minimum TD-set size with the lexicographically least witness.

    Every minimum TD-set is minimal, so the value is the least size among
    the minimal TD-sets; the witness is the least of the minimum ones as a
    sorted vertex tuple.
    """
    witness = min(_gamma_t_masks(g), key=lambda mask: tuple(bits(mask)))
    return witness.bit_count(), VertexSet(witness, g.n)


def upper_total_domination_number(g: Graph) -> tuple[int, VertexSet]:
    """Exact maximum size of a minimal TD-set, with the first witness in mask order."""
    best = max(_minimal_td_masks(g), key=int.bit_count)
    return best.bit_count(), VertexSet(best, g.n)


def enumerate_gamma_t_sets(g: Graph) -> Iterator[VertexSet]:
    """All minimum total dominating sets, ascending by mask value.

    These are the minimal TD-sets of least size, read off the same search
    as γt without a separate γt computation.
    """
    for mask in _gamma_t_masks(g):
        yield VertexSet(mask, g.n)


def enumerate_minimal_td_sets(g: Graph) -> Iterator[VertexSet]:
    """All minimal total dominating sets, ascending by mask value."""
    for mask in _minimal_td_masks(g):
        yield VertexSet(mask, g.n)
