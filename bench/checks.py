"""Output checks written independently of zfdom.

The benchmark judges zfdom's output with this module only: its own graph6
decoder, certificate validators and isomorphism test.  Nothing here imports
zfdom, so a defect in the package cannot approve its own output.
"""

from __future__ import annotations

import hashlib
import itertools
import json


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest(text: str) -> str:
    """Short digest of one report line, as stored in ``data/``."""
    return sha256(text)[:16]


def decode_graph6(text: str) -> list[int]:
    """Adjacency bitmasks of a graph6 string (orders below 63 only)."""
    data = [ord(c) - 63 for c in text]
    n = data[0]
    if not 0 <= n < 63 or any(not 0 <= x < 64 for x in data):
        raise ValueError(f"not a small graph6 string: {text!r}")
    adj = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            byte, bit = divmod(k, 6)
            if data[1 + byte] >> (5 - bit) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k += 1
    return adj


def _closed(adj, v):
    return adj[v] | 1 << v


def _members(mask):
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def _mask(vertices):
    out = 0
    for v in vertices:
        out |= 1 << v
    return out


def z_sequence_ok(adj, sequence: dict) -> bool:
    """Each entry has a neighbour outside the earlier closed neighbourhoods,
    and the reported footprints are the new part of its closed neighbourhood."""
    vertices = sequence["vertices"]
    if len(set(vertices)) != len(vertices) or len(sequence["footprints"]) != len(vertices):
        return False
    covered = 0
    for v, footprint in zip(vertices, sequence["footprints"]):
        if not 0 <= v < len(adj) or not adj[v] & ~covered:
            return False
        if _mask(footprint) != _closed(adj, v) & ~covered:
            return False
        covered |= _closed(adj, v)
    return True


def totally_dominates(adj, dmask: int) -> bool:
    return all(adj[v] & dmask for v in range(len(adj)))


def minimal_td_ok(adj, certificate: dict) -> bool:
    """A total dominating set whose every member has a private neighbour,
    with the certificate's external and internal private neighbours."""
    dmask = _mask(certificate["set"])
    if not totally_dominates(adj, dmask):
        return False
    witnesses = certificate["witnesses"]
    if sorted(int(v) for v in witnesses) != sorted(certificate["set"]):
        return False
    for v in certificate["set"]:
        private = _mask(w for w in range(len(adj)) if adj[w] & dmask == 1 << v)
        if not private:
            return False
        claimed = witnesses[str(v)]
        if _mask(claimed["epn"]) != private & ~dmask or _mask(claimed["ipn"]) != private & dmask:
            return False
    return True


def forces(adj, blue: int) -> bool:
    """Zero forcing closure of ``blue`` reaches every vertex."""
    n = len(adj)
    full = (1 << n) - 1
    changed = True
    while changed and blue != full:
        changed = False
        for v in range(n):
            if blue >> v & 1:
                white = adj[v] & ~blue
                if white and white & (white - 1) == 0:
                    blue |= white
                    changed = True
    return blue == full


def decomposition_ok(adj, decomposition: dict) -> bool:
    """Hub-rooted, internally disjoint paths covering the graph, the extra
    edges listed exactly, and the selection property on path interiors."""
    n = len(adj)
    hub = decomposition["hub"]
    paths = decomposition["paths"]
    cover = 1 << hub
    on_path = set()
    for path in paths:
        if not path or path[0] != hub or len(set(path)) != len(path):
            return False
        for a, b in zip(path, path[1:]):
            if not adj[a] >> b & 1:
                return False
            on_path.add((min(a, b), max(a, b)))
        mask = _mask(path)
        if mask & cover & ~(1 << hub):
            return False
        cover |= mask
    if cover != (1 << n) - 1:
        return False
    edges = {(a, b) for b in range(n) for a in range(b) if adj[a] >> b & 1}
    extra = {tuple(e) for e in decomposition["extra_edges"]}
    if extra != edges - on_path:
        return False
    tails = {}
    interiors = []
    for path in paths:
        interiors.append(path[1:-1])
        for i, v in enumerate(path[1:-1], start=1):
            tails[v] = _mask(path[i + 1:])
    interiors = [p for p in interiors if p]
    for count in range(1, len(interiors) + 1):
        for chosen in itertools.combinations(interiors, count):
            for selection in itertools.product(*chosen):
                union = 0
                for v in selection:
                    union |= tails[v]
                if not any((adj[v] & union).bit_count() == 1 for v in selection):
                    return False
    return True


def hunt_certificate_ok(predicate: str, hit: dict) -> bool:
    """Re-validate one ``zfdom hunt`` hit from its certificate alone."""
    adj = decode_graph6(hit["graph6"])
    cert = hit["certificate"]
    if hit["predicate"] != predicate:
        return False
    if predicate == "zgrundy-eq-gammat":
        dmask = _mask(cert["gamma_t_set"])
        return (totally_dominates(adj, dmask)
                and len(cert["gamma_t_set"]) == cert["gamma_t"]
                and z_sequence_ok(adj, cert["sequence"])
                and len(cert["sequence"]["vertices"]) == cert["gamma_t"])
    if predicate == "uppertotal-eq-2zgrundy":
        return (minimal_td_ok(adj, cert["minimal_td_set"])
                and len(cert["minimal_td_set"]["set"]) == cert["upper_gamma_t"]
                == 2 * cert["zgrundy"]
                and z_sequence_ok(adj, cert["sequence"])
                and len(cert["sequence"]["vertices"]) == cert["zgrundy"])
    if predicate == "z-eq-delta":
        min_degree = min(a.bit_count() for a in adj)
        ok = (cert["zero_forcing"] == min_degree
              and len(cert["forcing_set"]) == min_degree
              and forces(adj, _mask(cert["forcing_set"])))
        if "decomposition" in cert:
            ok = ok and cert["hub"] == cert["decomposition"]["hub"] \
                and decomposition_ok(adj, cert["decomposition"])
        return ok
    raise ValueError(f"no certificate check for {predicate!r}")


def corpus_summary(lines: list[str]) -> dict:
    """The stderr summary ``zfdom run`` owes for these JSONL report lines."""
    verdicts: dict = {}
    flags: dict = {}
    violations = timeouts = 0
    failed_lines = []
    for line in lines:
        report = json.loads(line)
        if "error" in report:
            failed_lines.append(report["graph6"])
            continue
        for check, verdict in report["verdicts"].items():
            per = verdicts.setdefault(check, {})
            per[verdict] = per.get(verdict, 0) + 1
            violations += verdict == "VIOLATION"
            timeouts += verdict == "timeout"
        for flag, value in report["flags"].items():
            if value:
                flags[flag] = flags.get(flag, 0) + 1
    return {
        "graphs": len(lines),
        "parse_failures": len(failed_lines),
        "failed_lines": failed_lines,
        "violations": violations,
        "timeouts": timeouts,
        "verdicts": verdicts,
        "extremal_counts": flags,
        "exit_code": 1 if violations else 2 if failed_lines else 0,
    }


def is_simple(adj) -> bool:
    """Symmetric adjacency without loops."""
    return all(not a >> v & 1 and all(adj[u] >> v & 1 for u in _members(a))
               for v, a in enumerate(adj))


def is_connected(adj) -> bool:
    if not adj:
        return True
    seen = frontier = 1
    while frontier:
        nxt = 0
        for v in _members(frontier):
            nxt |= adj[v]
        frontier = nxt & ~seen
        seen |= frontier
    return seen == (1 << len(adj)) - 1


def _invariant(adj):
    """Isomorphism invariant: two refinement rounds of degree colours with
    per-vertex triangle counts."""
    n = len(adj)
    colour = [(adj[v].bit_count(),
               sum((adj[u] & adj[v]).bit_count() for u in _members(adj[v])))
              for v in range(n)]
    for _ in range(2):
        colour = [(colour[v], tuple(sorted(colour[u] for u in _members(adj[v]))))
                  for v in range(n)]
    return tuple(sorted(colour))


def isomorphic(a, b) -> bool:
    """Exact test by backtracking over degree-preserving vertex maps."""
    n = len(a)
    if n != len(b):
        return False
    deg_a = [x.bit_count() for x in a]
    deg_b = [x.bit_count() for x in b]
    image = [-1] * n

    def extend(v, used):
        if v == n:
            return True
        for w in range(n):
            if used >> w & 1 or deg_b[w] != deg_a[v]:
                continue
            if all((a[v] >> u & 1) == (b[w] >> image[u] & 1) for u in range(v)):
                image[v] = w
                if extend(v + 1, used | 1 << w):
                    return True
        return False

    return extend(0, 0)


def pairwise_non_isomorphic(graphs) -> bool:
    """No two graphs in the list are isomorphic."""
    groups: dict = {}
    for adj in graphs:
        groups.setdefault(_invariant(adj), []).append(adj)
    return not any(isomorphic(x, y)
                   for group in groups.values()
                   for x, y in itertools.combinations(group, 2))
