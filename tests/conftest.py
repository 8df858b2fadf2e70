import os
import pathlib

import pytest

import zfdom
from zfdom import Graph, emit_graph6, graphs, parse_graph6
from zfdom._smallgraphs import connected_graphs_upto_iso, graphs_upto_iso

CACHE_DIR = pathlib.Path(__file__).parent / ".corpus_cache"


@pytest.fixture
def meter(monkeypatch):
    """The work meter, counting from zero, with a deadline 10 s away.

    Each test that reads the counts runs for a second at most, so the
    deadline only stops a search that has lost its pruning.
    """
    monkeypatch.setattr(graphs._meter, "counts", {})
    monkeypatch.setattr(graphs._meter, "deadline", graphs._meter.clock() + 10.0)
    return graphs._meter


@pytest.fixture(scope="session")
def child_env():
    """The environment for a child Python that imports this checkout's zfdom."""
    package_root = str(pathlib.Path(zfdom.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


@pytest.fixture(scope="session")
def graphs_by_order():
    """All graphs up to isomorphism, n = 0..7."""
    return {n: graphs_upto_iso(n) for n in range(8)}


@pytest.fixture(scope="session")
def connected_by_order():
    """Connected graphs up to isomorphism, n = 1..7."""
    return {n: connected_graphs_upto_iso(n) for n in range(1, 8)}


@pytest.fixture(scope="session")
def connected_eight():
    """Connected graphs up to isomorphism on 8 vertices (extended runs).

    Generation takes a little while, so the list is cached on disk as
    graph6 lines.
    """
    cache = CACHE_DIR / "connected_n8.g6"
    if cache.exists():
        graphs = [parse_graph6(line) for line in cache.read_text().split()]
    else:
        graphs = connected_graphs_upto_iso(8)
        CACHE_DIR.mkdir(exist_ok=True)
        cache.write_text("".join(emit_graph6(g) + "\n" for g in graphs))
    assert len(graphs) == 11117
    return graphs


@pytest.fixture(scope="session")
def figure_three_paths():
    """The 14-vertex example of a graph of three internally parallel paths.

    Hub 0 starts the paths (0,1,2,3,4), (0,5,6,7,8,9), (0,10,11,12,13);
    the remaining edges all run between different paths.
    """
    path_edges = [
        (0, 1), (1, 2), (2, 3), (3, 4),
        (0, 5), (5, 6), (6, 7), (7, 8), (8, 9),
        (0, 10), (10, 11), (11, 12), (12, 13),
    ]
    cross_edges = [
        (4, 8), (13, 8), (5, 1), (5, 2), (10, 6), (10, 2), (11, 7),
        (11, 3), (12, 7), (7, 4), (7, 13), (4, 9), (13, 9),
    ]
    return Graph.from_edges(14, path_edges + cross_edges)
