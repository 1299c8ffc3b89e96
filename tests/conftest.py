from __future__ import annotations

import random
from itertools import combinations
from typing import Iterator

import pytest

from linkscope import identifiability
from linkscope.graph import Graph, is_connected

MAX_EXHAUSTIVE_NODES = 7


def all_connected_graphs(n: int) -> Iterator[Graph]:
    """Every connected simple graph on the labeled nodes 1..n, in edge-mask
    order.  Capped at 7 nodes (2^21 candidate graphs)."""
    if not 1 <= n <= MAX_EXHAUSTIVE_NODES:
        raise ValueError(f"n must be between 1 and {MAX_EXHAUSTIVE_NODES}")
    nodes = list(range(1, n + 1))
    slots = list(combinations(nodes, 2))
    for mask in range(1 << len(slots)):
        edges = [slots[i] for i in range(len(slots)) if mask >> i & 1]
        g = Graph(nodes, edges)
        if is_connected(g):
            yield g


def random_connected_graph(n: int, edge_prob: float, seed: int) -> Graph:
    """Seeded G(n, p) rejection-sampled until connected.  The effective edge
    probability is floored at 2/n so sampling terminates quickly."""
    if n < 2:
        raise ValueError("need at least 2 nodes")
    if not 0 < edge_prob <= 1:
        raise ValueError("edge_prob must be in (0, 1]")
    p = max(edge_prob, 2.0 / n)
    rng = random.Random(seed)
    nodes = list(range(1, n + 1))
    slots = list(combinations(nodes, 2))
    while True:
        edges = [e for e in slots if rng.random() < p]
        g = Graph(nodes, edges)
        if is_connected(g):
            return g


def k_n(n: int, start: int = 1) -> Graph:
    nodes = list(range(start, start + n))
    return Graph(nodes, [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1 :]])


def c_n(n: int) -> Graph:
    return Graph(edges=[(i, i % n + 1) for i in range(1, n + 1)])


def path_n(n: int) -> Graph:
    return Graph(edges=[(i, i + 1) for i in range(1, n)])


@pytest.fixture
def no_path_search(monkeypatch):
    """Any path search of the identifiability module raises."""

    def stall(*args, **kwargs):
        raise AssertionError("ran a path search")

    monkeypatch.setattr(identifiability, "iter_simple_paths", stall)


@pytest.fixture
def k4() -> Graph:
    return k_n(4)


@pytest.fixture
def c4() -> Graph:
    return c_n(4)


@pytest.fixture
def triangle() -> Graph:
    return k_n(3)


@pytest.fixture
def bowtie() -> Graph:
    # two triangles sharing node 5
    return Graph(edges=[(1, 2), (1, 5), (2, 5), (3, 4), (3, 5), (4, 5)])


# Input 43 of the place benchmark's generator at seed 107 (32 nodes, 80
# links).  Enumerating its measurement paths in lexicographic order walks for
# minutes before reaching a cap of 2000 paths.
STALL_EDGES = [
    (1, 7), (1, 11), (1, 12), (1, 16), (2, 5), (2, 9), (2, 10), (2, 14), (2, 15), (2, 26),
    (2, 32), (3, 6), (3, 10), (3, 32), (4, 7), (4, 8), (4, 15), (4, 18), (5, 7), (5, 8),
    (5, 12), (5, 16), (5, 25), (5, 30), (5, 32), (6, 7), (6, 13), (6, 14), (6, 18), (6, 24),
    (6, 27), (7, 10), (7, 15), (7, 18), (7, 21), (7, 24), (7, 25), (7, 27), (7, 31), (8, 10),
    (8, 29), (9, 17), (9, 24), (10, 11), (10, 18), (10, 20), (11, 15), (11, 19), (11, 23), (11, 27),
    (11, 31), (12, 17), (13, 21), (13, 25), (13, 31), (14, 16), (14, 30), (15, 17), (15, 25), (15, 28),
    (17, 32), (18, 30), (19, 20), (19, 21), (19, 25), (19, 30), (20, 22), (20, 24), (20, 26), (21, 23),
    (21, 27), (21, 28), (22, 25), (23, 27), (23, 32), (24, 29), (24, 30), (25, 27), (28, 32), (31, 32),
]

# Eleven nodes, 16 links.  mmp places monitors 1, 5 and 8; the extended graph
# is 3-vertex-connected, and the constructed rows reach rank 16 only at row
# 38, in round 32, long after a whole turn of rounds has built nothing new.
G11_LINKS = [
    (1, 5), (1, 6), (1, 11), (2, 3), (2, 6), (2, 9), (3, 4), (3, 9), (4, 7), (4, 10), (5, 7),
    (6, 8), (6, 10), (7, 9), (7, 11), (10, 11),
]
