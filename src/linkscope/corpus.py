"""Deterministic graph instances for exhaustive and randomized testing."""

from __future__ import annotations

import random
from itertools import combinations
from typing import Iterator

from .graph import Graph, MonitorSet, is_connected

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


def named_fixtures() -> dict[str, tuple[Graph, MonitorSet]]:
    """Small instances used throughout the test suite.

    The two bridge fixtures put one monitor on each side of a bridge, with
    two links adjacent to the bridge per side; in the second one the bridge
    is incident to a monitor.
    """
    fixtures: dict[str, tuple[Graph, MonitorSet]] = {}

    # bridge 4-5 between two four-cycles; monitors 1 and 8 on opposite sides
    fig1a = Graph(
        edges=[(1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (5, 6), (5, 7), (6, 8), (7, 8)]
    )
    fixtures["fig1a_bridge"] = (fig1a, (1, 8))

    # bridge 4-5 lands directly on monitor 5; its far side is a triangle
    fig1b = Graph(edges=[(1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (5, 6), (5, 7), (6, 7)])
    fixtures["fig1b_bridge"] = (fig1b, (1, 5))

    k4 = Graph(edges=[(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    fixtures["k4_m12"] = (k4, (1, 2))

    triangle = Graph(edges=[(1, 2), (1, 3), (2, 3)])
    fixtures["triangle_m12"] = (triangle, (1, 2))

    c4 = Graph(edges=[(1, 2), (2, 3), (3, 4), (1, 4)])
    fixtures["c4_m13"] = (c4, (1, 3))

    bowtie = Graph(edges=[(1, 2), (1, 5), (2, 5), (3, 4), (3, 5), (4, 5)])
    fixtures["bowtie"] = (bowtie, (1, 2, 3))

    return fixtures
