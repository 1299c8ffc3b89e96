"""Seeded input generators for the three workloads.

Everything here uses ``random.Random(seed)`` and nothing else, and none of it
imports linkscope, so a change to the package (its corpus module included)
cannot change a workload.  Instances are drawn in order from one generator per
workload; a longer run only extends the same sequence.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

# (nodes, target average degree), cycled in this order.  Fixing the size
# schedule keeps the size mix of a run independent of the seed, which only
# shapes each graph.
PLACE_SIZES = tuple((n, d) for n in (26, 32, 38) for d in (4, 5, 6, 7, 8, 9))
IDENTIFY_SIZES = tuple((n, d) for n in (12, 13, 14, 15, 16) for d in (3.5, 3.75))
IDENTIFY_MONITOR_COUNTS = (2, 3)
SCAN_NODES = (4, 5, 6)


def connected_graph(rng: random.Random, n: int, avg_degree: float) -> list[tuple[int, int]]:
    """Edges of a connected simple graph on nodes 1..n with about
    n * avg_degree / 2 edges: a random recursive spanning tree over shuffled
    labels, then uniformly random extra edges."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges: set[tuple[int, int]] = set()
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    target = min(max(n - 1, round(n * avg_degree / 2)), n * (n - 1) // 2)
    while len(edges) < target:
        u, v = rng.sample(order, 2)
        edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def place_instances(seed: int, count: int) -> list[dict]:
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n, d = PLACE_SIZES[i % len(PLACE_SIZES)]
        out.append({"n": n, "degree": d, "edges": connected_graph(rng, n, d)})
    return out


def identify_instances(seed: int, count: int) -> list[dict]:
    """Graph, monitors and strictly positive rational weights per instance."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n, d = IDENTIFY_SIZES[i % len(IDENTIFY_SIZES)]
        k = IDENTIFY_MONITOR_COUNTS[i // len(IDENTIFY_SIZES) % len(IDENTIFY_MONITOR_COUNTS)]
        edges = connected_graph(rng, n, d)
        monitors = sorted(rng.sample(range(1, n + 1), k))
        weights = [str(Fraction(rng.randint(1, 99), rng.randint(1, 9))) for _ in edges]
        out.append({"n": n, "degree": d, "edges": edges, "monitors": monitors, "weights": weights})
    return out


def _slots(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(1, n + 1), 2))


def mask_edges(n: int, mask: int) -> list[tuple[int, int]]:
    """Edge list of the labelled graph on 1..n whose edge slots (pairs in
    lexicographic order) are the set bits of mask."""
    return [e for i, e in enumerate(_slots(n)) if mask >> i & 1]


def _connected(n: int, mask: int, slots: list[tuple[int, int]]) -> bool:
    adj = [0] * (n + 1)
    for i, (u, v) in enumerate(slots):
        if mask >> i & 1:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    seen = frontier = 1 << 1
    while frontier:
        nxt = 0
        for v in range(1, n + 1):
            if frontier >> v & 1:
                nxt |= adj[v]
        frontier = nxt & ~seen
        seen |= frontier
    return seen == ((1 << (n + 1)) - 2)


def connected_masks(n: int) -> list[int]:
    """Every connected labelled graph on 1..n, as edge masks in mask order."""
    slots = _slots(n)
    return [m for m in range(1 << len(slots)) if _connected(n, m, slots)]


def scan_instances(seed: int, count: int) -> list[list[int]]:
    """A uniform sample without replacement, in random order, of the
    two-monitor corpus: every monitor pair (a, b) of every connected labelled
    graph on 4..6 nodes.  Each instance is [n, mask, a, b]."""
    blocks = []
    total = 0
    for n in SCAN_NODES:
        masks = connected_masks(n)
        pairs = _slots(n)
        blocks.append((total, n, masks, pairs))
        total += len(masks) * len(pairs)
    rng = random.Random(seed)
    out = []
    for idx in rng.sample(range(total), min(count, total)):
        for start, n, masks, pairs in reversed(blocks):
            if idx >= start:
                g, p = divmod(idx - start, len(pairs))
                out.append([n, masks[g], *pairs[p]])
                break
    return out
