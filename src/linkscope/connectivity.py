"""Bridges, cut vertices, blocks and k-connectivity tests.

One iterative lowpoint DFS (Hopcroft & Tarjan, 1973), `_lowpoint`, yields
the bridges, the cut vertices and the blocks (as node lists) of a graph in a
single pass; every other routine in the package that needs any of the three
calls it.  It runs on an adjacency dict, so callers can hand it the graph
with one edge skipped or one node deleted without building that graph.  The
k-connectivity predicates are built on it: 2-vertex-connected means no cut
vertex, 3-vertex-connected adds that no G - v has a cut vertex, and
3-edge-connected means no G - e has a bridge.  Deletions of three or more
nodes or edges, needed only for k >= 4, are enumerated directly.

Whitney's inequality, vertex connectivity <= edge connectivity <= minimum
degree, gives both predicates an exact early exit before any DFS: a node of
degree below k settles the answer as False (for vertex connectivity once the
graph has more than k nodes, for edge connectivity once it has two).  An
independent Menger-style oracle cross-checks the predicates in the test
suite.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Mapping

from .errors import DisconnectedError
from .graph import Edge, Graph, edge, is_connected, reachable


def _require_connected(g: Graph) -> None:
    if not is_connected(g):
        raise DisconnectedError("graph must be connected")


def _lowpoint(adj: Mapping[int, Iterable[int]]) -> tuple[set[Edge], set[int], list[list[int]]]:
    """Bridges, cut vertices and blocks (node lists) of an arbitrary graph,
    per component.

    A child u of p closes a block when low[u] >= disc[p]: the nodes stacked
    since u was discovered, plus p, are that block (and u-p is a bridge when
    the inequality is strict).  The results are sets, so the DFS may visit
    nodes in any order; isolated nodes belong to no block."""
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    bridge_set: set[Edge] = set()
    cuts: set[int] = set()
    blocks: list[list[int]] = []
    node_stack: list[int] = []
    counter = 0
    for root in adj:
        if root in disc:
            continue
        # stack entries: (node, parent, iterator over neighbours, position of
        # the node on node_stack)
        disc[root] = low[root] = counter
        counter += 1
        root_children = 0
        stack = [(root, -1, iter(adj[root]), 0)]
        while stack:
            u, parent, it, pos = stack[-1]
            for w in it:
                if w == parent:
                    continue
                d = disc.get(w)
                if d is not None:
                    if d < low[u]:
                        low[u] = d
                    continue
                disc[w] = low[w] = counter
                counter += 1
                if u == root:
                    root_children += 1
                stack.append((w, u, iter(adj[w]), len(node_stack)))
                node_stack.append(w)
                break
            else:
                stack.pop()
                if parent != -1:
                    lu = low[u]
                    if lu < low[parent]:
                        low[parent] = lu
                    dp = disc[parent]
                    if lu >= dp:
                        if lu > dp:
                            bridge_set.add(edge(parent, u))
                        if parent != root:
                            cuts.add(parent)
                        block = node_stack[pos:]
                        del node_stack[pos:]
                        block.append(parent)
                        blocks.append(block)
        if root_children > 1:
            cuts.add(root)
    return bridge_set, cuts, blocks


def bridges(g: Graph) -> frozenset[Edge]:
    """Edges whose removal disconnects the (connected) graph."""
    _require_connected(g)
    return _bridges_any(g)


def _bridges_any(g: Graph, skip: Edge | None = None) -> frozenset[Edge]:
    """Bridge set of an arbitrary graph, per component.  With `skip`, the
    bridges of the graph minus that edge."""
    adj = g.adj
    if skip is not None:
        a, b = skip
        adj = dict(adj)
        adj[a] = adj[a] - {b}
        adj[b] = adj[b] - {a}
    return frozenset(_lowpoint(adj)[0])


def cut_vertices(g: Graph) -> frozenset[int]:
    """Nodes whose removal disconnects the (connected) graph."""
    _require_connected(g)
    return _cut_vertices_any(g)


def _cut_vertices_any(g: Graph, deleted: int | None = None) -> frozenset[int]:
    """Cut vertices of an arbitrary graph, per component.  With `deleted`,
    the cut vertices of the graph minus that node."""
    adj = g.adj
    if deleted is not None:
        adj = dict(adj)
        for x in adj.pop(deleted):
            adj[x] = adj[x] - {deleted}
    return frozenset(_lowpoint(adj)[1])


def is_k_vertex_connected(g: Graph, k: int) -> bool:
    """Standard definition: more than k nodes, and no deletion of fewer than
    k nodes disconnects the graph.  K_n therefore reports connectivity n-1."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    if g.node_count <= k:
        return False
    if any(len(ns) < k for ns in g.adj.values()):
        return False
    if not is_connected(g):
        return False
    if k >= 2 and _cut_vertices_any(g):
        return False
    # G - v is connected (no cut vertex), so a cut vertex of it is the
    # second node of a disconnecting pair
    nodes = g.sorted_nodes()
    if k >= 3 and any(_cut_vertices_any(g, v) for v in nodes):
        return False
    for r in range(3, k):
        for subset in combinations(nodes, r):
            rest = [v for v in nodes if v not in subset]
            if len(reachable(g.adj, (rest[0],), subset)) < len(rest):
                return False
    return True


def is_k_edge_connected(g: Graph, k: int) -> bool:
    """Connected, and no deletion of fewer than k edges disconnects it.  A
    single node is k-edge-connected for every k."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    if g.node_count >= 2 and any(len(ns) < k for ns in g.adj.values()):
        return False
    if not is_connected(g):
        return False
    if k == 1:
        return True
    if _bridges_any(g):
        return False
    if k == 2:
        return True
    if k == 3:
        # no single edge is a bridge, so check bridges of every g - e
        return not any(_bridges_any(g, e) for e in g.sorted_edges())
    edges = g.sorted_edges()
    for r in range(2, k):
        for subset in combinations(edges, r):
            if not is_connected(Graph(g.nodes, g.edges - set(subset))):
                return False
    return True


def vertex_connectivity(g: Graph) -> int:
    """Greatest k for which is_k_vertex_connected holds (0 for trivial graphs)."""
    k = 0
    while is_k_vertex_connected(g, k + 1):
        k += 1
    return k
