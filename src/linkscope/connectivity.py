"""Bridges, cut vertices, blocks and k-connectivity tests.

One iterative lowpoint DFS (Hopcroft & Tarjan, 1973), `_lowpoint`, yields
the bridges, the cut vertices and the blocks (as node lists) of a graph in a
single pass; every other routine in the package that needs any of the three
calls it.  It runs on an adjacency dict, and `_without` is the one way to
delete nodes or edges: it hands `_lowpoint` the smaller graph's adjacency
without building that graph.

Both k-connectivity predicates, for every k >= 2, are one rule over such
deletions:

* G with n > k nodes is k-vertex-connected exactly when, for every set S of
  k - 2 nodes, G - S is connected and has no cut vertex, that is, when
  `_lowpoint(G - S)` yields one block that holds all n - k + 2 nodes;
* G is k-edge-connected exactly when G is connected and, for every set F
  of k - 2 edges, G - F has no bridge.

`_separation` is the vertex rule's one scan: it returns the first set S that
fails, with the least cut vertex of G - S.  At k = 3 on a biconnected piece
that is the piece's lexicographically first separation pair, which the
triconnected split reads.

Proof sketch: a deletion of fewer than k members that disconnects G contains
a minimal one, C.  Keep one member c of C and pad the rest of C up to k - 2
members with nodes or edges that are not in C (for nodes, leaving a node on
each of two sides of the cut; n > k leaves room).  Then c is a cut vertex or
a bridge of what remains, so some S or F fails.  Conversely a cut vertex or
bridge of G - S or G - F, together with S or F, is a deletion of k - 1
members that disconnects G.  The one-block test covers the connectivity of
G - S, and for edges the argument needs only G itself connected, so no
connectivity walk runs per S or F.

Whitney's inequality, vertex connectivity <= edge connectivity <= minimum
degree, gives both predicates an exact early exit before any DFS: a node of
degree below k settles the answer as False (for vertex connectivity once the
graph has more than k nodes, for edge connectivity once it has two).  For
the edge rule this exit is load-bearing, not only fast: a graph that passes
it with n >= 2 has at least k edges, so the pad above exists.  Without it
K2 would pass as 3-edge-connected: its one edge is the only F, and G - F
has no bridge.  The rule is still exponential in k.  An independent
Menger-style oracle cross-checks the predicates in the test suite.
"""

from __future__ import annotations

from itertools import combinations
from typing import AbstractSet, Iterable, Mapping

from .graph import Edge, Graph, edge, is_connected, require_connected


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


def _without(
    adj: Mapping[int, AbstractSet[int]], nodes: Iterable[int] = (), edges: Iterable[Edge] = ()
) -> dict[int, AbstractSet[int]]:
    """The adjacency of the graph minus the given nodes and edges.  The
    dict is a shallow copy: only the entries of the deleted nodes' neighbours
    and of the deleted edges' ends are new sets."""
    view = dict(adj)
    gone = set(nodes)
    touched: set[int] = set()
    for v in gone:
        touched |= view.pop(v)
    for x in touched - gone:
        view[x] = view[x] - gone
    for a, b in edges:
        view[a] = view[a] - {b}
        view[b] = view[b] - {a}
    return view


def _separation(adj: Mapping[int, AbstractSet[int]], k: int) -> tuple[tuple[int, ...], int | None] | None:
    """The first deletion that fails the vertex rule, or None: the first set
    S of k - 2 nodes, in ascending combination order, such that G - S is not
    one block of all its nodes, with the least cut vertex of G - S (None when
    G - S has none)."""
    one_block = [len(adj) - k + 2]
    for s in combinations(sorted(adj), k - 2):
        _, cuts, blocks = _lowpoint(_without(adj, s))
        if [len(block) for block in blocks] != one_block:
            return s, min(cuts, default=None)
    return None


def bridges(g: Graph) -> frozenset[Edge]:
    """Edges whose removal disconnects the (connected) graph."""
    require_connected(g)
    return frozenset(_lowpoint(g.adj)[0])


def cut_vertices(g: Graph) -> frozenset[int]:
    """Nodes whose removal disconnects the (connected) graph."""
    require_connected(g)
    return frozenset(_lowpoint(g.adj)[1])


def is_k_vertex_connected(g: Graph, k: int) -> bool:
    """Standard definition: more than k nodes, and no deletion of fewer than
    k nodes disconnects the graph.  K_n therefore reports connectivity n-1.
    For k >= 2, G - S must be one block of all its nodes for every set S of
    k - 2 nodes (see the module docstring)."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    n = g.node_count
    if n <= k:
        return False
    adj = g.adj
    if any(len(ns) < k for ns in adj.values()):
        return False
    if k == 1:
        return is_connected(g)
    return _separation(adj, k) is None


def is_k_edge_connected(g: Graph, k: int) -> bool:
    """Connected, and no deletion of fewer than k edges disconnects it.  A
    single node is k-edge-connected for every k.  For k >= 2, G - F must
    have no bridge for every set F of k - 2 edges; the degree exit before
    that loop is what makes it exact (see the module docstring)."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    adj = g.adj
    if g.node_count >= 2 and any(len(ns) < k for ns in adj.values()):
        return False
    if not is_connected(g):
        return False
    return k == 1 or not any(
        _lowpoint(_without(adj, edges=f))[0] for f in combinations(g.sorted_edges(), k - 2)
    )


def vertex_connectivity(g: Graph) -> int:
    """Greatest k for which is_k_vertex_connected holds (0 for trivial graphs)."""
    k = 0
    while is_k_vertex_connected(g, k + 1):
        k += 1
    return k
