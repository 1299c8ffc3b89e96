"""Monitor-aware constructs: interior graph, extended graph, and the
connectivity conditions that govern identifiability.

The two-monitor conditions are:

* condition 1 -- removing any single interior link leaves the graph
  2-edge-connected;
* condition 2 -- the graph plus a (possibly already present) direct
  monitor-monitor edge is 3-vertex-connected.

For three or more monitors the extended graph adds two virtual monitors, each
wired to every real monitor, reducing the many-monitor problem to the
two-monitor one.
"""

from __future__ import annotations

from itertools import combinations
from typing import Collection, NamedTuple

from .connectivity import _lowpoint, _without, is_k_edge_connected, is_k_vertex_connected
from .graph import (
    Edge,
    Graph,
    MonitorSet,
    add_edge,
    edge,
    is_connected,
    reachable,
    remove_node,
    validate_monitor_pair,
    validate_monitors,
)


class InteriorGraph(NamedTuple):
    """What remains after deleting both monitors, plus the cut-off links."""

    graph: Graph
    exterior_links: frozenset[Edge]
    connected: bool


class ExtendedGraph(NamedTuple):
    graph: Graph
    virtual_1: int
    virtual_2: int


def interior_graph(g: Graph, monitors: MonitorSet) -> InteriorGraph:
    """Delete the two monitors; links incident to either become exterior."""
    m1, m2 = validate_monitor_pair(g, monitors)
    interior = remove_node(remove_node(g, m1), m2)
    exterior = frozenset(e for e in g.edges if m1 in e or m2 in e)
    return InteriorGraph(interior, exterior, is_connected(interior))


def interior_links(g: Graph, monitors: MonitorSet) -> frozenset[Edge]:
    m1, m2 = monitors
    return frozenset(e for e in g.edges if m1 not in e and m2 not in e)


def _each_removable(g: Graph, links: Collection[Edge]) -> bool:
    """G - e is 2-edge-connected for every e among the links (True for none).

    G - e is 2-edge-connected exactly when G is and G - e has no bridge: a
    bridge of G stays a bridge of G - e, or is e and disconnects it.  An end
    of e with degree 2 or less in G has degree 1 or less in G - e, which
    settles it without a DFS."""
    if not links:
        return True
    adj = g.adj
    if any(len(adj[v]) <= 2 or len(adj[w]) <= 2 for v, w in links):
        return False
    return is_k_edge_connected(g, 2) and not any(
        _lowpoint(_without(adj, edges=(e,)))[0] for e in links
    )


def condition_1(g: Graph, monitors: MonitorSet) -> bool:
    """Every interior link can be removed without creating a bridge."""
    monitors = validate_monitor_pair(g, monitors)
    return _each_removable(g, interior_links(g, monitors))


def condition_2(g: Graph, monitors: MonitorSet) -> bool:
    """The graph plus the direct monitor-monitor edge is 3-vertex-connected.

    Adding the edge is idempotent when it already exists.  A node of degree
    below 3 in the joined graph settles the answer before that graph is
    built; the monitors gain one from the edge when it is new.
    """
    m1, m2 = validate_monitor_pair(g, monitors)
    joined = g.has_edge(m1, m2)
    gain = 0 if joined else 1
    adj = g.adj
    if len(adj[m1]) + gain < 3 or len(adj[m2]) + gain < 3:
        return False
    if any(len(ns) < 3 for v, ns in adj.items() if v != m1 and v != m2):
        return False
    h = g if joined else add_edge(g, m1, m2)
    return is_k_vertex_connected(h, 3)


def prop2_characterization(g: Graph, monitors: MonitorSet) -> bool:
    """Deletion-based equivalent of condition 2: after deleting any two nodes
    the rest is connected, or every component keeps a surviving monitor.

    A non-monitor node x of degree 2 or less settles it without a walk: the
    answer is False.  Delete x's neighbours, padded with any other nodes to
    two (there are at least 4 nodes).  Then x is alone in its component of
    what remains.  If a monitor survives, x cannot reach it; if both were
    deleted, the rest holds x and at least one more node, so it is not
    connected.  A monitor left alone still keeps a surviving monitor, its
    own, so the exit does not apply to monitors."""
    ms = validate_monitors(g, monitors, minimum=2)
    if g.node_count < 4:
        raise ValueError("characterization needs at least 4 nodes")
    if any(len(ns) <= 2 for v, ns in g.adj.items() if v not in ms):
        return False
    nodes = g.sorted_nodes()
    for u, v in combinations(nodes, 2):
        removed = (u, v)
        # every remaining node must reach a surviving monitor; with both
        # monitors deleted, the rest must be connected
        seeds = [m for m in ms if m not in removed] or [next(x for x in nodes if x not in removed)]
        if len(reachable(g.adj, seeds, removed)) < len(nodes) - 2:
            return False
    return True


def extend(g: Graph, monitors: MonitorSet) -> ExtendedGraph:
    """Attach two fresh virtual monitors, each adjacent to every real monitor.

    No edge is placed between the two virtual monitors themselves.
    """
    ms = validate_monitors(g, monitors, minimum=3)
    v1 = max(g.nodes) + 1
    v2 = v1 + 1
    virtual = {edge(v, m) for v in (v1, v2) for m in ms}
    return ExtendedGraph(Graph(g.nodes | {v1, v2}, g.edges | virtual), v1, v2)


def prop5_both_sides(g: Graph, monitors: MonitorSet) -> tuple[bool, bool]:
    """(each real link removable leaving 2-edge-connectivity,
    extended graph 3-edge-connected) -- asserted equal by theory."""
    ext = extend(g, monitors)
    lhs = _each_removable(ext.graph, g.edges)
    rhs = is_k_edge_connected(ext.graph, 3)
    return lhs, rhs


def prop6_both_sides(g: Graph, monitors: MonitorSet) -> tuple[bool, bool]:
    """(extended graph plus virtual-virtual edge 3-vertex-connected,
    extended graph 3-vertex-connected) -- asserted equal by theory."""
    ext = extend(g, monitors)
    lhs = is_k_vertex_connected(add_edge(ext.graph, ext.virtual_1, ext.virtual_2), 3)
    rhs = is_k_vertex_connected(ext.graph, 3)
    return lhs, rhs
