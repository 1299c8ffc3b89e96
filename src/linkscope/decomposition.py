"""Biconnected blocks and canonical triconnected components.

The triconnected decomposition splits a block at separation pairs until no
piece can be split further, inserting a virtual edge between the pair in each
side, then merges series polygons back together.  The canonical form produced
here has no bond components: a separation pair shared by k sides simply
appears as k copies of the pair edge (virtual in all sides but at most one).
When the pair is an actual graph edge, that edge is assigned to the
canonically smallest component attached to the pair, and the others keep a
virtual copy.  Every split side is a non-empty piece plus the pair, so no
component has fewer than three nodes.

Split order does not affect the result: the rigid (3-connected) pieces are
unique, and the polygon merge closes any chain of cycle fragments back into
the maximal polygon.  Each split takes the lexicographically first separation
pair {a, b}: every piece is biconnected, so {a, b} separates it exactly when
b is a cut vertex of piece - a, and the pair comes from the smallest a whose
deletion leaves a cut vertex, with the smallest such b.  That is the first
failing deletion of the 3-vertex-connectivity scan (`connectivity._separation`),
so the split and the connectivity test read one scan.  Blocks and their cut
vertices come from the same lowpoint pass (`connectivity._lowpoint`).
"""

from __future__ import annotations

from typing import NamedTuple

from .connectivity import _lowpoint, _separation
from .graph import Edge, Graph, edge, reachable, require_connected


class BiconnectedComponent(NamedTuple):
    """A block of the host graph: maximal subgraph without a cut vertex."""

    nodes: frozenset[int]
    edges: frozenset[Edge]
    cut_vertices: frozenset[int]  # cut vertices of the host graph inside the block

    @property
    def c_b(self) -> int:
        return len(self.cut_vertices)


class TriconnectedComponent(NamedTuple):
    """One canonical component of a block: rigid piece or maximal polygon.

    ``separation_vertices`` are the host graph's cut vertices lying inside,
    plus the members of every separation pair through which the component
    meets its siblings: the pair of each virtual edge, and the pair of a
    real edge that was assigned here in place of its virtual copy.
    """

    nodes: frozenset[int]
    real_edges: frozenset[Edge]
    virtual_edges: frozenset[Edge]
    separation_vertices: frozenset[int]

    @property
    def s_t(self) -> int:
        return len(self.separation_vertices)


def biconnected_components(g: Graph) -> list[BiconnectedComponent]:
    """Standard block decomposition; blocks sorted by smallest contained node.
    A block's edges are the graph edges with both ends in it."""
    require_connected(g)
    _, cuts, blocks = _lowpoint(g.adj)
    out = []
    for block in blocks:
        nodes = frozenset(block)
        block_edges = frozenset((u, w) for u in nodes for w in g.adj[u] if u < w and w in nodes)
        out.append(BiconnectedComponent(nodes, block_edges, nodes & cuts))
    out.sort(key=lambda b: (min(b.nodes), sorted(b.nodes), sorted(b.edges)))
    return out


# ---------------------------------------------------------------------------
# triconnected splitting


def _piece_adj(nodes: frozenset[int], edges: set[Edge]) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {v: set() for v in nodes}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _is_polygon(nodes: frozenset[int], edges: set[Edge]) -> bool:
    if len(edges) != len(nodes) or len(nodes) < 3:
        return False
    adj = _piece_adj(nodes, edges)
    if any(len(ns) != 2 for ns in adj.values()):
        return False
    # degree-2 everywhere with |E| == |V|: a single cycle iff connected
    return len(reachable(adj, (min(nodes),), ())) == len(nodes)


def _comp_key(piece: tuple[frozenset[int], set[Edge], set[Edge]]):
    nodes, real, virtual = piece
    return (sorted(nodes), sorted(real), sorted(virtual))


def triconnected_components(b: BiconnectedComponent) -> list[TriconnectedComponent]:
    """Canonical triconnected components of a block with at least 3 nodes.
    The block alone is read: its nodes, edges and the host graph's cut
    vertices inside it.  ValueError unless its nodes and edges form one
    biconnected piece."""
    if len(b.nodes) < 3:
        raise ValueError("triconnected decomposition needs a block of >= 3 nodes")
    if [len(block) for block in _lowpoint(_piece_adj(b.nodes, b.edges))[2]] != [len(b.nodes)]:
        raise ValueError("component is not biconnected")

    pending: set[Edge] = set()  # pair edges of the graph, awaiting assignment
    atoms: list[tuple[frozenset[int], set[Edge], set[Edge]]] = []
    work: list[tuple[frozenset[int], set[Edge], set[Edge]]] = [
        (b.nodes, set(b.edges), set())
    ]
    while work:
        nodes, real, virtual = work.pop()
        adj = _piece_adj(nodes, real | virtual)
        found = _separation(adj, 3)
        if found is None:
            atoms.append((nodes, real, virtual))
            continue
        (a,), bb = found
        pair_edge = edge(a, bb)
        if pair_edge in real:
            pending.add(pair_edge)
            real = real - {pair_edge}
        comps: list[set[int]] = []
        seen: set[int] = set()
        for s in sorted(nodes - {a, bb}):
            if s in seen:
                continue
            comp = reachable(adj, (s,), (a, bb))
            seen |= comp
            comps.append(comp)
        for comp in comps:
            side_nodes = frozenset(comp | {a, bb})
            side_real = {e for e in real if e[0] in side_nodes and e[1] in side_nodes}
            side_virtual = {e for e in virtual if e[0] in side_nodes and e[1] in side_nodes}
            side_virtual.add(pair_edge)
            work.append((side_nodes, side_real, side_virtual))

    # merge chains of polygons: a pair edge shared by exactly two polygon
    # atoms (and not pending as a real edge) is a series join
    merged = True
    while merged:
        merged = False
        users: dict[Edge, list[int]] = {}
        for idx, (_, _, virtual) in enumerate(atoms):
            for e in virtual:
                users.setdefault(e, []).append(idx)
        for e in sorted(users):
            if e in pending or len(users[e]) != 2:
                continue
            i, j = users[e]
            ni, ri, vi = atoms[i]
            nj, rj, vj = atoms[j]
            if not (_is_polygon(ni, ri | vi) and _is_polygon(nj, rj | vj)):
                continue
            fused_nodes = ni | nj
            fused_real = ri | rj
            fused_virtual = (vi | vj) - {e}
            if not _is_polygon(fused_nodes, fused_real | fused_virtual):
                raise AssertionError("polygon merge produced a non-polygon")
            atoms = [p for k, p in enumerate(atoms) if k not in (i, j)]
            atoms.append((fused_nodes, fused_real, fused_virtual))
            merged = True
            break

    # hand each pending real pair edge to the canonically smallest component
    # attached to its pair; the rest keep the virtual copy (splits leave it
    # virtual everywhere, so it is real only where it was handed)
    for e in sorted(pending):
        holders = [i for i, (_, _, virtual) in enumerate(atoms) if e in virtual]
        target = min(holders, key=lambda i: _comp_key(atoms[i]))
        nodes, real, virtual = atoms[target]
        atoms[target] = (nodes, real | {e}, virtual - {e})

    out = []
    for nodes, real, virtual in atoms:
        pairs = virtual | (real & pending)
        sep = (b.cut_vertices & nodes) | {v for e in pairs for v in e}
        out.append(
            TriconnectedComponent(
                nodes=nodes,
                real_edges=frozenset(real),
                virtual_edges=frozenset(virtual),
                separation_vertices=frozenset(sep),
            )
        )
    out.sort(key=lambda t: (sorted(t.nodes), sorted(t.real_edges), sorted(t.virtual_edges)))
    return out

