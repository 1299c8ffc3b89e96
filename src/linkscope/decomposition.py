"""Biconnected blocks and canonical triconnected components.

The triconnected decomposition splits a block at separation pairs until no
piece can be split further, inserting a virtual edge between the pair in each
side, then fuses series polygons.  The canonical form produced here has no
bond components: a separation pair shared by k sides simply appears as k
copies of the pair edge (virtual in all sides but at most one).  When the
pair is an actual graph edge, that edge is assigned to the canonically
smallest component attached to the pair, and the others keep a virtual copy.
Every split side is a non-empty piece plus the pair, so no component has
fewer than three nodes.

Every piece is biconnected, so a piece with as many edges as nodes is a
cycle, and it is kept whole, with no separation-pair scan.  Its separation
pairs are its non-adjacent node pairs.  Such a pair is not a graph edge (the
cycle has no chord), and no other piece holds it as a pair edge (pieces of
different branches share only the pair they were split at, which is an edge
of both).  Split into triangles, the cycle would only be fused back.  Every
other piece is split until it is 3-connected (rigid) or a cycle.

One pass then fuses the polygons.  Two polygons are joined by a pair edge
that both hold, that no third piece holds, and that is not a graph edge
awaiting assignment.  The split components and their pair edges form a tree
(Hopcroft & Tarjan, SIAM J. Comput. 1973), so each group of joined polygons
is a subtree of cycles; one reachability walk over the joins finds it.
Gluing two cycles along a shared edge and dropping that edge leaves a cycle,
so each group closes into one polygon.  Its virtual edges are those of the
group minus its joins.

Split order does not affect the result: the rigid (3-connected) pieces are
unique, and the fusion closes any chain of cycle fragments into the maximal
polygon.  Each split takes the lexicographically first separation pair
{a, b}: every piece is biconnected, so {a, b} separates it exactly when b is
a cut vertex of piece - a, and the pair comes from the smallest a whose
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


def _comp_key(piece: tuple[frozenset[int], set[Edge], set[Edge]]):
    nodes, real, virtual = piece
    return (sorted(nodes), sorted(real), sorted(virtual))


def triconnected_components(b: BiconnectedComponent) -> list[TriconnectedComponent]:
    """Canonical triconnected components of a block with at least 3 nodes.
    The block alone is read: its nodes, edges and the host graph's cut
    vertices inside it.  ValueError unless every edge is (u, v) with u < v
    and both ends among its nodes, and together they form one biconnected
    piece."""
    if len(b.nodes) < 3:
        raise ValueError("triconnected decomposition needs a block of >= 3 nodes")
    if not all(u < v and u in b.nodes and v in b.nodes for u, v in b.edges):
        raise ValueError("block edges must be (u, v) with u < v, both ends among its nodes")
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
        # a biconnected piece with |E| = |V| is a cycle: kept whole
        found = None if len(real | virtual) == len(nodes) else _separation(adj, 3)
        if found is None:
            atoms.append((nodes, real, virtual))
            continue
        (a,), bb = found
        pair_edge = edge(a, bb)
        if pair_edge in real:
            pending.add(pair_edge)
            real = real - {pair_edge}
        seen: set[int] = set()
        for s in sorted(nodes - {a, bb}):
            if s in seen:
                continue
            side = reachable(adj, (s,), (a, bb))
            seen |= side
            side |= {a, bb}
            side_real = {e for e in real if e[0] in side and e[1] in side}
            side_virtual = {e for e in virtual if e[0] in side and e[1] in side}
            work.append((frozenset(side), side_real, side_virtual | {pair_edge}))

    # fuse the polygons (|E| = |V|) joined by a pair edge that both hold, no
    # third atom holds, and that is not pending, in one pass; each group
    # closes into one polygon (see the module docstring)
    users: dict[Edge, list[int]] = {}
    for i, (_, _, virtual) in enumerate(atoms):
        for e in virtual:
            users.setdefault(e, []).append(i)
    polygons = {i for i, (nodes, real, virtual) in enumerate(atoms) if len(real | virtual) == len(nodes)}
    joins = {e for e, holders in users.items() if len(holders) == 2 and polygons.issuperset(holders)} - pending
    joined: dict[int, list[int]] = {i: [] for i in range(len(atoms))}
    for e in joins:
        i, j = users[e]
        joined[i].append(j)
        joined[j].append(i)
    fused = []
    grouped: set[int] = set()
    for i in joined:
        if i in grouped:
            continue
        group = reachable(joined, (i,), ())
        grouped |= group
        ns, rs, vs = zip(*(atoms[k] for k in group))
        fused.append((frozenset().union(*ns), set().union(*rs), set().union(*vs) - joins))
    atoms = fused

    # hand each pending real pair edge to the canonically smallest component
    # attached to its pair; the rest keep the virtual copy (splits leave it
    # virtual everywhere, so it is real only where it was handed)
    for e in sorted(pending):
        holders = [i for i, (_, _, virtual) in enumerate(atoms) if e in virtual]
        target = min(holders, key=lambda i: _comp_key(atoms[i]))
        nodes, real, virtual = atoms[target]
        atoms[target] = (nodes, real | {e}, virtual - {e})
    atoms.sort(key=_comp_key)

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
    return out

