"""Minimum monitor placement and its verification.

The placement runs four stages in order: every node of degree below three
becomes a monitor; each triconnected component with between one and two
separation vertices is topped up to three "anchors" (separation vertices
plus monitors) using nodes that are neither; each biconnected component is
topped up the same way against its cut-vertex count; finally the global
monitor count is raised to three.  Component processing order is canonical
(smallest contained node first) and monitor counts are re-evaluated as each
component is processed.  Without a seed each stage takes the lowest-id
eligible nodes, so the procedure is a pure function of the graph; a seed
makes the stages sample them with ``random.Random(seed)``.

``verify_placement`` rests on two checks (Ma et al., IEEE/ACM ToN 2014): a
monitor set whose extended graph is not 3-vertex-connected fails, and one
whose constructed rows reach full rank makes every link identifiable.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .connectivity import is_k_vertex_connected
from .decomposition import (
    BiconnectedComponent,
    TriconnectedComponent,
    biconnected_components,
    triconnected_components,
)
from .errors import InfeasibleStageError, TooSmallError
from .graph import Graph, MonitorSet, validate_monitors
from .identifiability import DEFAULT_PATH_CAP
from .tomography import extend


class TriStageRecord(NamedTuple):
    """The stage-2 top-up of one triconnected component.  ``block`` is the
    block's index in ``biconnected_components`` order and ``component`` the
    component's index among the block's ``triconnected_components``; the
    field names are the ``place`` report's keys."""

    block: int
    component: int
    nodes: frozenset[int]
    s_t: int
    m_t: int
    added: tuple[int, ...]


class BiStageRecord(NamedTuple):
    """The stage-3 top-up of one block of three or more nodes; ``block`` is
    its index in ``biconnected_components`` order, the ``place`` report's
    key."""

    block: int
    nodes: frozenset[int]
    c_b: int
    m_b: int
    added: tuple[int, ...]


class PlacementTrace(NamedTuple):
    monitors: MonitorSet
    stage1_degree_monitors: frozenset[int]
    per_triconnected: tuple[TriStageRecord, ...]
    per_biconnected: tuple[BiStageRecord, ...]
    topup: frozenset[int]
    # each block with the triconnected components the stages read (none for
    # a block of two nodes), in block order
    decomposition: tuple[tuple[BiconnectedComponent, tuple[TriconnectedComponent, ...]], ...]

    @property
    def k_min(self) -> int:
        return len(self.monitors)


def _chooser(seed: int | None):
    if seed is None:
        return lambda eligible, k: sorted(eligible)[:k]
    rng = random.Random(seed)
    return lambda eligible, k: sorted(rng.sample(sorted(eligible), k))


def _top_up(
    kind: str, nodes: frozenset[int], anchors: frozenset[int], monitors: set[int], choose
) -> tuple[int, tuple[int, ...]]:
    """One stage-2 or stage-3 top-up: the monitors already among the nodes,
    and the nodes added to ``monitors`` so that a piece with one or two
    anchors (separation or cut vertices) has three anchors plus monitors.
    Added nodes are neither anchors nor monitors."""
    m = len(monitors & nodes)
    s = len(anchors)
    if not 0 < s < 3 or s + m >= 3:
        return m, ()
    need = 3 - s - m
    eligible = nodes - anchors - monitors
    if len(eligible) < need:
        raise InfeasibleStageError(
            f"{kind} {sorted(nodes)} needs {need} monitors, only {len(eligible)} eligible nodes"
        )
    added = tuple(choose(eligible, need))
    monitors.update(added)
    return m, added


def mmp(g: Graph, seed: int | None = None) -> PlacementTrace:
    """Compute the monitor placement; see the module docstring for stages."""
    if g.node_count < 3:
        raise TooSmallError(f"placement needs at least 3 nodes, got {g.node_count}")
    choose = _chooser(seed)
    monitors: set[int] = {v for v in g.nodes if g.degree(v) < 3}
    stage1 = frozenset(monitors)

    tri_records: list[TriStageRecord] = []
    bi_records: list[BiStageRecord] = []
    decomposition = []
    for bi, block in enumerate(biconnected_components(g)):
        if len(block.nodes) < 3:
            decomposition.append((block, ()))
            continue
        comps = tuple(triconnected_components(block))
        decomposition.append((block, comps))
        for ti, comp in enumerate(comps):
            m_t, added = _top_up("component", comp.nodes, comp.separation_vertices, monitors, choose)
            tri_records.append(TriStageRecord(bi, ti, comp.nodes, comp.s_t, m_t, added))
        m_b, added = _top_up("block", block.nodes, block.cut_vertices, monitors, choose)
        bi_records.append(BiStageRecord(bi, block.nodes, block.c_b, m_b, added))

    topup: frozenset[int] = frozenset()
    if len(monitors) < 3:
        need = 3 - len(monitors)
        extra = tuple(choose(g.nodes - monitors, need))
        topup = frozenset(extra)
        monitors.update(extra)

    return PlacementTrace(
        monitors=tuple(sorted(monitors)),
        stage1_degree_monitors=stage1,
        per_triconnected=tuple(tri_records),
        per_biconnected=tuple(bi_records),
        topup=topup,
        decomposition=tuple(decomposition),
    )


def verify_placement(g: Graph, monitors: MonitorSet, cap: int = DEFAULT_PATH_CAP) -> bool | None:
    """Whether a monitor set, from ``mmp`` or any other source, makes every
    link identifiable: False when there are fewer than three monitors or the
    extended graph is not 3-vertex-connected; otherwise True once the exact
    rank certificate (``certify_full_rank``) reaches full rank, and None when
    it spends ``cap`` units of rounds, rows fed and guided scans first (no
    evidence either way).  The monitors are checked by
    ``validate_monitors``: NotFoundError for a node outside the graph,
    ValueError for a repeated id.  ValueError when ``cap`` is not positive,
    whatever the monitors.  No path search runs."""
    if cap < 1:
        raise ValueError("cap must be positive")
    ms = validate_monitors(g, monitors, minimum=0)
    # with fewer than three monitors the two added nodes of the extended
    # graph have fewer than three neighbours
    if len(ms) < 3 or not is_k_vertex_connected(extend(g, ms), 3):
        return False
    # imported here, so that the commands that verify nothing do not
    # compile the certificate's module
    from .certificate import certify_full_rank

    return certify_full_rank(g, ms, cap) or None
