"""Minimum monitor placement and its verification.

The placement runs four stages in order: every node of degree below three
becomes a monitor; each triconnected component with between one and two
separation vertices is topped up to three "anchors" (separation vertices
plus monitors) using nodes that are neither; each biconnected component is
topped up the same way against its cut-vertex count; finally the global
monitor count is raised to three.  Component processing order is canonical
(smallest contained node first) and monitor counts are re-evaluated as each
component is processed, so the whole procedure is a pure function of the
graph under the default lowest-id tie-break.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import NamedTuple

from .connectivity import is_k_vertex_connected
from .decomposition import (
    BiconnectedComponent,
    TriconnectedComponent,
    biconnected_components,
    triconnected_components,
)
from .errors import (
    DisconnectedError,
    InconclusiveError,
    InfeasibleStageError,
    PathExplosionError,
    TooSmallError,
)
from .graph import Graph, is_connected
from .identifiability import (
    DEFAULT_PATH_CAP,
    build_matrix,
    certify_full_rank,
    enumerate_monitor_paths,
    identifiable_links,
)
from .tomography import MonitorSet, extend


class _TieBreakFields(NamedTuple):
    policy: str = "lowest"
    seed: int | None = None


class TieBreak(_TieBreakFields):
    """Resolves each stage's free choice: deterministic lowest-id, or a
    seeded shuffle recorded for reproducibility."""

    __slots__ = ()

    def __new__(cls, policy: str = "lowest", seed: int | None = None):
        if policy not in ("lowest", "seeded"):
            raise ValueError("tie-break policy must be 'lowest' or 'seeded'")
        if policy == "seeded" and seed is None:
            raise ValueError("seeded tie-break needs a seed")
        return super().__new__(cls, policy, seed)


LOWEST = TieBreak("lowest")

# the check that decided a verdict, as ``verify_placement`` reports it
EXTENDED_GRAPH = "extended graph"
CONSTRUCTED_PATHS = "constructed paths"
PATH_ENUMERATION = "path enumeration"


class TriStageRecord(NamedTuple):
    block_index: int
    component_index: int
    nodes: frozenset[int]
    s_t: int
    m_t: int
    added: tuple[int, ...]


class BiStageRecord(NamedTuple):
    block_index: int
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
    k_min: int
    tiebreak: TieBreak
    # each block with the triconnected components the stages read (none for
    # a block of two nodes), in block order
    decomposition: tuple[tuple[BiconnectedComponent, tuple[TriconnectedComponent, ...]], ...]


def _chooser(tiebreak: TieBreak):
    if tiebreak.policy == "lowest":
        return lambda eligible, k: sorted(eligible)[:k]
    rng = random.Random(tiebreak.seed)
    return lambda eligible, k: sorted(rng.sample(sorted(eligible), k))


def mmp(g: Graph, tiebreak: TieBreak = LOWEST) -> PlacementTrace:
    """Compute the monitor placement; see the module docstring for stages."""
    if g.node_count < 3:
        raise TooSmallError(f"placement needs at least 3 nodes, got {g.node_count}")
    if not is_connected(g):
        raise DisconnectedError("graph must be connected")
    choose = _chooser(tiebreak)
    monitors: set[int] = {v for v in g.nodes if g.degree(v) < 3}
    stage1 = frozenset(monitors)

    tri_records: list[TriStageRecord] = []
    bi_records: list[BiStageRecord] = []
    decomposition = []
    for bi, block in enumerate(biconnected_components(g)):
        if len(block.nodes) < 3:
            decomposition.append((block, ()))
            continue
        comps = tuple(triconnected_components(block, g))
        decomposition.append((block, comps))
        for ti, comp in enumerate(comps):
            if len(comp.nodes) < 3:
                continue
            s_t = comp.s_t
            m_t = len(monitors & comp.nodes)
            added: tuple[int, ...] = ()
            if 0 < s_t < 3 and s_t + m_t < 3:
                need = 3 - s_t - m_t
                eligible = comp.nodes - comp.separation_vertices - monitors
                if len(eligible) < need:
                    raise InfeasibleStageError(
                        f"component {sorted(comp.nodes)} needs {need} monitors, "
                        f"only {len(eligible)} eligible nodes"
                    )
                added = tuple(choose(eligible, need))
                monitors.update(added)
            tri_records.append(TriStageRecord(bi, ti, comp.nodes, s_t, m_t, added))
        c_b = block.c_b
        m_b = len(monitors & block.nodes)
        added = ()
        if 0 < c_b < 3 and c_b + m_b < 3:
            need = 3 - c_b - m_b
            eligible = block.nodes - block.cut_vertices - monitors
            if len(eligible) < need:
                raise InfeasibleStageError(
                    f"block {sorted(block.nodes)} needs {need} monitors, "
                    f"only {len(eligible)} eligible nodes"
                )
            added = tuple(choose(eligible, need))
            monitors.update(added)
        bi_records.append(BiStageRecord(bi, block.nodes, c_b, m_b, added))

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
        k_min=len(monitors),
        tiebreak=tiebreak,
        decomposition=tuple(decomposition),
    )


def _fully_identifiable(g: Graph, monitors: MonitorSet, cap: int) -> bool:
    paths = enumerate_monitor_paths(g, monitors, cap)
    return identifiable_links(build_matrix(g, paths)).fully_identifiable


def verify_placement(
    g: Graph,
    trace: PlacementTrace,
    cap: int = DEFAULT_PATH_CAP,
    evidence: list[str | None] | None = None,
) -> bool | None:
    """Whether the trace's monitors make every link identifiable.

    False when the extended graph is not 3-vertex-connected (or there are
    fewer than three monitors).  Otherwise the exact rank oracle decides.
    It first feeds paths built from spanning trees (``certify_full_rank``)
    to the reducer, and reaching rank |E| proves True.  Only when the built
    paths fall short are all paths enumerated, and the rank of that matrix
    gives True or False.  The built rows count against ``cap``, which bounds
    both steps together.  None means the cap stopped the rank oracle before
    either step decided, so it gave no evidence either way.

    When a list is passed as ``evidence``, the check that decided is
    appended to it: "extended graph", "constructed paths", "path
    enumeration", or None alongside a None verdict."""
    monitors = trace.monitors
    if len(monitors) < 3 or any(m not in g.nodes for m in monitors):
        # the two added nodes of the extended graph have fewer than three
        # neighbours
        verdict, kind = False, EXTENDED_GRAPH
    else:
        try:
            verdict, kind = _achieves_full_identifiability(g, monitors, cap)
        except PathExplosionError:
            verdict, kind = None, None
    if evidence is not None:
        evidence.append(kind)
    return verdict


def _achieves_full_identifiability(g: Graph, candidate: MonitorSet, cap: int) -> tuple[bool, str]:
    """The verdict for a candidate monitor set, and the check that gave it."""
    if len(candidate) > 2:
        if not is_k_vertex_connected(extend(g, candidate).graph, 3):
            return False, EXTENDED_GRAPH
        proved, used = certify_full_rank(g, candidate, cap)
        if proved:
            return True, CONSTRUCTED_PATHS
        if used == cap:
            raise PathExplosionError(cap)
        cap -= used
    return _fully_identifiable(g, candidate, cap), PATH_ENUMERATION


def minimality_probe(
    g: Graph,
    trace: PlacementTrace,
    budget: int = 100000,
    cap: int = DEFAULT_PATH_CAP,
) -> bool:
    """True when no monitor set one smaller than the trace's achieves full
    identifiability; candidate sets are enumerated exhaustively up to the
    budget, beyond which the probe refuses to answer."""
    k = len(trace.monitors) - 1
    if k < 2:
        return True  # fewer than two monitors measure nothing on >= 1 edge
    examined = 0
    for candidate in combinations(g.sorted_nodes(), k):
        examined += 1
        if examined > budget:
            raise InconclusiveError(f"probe budget {budget} exhausted")
        try:
            if _achieves_full_identifiability(g, candidate, cap)[0]:
                return False
        except PathExplosionError:
            raise InconclusiveError("path cap hit while probing a candidate set") from None
    return True
