"""Exhaustive searches for cycle-and-path witness structures.

A non-separating cycle is an induced cycle whose node removal leaves every
remaining node connected to some monitor outside the cycle (vacuously so when
the cycle covers the whole graph).  The witness searches below demonstrate,
by exhaustion at desk scale, that an interior link sits on such a cycle
together with a second cycle and two disjoint monitor attachment paths, and
classify links by whether the attachments can run clear of the second
cycle.  Searches are deterministic: cycles are enumerated in (length,
canonical tuple) order and paths in (length, lexicographic) order, with
first-hit return.  Graphs beyond 12 nodes are rejected up front, and a
cycle table past a million cycles as its walk reaches that count.

Every cycle comes from the graph's cycle table (graph._cycle_table): the
cycles of a graph are walked once, on the first query, and each search over
one of its links reads that link's entry.  all_cycles and
cycles_through_edge hand out fresh copies of the table's lists; the searches
whose link is already checked read the entry itself.  Attachment
paths are read off graph.iter_simple_paths: a path to one target with the
other targets blocked.

Arguments are validated once, at the public entry points.  The cycles a
search takes from the table are valid by construction, so they go to the
private checks without being validated again.  find_lemma3_witness
and is_case_b_link read one walk over the Lemma 3 structures, _structures:
the first builds the second attachment path, the second only asks whether
it exists.
"""

from __future__ import annotations

from typing import Iterator

from .errors import NotFoundError, NotInteriorError, TooLargeError
from .graph import (
    Cycle,
    Edge,
    Graph,
    MonitorSet,
    Path,
    _cycle_table,
    cycle_edges,
    edge,
    is_simple_path,
    iter_simple_paths,
    reachable,
    validate_cycle,
    validate_monitor_pair,
    validate_monitors,
)

SIZE_GUARD = 12
# the most cycles a graph's cycle table may hold: K10 has 556,014, K11 ten
# times as many
CYCLE_GUARD = 1000000


def _guard(g: Graph) -> None:
    if g.node_count > SIZE_GUARD:
        raise TooLargeError(f"witness search limited to {SIZE_GUARD} nodes, graph has {g.node_count}")


def _require_interior_link(g: Graph, vw: Edge, monitors: MonitorSet) -> Edge:
    e = edge(*vw)
    if e not in g.edges:
        raise NotFoundError(f"edge {e} not in graph")
    if e[0] in monitors or e[1] in monitors:
        raise NotInteriorError(f"link {e} touches a monitor")
    return e


def cycles_through_edge(g: Graph, vw: Edge) -> list[Cycle]:
    """Every cycle containing the edge, canonical, sorted by (length, tuple)."""
    e = edge(*vw)
    if e not in g.edges:
        raise NotFoundError(f"edge {e} not in graph")
    return list(_cycle_table(g, CYCLE_GUARD)[1][e])


def all_cycles(g: Graph) -> list[Cycle]:
    """Every simple cycle of the graph, canonical, sorted by (length, tuple)."""
    return list(_cycle_table(g, CYCLE_GUARD)[0])


def is_nonseparating_cycle(g: Graph, cycle: Cycle, monitors: MonitorSet) -> bool:
    """Induced, and every node left after deleting the cycle can still reach
    some monitor that also survived the deletion (vacuously true when the
    cycle covers the whole graph)."""
    cycle = validate_cycle(g, cycle)
    ms = validate_monitors(g, monitors, minimum=2)
    return _nonseparating(g, cycle, ms)


def _nonseparating(g: Graph, cycle: Cycle, ms: MonitorSet) -> bool:
    """is_nonseparating_cycle for a cycle known to be valid: the cycle is
    chordless exactly when each of its nodes has two neighbours on it."""
    on_cycle = set(cycle)
    adj = g.adj
    if any(len(adj[u] & on_cycle) != 2 for u in cycle):
        return False
    seeds = [m for m in ms if m not in on_cycle]
    return len(reachable(adj, seeds, on_cycle)) == len(g.nodes) - len(on_cycle)


def find_nonseparating_cycle(
    g: Graph, vw: Edge, monitors: MonitorSet, exclude_monitors: bool = False
) -> Cycle | None:
    """First non-separating cycle through the edge in canonical order,
    optionally refusing cycles that contain a monitor.  None when exhausted."""
    _guard(g)
    ms = validate_monitors(g, monitors, minimum=2)
    for cycle in cycles_through_edge(g, vw):
        if exclude_monitors and any(m in cycle for m in ms):
            continue
        if _nonseparating(g, cycle, ms):
            return cycle
    return None


# ---------------------------------------------------------------------------
# attachment paths: monitor to cycle, touching the cycle only at the endpoint


def _attachment_paths(g: Graph, start: int, targets: set[int], blocked: set[int]) -> list[Path]:
    """Simple paths from start to the first touched target; internal nodes
    avoid `blocked` (a superset of the targets).  Sorted (length, sequence).
    A start already on a target is the degenerate one-node path."""
    if start in targets:
        return [(start,)]
    if start in blocked:
        return []
    # the other targets are blocked, so a path to one target touches no other
    found = [p for t in targets for p in iter_simple_paths(g, start, t, blocked)]
    found.sort(key=lambda p: (len(p), p))
    return found


def _attachment_exists(g: Graph, start: int, targets: set[int], blocked: set[int]) -> bool:
    """Reachability version of _attachment_paths (no path materialised)."""
    if start in targets:
        return True
    if start in blocked:
        return False
    return any(not targets.isdisjoint(g.adj[u]) for u in reachable(g.adj, (start,), blocked))


# ---------------------------------------------------------------------------
# witnesses


class _Witness:
    """Field equality, hash and repr over the instance ``__dict__``, which
    holds exactly the fields, so ``vars()`` of a witness is its fields.  The
    fields are set once, in ``__init__``."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a witness")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__name__}({fields})"


class Lemma3Witness(_Witness):
    """Two cycles through the link plus disjoint monitor attachment paths.

    ``cycle_f`` is non-separating and ``path_1`` meets it once; ``path_2``
    meets the second cycle ``cycle_c`` once."""

    def __init__(self, link: Edge, cycle_f: Cycle, cycle_c: Cycle, path_1: Path, path_2: Path):
        vars(self).update(link=link, cycle_f=cycle_f, cycle_c=cycle_c, path_1=path_1, path_2=path_2)

    def validate(self, g: Graph, monitors: MonitorSet) -> None:
        v, w = self.link
        fset, cset = set(self.cycle_f), set(self.cycle_c)
        validate_cycle(g, self.cycle_f)
        validate_cycle(g, self.cycle_c)
        if self.link not in cycle_edges(self.cycle_f) or self.link not in cycle_edges(self.cycle_c):
            raise ValueError("both cycles must contain the link")
        if not is_nonseparating_cycle(g, self.cycle_f, monitors):
            raise ValueError("first cycle must be non-separating")
        if len(fset & cset) > 3:
            raise ValueError("cycles share more than one node besides the link ends")
        p1, p2 = set(self.path_1), set(self.path_2)
        if not (is_simple_path(g, self.path_1) and is_simple_path(g, self.path_2)):
            raise ValueError("attachment paths must be simple paths")
        if {self.path_1[0], self.path_2[0]} != set(monitors):
            raise ValueError("attachment paths must start at the two monitors")
        if p1 & p2:
            raise ValueError("attachment paths must be disjoint")
        if {v, w} & (p1 | p2):
            raise ValueError("attachment paths must avoid the link ends")
        if len(p1 & fset) != 1 or self.path_1[-1] not in fset:
            raise ValueError("first path must meet the first cycle exactly at its end")
        if len(p2 & cset) != 1 or self.path_2[-1] not in cset:
            raise ValueError("second path must meet the second cycle exactly at its end")


class Lemma4Witness(_Witness):
    """Monitor-free non-separating cycle with per-endpoint attachment paths:
    ``path_to_v`` ends at ``link[0]`` and ``path_to_w`` at ``link[1]``."""

    def __init__(self, link: Edge, cycle: Cycle, path_to_v: Path, path_to_w: Path):
        vars(self).update(link=link, cycle=cycle, path_to_v=path_to_v, path_to_w=path_to_w)

    def validate(self, g: Graph, monitors: MonitorSet) -> None:
        v, w = self.link
        validate_cycle(g, self.cycle)
        if self.link not in cycle_edges(self.cycle):
            raise ValueError("cycle must contain the link")
        if any(m in self.cycle for m in monitors):
            raise ValueError("cycle must not contain a monitor")
        if not is_nonseparating_cycle(g, self.cycle, monitors):
            raise ValueError("cycle must be non-separating")
        if not (is_simple_path(g, self.path_to_v) and is_simple_path(g, self.path_to_w)):
            raise ValueError("attachment paths must be simple paths")
        if self.path_to_v[-1] != v or self.path_to_w[-1] != w:
            raise ValueError("paths must end at the link ends")
        if {self.path_to_v[0], self.path_to_w[0]} != set(monitors):
            raise ValueError("paths must start at the two monitors")
        pa, pb = set(self.path_to_v), set(self.path_to_w)
        if pa & pb:
            raise ValueError("attachment paths must be disjoint")
        cyc = set(self.cycle)
        if (pa - {v}) & cyc or (pb - {w}) & cyc:
            raise ValueError("paths must meet the cycle only at their endpoint")


def _structures(
    g: Graph, link: Edge, pair: tuple[int, int], disjoint: bool
) -> Iterator[tuple[Cycle, Cycle, Path, int, set[int], set[int]]]:
    """The Lemma 3 structures through the link up to the second path:
    (cyc_f, cyc_c, p1, mb, targets, blocked), in search order.

    ``cyc_f`` is a non-separating cycle through the link, ``cyc_c`` a cycle
    through the link sharing at most one node with it besides the link ends,
    and ``p1`` an attachment path from one monitor to ``cyc_f`` off the link
    ends.  The structure is complete when the other monitor ``mb`` has an
    attachment path to ``targets`` avoiding ``blocked``: to ``cyc_c`` off the
    link ends and clear of ``p1``.  With ``disjoint``, ``cyc_c`` meets
    ``cyc_f`` only at the link ends and ``p1`` runs clear of ``cyc_c``.  The
    path's own monitor endpoint is exempt: a monitor sitting on the second
    cycle is the terminus of every measurement walk through it, so it cannot
    cause a self-intersection."""
    v, w = link
    m1, m2 = pair
    candidates = _cycle_table(g, CYCLE_GUARD)[1][link]
    for cyc_f in candidates:
        if not _nonseparating(g, cyc_f, pair):
            continue
        fset = set(cyc_f)
        # the paths to cyc_f depend on it alone: built once, when first needed
        firsts = None
        for cyc_c in candidates:
            cset = set(cyc_c)
            if (fset & cset != {v, w}) if disjoint else (len(fset & cset) > 3):
                continue
            if firsts is None:
                inner = fset - {v, w}
                firsts = [
                    (ma, mb, _attachment_paths(g, ma, inner, fset)) for ma, mb in ((m1, m2), (m2, m1))
                ]
            for ma, mb, p1s in firsts:
                for p1 in p1s:
                    p1set = set(p1)
                    if disjoint and (p1set - {ma}) & cset:
                        continue
                    yield cyc_f, cyc_c, p1, mb, cset - {v, w} - p1set, cset | p1set


def find_lemma3_witness(g: Graph, vw: Edge, monitors: MonitorSet) -> Lemma3Witness | None:
    """First Lemma 3 structure through the link whose second path exists,
    with the first such path; None when the search is exhausted."""
    _guard(g)
    pair = validate_monitor_pair(g, monitors)
    link = _require_interior_link(g, vw, pair)
    for cyc_f, cyc_c, p1, mb, targets, blocked in _structures(g, link, pair, disjoint=False):
        p2s = _attachment_paths(g, mb, targets, blocked)
        if p2s:
            witness = Lemma3Witness(link, cyc_f, cyc_c, p1, p2s[0])
            witness.validate(g, pair)
            return witness
    return None


def is_case_b_link(g: Graph, vw: Edge, monitors: MonitorSet) -> bool:
    """Classify an interior link by exhaustion over every choice of cycles
    and attachment paths: the link is the easy case when SOME non-separating
    cycle through it admits the fully disjoint structure, and the hard case
    (here: "case B") when none does.  The walk is find_lemma3_witness's,
    with the disjointness filters on, and it only asks whether each second
    path exists."""
    _guard(g)
    pair = validate_monitor_pair(g, monitors)
    link = _require_interior_link(g, vw, pair)
    return not any(
        _attachment_exists(g, mb, targets, blocked)
        for _, _, _, mb, targets, blocked in _structures(g, link, pair, disjoint=True)
    )


def find_lemma4_witness(g: Graph, vw: Edge, monitors: MonitorSet) -> Lemma4Witness | None:
    """Monitor-free non-separating cycle through the link, plus disjoint
    per-endpoint attachment paths meeting it only there.  The caller gates on
    the link's classification; exhaustion returns None."""
    _guard(g)
    m1, m2 = validate_monitor_pair(g, monitors)
    link = _require_interior_link(g, vw, (m1, m2))
    v, w = link
    for cyc in _cycle_table(g, CYCLE_GUARD)[1][link]:
        if m1 in cyc or m2 in cyc:
            continue
        if not _nonseparating(g, cyc, (m1, m2)):
            continue
        fset = set(cyc)
        for ma, mb in ((m1, m2), (m2, m1)):
            for pa in _attachment_paths(g, ma, {v}, fset):
                blocked = fset | set(pa)
                pbs = _attachment_paths(g, mb, {w} - set(pa), blocked)
                if pbs:
                    witness = Lemma4Witness(link, cyc, pa, pbs[0])
                    witness.validate(g, (m1, m2))
                    return witness
    return None
