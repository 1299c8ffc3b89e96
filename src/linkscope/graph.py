"""Immutable simple undirected graphs and the edge-list text format.

Node ids are caller-supplied non-negative integers and are never renumbered:
every result that cites a node must use the caller's own names.  Graphs are
immutable: a variant is a new Graph built from another's nodes and edges, so
search code can fork thousands of variants without aliasing worries.

A monitor set is a tuple of node ids, checked against its graph here, so
the rank oracle and the witness searches need no connectivity conditions.

`reachable` is the package's one reachability walk: connectivity tests,
component sweeps and side-of-a-cut questions elsewhere all call it with the
nodes they delete, rather than building the smaller graph.
`iter_simple_paths` is the package's one simple-path walker: measurement
paths, the cycle table and the witness attachment paths are all read off it.
It expands neighbours in ascending order, read from the graph's sorted
neighbour tuples, which are built once per graph on first use.

A graph's cycle table lists every simple cycle once and files each cycle
under each of its links.  It is walked at most once per graph, on first use,
and every path that walk lists is a cycle.  The sorted neighbours and the
cycle table are kept in slots of the graph that equality, hashing, pickling
and copying ignore, so the walks over a graph share one set of sorts and
the witness searches over its links share one cycle walk.
"""

from __future__ import annotations

from typing import Container, Iterable, Iterator, Mapping

from .errors import (
    DisconnectedError,
    DuplicateEdgeError,
    GraphParseError,
    InvalidCycleError,
    NotFoundError,
    SelfLoopError,
    TooFewMonitorsError,
    TooLargeError,
)

Edge = tuple[int, int]
Path = tuple[int, ...]
Cycle = tuple[int, ...]
MonitorSet = tuple[int, ...]

# The header "nodes: n" allocates every node up front, so n is bounded
# before anything is built; no analysis here runs on graphs near this size.
MAX_HEADER_NODES = 100000


def edge(u: int, v: int) -> Edge:
    """Normalise an unordered node pair to the canonical (min, max) tuple."""
    if u == v:
        raise ValueError(f"self-loop at node {u}")
    return (u, v) if u < v else (v, u)


def parse_int(token: str) -> int:
    """The integer a text token spells: an optional sign and ASCII digits,
    with surrounding whitespace ignored as ``int()`` ignores it.  ValueError
    for anything else, including the digit-group underscores and non-ASCII
    digits that ``int()`` reads.  Every integer of the text formats, the
    command-line options and the environment is read through here."""
    text = token.strip()
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid integer {token!r}")
    return int(text)


# argparse names a failed type by its __name__: "invalid int value: '1_0'",
# the message int() gave as the type of --seed
parse_int.__name__ = "int"


def _check_node_id(v) -> None:
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        raise ValueError(f"node ids must be non-negative integers, got {v!r}")


class Graph:
    """A simple undirected graph: frozen node set, frozen edge set.

    Equality and hashing are structural.  Adjacency is precomputed once at
    construction; neighbour iteration order is always explicitly sorted where
    determinism matters.  The `_nbrs` and `_cycles` slots stay empty until
    `sorted_neighbours` and `_cycle_table` fill them.
    """

    __slots__ = ("nodes", "edges", "adj", "_nbrs", "_cycles")

    nodes: frozenset[int]
    edges: frozenset[Edge]
    adj: dict[int, frozenset[int]]

    def __init__(self, nodes: Iterable[int] = (), edges: Iterable[Edge] = ()):
        # every id is checked before a set can fold it into an equal one (True
        # into 1, say); a plain non-negative int passes on the fast test
        node_set = set()
        for v in nodes:
            if v.__class__ is not int or v < 0:
                _check_node_id(v)
            node_set.add(v)
        edge_set = set()
        for u, v in edges:
            if u.__class__ is not int or v.__class__ is not int or u < 0 or v < 0:
                _check_node_id(u)
                _check_node_id(v)
            edge_set.add(edge(u, v))
            node_set.add(u)
            node_set.add(v)
        adj: dict[int, set[int]] = {v: set() for v in node_set}
        for u, v in edge_set:
            adj[u].add(v)
            adj[v].add(u)
        object.__setattr__(self, "nodes", frozenset(node_set))
        object.__setattr__(self, "edges", frozenset(edge_set))
        object.__setattr__(self, "adj", {v: frozenset(ns) for v, ns in adj.items()})

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and v in self.adj.get(u, frozenset())

    def neighbors(self, v: int) -> frozenset[int]:
        try:
            return self.adj[v]
        except KeyError:
            raise NotFoundError(f"node {v} not in graph") from None

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def sorted_nodes(self) -> list[int]:
        return sorted(self.nodes)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.nodes == other.nodes and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.nodes, self.edges))

    def __repr__(self) -> str:
        return f"Graph(nodes={sorted(self.nodes)}, edges={sorted(self.edges)})"

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        # pickle and copy rebuild the graph from its nodes and edges, so
        # neither the sorted neighbours nor the cycle table is carried
        return Graph, (self.nodes, self.edges)


# ---------------------------------------------------------------------------
# construction and the text format


def parse_graph(text: str) -> Graph:
    """Parse edge-list text: one "u v" pair per line, '#' starts a comment.

    An optional leading header "nodes: n" declares the node set {1..n}, which
    is the only way to express isolated nodes.
    """
    nodes: set[int] = set()
    header_nodes: set[int] | None = None
    edges: set[Edge] = set()
    seen_edge_line = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("nodes:"):
            if seen_edge_line or header_nodes is not None:
                raise GraphParseError("header 'nodes: n' must come first", lineno)
            try:
                n = parse_int(line.split(":", 1)[1])
            except ValueError:
                raise GraphParseError("malformed node-count header", lineno) from None
            if n < 0:
                raise GraphParseError("node count must be non-negative", lineno)
            if n > MAX_HEADER_NODES:
                raise GraphParseError(f"node count above the limit of {MAX_HEADER_NODES}", lineno)
            header_nodes = set(range(1, n + 1))
            continue
        seen_edge_line = True
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError(f"expected 'u v', got {line!r}", lineno)
        try:
            u, v = parse_int(parts[0]), parse_int(parts[1])
        except ValueError:
            raise GraphParseError(f"malformed token in {line!r}", lineno) from None
        if u < 0 or v < 0:
            raise GraphParseError("node ids must be non-negative", lineno)
        if u == v:
            raise SelfLoopError(f"self-loop at node {u}", lineno)
        e = edge(u, v)
        if e in edges:
            raise DuplicateEdgeError(f"duplicate edge {u} {v}", lineno)
        if header_nodes is not None and not (u in header_nodes and v in header_nodes):
            raise GraphParseError(f"edge {u} {v} outside declared node range", lineno)
        edges.add(e)
        nodes.add(u)
        nodes.add(v)
    if header_nodes is not None:
        nodes = header_nodes
    return Graph(nodes, edges)


def serialize(g: Graph) -> str:
    """Canonical edge-list text: header when nodes are {1..n}, sorted edges.

    Round-trips through parse_graph.  Graphs with isolated nodes and a
    non-contiguous node set have no header form and are rejected.
    """
    n = g.node_count
    contiguous = g.nodes == frozenset(range(1, n + 1))
    covered = {v for e in g.edges for v in e}
    if not contiguous and covered != g.nodes:
        raise ValueError("isolated nodes need a contiguous 1..n node set to serialise")
    lines = []
    if contiguous:
        lines.append(f"nodes: {n}")
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


def is_connected(g: Graph) -> bool:
    """True iff the graph has at most one connected component (empty counts)."""
    if not g.nodes:
        return True
    return len(reachable(g.adj, (min(g.nodes),), ())) == len(g.nodes)


def require_connected(g: Graph) -> None:
    """DisconnectedError unless the graph is connected: the one check of every
    entry point that needs it (cut vertices, blocks, measurement paths)."""
    if not is_connected(g):
        raise DisconnectedError("graph must be connected")


# ---------------------------------------------------------------------------
# paths and cycles


def is_simple_path(g: Graph, path: Path) -> bool:
    """A sequence of distinct nodes, consecutively adjacent; one node is fine."""
    if len(path) == 0:
        return False
    if len(set(path)) != len(path):
        return False
    if any(v not in g.nodes for v in path):
        return False
    return all(g.has_edge(a, b) for a, b in zip(path, path[1:]))


def is_cycle(g: Graph, cycle: Cycle) -> bool:
    """At least 3 distinct nodes, cyclically adjacent (wrap-around included).

    One pass: each node must be a graph node whose neighbours include the
    node before it, starting from the last node.  A node outside the graph
    is no node's neighbour."""
    if len(cycle) < 3 or len(set(cycle)) != len(cycle):
        return False
    adj = g.adj
    prev = cycle[-1]
    for v in cycle:
        ns = adj.get(v)
        if ns is None or prev not in ns:
            return False
        prev = v
    return True


def validate_cycle(g: Graph, cycle: Cycle) -> Cycle:
    if not is_cycle(g, cycle):
        raise InvalidCycleError(f"not a cycle of the graph: {cycle}")
    return tuple(cycle)


def validate_monitors(g: Graph, monitors: MonitorSet, minimum: int = 2) -> MonitorSet:
    ms = tuple(monitors)
    if len(set(ms)) != len(ms):
        raise ValueError("monitor ids must be distinct")
    if not g.nodes.issuperset(ms):
        missing = [m for m in ms if m not in g.nodes]
        raise NotFoundError(f"monitors {missing} not in graph")
    if len(ms) < minimum:
        raise TooFewMonitorsError(f"need at least {minimum} monitors, got {len(ms)}")
    return ms


def validate_monitor_pair(g: Graph, monitors: MonitorSet) -> tuple[int, int]:
    ms = validate_monitors(g, monitors, minimum=2)
    if len(ms) != 2:
        raise ValueError(f"operation is defined for exactly two monitors, got {len(ms)}")
    return ms[0], ms[1]


def cycle_edges(cycle: Cycle) -> list[Edge]:
    return [edge(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))]


# ---------------------------------------------------------------------------
# the one reachability walk shared by the package


def reachable(adj: Mapping[int, Iterable[int]], seeds: Iterable[int], removed: Container[int]) -> set[int]:
    """Nodes reachable from the seeds without entering a removed node; the
    seeds themselves are included and must not be removed."""
    seen = set(seeds)
    stack = list(seen)
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen and w not in removed:
                seen.add(w)
                stack.append(w)
    return seen


def sorted_neighbours(g: Graph) -> dict[int, tuple[int, ...]]:
    """Each node's neighbours as an ascending tuple.  Built on the first call
    and kept in the graph's `_nbrs` slot; callers must not change it."""
    try:
        return g._nbrs
    except AttributeError:
        pass
    nbrs = {v: tuple(sorted(ns)) for v, ns in g.adj.items()}
    object.__setattr__(g, "_nbrs", nbrs)
    return nbrs


def iter_simple_paths(
    g: Graph,
    src: int,
    dst: int,
    forbidden_internal: frozenset[int] | set[int] = frozenset(),
) -> Iterator[Path]:
    """Yield every simple path src..dst whose internal nodes avoid the given
    set.  Neighbours are expanded in ascending order (`sorted_neighbours`),
    so the yield order is deterministic (lexicographic by node sequence).
    The walk keeps an explicit stack of neighbour iterators, so path length
    is not bounded by the recursion limit."""
    if src not in g.nodes or dst not in g.nodes:
        raise NotFoundError("path endpoints must be graph nodes")
    if src == dst:
        yield (src,)
        return
    nbrs = sorted_neighbours(g)
    path = [src]
    on_path = {src}
    stack = [iter(nbrs[src])]
    while stack:
        for w in stack[-1]:
            if w in on_path:
                continue
            if w == dst:
                yield (*path, dst)
                continue
            if w in forbidden_internal:
                continue
            path.append(w)
            on_path.add(w)
            stack.append(iter(nbrs[w]))
            break
        else:
            stack.pop()
            on_path.remove(path.pop())


def _cycle_table(g: Graph, limit: int) -> tuple[list[Cycle], dict[Edge, list[Cycle]]]:
    """The graph's cycle table: every simple cycle, canonical (the least
    tuple over its rotations in both directions), sorted by (length, tuple),
    and a dict from each link to the cycles through it, in the same order.
    Walked on the first call and kept in the graph's `_cycles` slot;
    callers copy what they hand out.  The walk raises TooLargeError as soon
    as it finds more than ``limit`` cycles.

    A cycle is found once, from its smallest node a and the two neighbours
    y < x of a on it: as the y..x path through nodes above a, with a put in
    front.  That tuple is already canonical, and every y..x path through
    nodes above a closes such a cycle, so the walk lists nothing else.  The
    links of a cycle are the pairs of nodes consecutive on it, the last node
    and the first included."""
    try:
        return g._cycles
    except AttributeError:
        pass
    nbrs = sorted_neighbours(g)
    cycles: list[Cycle] = []
    below: set[int] = set()
    for a in g.sorted_nodes():
        below.add(a)
        above = [v for v in nbrs[a] if v > a]
        for i, y in enumerate(above):
            for x in above[i + 1:]:
                for p in iter_simple_paths(g, y, x, below):
                    if len(cycles) == limit:
                        raise TooLargeError(f"cycle table limited to {limit} cycles, graph has more")
                    cycles.append((a, *p))
    cycles.sort(key=lambda c: (len(c), c))
    by_link: dict[Edge, list[Cycle]] = {e: [] for e in g.edges}
    for c in cycles:
        u = c[-1]
        for v in c:
            by_link[(u, v) if u < v else (v, u)].append(c)
            u = v
    table = (cycles, by_link)
    object.__setattr__(g, "_cycles", table)
    return table
