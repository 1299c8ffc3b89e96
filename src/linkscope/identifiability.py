"""Measurement model and the exact-rank identifiability oracle.

Measurements are sums of link metrics along simple paths between monitors.
A link metric is identifiable exactly when its unit coordinate vector lies in
the row space of the 0/1 path-edge incidence matrix; that membership is read
off a fully reduced row basis, computed over the integers by Bareiss's
integer-preserving Gauss-Jordan elimination, so verdicts are exact and
bit-reproducible.  The basis is kept as one common pivot value d times the
reduced row echelon form, and a new row is reduced only at the free
(non-pivot) columns, where its residual can be nonzero.  Floating point
never touches a verdict.

Recovery runs the same elimination with one extra value column: the
measurements are scaled to their common denominator L, so a measurement on
a path becomes the integer row (incidence row, then L times its value) and
the reducer never leaves the integers.  Pivots stay in the link columns; a
row whose link part cancels while its value does not is a contradiction,
and each unit basis row (0, .., d, .., 0 | n) reads off its link's value
n / (d L).  Because the value column never holds a pivot, the same pass
also gives the verdict: its rank and unit rows are those of the incidence
rows alone.  Every report, with or without values, is read off a reduced
basis by one function.  Simulation likewise sums weights scaled to their
common denominator, one integer sum per path.

With two monitors every simple path between them is a measurement.  With
three or more, paths are enumerated per monitor pair and may not pass through
a third monitor: such a path is the concatenation of shorter monitor-to-
monitor paths and contributes no new rank.

Enumeration grows with the number of simple paths and is capped.  Full
identifiability has a cheaper positive proof: ``constructed_paths`` builds
measurement paths directly from spanning trees, and ``certify_full_rank``
feeds them to the same reducer until the rank reaches the number of links.
A full rank on some real rows is a full rank of the whole matrix, so that
verdict is exact; falling short proves nothing, and only enumeration (or a
structural test) can then decide.  Placement verification uses the
certificate first; ``identify`` still enumerates every path.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, count
from math import lcm
from typing import Container, Iterator, NamedTuple, Sequence

from .errors import (
    DisconnectedError,
    InconsistentMeasurementsError,
    InvalidPathError,
    PathExplosionError,
)
from .graph import (
    Edge,
    Graph,
    MonitorSet,
    Path,
    edge,
    is_connected,
    iter_simple_paths,
    validate_monitors,
)

DEFAULT_PATH_CAP = 100000


class MeasurementMatrix(NamedTuple):
    paths: tuple[Path, ...]
    edge_index: tuple[Edge, ...]
    rows: tuple[tuple[int, ...], ...]


class _MetricAssignmentFields(NamedTuple):
    weights: dict[Edge, Fraction]


class MetricAssignment(_MetricAssignmentFields):
    """Strictly positive exact rational weight per graph edge."""

    __slots__ = ()

    def __new__(cls, weights: dict[Edge, Fraction]):
        for e, w in weights.items():
            if w <= 0:
                raise ValueError(f"weight for edge {e} must be positive, got {w}")
        return super().__new__(cls, weights)

    @classmethod
    def for_graph(cls, g: Graph, mapping: dict[Edge, Fraction | int]) -> "MetricAssignment":
        weights = {edge(*e): Fraction(w) for e, w in mapping.items()}
        missing = g.edges - set(weights)
        extra = set(weights) - g.edges
        if missing or extra:
            raise ValueError(f"weights must cover exactly the graph edges (missing {sorted(missing)}, extra {sorted(extra)})")
        return cls(weights)


class IdentifiabilityReport(NamedTuple):
    rank: int
    identifiable: frozenset[Edge]
    unidentifiable: frozenset[Edge]
    fully_identifiable: bool


# ---------------------------------------------------------------------------
# exact elimination over the rationals, kept in integers


class _Reducer:
    """Incremental integer-preserving Gauss-Jordan reduction (Bareiss's
    one-step form).  A row may carry the value column after its ``ncols``
    link columns; pivots never fall in it.

    Invariant after every ``add``: the basis is ``d`` times the reduced row
    echelon form of the rows kept so far, for one integer ``d > 0`` (the
    absolute determinant of their pivot columns).  Every basis row is
    therefore ``d`` at its own pivot and zero at every other pivot; its
    other entries are minors of the kept rows, which is why each division
    by the old ``d`` below is exact.  A unit coordinate vector lies in the
    row space exactly when its column is a pivot whose basis row has a
    single nonzero entry among the first ``ncols``.

    A new row r reduces to ``d*r - sum(r[c] * B_c)`` over the pivots c it
    touches.  That residual is zero at every pivot column, so only the free
    (non-pivot) link columns and the value column are computed: one dot
    product per free column, not one whole-row operation per pivot.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.d = 1
        self.pivots: list[int] = []
        self.basis: list[list[int]] = []
        self._free = list(range(ncols))  # non-pivot link columns, ascending

    @property
    def rank(self) -> int:
        return len(self.basis)

    def add(self, row: tuple[int, ...] | list[int]) -> bool:
        d = self.d
        pivots, basis, free = self.pivots, self.basis, self._free
        hits = [(row[c], b) for c, b in zip(pivots, basis) if row[c]]
        cols = free + list(range(self.ncols, len(row)))
        res = []
        for f in cols:
            s = d * row[f]
            for a, b in hits:
                s -= a * b[f]
            res.append(s)
        nfree = len(free)
        k = 0
        while k < nfree and not res[k]:
            k += 1
        if k == nfree:
            if any(res[nfree:]):
                raise InconsistentMeasurementsError(
                    "measurement vector is inconsistent with the paths"
                )
            return False
        pivot = free[k]
        lead = res[k]
        if lead < 0:
            lead = -lead
            res = [-x for x in res]
        new = [0] * len(row)
        for f, x in zip(cols, res):
            new[f] = x
        # keep the basis at lead times the reduced form; only the free
        # columns, the value column and a row's own pivot can change
        for c, b in zip(pivots, basis):
            bp = b[pivot]
            if bp:
                for f in cols:
                    b[f] = (lead * b[f] - bp * new[f]) // d
                b[c] = lead
            elif lead != d:
                for f in cols:
                    b[f] = b[f] * lead // d
                b[c] = lead
        self.d = lead
        del free[k]
        # pivots ascend, and a new pivot tends to come late
        at = len(pivots)
        while at and pivots[at - 1] > pivot:
            at -= 1
        pivots.insert(at, pivot)
        basis.insert(at, new)
        return True

    def unit_rows(self) -> list[tuple[int, list[int]]]:
        """(pivot column, basis row) for each basis row whose first ``ncols``
        entries are a multiple of a unit vector."""
        n = self.ncols
        return [
            (pcol, row)
            for pcol, row in zip(self.pivots, self.basis)
            if row[:n].count(0) == n - 1
        ]


# ---------------------------------------------------------------------------
# path enumeration and matrix construction


def enumerate_monitor_paths(g: Graph, monitors: MonitorSet, cap: int = DEFAULT_PATH_CAP) -> list[Path]:
    """All measurement paths, deterministically ordered: per monitor pair
    (ascending), then by length, then lexicographically.  Each undirected
    path appears once, oriented from its smaller endpoint."""
    ms = validate_monitors(g, monitors, minimum=2)
    if not is_connected(g):
        raise DisconnectedError("graph must be connected")
    if cap < 1:
        raise ValueError("cap must be positive")
    out: list[Path] = []
    for a, b in combinations(sorted(ms), 2):
        forbidden = frozenset(ms) - {a, b}
        found = []
        for p in iter_simple_paths(g, a, b, forbidden_internal=forbidden):
            found.append(p)
            if len(out) + len(found) > cap:
                raise PathExplosionError(cap)
        # the walk yields lexicographic order and the sort is stable, so
        # ordering by length alone gives (length, sequence) order
        found.sort(key=len)
        out.extend(found)
    return out


def _column_index(cols: tuple[Edge, ...]) -> dict[tuple[int, int], int]:
    """Column of each link, under both orientations, so a path step is
    looked up without normalising it."""
    index = {}
    for i, (u, v) in enumerate(cols):
        index[u, v] = index[v, u] = i
    return index


def _row(p: Path, index: dict[tuple[int, int], int], ncols: int) -> tuple[int, ...]:
    """0/1 incidence row of a path, checked as it is set: at least one edge,
    no repeated node, and every step a graph edge (which also keeps out
    nodes the graph does not have)."""
    if len(p) < 2:
        raise InvalidPathError(f"measurement path must have at least one edge: {p}")
    if len(set(p)) != len(p):
        raise InvalidPathError(f"not a simple path of the graph: {p}")
    row = [0] * ncols
    try:
        for step in zip(p, p[1:]):
            row[index[step]] = 1
    except KeyError:
        raise InvalidPathError(f"not a simple path of the graph: {p}") from None
    return tuple(row)


def build_matrix(g: Graph, paths: list[Path]) -> MeasurementMatrix:
    """0/1 incidence of edges on paths; columns in canonical edge order.
    Each path is checked in the pass that sets its row (see ``_row``)."""
    cols = tuple(g.sorted_edges())
    index = _column_index(cols)
    # a list, not a generator: tuple() grows a generator's result by
    # reallocation, which cost the scan benchmark about 0.75 MiB of peak RSS
    rows = tuple([_row(p, index, len(cols)) for p in paths])
    return MeasurementMatrix(tuple(tuple(p) for p in paths), cols, rows)


def _report(red: _Reducer, cols: tuple[Edge, ...]) -> IdentifiabilityReport:
    """The verdict read off a reduced basis over the link columns ``cols``."""
    if red.rank == len(cols):
        return IdentifiabilityReport(red.rank, frozenset(cols), frozenset(), True)
    good = frozenset(cols[c] for c, _ in red.unit_rows())
    bad = frozenset(cols) - good
    return IdentifiabilityReport(red.rank, good, bad, not bad)


def identifiable_links(matrix: MeasurementMatrix) -> IdentifiabilityReport:
    """Rank over the rationals plus the set of edges whose unit vector lies
    in the row space."""
    ncols = len(matrix.edge_index)
    red = _Reducer(ncols)
    for row in matrix.rows:
        red.add(row)
        if red.rank == ncols:
            break
    return _report(red, matrix.edge_index)


# ---------------------------------------------------------------------------
# constructed measurement paths: a positive rank certificate


def _bfs_routes(nbrs: dict[int, list[int]], root: int, removed: Container[int]) -> dict[int, Path]:
    """Breadth-first spanning tree from root, avoiding removed nodes, as the
    tree path root..v of each node v it reaches."""
    routes = {root: (root,)}
    queue = [root]
    for u in queue:
        for w in nbrs[u]:
            if w not in routes and w not in removed:
                routes[w] = (*routes[u], w)
                queue.append(w)
    return routes


def _dfs_routes(nbrs: dict[int, list[int]], root: int, removed: Container[int]) -> dict[int, Path]:
    """Depth-first counterpart of ``_bfs_routes``."""
    routes = {root: (root,)}
    stack = [(root, iter(nbrs[root]))]
    while stack:
        u, rest = stack[-1]
        for w in rest:
            if w not in routes and w not in removed:
                routes[w] = (*routes[u], w)
                stack.append((w, iter(nbrs[w])))
                break
        else:
            stack.pop()
    return routes


def _neighbour_lists(g: Graph, order: list[int]) -> dict[int, list[int]]:
    position = {v: i for i, v in enumerate(order)}
    return {v: sorted(g.adj[v], key=position.__getitem__) for v in order}


def constructed_paths(g: Graph, monitors: MonitorSet) -> Iterator[Path]:
    """Measurement paths built directly from spanning trees, each yielded
    once, in the spirit of the path construction of Ma, He, Leung, Towsley
    and Swami (ICDCS 2013).

    A monitor pair a < b takes one tree grown from a in G - {b, other
    monitors} and one grown from b in G - {a, other monitors}.  Each link
    (u, v), in each orientation, joins the tree path a..u, the link and the
    tree path v..b; the join is kept when the two halves share no node.  So
    every path yielded runs from a to b, repeats no node and passes no other
    monitor: it is one of the paths ``enumerate_monitor_paths`` lists, in
    the same orientation.

    The trees are grown in rounds.  The first four are breadth-first then
    depth-first, with neighbours in ascending node order, then in
    descending order; after them every round is depth-first, each tree with
    its own order shuffled by ``random.Random(0)``.  A round joins only the
    pairs that contain its hub monitor, the next monitor in turn: with one
    tree per monitor, the joins of the other pairs add almost no rank, and
    on graphs with many monitors they multiplied the rows needed.  The
    generator ends once a whole turn of hubs (as many rounds as there are
    monitors) builds no path it has not yielded before.
    """
    ms = sorted(validate_monitors(g, monitors, minimum=2))
    nodes = g.sorted_nodes()
    links = g.sorted_edges()
    # G - {b, other monitors} is G minus every monitor but a, so a's tree
    # serves every pair that contains a
    keep_out = {m: set(ms) - {m} for m in ms}
    rng = random.Random(0)
    seen: set[Path] = set()
    empty = 0
    for r in count():
        if r < 4:
            grow = _dfs_routes if r % 2 else _bfs_routes
            nbrs = _neighbour_lists(g, nodes if r < 2 else nodes[::-1])
            trees = {m: grow(nbrs, m, keep_out[m]) for m in ms}
        else:
            trees = {}
            for m in ms:
                order = nodes[:]
                rng.shuffle(order)
                trees[m] = _dfs_routes(_neighbour_lists(g, order), m, keep_out[m])
        hub = ms[r % len(ms)]
        before = len(seen)
        for other in ms:
            if other == hub:
                continue
            a, b = sorted((hub, other))
            from_a, from_b = trees[a], trees[b]
            for u, v in links:
                for x, y in ((u, v), (v, u)):
                    if x in from_a and y in from_b:
                        p = from_a[x] + from_b[y][::-1]
                        if p not in seen and len(set(p)) == len(p):
                            seen.add(p)
                            yield p
        empty = empty + 1 if len(seen) == before else 0
        if empty == len(ms):
            return


def certify_full_rank(g: Graph, monitors: MonitorSet, cap: int = DEFAULT_PATH_CAP) -> tuple[bool, int]:
    """Stream ``constructed_paths`` into the exact reducer until its rank
    reaches the number of links.

    Returns (True, rows fed) at that point: full rank on some real
    measurement rows is full rank of the whole path matrix, so every link is
    identifiable, and the proof is in integer arithmetic.  Returns (False,
    rows fed) when the construction ends first, which is no evidence either
    way.  Rows count against the cap: PathExplosionError when one more row
    than ``cap`` would be needed, ValueError when ``cap`` is not positive."""
    if cap < 1:
        raise ValueError("cap must be positive")
    cols = tuple(g.sorted_edges())
    index = _column_index(cols)
    red = _Reducer(len(cols))
    rows = 0
    for p in constructed_paths(g, monitors):
        if rows == cap:
            raise PathExplosionError(cap)
        rows += 1
        red.add(_row(p, index, len(cols)))
        if red.rank == len(cols):
            return True, rows
    return False, rows


def simulate(
    g: Graph,
    monitors: MonitorSet,
    assignment: MetricAssignment,
    cap: int = DEFAULT_PATH_CAP,
) -> tuple[MeasurementMatrix, tuple[Fraction, ...]]:
    """Enumerate paths and produce their exact metric sums, one per row."""
    MetricAssignment.for_graph(g, assignment.weights)  # recheck coverage
    paths = enumerate_monitor_paths(g, monitors, cap)
    matrix = build_matrix(g, paths)
    # weights over their common denominator, so each path sum is an integer
    scale = lcm(*(w.denominator for w in assignment.weights.values()))
    scaled = {}
    for (u, v), w in assignment.weights.items():
        scaled[u, v] = scaled[v, u] = w.numerator * (scale // w.denominator)
    values = tuple(Fraction(sum(scaled[step] for step in zip(p, p[1:])), scale) for p in paths)
    return matrix, values


def recover(
    matrix: MeasurementMatrix, values: Sequence[Fraction | int]
) -> tuple[IdentifiabilityReport, dict[Edge, Fraction]]:
    """The verdict and the exact value of every identifiable edge, both
    from one reduction; no tolerance.  The verdict equals
    ``identifiable_links(matrix)``.

    Raises when the values, one rational measurement per row, contradict
    the row space (no generating assignment exists).
    """
    if len(values) != len(matrix.rows):
        raise ValueError("the number of values must match the number of matrix rows")
    values = [Fraction(v) for v in values]
    # measurements over their common denominator: an integer value column
    scale = lcm(*(v.denominator for v in values))
    red = _Reducer(len(matrix.edge_index))
    for row, value in zip(matrix.rows, values):
        red.add([*row, value.numerator * (scale // value.denominator)])
    recovered = {
        matrix.edge_index[pcol]: Fraction(row[-1], row[pcol] * scale)
        for pcol, row in red.unit_rows()
    }
    return _report(red, matrix.edge_index), recovered
