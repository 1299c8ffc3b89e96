"""Measurement model and the exact-rank identifiability oracle.

Measurements are sums of link metrics along simple paths between monitors.
A link metric is identifiable exactly when its unit coordinate vector lies in
the row space of the 0/1 path-edge incidence matrix; that membership is read
off a fully reduced row basis, computed fraction-free over the integers so
verdicts are exact and bit-reproducible.  Floating point never touches a
verdict.

Recovery runs the same elimination with one extra value column: a
measurement p/q on a path becomes the integer row (q times the incidence
row, then p), so the reducer never leaves the integers.  Pivots stay in the
link columns; a row whose link part cancels while its value does not is a
contradiction, and each unit basis row (0, .., d, .., 0 | n) reads off its
link's value n/d.

With two monitors every simple path between them is a measurement.  With
three or more, paths are enumerated per monitor pair and may not pass through
a third monitor: such a path is the concatenation of shorter monitor-to-
monitor paths and contributes no new rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .connectivity import bridges
from .errors import (
    DisconnectedError,
    InconsistentMeasurementsError,
    InvalidPathError,
    NotFoundError,
    PathExplosionError,
)
from .graph import (
    Edge,
    Graph,
    Path,
    edge,
    is_connected,
    iter_simple_paths,
    path_edges,
    reachable,
)
from .tomography import MonitorSet, validate_monitor_pair, validate_monitors

DEFAULT_PATH_CAP = 100000


@dataclass(frozen=True)
class MeasurementMatrix:
    paths: tuple[Path, ...]
    edge_index: tuple[Edge, ...]
    rows: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class MetricAssignment:
    """Strictly positive exact rational weight per graph edge."""

    weights: dict[Edge, Fraction]

    def __post_init__(self):
        for e, w in self.weights.items():
            if w <= 0:
                raise ValueError(f"weight for edge {e} must be positive, got {w}")

    @classmethod
    def for_graph(cls, g: Graph, mapping: dict[Edge, Fraction | int]) -> "MetricAssignment":
        weights = {edge(*e): Fraction(w) for e, w in mapping.items()}
        missing = g.edges - set(weights)
        extra = set(weights) - g.edges
        if missing or extra:
            raise ValueError(f"weights must cover exactly the graph edges (missing {sorted(missing)}, extra {sorted(extra)})")
        return cls(weights)


@dataclass(frozen=True)
class MeasurementVector:
    values: tuple[Fraction, ...]


@dataclass(frozen=True)
class IdentifiabilityReport:
    rank: int
    identifiable: frozenset[Edge]
    unidentifiable: frozenset[Edge]
    fully_identifiable: bool


# ---------------------------------------------------------------------------
# exact elimination over the rationals, kept in integers


def _gcd_normalize(row: list[int], pivot: int) -> list[int]:
    g = 0
    for x in row:
        if x:
            g = gcd(g, x)
    if g == 0:
        return row
    if row[pivot] < 0:
        g = -g
    return [x // g for x in row]


class _Reducer:
    """Incremental fraction-free row reduction over the integers.  A row may
    carry the value column after its ``ncols`` link columns; pivots never
    fall in it.

    Invariant after every ``add``: each basis row is zero at every other
    basis row's pivot column.  A unit coordinate vector then lies in the row
    space exactly when its column is a pivot whose basis row has a single
    nonzero entry among the first ``ncols``.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivots: list[int] = []
        self.basis: list[list[int]] = []

    @property
    def rank(self) -> int:
        return len(self.basis)

    def add(self, row: tuple[int, ...] | list[int]) -> bool:
        work = list(row)
        for i, pcol in enumerate(self.pivots):
            a = work[pcol]
            if a:
                b = self.basis[i]
                lead = b[pcol]
                work = [lead * x - a * y for x, y in zip(work, b)]
        pivot = next((c for c in range(self.ncols) if work[c]), None)
        if pivot is None:
            if any(work[self.ncols:]):
                raise InconsistentMeasurementsError(
                    "measurement vector is inconsistent with the paths"
                )
            return False
        work = _gcd_normalize(work, pivot)
        # keep the basis fully reduced: clear the new pivot column everywhere
        lead = work[pivot]
        for i in range(len(self.basis)):
            a = self.basis[i][pivot]
            if a:
                merged = [lead * x - a * y for x, y in zip(self.basis[i], work)]
                self.basis[i] = _gcd_normalize(merged, self.pivots[i])
        at = next((i for i, c in enumerate(self.pivots) if c > pivot), len(self.pivots))
        self.pivots.insert(at, pivot)
        self.basis.insert(at, work)
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
    others = frozenset(ms) if len(ms) > 2 else frozenset()
    out: list[Path] = []
    pairs = sorted({tuple(sorted((a, b))) for a in ms for b in ms if a != b})
    for a, b in pairs:
        forbidden = others - {a, b}
        found = []
        for p in iter_simple_paths(g, a, b, forbidden_internal=forbidden):
            found.append(p)
            if len(out) + len(found) > cap:
                raise PathExplosionError(cap)
        found.sort(key=lambda p: (len(p), p))
        out.extend(found)
    return out


def build_matrix(g: Graph, paths: list[Path]) -> MeasurementMatrix:
    """0/1 incidence of edges on paths; columns in canonical edge order.

    Each path is checked in the pass that sets its row: it must have at
    least one edge, no repeated node, and every step must be a graph edge
    (which also keeps out nodes the graph does not have)."""
    cols = tuple(g.sorted_edges())
    # both orientations, so a step is looked up without normalising it
    index = {}
    for i, (u, v) in enumerate(cols):
        index[u, v] = index[v, u] = i
    rows = []
    for p in paths:
        if len(p) < 2:
            raise InvalidPathError(f"measurement path must have at least one edge: {p}")
        if len(set(p)) != len(p):
            raise InvalidPathError(f"not a simple path of the graph: {p}")
        row = [0] * len(cols)
        for step in zip(p, p[1:]):
            i = index.get(step)
            if i is None:
                raise InvalidPathError(f"not a simple path of the graph: {p}")
            row[i] = 1
        rows.append(tuple(row))
    return MeasurementMatrix(tuple(tuple(p) for p in paths), cols, tuple(rows))


def identifiable_links(matrix: MeasurementMatrix) -> IdentifiabilityReport:
    """Rank over the rationals plus the set of edges whose unit vector lies
    in the row space."""
    ncols = len(matrix.edge_index)
    red = _Reducer(ncols)
    for row in matrix.rows:
        red.add(row)
        if red.rank == ncols:
            break
    if red.rank == ncols:
        all_edges = frozenset(matrix.edge_index)
        return IdentifiabilityReport(ncols, all_edges, frozenset(), True)
    good = frozenset(matrix.edge_index[c] for c, _ in red.unit_rows())
    bad = frozenset(matrix.edge_index) - good
    return IdentifiabilityReport(red.rank, good, bad, not bad)


def simulate(
    g: Graph,
    monitors: MonitorSet,
    assignment: MetricAssignment,
    cap: int = DEFAULT_PATH_CAP,
) -> tuple[MeasurementMatrix, MeasurementVector]:
    """Enumerate paths and produce their exact metric sums."""
    MetricAssignment.for_graph(g, assignment.weights)  # recheck coverage
    paths = enumerate_monitor_paths(g, monitors, cap)
    matrix = build_matrix(g, paths)
    values = tuple(
        sum((assignment.weights[e] for e in path_edges(p)), Fraction(0)) for p in paths
    )
    return matrix, MeasurementVector(values)


def recover(matrix: MeasurementMatrix, vector: MeasurementVector) -> dict[Edge, Fraction]:
    """Solve for every identifiable edge; exact values, no tolerance.

    Raises when the vector contradicts the row space (no generating
    assignment exists).
    """
    if len(vector.values) != len(matrix.rows):
        raise ValueError("vector length must match the number of matrix rows")
    red = _Reducer(len(matrix.edge_index))
    for row, value in zip(matrix.rows, vector.values):
        value = Fraction(value)
        q = value.denominator
        red.add([q * x for x in row] + [value.numerator])
    return {matrix.edge_index[pcol]: Fraction(row[-1], row[pcol]) for pcol, row in red.unit_rows()}


# ---------------------------------------------------------------------------
# executable form of the bridge fact


def adjacent_links(g: Graph, e: Edge) -> frozenset[Edge]:
    e = edge(*e)
    return frozenset(f for f in g.edges if f != e and (set(f) & set(e)))


def check_lemma1(g: Graph, monitors: MonitorSet, bridge_link: Edge) -> bool:
    """With one monitor on each side of a bridge, the bridge and every link
    sharing an endpoint with it must come out unidentifiable."""
    m1, m2 = validate_monitor_pair(g, monitors)
    b = edge(*bridge_link)
    if b not in g.edges:
        raise NotFoundError(f"edge {b} not in graph")
    if b not in bridges(g):
        raise ValueError(f"edge {b} is not a bridge")
    # b is a bridge, so b[0]'s side of it is what b[0] reaches without b[1]
    side = reachable(g.adj, (b[0],), (b[1],))
    if (m1 in side) == (m2 in side):
        raise ValueError("monitors must lie on opposite sides of the bridge")
    report = identifiable_links(build_matrix(g, enumerate_monitor_paths(g, monitors)))
    targets = {b} | adjacent_links(g, b)
    return targets <= report.unidentifiable

