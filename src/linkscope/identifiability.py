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
n / (d L).  Simulation likewise sums weights scaled to their common
denominator, one integer sum per path.

With two monitors every simple path between them is a measurement.  With
three or more, paths are enumerated per monitor pair and may not pass through
a third monitor: such a path is the concatenation of shorter monitor-to-
monitor paths and contributes no new rank.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple

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
    reachable,
)
from .tomography import MonitorSet, validate_monitor_pair, validate_monitors

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


class MeasurementVector(NamedTuple):
    values: tuple[Fraction, ...]


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
        hits = [(row[c], b) for c, b in zip(self.pivots, self.basis) if row[c]]
        free = self._free
        cols = free + list(range(self.ncols, len(row)))
        res = []
        for f in cols:
            s = d * row[f]
            for a, b in hits:
                s -= a * b[f]
            res.append(s)
        k = next((i for i in range(len(free)) if res[i]), None)
        if k is None:
            if any(res[len(free):]):
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
        for c, b in zip(self.pivots, self.basis):
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
        at = next((i for i, c in enumerate(self.pivots) if c > pivot), len(self.pivots))
        self.pivots.insert(at, pivot)
        self.basis.insert(at, new)
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
    # weights over their common denominator, so each path sum is an integer
    scale = lcm(*(w.denominator for w in assignment.weights.values()))
    scaled = {}
    for (u, v), w in assignment.weights.items():
        scaled[u, v] = scaled[v, u] = w.numerator * (scale // w.denominator)
    values = tuple(Fraction(sum(scaled[step] for step in zip(p, p[1:])), scale) for p in paths)
    return matrix, MeasurementVector(values)


def recover(matrix: MeasurementMatrix, vector: MeasurementVector) -> dict[Edge, Fraction]:
    """Solve for every identifiable edge; exact values, no tolerance.

    Raises when the vector contradicts the row space (no generating
    assignment exists).
    """
    if len(vector.values) != len(matrix.rows):
        raise ValueError("vector length must match the number of matrix rows")
    values = [Fraction(v) for v in vector.values]
    # measurements over their common denominator: an integer value column
    scale = lcm(*(v.denominator for v in values))
    red = _Reducer(len(matrix.edge_index))
    for row, value in zip(matrix.rows, values):
        red.add([*row, value.numerator * (scale // value.denominator)])
    return {
        matrix.edge_index[pcol]: Fraction(row[-1], row[pcol] * scale)
        for pcol, row in red.unit_rows()
    }


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

