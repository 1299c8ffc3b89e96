"""Measurement model and the exact-rank identifiability oracle.

Measurements are sums of link metrics along simple paths between monitors.
A link metric is identifiable exactly when its unit coordinate vector lies in
the row space of the 0/1 path-edge incidence matrix.  A row is kept as the
ascending tuple of its path's link columns (the dense form exists only in
``identify --dump-matrix`` output).  Membership is read off a fully reduced
row basis, computed over the integers by Bareiss's integer-preserving
Gauss-Jordan elimination, so verdicts are exact and bit-reproducible.  The
basis is kept as one common pivot value d times the reduced row echelon
form, one row per pivot column; a new row is reduced only at the free
(non-pivot) columns, where its residual can be nonzero.  Floating point
never touches a verdict.

Recovery runs the same elimination with one extra value column: the
measurements are scaled to their common denominator L, so a measurement on
a path becomes its columns with the integer value L times the measurement,
and the reducer never leaves the integers.  Pivots stay in the link
columns; a row whose link part cancels while its value does not is a
contradiction, and each unit basis row (0, .., d, .., 0 | n) reads off its
link's value n / (d L).  Because the value column never holds a pivot, the
same pass also gives the verdict: its rank and unit rows are those of the
incidence rows alone.  Every report, with or without values, is read off a
reduced basis by one function.  Simulation likewise scales the weights to
their common denominator, one integer sum per row over its columns.

With two monitors every simple path between them is a measurement.  With
three or more, paths are enumerated per monitor pair and may not pass through
a third monitor: such a path is the concatenation of shorter monitor-to-
monitor paths and contributes no new rank.

Enumeration grows with the number of simple paths and is capped.  Full
identifiability has a cheaper positive proof: ``constructed_paths`` builds
measurement paths directly from spanning trees, round after round.
``certify_full_rank``, the package's one full-rank decision, feeds them to
the same reducer under one cap that counts rounds and rows.  A full rank on
some real rows is a full rank of the whole matrix, so the verdict is exact
as soon as the rank reaches the number of links; a spent cap proves nothing
either way.  Placement verification uses the certificate and runs no path
search; ``identify`` still enumerates every path.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain, combinations, count
from math import lcm
from typing import Container, Iterator, Mapping, NamedTuple, Sequence

from .errors import (
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
    iter_simple_paths,
    require_connected,
    validate_monitors,
)

DEFAULT_PATH_CAP = 100000

class MeasurementMatrix(NamedTuple):
    paths: tuple[Path, ...]
    edge_index: tuple[Edge, ...]
    rows: tuple[tuple[int, ...], ...]


class IdentifiabilityReport(NamedTuple):
    rank: int
    identifiable: frozenset[Edge]
    unidentifiable: frozenset[Edge]

    @property
    def fully_identifiable(self) -> bool:
        return not self.unidentifiable


# ---------------------------------------------------------------------------
# exact elimination over the rationals, kept in integers


class _Reducer:
    """Incremental integer-preserving Gauss-Jordan reduction (Bareiss's
    one-step form) of 0/1 rows given by their columns, each with a value; a
    basis row holds ``ncols`` link entries, then the value, never a pivot.

    Invariant after every ``add``: the basis is ``d`` times the reduced row
    echelon form of the rows kept so far, for one integer ``d > 0`` (the
    absolute determinant of their pivot columns).  Every basis row is
    therefore ``d`` at its own pivot and zero at every other pivot; its
    other entries are minors of the kept rows, which is why each division
    by the old ``d`` below is exact.  A unit coordinate vector lies in the
    row space exactly when its column is a pivot whose basis row has a
    single nonzero entry among the first ``ncols``.

    A new row r reduces to ``d*r - sum(B_c)`` over the pivots c among its
    columns.  That residual is zero at every pivot column, so only the free
    (non-pivot) link columns and the value column are computed: one sum per
    free column, not one whole-row operation per pivot.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.d = 1
        self.basis: dict[int, list[int]] = {}  # pivot column -> basis row
        self._free = list(range(ncols))  # non-pivot link columns, ascending

    @property
    def rank(self) -> int:
        return len(self.basis)

    def add(self, row: Sequence[int], value: int = 0) -> bool:
        d = self.d
        basis, free = self.basis, self._free
        hits = [basis[c] for c in row if c in basis]
        # d times the row, at its own columns and the value column
        scaled = dict.fromkeys(row, d)
        scaled[self.ncols] = d * value
        cols = free + [self.ncols]
        res = []
        for f in cols:
            s = scaled.get(f, 0)
            for b in hits:
                s -= b[f]
            res.append(s)
        nfree = len(free)
        k = 0
        while k < nfree and not res[k]:
            k += 1
        if k == nfree:
            if res[-1]:
                raise InconsistentMeasurementsError(
                    "measurement vector is inconsistent with the paths"
                )
            return False
        pivot = free[k]
        lead = res[k]
        if lead < 0:
            lead = -lead
            res = [-x for x in res]
        new = [0] * (self.ncols + 1)
        for f, x in zip(cols, res):
            new[f] = x
        # keep the basis at lead times the reduced form; only the free
        # columns, the value column and a row's own pivot can change
        for c, b in basis.items():
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
        basis[pivot] = new
        return True

    def unit_rows(self) -> list[tuple[int, list[int]]]:
        """(pivot column, basis row) for each basis row whose first ``ncols``
        entries are a multiple of a unit vector."""
        n = self.ncols
        return [
            (pcol, row)
            for pcol, row in self.basis.items()
            if row[:n].count(0) == n - 1
        ]


# ---------------------------------------------------------------------------
# enumerated measurement paths and matrix construction


def enumerate_monitor_paths(g: Graph, monitors: MonitorSet, cap: int = DEFAULT_PATH_CAP) -> list[Path]:
    """All measurement paths, deterministically ordered: per monitor pair
    (ascending), then by length, then lexicographically.  Each undirected
    path appears once, oriented from its smaller endpoint."""
    ms = validate_monitors(g, monitors, minimum=2)
    require_connected(g)
    if cap < 1:
        raise ValueError("cap must be positive")
    out: list[Path] = []
    for a, b in combinations(sorted(ms), 2):
        found = []
        for p in iter_simple_paths(g, a, b, frozenset(ms) - {a, b}):
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


def _row(p: Path, index: dict[tuple[int, int], int]) -> tuple[int, ...]:
    """Incidence row of a path as the ascending columns of its links, checked
    as it is built: at least one edge, no repeated node, and every step a
    graph edge (which also keeps out nodes the graph does not have)."""
    if len(p) < 2:
        raise InvalidPathError(f"measurement path must have at least one edge: {p}")
    if len(set(p)) != len(p):
        raise InvalidPathError(f"not a simple path of the graph: {p}")
    try:
        return tuple(sorted([index[step] for step in zip(p, p[1:])]))
    except KeyError:
        raise InvalidPathError(f"not a simple path of the graph: {p}") from None


def build_matrix(g: Graph, paths: list[Path]) -> MeasurementMatrix:
    """0/1 incidence of edges on paths; columns in canonical edge order.
    Each row is stored as the ascending columns of its path's links (where
    it holds a one), checked as it is built (see ``_row``)."""
    cols = tuple(g.sorted_edges())
    index = _column_index(cols)
    # a list, not a generator: tuple() grows a generator's result by
    # reallocation, which cost the scan benchmark about 0.75 MiB of peak RSS
    rows = tuple([_row(p, index) for p in paths])
    return MeasurementMatrix(tuple(tuple(p) for p in paths), cols, rows)


def _report(red: _Reducer, cols: tuple[Edge, ...]) -> IdentifiabilityReport:
    """The verdict read off a reduced basis over the link columns ``cols``."""
    if red.rank == len(cols):
        return IdentifiabilityReport(red.rank, frozenset(cols), frozenset())
    good = frozenset(cols[c] for c, _ in red.unit_rows())
    return IdentifiabilityReport(red.rank, good, frozenset(cols) - good)


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


def constructed_paths(g: Graph, monitors: MonitorSet) -> Iterator[list[Path]]:
    """Measurement paths built directly from spanning trees, in rounds that
    never end: each round yields the paths it built that no earlier round
    did, possibly none.  This is the path construction of Ma, He, Leung,
    Towsley and Swami (ICDCS 2013) without its bound.

    A monitor pair a < b takes one tree grown from a in G - {b, other
    monitors} and one grown from b in G - {a, other monitors}.  Each link
    (u, v), in each orientation, joins the tree path a..u, the link and the
    tree path v..b; the join is kept when the two halves share no node.  So
    every path yielded runs from a to b, repeats no node and passes no other
    monitor: it is one of the paths ``enumerate_monitor_paths`` lists, in
    the same orientation.

    Each round picks one node order and grows every monitor's tree from
    the same neighbour lists, sorted by that order: ascending in rounds 0
    and 1, descending in rounds 2 and 3, and from round 4 on one shuffle of
    the ascending order by ``random.Random(0)`` per round.  Rounds 0 and 2
    grow breadth-first trees, every other round depth-first ones.  A round
    joins only the pairs that contain its hub monitor, the next monitor in
    turn: with one tree per monitor, the joins of the other pairs add
    almost no rank, and on graphs with many monitors they multiplied the
    rows needed.

    Complete in the limit: every measurement path P = (a = p0, .., pk = b)
    is built by some round.  A depth-first tree from a whose node order
    starts p0, .., pk descends along P, because at each pj every earlier
    node of P is visited and p(j+1) precedes every other unvisited
    neighbour; so its tree path to p(k-1) is P without b, and the join at
    link (p(k-1), b) is P.  A shuffled round whose hub is a or b joins the
    pair (a, b), and its one order, from which a's tree grows, starts
    p0, .., pk with probability at least 1/n!.  Only a's tree matters, as
    b's tree path to b is b alone; so for uniformly drawn orders P is built
    almost surely, and the rows come to span the whole measurement
    matrix.  By the theorem of Ma et al. (IEEE/ACM ToN 2014) that matrix has
    full rank exactly when there are three or more monitors and the
    extended graph is 3-vertex-connected.  The argument bounds nothing (n!
    orders): the caller's cap, not the argument, bounds the work.
    """
    ms = sorted(validate_monitors(g, monitors, minimum=2))
    nodes = g.sorted_nodes()
    links = g.sorted_edges()
    # G - {b, other monitors} is G minus every monitor but a, so a's tree
    # serves every pair that contains a
    keep_out = {m: set(ms) - {m} for m in ms}
    rng = random.Random(0)
    seen: set[Path] = set()
    for r in count():
        if r < 4:
            order = nodes if r < 2 else nodes[::-1]
        else:
            order = nodes[:]
            rng.shuffle(order)
        grow = _bfs_routes if r in (0, 2) else _dfs_routes
        nbrs = _neighbour_lists(g, order)
        trees = {m: grow(nbrs, m, keep_out[m]) for m in ms}
        hub = ms[r % len(ms)]
        built = []
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
                            built.append(p)
        yield built


def certify_full_rank(g: Graph, monitors: MonitorSet, cap: int = DEFAULT_PATH_CAP) -> bool:
    """Whether the constructed paths prove every link identifiable.

    Feeds the rounds of ``constructed_paths`` to the exact reducer until the
    rank reaches the number of links: full rank on some real measurement
    rows is full rank of the whole path matrix, and the proof is in integer
    arithmetic.  Each round and each row fed counts once against ``cap``,
    so the loop ends whether or not the rank can be full.  False once
    ``cap`` is spent: "not proved", never "rank deficient".  ValueError when
    ``cap`` is not positive."""
    if cap < 1:
        raise ValueError("cap must be positive")
    cols = tuple(g.sorted_edges())
    index = _column_index(cols)
    red = _Reducer(len(cols))
    # one unit per round (None, charged before the round grows its trees)
    # and one per row
    units = chain.from_iterable((None, *built) for built in constructed_paths(g, monitors))
    for _, p in zip(range(cap), units):
        if p is not None:
            red.add(_row(p, index))
            if red.rank == len(cols):
                return True
    return False


def _exact(x, what: str) -> Fraction:
    """``x`` as a Fraction; ValueError naming ``what`` unless it is an int
    (not a bool) or a Fraction, so that no float or string passes for an
    exact rational."""
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise ValueError(f"{what} must be an int or a Fraction, got {x!r}")
    return Fraction(x)


def simulate(
    g: Graph,
    monitors: MonitorSet,
    weights: Mapping[Edge, Fraction | int],
    cap: int = DEFAULT_PATH_CAP,
) -> tuple[MeasurementMatrix, tuple[Fraction, ...]]:
    """Enumerate paths and produce their exact metric sums, one per row.

    ``weights`` gives each link, in either orientation, a rational value,
    an int or a Fraction.  Before any path is walked, no link may be named
    twice, every value must be an int or a Fraction, the links must be
    exactly the graph's and every value must be positive."""
    given = weights
    weights = {}
    for e, w in given.items():
        link = edge(*e)
        if link in weights:
            raise ValueError(f"weights name link {link} twice")
        weights[link] = _exact(w, f"weight for edge {link}")
    missing = g.edges - set(weights)
    extra = set(weights) - g.edges
    if missing or extra:
        raise ValueError(f"weights must cover exactly the graph edges (missing {sorted(missing)}, extra {sorted(extra)})")
    for e, w in weights.items():
        if w <= 0:
            raise ValueError(f"weight for edge {e} must be positive, got {w}")
    paths = enumerate_monitor_paths(g, monitors, cap)
    matrix = build_matrix(g, paths)
    # weights over their common denominator, so each path sum is an integer
    scale = lcm(*(w.denominator for w in weights.values()))
    scaled = [weights[e].numerator * (scale // weights[e].denominator) for e in matrix.edge_index]
    values = tuple(Fraction(sum([scaled[c] for c in row]), scale) for row in matrix.rows)
    return matrix, values


def recover(
    matrix: MeasurementMatrix, values: Sequence[Fraction | int]
) -> tuple[IdentifiabilityReport, dict[Edge, Fraction]]:
    """The verdict and the exact value of every identifiable edge, both
    from one reduction; no tolerance.  The verdict equals
    ``identifiable_links(matrix)``.

    ``values`` holds one measurement per row, each an int or a Fraction
    (ValueError naming its index otherwise).  Raises when the values
    contradict the row space (no generating assignment exists).
    """
    if len(values) != len(matrix.rows):
        raise ValueError("the number of values must match the number of matrix rows")
    values = [_exact(v, f"value {i}") for i, v in enumerate(values)]
    # measurements over their common denominator: an integer value column
    scale = lcm(*(v.denominator for v in values))
    red = _Reducer(len(matrix.edge_index))
    for row, value in zip(matrix.rows, values):
        red.add(row, value.numerator * (scale // value.denominator))
    recovered = {
        matrix.edge_index[pcol]: Fraction(row[-1], row[pcol] * scale)
        for pcol, row in red.unit_rows()
    }
    return _report(red, matrix.edge_index), recovered
