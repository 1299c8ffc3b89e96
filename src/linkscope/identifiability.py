"""Measurement model and the exact-rank identifiability oracle.

Measurements are sums of link metrics along simple paths between monitors.
A link metric is identifiable exactly when its unit coordinate vector lies in
the row space of the 0/1 path-edge incidence matrix.  A row is kept as the
ascending tuple of its path's link columns (the dense form exists only in
``identify --dump-matrix`` output).  Membership is read off a fully reduced
row basis, computed over the integers by the package's one exact
eliminator, ``_SparseReducer`` (sparse primitive rows, each with a scale of
its own), so verdicts are exact and bit-reproducible.  Floating point never
touches a verdict.

Recovery runs the same elimination with one extra value column: the
measurements are scaled to their common denominator L, so a measurement on
a path becomes its columns with the integer value L times the measurement,
and the eliminator never leaves the integers.  Pivots stay in the link
columns; a row whose link part cancels while its value does not is a
contradiction.  A link is identifiable exactly when its column is a pivot
whose basis row has no link entry; with scale s and value entry n, that
row reads off the link's value n / (s L).  Because the value column never
holds a pivot, the same pass also gives the verdict, read off the basis by
the one function that reads every report.  Simulation likewise scales the
weights to their common denominator, one integer sum per row over its
columns.

With two monitors every simple path between them is a measurement.  With
three or more, paths are enumerated per monitor pair and may not pass through
a third monitor: such a path is the concatenation of shorter monitor-to-
monitor paths and contributes no new rank.

Enumeration grows with the number of simple paths and is capped.  Full
identifiability has a cheaper positive proof, the certificate of
``linkscope.certificate``, which placement verification uses and which
feeds its constructed rows to the same eliminator; ``identify`` still
enumerates every path.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd, lcm
from typing import Iterable, Mapping, NamedTuple, Sequence

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


class _SparseReducer:
    """The package's one exact eliminator: 0/1 rows given by their columns,
    each with an integer value, reduced in sparse form, so that a row
    touches only the basis rows it meets.

    Each basis row is the primitive integer multiple of its row of the
    reduced row echelon form of the rows kept so far, values appended: a
    positive ``scale`` at its own pivot, zero at every other pivot, and its
    nonzero entries in ``rows``, at free (non-pivot) link columns and at
    the value column ``ncols``; the scale and the entries have gcd 1.  The
    value column is never a pivot.  ``index`` lists, for each free link
    column, the pivots of the rows that are nonzero there; it never lists
    the value column.  A unit coordinate vector lies in the row space
    exactly when its column is a pivot whose row has no link entry
    (``solved``).

    A new row r reduces to L*r - sum((L / s_c) * B_c) over the pivots c
    among its columns, where L is the lcm of their scales s_c: only the rows
    it hits are summed, value entries with the link entries.  A residual
    that is nonzero only at the value column contradicts the rows kept.
    Any other nonzero residual, divided by its gcd, becomes the basis row of
    its leftmost nonzero column, and only the rows that ``index`` lists at
    that column are rewritten, value entries with the rest; no other row is
    rescaled.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: dict[int, dict[int, int]] = {}  # pivot -> {column: entry}
        self.scale: dict[int, int] = {}  # pivot -> the row's entry there
        self.index: dict[int, set[int]] = {}  # free link column -> pivots

    @property
    def rank(self) -> int:
        return len(self.rows)

    def free(self) -> list[int]:
        """The free link columns, ascending."""
        return [f for f in range(self.ncols) if f not in self.rows]

    def solved(self) -> list[int]:
        """The pivots whose row has no link entry: the columns whose unit
        vector lies in the row space."""
        n = self.ncols
        return [c for c, b in self.rows.items() if len(b) == (n in b)]

    def add(self, row: Sequence[int], value: int = 0) -> bool:
        n = self.ncols
        rows, scale, index = self.rows, self.scale, self.index
        hits = [c for c in row if c in rows]
        if not hits and row:
            # the row is its own residual: scale 1 at its least column
            new = dict.fromkeys(row, 1)
            pivot = min(new)
            del new[pivot]
            lead, v = 1, value
        else:
            common = scale[hits[0]] if len(hits) == 1 else lcm(*[scale[c] for c in hits])
            res = dict.fromkeys([f for f in row if f not in rows], common) if len(hits) < len(row) else {}
            if value:
                res[n] = common * value
            if common == 1:
                # every hit row at scale 1, as on most dependent rows: no multiply
                for c in hits:
                    b = rows[c]
                    for f in b:
                        res[f] = res.get(f, 0) - b[f]
            else:
                for c in hits:
                    b = rows[c]
                    m = common // scale[c]
                    for f in b:
                        res[f] = res.get(f, 0) - m * b[f]
            v = res.pop(n, 0)
            if not any(res.values()):
                if v:
                    raise InconsistentMeasurementsError(
                        "measurement vector is inconsistent with the paths"
                    )
                return False
            new = {f: x for f, x in res.items() if x}
            pivot = min(new)
            lead = new.pop(pivot)
            g = gcd(lead, v, *new.values())
            if lead < 0:
                g = -g
            if g != 1:
                lead //= g
                v //= g
                new = {f: x // g for f, x in new.items()}
        met = index.pop(pivot, ())
        for f in new:
            index.setdefault(f, set()).add(pivot)
        # each row nonzero at the new pivot becomes lead times itself minus
        # its entry there times the new row, then primitive again
        for c in met:
            b = rows[c]
            a = b.pop(pivot)
            if lead != 1:
                for f in b:
                    b[f] *= lead
            for f, x in new.items():
                y = b.get(f, 0) - a * x
                if y:
                    if f not in b:
                        index[f].add(c)
                    b[f] = y
                else:
                    del b[f]
                    index[f].discard(c)
            if v:
                y = b.get(n, 0) - a * v
                if y:
                    b[n] = y
                else:
                    del b[n]
            s = scale[c] * lead
            g = gcd(s, *b.values())
            if g > 1:
                s //= g
                for f in b:
                    b[f] //= g
            scale[c] = s
        if v:
            new[n] = v
        rows[pivot] = new
        scale[pivot] = lead
        return True

    def null_vector(self, f: int) -> dict[int, int]:
        """An integer vector orthogonal to every row kept so far, as its
        nonzero entries: nonzero at free column ``f`` and at the pivot of
        each row nonzero there, zero elsewhere."""
        rows, scale = self.rows, self.scale
        hit = self.index.get(f, ())
        common = lcm(*[scale[c] for c in hit])
        z = {c: -rows[c][f] * (common // scale[c]) for c in hit}
        z[f] = common
        return z


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


def _report(red: _SparseReducer, cols: tuple[Edge, ...]) -> IdentifiabilityReport:
    """The verdict read off a reduced basis over the link columns ``cols``."""
    good = frozenset(cols[c] for c in red.solved())
    return IdentifiabilityReport(red.rank, good, frozenset(cols) - good)


def identifiable_links(matrix: MeasurementMatrix) -> IdentifiabilityReport:
    """Rank over the rationals plus the set of edges whose unit vector lies
    in the row space."""
    ncols = len(matrix.edge_index)
    red = _SparseReducer(ncols)
    for row in matrix.rows:
        red.add(row)
        if red.rank == ncols:
            break
    return _report(red, matrix.edge_index)


def _exact(named: Iterable[tuple[str, object]]) -> list[Fraction]:
    """The value of each (name, value) pair as a Fraction, in order;
    ValueError naming the first value that is not an int (not a bool) or a
    Fraction, so that no float or string passes for an exact rational.
    Loading this module does not load ``fractions``; the import runs here,
    about a microsecond per call, so a whole sequence is checked in one."""
    from fractions import Fraction

    out = []
    for what, x in named:
        if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
            raise ValueError(f"{what} must be an int or a Fraction, got {x!r}")
        out.append(Fraction(x))
    return out


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
    from fractions import Fraction

    given = weights
    weights = {}
    for e, w in given.items():
        link = edge(*e)
        if link in weights:
            raise ValueError(f"weights name link {link} twice")
        weights[link] = _exact([(f"weight for edge {link}", w)])[0]
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
    ``identifiable_links(matrix)``; an identifiable edge's value is its
    solved row's value entry over the row's scale times the measurements'
    common denominator.

    ``values`` holds one measurement per row, each an int or a Fraction
    (ValueError naming its index otherwise).  Raises when the values
    contradict the row space (no generating assignment exists).
    """
    from fractions import Fraction

    if len(values) != len(matrix.rows):
        raise ValueError("the number of values must match the number of matrix rows")
    values = _exact((f"value {i}", v) for i, v in enumerate(values))
    # measurements over their common denominator: an integer value column
    scale = lcm(*(v.denominator for v in values))
    red = _SparseReducer(len(matrix.edge_index))
    for row, value in zip(matrix.rows, values):
        red.add(row, value.numerator * (scale // value.denominator))
    recovered = {
        matrix.edge_index[c]: Fraction(red.rows[c].get(red.ncols, 0), red.scale[c] * scale)
        for c in red.solved()
    }
    return _report(red, matrix.edge_index), recovered
