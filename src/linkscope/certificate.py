"""The full-rank certificate: measurement paths built from spanning trees.

A full rank on some real measurement rows is a full rank of the whole path
matrix, so ``certify_full_rank``, the package's one full-rank decision,
needs no path search: it builds measurement paths directly from spanning
trees, round after round (``_tree_rounds``), and feeds them to its own
exact eliminator under one cap that counts rounds, rows fed and guided
scans.  The verdict is exact as soon as the rank reaches the number of
links; a spent cap proves nothing either way.

The eliminator, ``_SparseReducer``, keeps each basis row sparse, as the
primitive integer multiple of its reduced row echelon row with a scale of
its own, and indexes the rows by the free columns where they are nonzero.
A new row then sums only the basis rows it hits, and a new pivot rewrites
only the rows nonzero in its column, where ``identifiability._Reducer``
rescales its whole basis to a new common d.  The index also gives each
free column f a null vector of the rows kept so far: nonzero at f and at
the pivot of each row that is nonzero at f.  A constructed path raises the
rank exactly when its row is not orthogonal to one of these vectors, so
after the first round of trees only such paths are built and fed.
"""

from __future__ import annotations

import random
from itertools import count
from math import gcd, lcm
from typing import Container, Iterator, Sequence

from .graph import Edge, Graph, MonitorSet, Path, validate_monitors
from .identifiability import DEFAULT_PATH_CAP, _column_index, _row


class _SparseReducer:
    """The certificate's exact eliminator: 0/1 rows given by their columns,
    reduced in sparse form, so that a row touches only the basis rows it
    meets.

    Each basis row is the primitive integer multiple of its row of the
    reduced row echelon form of the rows kept so far: a positive ``scale``
    at its own pivot, zero at every other pivot, and its nonzero entries at
    free (non-pivot) columns in ``rows``; the scale and the entries have gcd
    1.  So no entry exceeds the matching entry of the basis of
    ``identifiability._Reducer``, which is d times the same reduced form.
    ``index`` lists, for each free column, the pivots of the rows that are
    nonzero there.

    A new row r reduces to L*r - sum((L / s_c) * B_c) over the pivots c
    among its columns, where L is the lcm of their scales s_c: only the rows
    it hits are summed.  A nonzero residual, divided by its gcd, becomes the
    basis row of its leftmost nonzero column, and only the rows that
    ``index`` lists at that column are rewritten; no other row is rescaled.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: dict[int, dict[int, int]] = {}  # pivot -> {free column: entry}
        self.scale: dict[int, int] = {}  # pivot -> the row's entry there
        self.index: dict[int, set[int]] = {}  # free column -> pivots

    @property
    def rank(self) -> int:
        return len(self.rows)

    def free(self) -> list[int]:
        """The free columns, ascending."""
        return [f for f in range(self.ncols) if f not in self.rows]

    def add(self, row: Sequence[int]) -> bool:
        rows, scale, index = self.rows, self.scale, self.index
        hits = [c for c in row if c in rows]
        common = lcm(*[scale[c] for c in hits])
        res = dict.fromkeys([f for f in row if f not in rows], common)
        for c in hits:
            m = common // scale[c]
            for f, x in rows[c].items():
                res[f] = res.get(f, 0) - m * x
        res = {f: x for f, x in res.items() if x}
        if not res:
            return False
        pivot = min(res)
        lead = res.pop(pivot)
        g = gcd(lead, *res.values())
        if lead < 0:
            g = -g
        lead //= g
        new = {f: x // g for f, x in res.items()}
        met = index.pop(pivot, ())
        for f in new:
            index.setdefault(f, set()).add(pivot)
        # each row nonzero at the new pivot becomes lead times itself minus
        # its entry there times the new row, then primitive again
        for c in met:
            b = rows[c]
            a = b.pop(pivot)
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
            s = scale[c] * lead
            g = gcd(s, *b.values())
            if g > 1:
                s //= g
                for f in b:
                    b[f] //= g
            scale[c] = s
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


def _bfs_tree(nbrs: dict[int, list[int]], root: int, removed: Container[int]) -> dict[int, int | None]:
    """Breadth-first spanning tree from root, avoiding removed nodes, as the
    parent of each node it reaches (None at the root), in the order reached."""
    parent: dict[int, int | None] = {root: None}
    queue = [root]
    for u in queue:
        for w in nbrs[u]:
            if w not in parent and w not in removed:
                parent[w] = u
                queue.append(w)
    return parent


def _dfs_tree(nbrs: dict[int, list[int]], root: int, removed: Container[int]) -> dict[int, int | None]:
    """Depth-first counterpart of ``_bfs_tree``."""
    parent: dict[int, int | None] = {root: None}
    stack = [(root, iter(nbrs[root]))]
    while stack:
        u, rest = stack[-1]
        for w in rest:
            if w not in parent and w not in removed:
                parent[w] = u
                stack.append((w, iter(nbrs[w])))
                break
        else:
            stack.pop()
    return parent


def _climb(parent: dict[int, int | None], x: int) -> list[int]:
    """The tree path from x up to the root."""
    up = []
    while x is not None:
        up.append(x)
        x = parent[x]
    return up


def _join(from_a: dict[int, int | None], x: int, y: int, from_b: dict[int, int | None]) -> Path | None:
    """The path a..x, y..b over the link (x, y) from the trees of a and b,
    or None when the two tree paths share a node."""
    head, tail = _climb(from_a, x), _climb(from_b, y)
    if not set(head).isdisjoint(tail):
        return None
    head.reverse()
    return (*head, *tail)


def _neighbour_lists(g: Graph, order: list[int]) -> dict[int, list[int]]:
    position = {v: i for i, v in enumerate(order)}
    return {v: sorted(g.adj[v], key=position.__getitem__) for v in order}


def _tree_rounds(g: Graph, ms: list[int]) -> Iterator[dict[int, dict[int, int | None]]]:
    """Spanning trees of every monitor, in rounds that never end; the
    measurement paths of the certificate are joins of one round's trees.
    This is the path construction of Ma, He, Leung, Towsley and Swami (ICDCS
    2013) without its bound.

    Monitor m's tree is grown in G minus every other monitor, so for a pair
    a, b it is a tree of G - {b, other monitors}.  Each link (x, y) joins
    the tree path a..x, the link and the tree path y..b (``_join``); the
    join is kept when the two halves share no node.  So every kept join runs
    from a to b, repeats no node and passes no other monitor: it is one of
    the paths ``enumerate_monitor_paths`` lists.  A tree is kept as the
    parent of each node it reaches, and a path is built only for a join
    that is kept.

    Each round picks one node order and grows every monitor's tree from
    the same neighbour lists, sorted by that order: ascending in rounds 0
    and 1, descending in rounds 2 and 3, and from round 4 on one shuffle of
    the ascending order by ``random.Random(0)`` per round.  Rounds 0 and 2
    grow breadth-first trees, every other round depth-first ones.

    Complete in the limit: every measurement path P = (a = p0, .., pk = b)
    is a join of some round's trees.  A depth-first tree from a whose node
    order starts p0, .., pk descends along P, because at each pj every
    earlier node of P is visited and p(j+1) precedes every other unvisited
    neighbour; so its tree path to p(k-1) is P without b, and the join at
    link (p(k-1), b) is P.  A shuffled round's one order, from which a's
    tree grows, starts p0, .., pk with probability at least 1/n!.  Only a's
    tree matters, as b's tree path to b is b alone; so for uniformly drawn
    orders P is a join almost surely.  ``certify_full_rank`` leaves a round
    only when every join of its trees is in the span of the rows it kept,
    so those rows come to span the whole measurement matrix.  By the
    theorem of Ma et al. (IEEE/ACM ToN 2014) that matrix has full rank
    exactly when there are three or more monitors and the extended graph is
    3-vertex-connected.  The argument bounds nothing (n! orders): the
    caller's cap, not the argument, bounds the work, and
    ``certify_full_rank`` charges it one unit per round, per row fed and
    per guided scan.
    """
    nodes = g.sorted_nodes()
    keep_out = {m: set(ms) - {m} for m in ms}
    rng = random.Random(0)
    for r in count():
        if r < 4:
            order = nodes if r < 2 else nodes[::-1]
        else:
            order = nodes[:]
            rng.shuffle(order)
        grow = _bfs_tree if r in (0, 2) else _dfs_tree
        nbrs = _neighbour_lists(g, order)
        yield {m: grow(nbrs, m, keep_out[m]) for m in ms}


def _hub_joins(trees: dict[int, dict[int, int | None]], hub: int, ms: list[int], links: list[Edge]) -> Iterator[Path]:
    """The kept joins of the pairs a < b that contain ``hub``, each from a
    to b, in pair, link and orientation order."""
    for other in ms:
        if other == hub:
            continue
        a, b = sorted((hub, other))
        from_a, from_b = trees[a], trees[b]
        for u, v in links:
            for x, y in ((u, v), (v, u)):
                if x in from_a and y in from_b:
                    p = _join(from_a, x, y, from_b)
                    if p is not None:
                        yield p


def _tree_steps(
    trees: dict[int, dict[int, int | None]], index: dict[tuple[int, int], int]
) -> dict[int, list[tuple[int, int, int]]]:
    """Each tree's links in the order its nodes were reached, as (node,
    parent, column), so that a walk down the list meets a parent first."""
    return {m: [(x, u, index[u, x]) for x, u in parent.items() if u is not None] for m, parent in trees.items()}


def _guided_join(
    trees: dict[int, dict[int, int | None]],
    steps: dict[int, list[tuple[int, int, int]]],
    links: Sequence[Edge],
    z: dict[int, int],
) -> Path | None:
    """A join of two monitors' trees whose row is not orthogonal to ``z``
    and whose halves are disjoint, or None when there is none.

    The row of the join a..x, (x, y), y..b sums to Z_a(x) + z(x, y) +
    Z_b(y), where Z_m(x) is the sum of z along m's tree path to x.  So the
    monitors that reach a node are grouped by that sum, and only the pairs
    of groups whose total is nonzero are joined."""
    at: dict[int, dict[int, list[int]]] = {}
    for m, walk in steps.items():
        sums = {m: 0}
        for x, u, c in walk:
            sums[x] = sums[u] + z.get(c, 0)
        for x, s in sums.items():
            groups = at.get(x)
            if groups is None:
                at[x] = {s: [m]}
            elif s in groups:
                groups[s].append(m)
            else:
                groups[s] = [m]
    # one orientation per link: the pairs are ordered
    for c, (x, y) in enumerate(links):
        zc = z.get(c, 0)
        for sx, from_x in at.get(x, {}).items():
            for sy, from_y in at.get(y, {}).items():
                if sx + zc + sy:
                    for a in from_x:
                        for b in from_y:
                            if a != b:
                                p = _join(trees[a], x, y, trees[b])
                                if p is not None:
                                    return p
    return None


def _certificate(g: Graph, ms: list[int], red: _SparseReducer) -> Iterator[None]:
    """Feeds constructed rows to ``red``, yielding after each unit of work:
    a round's trees, a row fed, a guided scan.  Round 0's joins over the
    least monitor's pairs are fed whole; from then on a join is fed only when a guided scan finds its row
    outside the span of the rows kept, and the next round's trees are grown
    only when a scan of every free column finds no such join in the current
    ones."""
    links = g.sorted_edges()
    index = _column_index(tuple(links))
    rounds = _tree_rounds(g, ms)
    trees = next(rounds)
    yield
    for p in dict.fromkeys(_hub_joins(trees, ms[0], ms, links)):
        red.add(_row(p, index))
        yield
    while True:
        steps = _tree_steps(trees, index)
        hit = True
        while hit:
            hit = False
            for f in red.free():
                if f in red.rows:
                    continue  # a row fed in this pass made f a pivot
                p = _guided_join(trees, steps, links, red.null_vector(f))
                yield
                if p is not None:
                    red.add(_row(p, index))
                    hit = True
                    yield
        trees = next(rounds)
        yield


def certify_full_rank(g: Graph, monitors: MonitorSet, cap: int = DEFAULT_PATH_CAP) -> bool:
    """Whether the constructed paths prove every link identifiable.

    Feeds the joins of round 0's trees (``_tree_rounds``) over the pairs of
    the least monitor to an exact sparse eliminator, then only joins that
    raise its rank, until the rank reaches the number of links: full rank
    on some real measurement rows is full rank of the whole path matrix,
    and the proof is in integer arithmetic.  After round 0, each free
    column's null vector of the rows kept so far guides one scan of the
    joins of every pair of the current trees; a join whose row is not
    orthogonal to it raises the rank, and is fed when its halves are
    disjoint.  When no free column finds such a join, every join of the
    current trees is in the span, and the next round's trees are grown:
    every round is reached, so the completeness argument of
    ``_tree_rounds`` holds.  Each round, each row fed and each guided scan
    counts once against ``cap``, so the loop ends whether or not the rank
    can be full.  False once ``cap`` is spent: "not proved", never "rank
    deficient".  ValueError when ``cap`` is not positive."""
    if cap < 1:
        raise ValueError("cap must be positive")
    ms = sorted(validate_monitors(g, monitors, minimum=2))
    red = _SparseReducer(len(g.edges))
    for _ in zip(range(cap), _certificate(g, ms, red)):
        if red.rank == red.ncols:
            return True
    return False
