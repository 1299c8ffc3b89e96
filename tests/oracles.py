"""Independent brute-force oracles the test suite checks the package against.

Everything here is deliberately written from the definitions, with different
mechanics than the package implementations (deletion enumeration instead of
lowpoint DFS, augmenting-path Menger counts instead of subset deletion, a
differently-ordered recursive splitter, plain Fraction elimination instead of
fraction-free integer rows).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from linkscope.errors import InconclusiveError, NotFoundError, PathExplosionError
from linkscope.graph import (
    Graph,
    edge,
    is_connected,
    iter_simple_paths,
    reachable,
    remove_node,
    validate_monitor_pair,
)
from linkscope.identifiability import (
    DEFAULT_PATH_CAP,
    build_matrix,
    enumerate_monitor_paths,
    identifiable_links,
)
from linkscope.placement import PlacementTrace, verify_placement


def brute_bridges(g: Graph) -> frozenset:
    return frozenset(e for e in g.edges if not is_connected(Graph(g.nodes, g.edges - {e})))


def brute_cut_vertices(g: Graph) -> frozenset:
    return frozenset(v for v in g.nodes if not is_connected(remove_node(g, v)))


def brute_blocks(g: Graph) -> list[frozenset]:
    """Block node sets from the definition: maximal node sets of two or more
    nodes whose induced subgraph is connected and has no cut vertex (the two
    ends of a bridge included).  Sorted."""

    def connected(s: frozenset) -> bool:
        start = min(s)
        seen, todo = {start}, [start]
        while todo:
            for w in g.adj[todo.pop()] & s:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        return len(seen) == len(s)

    found: list[frozenset] = []
    for r in range(g.node_count, 1, -1):
        for subset in combinations(sorted(g.nodes), r):
            s = frozenset(subset)
            if any(s <= b for b in found):
                continue
            if connected(s) and (r == 2 or all(connected(s - {v}) for v in s)):
                found.append(s)
    return sorted(found, key=sorted)


def reference_canonical_cycle(cycle: tuple) -> tuple:
    """Least tuple over all 2n rotations of the cycle in both directions."""
    n = len(cycle)
    best = None
    for seq in (cycle, cycle[::-1]):
        for i in range(n):
            rot = seq[i:] + seq[:i]
            if best is None or rot < best:
                best = rot
    return best


def reference_all_cycles(g: Graph) -> list[tuple]:
    """Every simple cycle, canonical, sorted by (length, tuple): a stack DFS
    from each anchor through higher nodes only, closing back at the anchor,
    with each cycle's two directions merged in a set."""
    out: set[tuple] = set()
    for anchor in sorted(g.nodes):
        stack = [(anchor, (anchor,))]
        while stack:
            u, path = stack.pop()
            for x in sorted(g.adj[u]):
                if x == anchor and len(path) >= 3:
                    out.add(reference_canonical_cycle(path))
                elif x > anchor and x not in path:
                    stack.append((x, path + (x,)))
    return sorted(out, key=lambda c: (len(c), c))


def reference_cycles_through_edge(g: Graph, vw: tuple) -> list[tuple]:
    """Every cycle through the edge, canonical, sorted by (length, tuple):
    one simple-path walk per link, each v..w path other than the edge itself
    closed by the edge."""
    v, w = edge(*vw)
    cycles = [reference_canonical_cycle(p) for p in iter_simple_paths(g, v, w) if len(p) > 2]
    return sorted(cycles, key=lambda c: (len(c), c))


# ---------------------------------------------------------------------------
# Lemma 3 structures, by trying every cycle pair and every pair of paths


def _all_paths_from(g: Graph, start: int) -> list[tuple]:
    """Every simple path starting at start, the one-node path included."""
    out, stack = [], [(start,)]
    while stack:
        path = stack.pop()
        out.append(path)
        stack.extend(path + (x,) for x in g.adj[path[-1]] if x not in path)
    return out


def _brute_nonseparating(g: Graph, cycle: tuple, monitors) -> bool:
    """No chord, and after deleting the cycle's nodes every remaining node
    still reaches a monitor that was not on the cycle."""
    on = set(cycle)
    if sum(1 for u, x in g.edges if u in on and x in on) != len(cycle):
        return False
    rest = g
    for u in cycle:
        rest = remove_node(rest, u)
    seen = {m for m in monitors if m not in on}
    todo = list(seen)
    while todo:
        for x in rest.adj[todo.pop()]:
            if x not in seen:
                seen.add(x)
                todo.append(x)
    return seen == set(rest.nodes)


def brute_has_structure(g: Graph, link: tuple, monitors: tuple, disjoint: bool) -> bool:
    """Is there a Lemma 3 structure through the link?  That is a
    non-separating cycle F and a cycle C through the link sharing at most
    three nodes, and for one order (a, b) of the monitors disjoint simple
    paths P1 from a and P2 from b, both avoiding the link ends, with P1
    meeting F only at its last node and P2 meeting C only at its last node.
    With ``disjoint``, the fully disjoint structure: F and C share only the
    link ends, and P1 meets C at most at a."""
    v, w = link
    through = [
        c for c in reference_all_cycles(g)
        if any(edge(c[i - 1], c[i]) == link for i in range(len(c)))
    ]
    paths = {
        m: [p for p in _all_paths_from(g, m) if v not in p and w not in p] for m in monitors
    }
    m1, m2 = monitors
    for cf in through:
        if not _brute_nonseparating(g, cf, monitors):
            continue
        fset = set(cf)
        for cc in through:
            cset = set(cc)
            if (fset & cset != {v, w}) if disjoint else (len(fset & cset) > 3):
                continue
            for a, b in ((m1, m2), (m2, m1)):
                firsts = [
                    set(p) for p in paths[a]
                    if set(p) & fset == {p[-1]} and not (disjoint and (set(p) - {a}) & cset)
                ]
                seconds = [set(p) for p in paths[b] if set(p) & cset == {p[-1]}]
                if any(not p1 & p2 for p1 in firsts for p2 in seconds):
                    return True
    return False


# ---------------------------------------------------------------------------
# Lemma 1: the bridge links, through the rank oracle


def adjacent_links(g: Graph, e: tuple) -> frozenset:
    e = edge(*e)
    return frozenset(f for f in g.edges if f != e and (set(f) & set(e)))


def check_lemma1(g: Graph, monitors: tuple, bridge_link: tuple) -> bool:
    """With one monitor on each side of a bridge, the bridge and every link
    sharing an endpoint with it must come out unidentifiable."""
    m1, m2 = validate_monitor_pair(g, monitors)
    b = edge(*bridge_link)
    if b not in g.edges:
        raise NotFoundError(f"edge {b} not in graph")
    if b not in brute_bridges(g):
        raise ValueError(f"edge {b} is not a bridge")
    # b is a bridge, so b[0]'s side of it is what b[0] reaches without b[1]
    side = reachable(g.adj, (b[0],), (b[1],))
    if (m1 in side) == (m2 in side):
        raise ValueError("monitors must lie on opposite sides of the bridge")
    report = identifiable_links(build_matrix(g, enumerate_monitor_paths(g, monitors)))
    targets = {b} | adjacent_links(g, b)
    return targets <= report.unidentifiable


def minimality_probe(
    g: Graph,
    trace: PlacementTrace,
    budget: int = 100000,
    cap: int = DEFAULT_PATH_CAP,
) -> bool:
    """True when no monitor set one smaller than the trace's achieves full
    identifiability; candidate sets are enumerated exhaustively up to the
    budget, beyond which the probe refuses to answer.

    Not independent of the package: two monitors are decided by the rank of
    the enumerated path matrix, three or more by ``verify_placement``.  A
    candidate that the path cap leaves undecided makes the probe refuse."""
    k = len(trace.monitors) - 1
    if k < 2:
        return True  # fewer than two monitors measure nothing on >= 1 edge
    for examined, candidate in enumerate(combinations(g.sorted_nodes(), k), start=1):
        if examined > budget:
            raise InconclusiveError(f"probe budget {budget} exhausted")
        if k == 2:
            try:
                paths = enumerate_monitor_paths(g, candidate, cap)
            except PathExplosionError:
                full = None
            else:
                full = identifiable_links(build_matrix(g, paths)).fully_identifiable
        else:
            full = verify_placement(g, trace._replace(monitors=candidate), cap)[0]
        if full is None:
            raise InconclusiveError("path cap hit while probing a candidate set")
        if full:
            return False
    return True


def brute_is_k_edge_connected(g: Graph, k: int) -> bool:
    if not is_connected(g):
        return False
    edges = sorted(g.edges)
    for r in range(1, k):
        for subset in combinations(edges, r):
            if not is_connected(Graph(g.nodes, g.edges - set(subset))):
                return False
    return True


# ---------------------------------------------------------------------------
# Menger-style vertex connectivity via unit-capacity augmenting paths


def _max_internally_disjoint_paths(g: Graph, s: int, t: int, stop_at: int) -> int:
    """Max internally-vertex-disjoint s-t paths via node-split max flow."""
    # node v splits into (v, 'in') -> (v, 'out'); s and t only have one side
    succ: dict[tuple, list[tuple]] = {}

    def _out(v):
        return (v, "out") if v not in (s, t) else (v, "x")

    def _in(v):
        return (v, "in") if v not in (s, t) else (v, "x")

    for v in g.nodes:
        if v not in (s, t):
            succ.setdefault((v, "in"), []).append((v, "out"))
    for u, v in g.edges:
        succ.setdefault(_out(u), []).append(_in(v))
        succ.setdefault(_out(v), []).append(_in(u))
    flow: set[tuple] = set()  # set of (from, to) arcs carrying flow
    count = 0
    while count < stop_at:
        # BFS for an augmenting path in the residual graph
        start, goal = _out(s), _in(t)
        prev = {start: None}
        queue = [start]
        while queue:
            node = queue.pop(0)
            if node == goal:
                break
            for nxt in succ.get(node, []):
                if (node, nxt) not in flow and nxt not in prev:
                    prev[nxt] = node
                    queue.append(nxt)
            # residual arcs: reversed flow
            for (a, b) in list(flow):
                if b == node and a not in prev:
                    prev[a] = node
                    queue.append(a)
        if goal not in prev:
            break
        # walk back, toggling arcs
        node = goal
        while prev[node] is not None:
            parent = prev[node]
            if (parent, node) in flow:
                # this hop was a residual (reverse) arc
                flow.discard((parent, node))
            elif (node, parent) in flow:
                flow.discard((node, parent))
            else:
                flow.add((parent, node))
            node = parent
        count += 1
    return count


def menger_is_k_vertex_connected(g: Graph, k: int) -> bool:
    if g.node_count <= k or not is_connected(g):
        return False
    for s, t in combinations(g.sorted_nodes(), 2):
        if g.has_edge(s, t):
            continue
        if _max_internally_disjoint_paths(g, s, t, k) < k:
            return False
    return True


def brute_prop2(g: Graph, monitors: tuple) -> bool:
    """The deletion characterization from its definition, with no shortcut:
    for every pair of deleted nodes, the rest is connected or each of its
    components holds a surviving monitor."""
    for removed in combinations(g.sorted_nodes(), 2):
        comps = _components(g.nodes, g.adj, set(removed))
        if len(comps) > 1 and not all(comp & set(monitors) for comp in comps):
            return False
    return True


# ---------------------------------------------------------------------------
# reference triconnected splitter (different order and recursion shape)


def _components(nodes: frozenset, adjacency: dict, removed: set) -> list[set]:
    left = set(nodes) - removed
    comps = []
    while left:
        s = max(left)  # deliberately different seed choice
        comp = {s}
        frontier = [s]
        while frontier:
            u = frontier.pop()
            for x in adjacency[u]:
                if x in left and x not in comp:
                    comp.add(x)
                    frontier.append(x)
        left -= comp
        comps.append(comp)
    return comps


def _adjacency(nodes, edges):
    adjacency = {v: set() for v in nodes}
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    return adjacency


def _is_cycle_piece(nodes, edges) -> bool:
    if len(edges) != len(nodes) or len(nodes) < 3:
        return False
    adjacency = _adjacency(nodes, edges)
    if any(len(ns) != 2 for ns in adjacency.values()):
        return False
    comp = _components(frozenset(nodes), adjacency, set())
    return len(comp) == 1


def reference_split_components(block_nodes: frozenset, block_edges: frozenset):
    """Canonical components as a sorted list of (nodes, real, virtual) tuples
    of frozensets.  Splits on the LAST separation pair in sorted order and
    recurses; merges with full rescans."""
    pending: set = set()

    def split(nodes: frozenset, real: frozenset, virtual: frozenset):
        nonlocal pending
        adjacency = _adjacency(nodes, real | virtual)
        pairs = []
        for a, b in combinations(sorted(nodes), 2):
            if len(nodes) >= 4 and len(_components(nodes, adjacency, {a, b})) > 1:
                pairs.append((a, b))
        if not pairs:
            return [(nodes, real, virtual)]
        a, b = pairs[-1]
        pair_edge = edge(a, b)
        if pair_edge in real:
            pending.add(pair_edge)
            real = real - {pair_edge}
        out = []
        for comp in _components(nodes, adjacency, {a, b}):
            side = frozenset(comp | {a, b})
            side_real = frozenset(e for e in real if e[0] in side and e[1] in side)
            side_virtual = frozenset(
                e for e in virtual if e[0] in side and e[1] in side
            ) | {pair_edge}
            out.extend(split(side, side_real, frozenset(side_virtual)))
        return out

    atoms = split(block_nodes, frozenset(block_edges), frozenset())

    def users_of(atoms_list):
        users: dict = {}
        for i, (_, _, virtual) in enumerate(atoms_list):
            for e in virtual:
                users.setdefault(e, []).append(i)
        return users

    changed = True
    while changed:
        changed = False
        users = users_of(atoms)
        for e in sorted(users, reverse=True):
            if e in pending or len(users[e]) != 2:
                continue
            i, j = users[e]
            ni, ri, vi = atoms[i]
            nj, rj, vj = atoms[j]
            if not (_is_cycle_piece(ni, ri | vi) and _is_cycle_piece(nj, rj | vj)):
                continue
            fused = (ni | nj, ri | rj, (vi | vj) - {e})
            atoms = [a for k, a in enumerate(atoms) if k not in (i, j)] + [fused]
            changed = True
            break

    for e in sorted(pending):
        holders = [i for i, (_, _, virtual) in enumerate(atoms) if e in virtual]
        target = min(
            holders, key=lambda i: (sorted(atoms[i][0]), sorted(atoms[i][1]), sorted(atoms[i][2]))
        )
        nodes, real, virtual = atoms[target]
        atoms[target] = (nodes, real | {e}, virtual - {e})

    return sorted(
        ((frozenset(n), frozenset(r), frozenset(v)) for n, r, v in atoms),
        key=lambda t: (sorted(t[0]), sorted(t[1]), sorted(t[2])),
    )


# ---------------------------------------------------------------------------
# plain-Fraction elimination for rank and row-space membership


def reference_rref(rows) -> list[list[Fraction]]:
    """Nonzero rows of the reduced row echelon form, by plain Fraction
    Gauss-Jordan: each pivot scaled to 1 and cleared from every other row."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, len(mat)):
            if mat[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        pivot = mat[rank][col]
        mat[rank] = [x / pivot for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [x - factor * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return mat[:rank]


def fraction_rank(rows: list[tuple[int, ...]]) -> int:
    return len(reference_rref(rows))


def fraction_identifiable_columns(rows: list[tuple[int, ...]], ncols: int) -> set[int]:
    """Columns whose unit vector keeps the rank unchanged when appended."""
    base = fraction_rank(rows) if rows else 0
    out = set()
    for col in range(ncols):
        unit = tuple(1 if i == col else 0 for i in range(ncols))
        if fraction_rank(list(rows) + [unit]) == base:
            out.add(col)
    return out


def reference_path_sums(paths, weights: dict) -> tuple[Fraction, ...]:
    """Metric sum of each path, one Fraction addition per edge."""
    return tuple(
        sum((weights[edge(a, b)] for a, b in zip(p, p[1:])), Fraction(0)) for p in paths
    )
