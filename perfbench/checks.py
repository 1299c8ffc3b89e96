"""Answer checks written from the definitions, independent of linkscope.

Each check returns a list of problems; an empty list means the answer holds.
They run outside the timed span of an instance.
"""

from __future__ import annotations

from fractions import Fraction


def _adjacency(nodes, edges) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {v: set() for v in nodes}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _has_cut_vertex_or_split(adj: dict[int, set[int]], removed: int) -> bool:
    """Is the graph minus `removed` disconnected or does it have a cut vertex?
    Iterative lowpoint DFS over the remaining nodes."""
    nodes = [v for v in adj if v != removed]
    root = nodes[0]
    disc = {root: 0}
    low = {root: 0}
    root_children = 0
    stack = [(root, None, iter(adj[root]))]
    while stack:
        u, parent, it = stack[-1]
        for w in it:
            if w == removed or w == parent:
                continue
            if w in disc:
                low[u] = min(low[u], disc[w])
                continue
            disc[w] = low[w] = len(disc)
            if u == root:
                root_children += 1
            stack.append((w, u, iter(adj[w])))
            break
        else:
            stack.pop()
            if parent is not None:
                low[parent] = min(low[parent], low[u])
                if parent != root and low[u] >= disc[parent]:
                    return True
    return len(disc) < len(nodes) or root_children > 1


def is_three_connected(nodes, edges) -> bool:
    """More than three nodes and no deletion of two nodes disconnects the
    graph: for every first node deleted, the rest must be connected with no
    cut vertex, which covers every choice of the second node."""
    adj = _adjacency(nodes, edges)
    if len(adj) < 4:
        return False
    return not any(_has_cut_vertex_or_split(adj, v) for v in adj)


def check_place(n: int, edges, report: dict) -> list[str]:
    """Degree rule, at least three monitors, and a 3-vertex-connected
    extended graph (two new nodes, each joined to every monitor).  The
    report's own "verified" flag is not evidence and is not read."""
    monitors = report.get("monitors")
    if not isinstance(monitors, list) or not all(isinstance(m, int) for m in monitors):
        return ["report has no monitor list"]
    nodes = range(1, n + 1)
    problems = []
    if not set(monitors) <= set(nodes) or len(set(monitors)) != len(monitors):
        problems.append(f"monitors {monitors} are not distinct graph nodes")
        return problems
    if len(monitors) < 3:
        problems.append(f"only {len(monitors)} monitors")
    degree = {v: 0 for v in nodes}
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    low_degree = sorted(v for v in nodes if degree[v] < 3 and v not in monitors)
    if low_degree:
        problems.append(f"nodes of degree < 3 left unmonitored: {low_degree}")
    v1, v2 = n + 1, n + 2
    extended = list(edges) + [(m, v) for v in (v1, v2) for m in monitors]
    if not is_three_connected(list(nodes) + [v1, v2], extended):
        problems.append("extended graph is not 3-vertex-connected")
    return problems


def _edge_key(u: int, v: int) -> str:
    return f"{min(u, v)}-{max(u, v)}"


def check_identify(edges, weights, report: dict) -> list[str]:
    """Every recovered weight equals the generating one exactly, the
    identifiable links are exactly the recovered ones, the verdict partitions
    the links, and the rank is at most the number of links."""
    truth = {_edge_key(u, v): Fraction(w) for (u, v), w in zip(edges, weights)}
    problems = []
    recovered = report.get("recovered", {})
    identifiable = set(report.get("identifiable", []))
    unidentifiable = set(report.get("unidentifiable", []))
    for key, value in recovered.items():
        if key not in truth:
            problems.append(f"recovered unknown link {key}")
        elif Fraction(value) != truth[key]:
            problems.append(f"link {key}: recovered {value}, generated {truth[key]}")
    if identifiable != set(recovered):
        problems.append("identifiable links differ from recovered links")
    if identifiable & unidentifiable or identifiable | unidentifiable != set(truth):
        problems.append("verdict does not partition the links")
    rank = report.get("rank")
    if not isinstance(rank, int) or not 0 <= rank <= len(truth):
        problems.append(f"rank {rank} outside 0..{len(truth)}")
    if report.get("fully_identifiable") != (identifiable == set(truth)):
        problems.append("fully_identifiable disagrees with the link sets")
    return problems


# ---------------------------------------------------------------------------
# the two-monitor scan: the paper's facts on one instance


def _is_cycle(adj, cycle) -> bool:
    return (
        len(cycle) >= 3
        and len(set(cycle)) == len(cycle)
        and all(cycle[i - 1] in adj.get(cycle[i], ()) for i in range(len(cycle)))
    )


def _is_path(adj, path) -> bool:
    return (
        len(path) >= 1
        and len(set(path)) == len(path)
        and all(v in adj for v in path)
        and all(b in adj[a] for a, b in zip(path, path[1:]))
    )


def _cycle_links(cycle) -> set[tuple[int, int]]:
    return {tuple(sorted((cycle[i - 1], cycle[i]))) for i in range(len(cycle))}


def _check_lemma3(adj, link, pair, w) -> list[str]:
    v, x = link
    f, c, p1, p2 = w["cycle_f"], w["cycle_c"], w["path_1"], w["path_2"]
    ok = (
        _is_cycle(adj, f)
        and _is_cycle(adj, c)
        and link in _cycle_links(f)
        and link in _cycle_links(c)
        and _is_path(adj, p1)
        and _is_path(adj, p2)
        and {p1[0], p2[0]} == set(pair)
        and not set(p1) & set(p2)
        and not {v, x} & (set(p1) | set(p2))
        and p1[-1] in f
        and p2[-1] in c
    )
    return [] if ok else [f"lemma 3 witness for {link} is malformed"]


def _check_lemma4(adj, link, pair, w) -> list[str]:
    v, x = link
    cyc, pv, px = w["cycle"], w["path_to_v"], w["path_to_w"]
    ok = (
        _is_cycle(adj, cyc)
        and link in _cycle_links(cyc)
        and not set(pair) & set(cyc)
        and _is_path(adj, pv)
        and _is_path(adj, px)
        and pv[-1] == v
        and px[-1] == x
        and {pv[0], px[0]} == set(pair)
        and not set(pv) & set(px)
    )
    return [] if ok else [f"lemma 4 witness for {link} is malformed"]


def check_scan(edges, pair, out: dict) -> list[str]:
    """The paper's facts on one two-monitor instance.

    out carries what linkscope answered: "identifiable" links, the booleans
    "condition_1", "condition_2", "prop2", and on qualifying instances
    (both conditions hold) the per-link "lemma3" and "lemma4" witnesses (as
    plain dicts, or None), the per-link "case_b" classification and the
    "nonseparating_cycles".
    """
    m1, m2 = pair
    adj = _adjacency({v for e in edges for v in e}, edges)
    links = {tuple(e) for e in edges}
    direct = tuple(sorted(pair)) if m2 in adj[m1] else None
    identifiable = set(out["identifiable"])
    exterior = {e for e in links if m1 in e or m2 in e} - {direct}
    interior = {e for e in links if m1 not in e and m2 not in e}
    problems = []
    if exterior & identifiable:
        problems.append(f"exterior links identifiable: {sorted(exterior & identifiable)}")
    if direct is not None and direct not in identifiable:
        problems.append("direct monitor link unidentifiable")
    if out["prop2"] != out["condition_2"]:
        problems.append("deletion characterization disagrees with condition 2")
    if not (out["condition_1"] and out["condition_2"]):
        return problems
    if direct is None and not interior <= identifiable:
        problems.append("both conditions hold but an interior link is unidentifiable")
    for link in sorted(interior):
        w3 = out["lemma3"].get(link)
        if w3 is None:
            problems.append(f"no lemma 3 witness for {link}")
        else:
            problems.extend(_check_lemma3(adj, link, pair, w3))
        if out["case_b"][link]:
            w4 = out["lemma4"].get(link)
            if w4 is None:
                problems.append(f"no lemma 4 witness for hard link {link}")
            else:
                problems.extend(_check_lemma4(adj, link, pair, w4))
    for cycle in out["nonseparating_cycles"]:
        if not _is_cycle(adj, cycle):
            problems.append(f"{cycle} is not a cycle")
        hard = sum(1 for e in _cycle_links(cycle) if out["case_b"].get(e, False))
        if hard > 1:
            problems.append(f"non-separating cycle {cycle} carries {hard} hard links")
    return problems
