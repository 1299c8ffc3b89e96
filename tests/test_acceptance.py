"""Acceptance suite.

Each test here implements one exit criterion at its stated scale and prints a
PASS line with the counts it covered.  Two corpus-wide scans carry most of
the load and are shared across criteria:

* the instance scan walks every 2-monitor configuration of every connected
  graph on 2..6 labeled nodes (all ~4.1e5 of them), evaluating the rank
  oracle, both connectivity conditions, the deletion characterization, and
  the full cycle/path witness machinery on qualifying instances;
* the placement scan walks every connected graph on 3..6 nodes, running the
  placement, its verification, the minimality probe, and the decomposition
  cross-check against the independently coded reference splitter.

Both scans fan out over a small process pool; all instances are enumerated
deterministically, so reruns are bit-stable.
"""

from __future__ import annotations

import multiprocessing as mp
from fractions import Fraction
from itertools import combinations
from random import Random

import pytest

from linkscope.corpus import named_fixtures
from linkscope.decomposition import biconnected_components, triconnected_components
from linkscope.errors import PathExplosionError
from linkscope.graph import Graph, cycle_edges, edge, is_connected
from linkscope.identifiability import (
    build_matrix,
    enumerate_monitor_paths,
    identifiable_links,
    recover,
    simulate,
)
from linkscope.placement import mmp, verify_placement
from linkscope.tomography import (
    condition_1,
    condition_2,
    interior_links,
    prop2_characterization,
    prop5_both_sides,
    prop6_both_sides,
)
from linkscope.witness import (
    all_cycles,
    find_lemma3_witness,
    find_lemma4_witness,
    is_case_b_link,
    is_nonseparating_cycle,
)

from .conftest import all_connected_graphs, random_connected_graph
from .oracles import check_lemma1, minimality_probe, reference_split_components

SCAN_CAP = 100000
RANDOM_PLACEMENT_COUNT = 300
RANDOM_EQUIVALENCE_COUNT = 300
RECOVERY_COUNT = 200
WITNESS_RANDOM_GRAPHS = 40


def _merge(into: dict, part: dict) -> None:
    for key, value in part.items():
        if isinstance(value, list):
            into.setdefault(key, [])
            room = 5 - len(into[key])
            if room > 0:
                into[key].extend(value[:room])
        else:
            into[key] = into.get(key, 0) + value


def _instance_worker(batch: list[tuple[tuple, tuple[int, int]]]) -> dict:
    out = {
        "instances": 0,
        "corollary1_ok": 0,
        "direct_link_ok": 0,
        "prop2_checked": 0,
        "prop2_ok": 0,
        "prop1_checked": 0,
        "prop1_ok": 0,
        "sufficiency_checked": 0,
        "sufficiency_ok": 0,
        "qualifying": 0,
        "lemma3_links": 0,
        "lemma3_ok": 0,
        "caseb_links": 0,
        "lemma4_ok": 0,
        "cycles_checked": 0,
        "bound_ok": 0,
        "failures": [],
    }
    for edges, pair in batch:
        g = Graph(edges=edges)
        out["instances"] += 1
        report = identifiable_links(build_matrix(g, enumerate_monitor_paths(g, pair, SCAN_CAP)))
        m1, m2 = pair
        direct = edge(m1, m2) if g.has_edge(m1, m2) else None
        exterior = {e for e in g.edges if m1 in e or m2 in e} - {direct}
        if exterior <= report.unidentifiable:
            out["corollary1_ok"] += 1
        else:
            out["failures"].append(("corollary1", sorted(g.edges), pair))
        if direct is None or direct in report.identifiable:
            out["direct_link_ok"] += 1
        else:
            out["failures"].append(("direct_link", sorted(g.edges), pair))

        cond2 = condition_2(g, pair)
        if g.node_count >= 4:
            out["prop2_checked"] += 1
            if prop2_characterization(g, pair) == cond2:
                out["prop2_ok"] += 1
            else:
                out["failures"].append(("prop2", sorted(g.edges), pair))

        interior = interior_links(g, pair)
        # the necessity direction carries the model's standing assumption of
        # a connected interior graph (a pendant hanging off a monitor leaves
        # the interior identifiable while breaking 3-connectivity)
        if (
            g.node_count >= 4
            and is_connected(Graph(g.nodes - set(pair), interior))
            and interior <= report.identifiable
        ):
            out["prop1_checked"] += 1
            if cond2:
                out["prop1_ok"] += 1
            else:
                out["failures"].append(("prop1", sorted(g.edges), pair))

        cond1 = condition_1(g, pair)
        if cond1 and cond2:
            # the sufficiency direction additionally assumes no direct
            # monitor-monitor link: a triangular prism with both monitors on
            # one rung satisfies both conditions, yet shifting weight between
            # the two far rungs and the monitor-side triangle preserves every
            # path sum
            if not g.has_edge(m1, m2):
                out["sufficiency_checked"] += 1
                if interior <= report.identifiable:
                    out["sufficiency_ok"] += 1
                else:
                    out["failures"].append(("sufficiency", sorted(g.edges), pair))
            _witness_block(out, g, pair, interior)
    return out


def _witness_block(out: dict, g: Graph, pair: tuple[int, int], interior) -> None:
    out["qualifying"] += 1
    caseb = {}
    for vw in sorted(interior):
        out["lemma3_links"] += 1
        if find_lemma3_witness(g, vw, pair) is not None:
            out["lemma3_ok"] += 1
        else:
            out["failures"].append(("lemma3", sorted(g.edges), pair, vw))
        caseb[vw] = is_case_b_link(g, vw, pair)
    for vw, hard in sorted(caseb.items()):
        if not hard:
            continue
        out["caseb_links"] += 1
        if find_lemma4_witness(g, vw, pair) is not None:
            out["lemma4_ok"] += 1
        else:
            out["failures"].append(("lemma4", sorted(g.edges), pair, vw))
    for cyc in all_cycles(g):
        if not is_nonseparating_cycle(g, cyc, pair):
            continue
        out["cycles_checked"] += 1
        if sum(1 for e in cycle_edges(cyc) if caseb.get(e, False)) <= 1:
            out["bound_ok"] += 1
        else:
            out["failures"].append(("caseb_bound", sorted(g.edges), pair, cyc))


def _placement_worker(batch: list[tuple]) -> dict:
    out = {
        "graphs": 0,
        "verified": 0,
        "minimal": 0,
        "decomp_blocks": 0,
        "decomp_ok": 0,
        "failures": [],
    }
    for edges in batch:
        g = Graph(edges=edges)
        out["graphs"] += 1
        monitors = mmp(g).monitors
        if verify_placement(g, monitors, cap=SCAN_CAP):
            out["verified"] += 1
        else:
            out["failures"].append(("verify", sorted(g.edges)))
        if minimality_probe(g, monitors, budget=10000, cap=SCAN_CAP):
            out["minimal"] += 1
        else:
            out["failures"].append(("minimality", sorted(g.edges)))
        for block in biconnected_components(g):
            if len(block.nodes) < 3:
                continue
            out["decomp_blocks"] += 1
            got = {
                (c.nodes, c.real_edges, c.virtual_edges)
                for c in triconnected_components(block)
            }
            want = set(reference_split_components(block.nodes, block.edges))
            if got == want:
                out["decomp_ok"] += 1
            else:
                out["failures"].append(("decomp", sorted(g.edges), sorted(block.nodes)))
    return out


def _chunks(items: list, size: int) -> list[list]:
    return [items[i : i + size] for i in range(0, len(items), size)]


def _pooled(worker, batches: list[list]) -> dict:
    total: dict = {}
    if not batches:
        return total
    with mp.get_context("fork").Pool(processes=2) as pool:
        for part in pool.imap_unordered(worker, batches):
            _merge(total, part)
    return total


@pytest.fixture(scope="session")
def instance_scan() -> dict:
    instances = []
    for n in range(2, 7):
        for g in all_connected_graphs(n):
            edges = tuple(sorted(g.edges))
            for pair in combinations(range(1, n + 1), 2):
                instances.append((edges, pair))
    return _pooled(_instance_worker, _chunks(instances, 4000))


@pytest.fixture(scope="session")
def placement_scan() -> dict:
    graphs = []
    for n in range(3, 7):
        for g in all_connected_graphs(n):
            graphs.append(tuple(sorted(g.edges)))
    return _pooled(_placement_worker, _chunks(graphs, 400))


def _random_placement_instances() -> list[Graph]:
    out = []
    for i in range(RANDOM_PLACEMENT_COUNT):
        n = 7 + i % 4
        p = (0.25, 0.4, 0.6, 0.85)[(i // 4) % 4]
        out.append(random_connected_graph(n, p, 1000 + i))
    return out


class TestAcceptance:
    def test_criterion_1_placement_sufficiency(self, placement_scan):
        # below the placement's domain, the failure is loud
        from linkscope.errors import TooSmallError

        for g in list(all_connected_graphs(1)) + list(all_connected_graphs(2)):
            with pytest.raises(TooSmallError):
                mmp(g)
        assert placement_scan["verified"] == placement_scan["graphs"], placement_scan["failures"]
        randoms = _random_placement_instances()
        for g in randoms:
            assert verify_placement(g, mmp(g).monitors, cap=SCAN_CAP), sorted(g.edges)
        assert (placement_scan["graphs"], len(randoms)) == (27474, 300)
        print(
            f"\nC1 placement sufficiency: PASS "
            f"({placement_scan['graphs']} exhaustive graphs on 3-6 nodes, "
            f"{len(randoms)} random graphs on 7-10 nodes)"
        )

    def test_criterion_2_placement_minimality(self, placement_scan):
        assert placement_scan["minimal"] == placement_scan["graphs"], placement_scan["failures"]
        assert placement_scan["graphs"] == 27474
        print(
            f"\nC2 placement minimality: PASS "
            f"({placement_scan['graphs']} exhaustive graphs, no smaller monitor set suffices)"
        )

    def test_criterion_3_bridge_unidentifiability(self):
        fixtures = named_fixtures()
        for name in ("fig1a_bridge", "fig1b_bridge"):
            g, monitors = fixtures[name]
            assert check_lemma1(g, monitors, (4, 5)), name
        print("\nC3 bridge unidentifiability: PASS (both bridge fixtures)")

    def test_criterion_4_exterior_links(self, instance_scan):
        assert instance_scan["corollary1_ok"] == instance_scan["instances"], instance_scan["failures"]
        assert instance_scan["direct_link_ok"] == instance_scan["instances"], instance_scan["failures"]
        assert instance_scan["instances"] == 408081
        print(
            f"\nC4 exterior links unidentifiable, direct link identifiable: PASS "
            f"({instance_scan['instances']} two-monitor instances)"
        )

    def test_criterion_5_deletion_characterization(self, instance_scan):
        assert instance_scan["prop2_ok"] == instance_scan["prop2_checked"], instance_scan["failures"]
        assert instance_scan["prop2_checked"] == 408068
        print(
            f"\nC5 deletion characterization equivalence: PASS "
            f"({instance_scan['prop2_checked']} instances with >= 4 nodes)"
        )

    def test_criterion_6_extended_graph_equivalences(self):
        rng = Random(2024)
        checked = 0
        for i in range(RANDOM_EQUIVALENCE_COUNT):
            n = 5 + i % 6
            p = (0.3, 0.45, 0.6)[i % 3]
            g = random_connected_graph(n, p, 5000 + i)
            k = 3 + i % 3
            monitors = tuple(sorted(rng.sample(sorted(g.nodes), min(k, n))))
            lhs5, rhs5 = prop5_both_sides(g, monitors)
            lhs6, rhs6 = prop6_both_sides(g, monitors)
            assert lhs5 == rhs5, (sorted(g.edges), monitors)
            assert lhs6 == rhs6, (sorted(g.edges), monitors)
            checked += 1
        assert checked == 300
        print(f"\nC6 extended-graph equivalences: PASS ({checked} random instances)")

    def test_criterion_7_identifiability_needs_condition2(self, instance_scan):
        assert instance_scan["prop1_ok"] == instance_scan["prop1_checked"], instance_scan["failures"]
        assert instance_scan["prop1_checked"] == 39032
        print(
            f"\nC7 identifiable interior implies condition 2: PASS "
            f"({instance_scan['prop1_checked']} instances with connected, identifiable interior)"
        )

    def test_conditions_sufficiency_oracle(self, instance_scan):
        # companion invariant to C7: under both conditions (and no direct
        # monitor link), the rank oracle confirms every interior link
        # identifiable
        assert instance_scan["sufficiency_ok"] == instance_scan["sufficiency_checked"], instance_scan["failures"]
        assert instance_scan["sufficiency_checked"] == 19516
        print(
            f"\nConditions sufficiency (oracle): PASS "
            f"({instance_scan['sufficiency_checked']} qualifying instances)"
        )

    def test_criterion_8_witness_structures(self, instance_scan):
        assert instance_scan["lemma3_ok"] == instance_scan["lemma3_links"], instance_scan["failures"]
        assert instance_scan["lemma4_ok"] == instance_scan["caseb_links"], instance_scan["failures"]
        assert instance_scan["bound_ok"] == instance_scan["cycles_checked"], instance_scan["failures"]

        # extend beyond the exhaustive range with seeded 7- and 8-node graphs
        extra = {"qualifying": 0, "lemma3_links": 0, "lemma3_ok": 0, "caseb_links": 0,
                 "lemma4_ok": 0, "cycles_checked": 0, "bound_ok": 0, "failures": []}
        rng = Random(77)
        for i in range(WITNESS_RANDOM_GRAPHS):
            n = 7 + i % 2
            p = (0.5, 0.62, 0.45, 0.56)[i % 4]
            g = random_connected_graph(n, p, 7000 + i)
            pairs = sorted(rng.sample(list(combinations(sorted(g.nodes), 2)), 3))
            for pair in pairs:
                if not (condition_1(g, pair) and condition_2(g, pair)):
                    continue
                _witness_block(extra, g, pair, interior_links(g, pair))
        assert extra["lemma3_ok"] == extra["lemma3_links"], extra["failures"]
        assert extra["lemma4_ok"] == extra["caseb_links"], extra["failures"]
        assert extra["bound_ok"] == extra["cycles_checked"], extra["failures"]
        counts = [instance_scan[key] + extra[key] for key in ("lemma3_links", "caseb_links", "cycles_checked")]
        assert (instance_scan["qualifying"], extra["qualifying"], *counts) == (39212, 54, 175902, 4380, 226772)
        print(
            f"\nC8 witness structures: PASS "
            f"({instance_scan['qualifying']} exhaustive + {extra['qualifying']} random qualifying instances; "
            f"{counts[0]} links, {counts[1]} hard-case links, {counts[2]} non-separating cycles)"
        )

    def test_criterion_9_recovery_exactness(self):
        rng = Random(1234)
        checked = 0
        for trial in range(RECOVERY_COUNT):
            n = 4 + trial % 5
            p = (0.4, 0.55, 0.7)[trial % 3]
            g = random_connected_graph(n, p, 9000 + trial)
            nodes = sorted(g.nodes)
            if trial % 3 == 0 and n >= 5:
                monitors = tuple(rng.sample(nodes, 3))
            else:
                monitors = tuple(rng.sample(nodes, 2))
            weights = {e: Fraction(rng.randint(1, 60), rng.randint(1, 60)) for e in g.edges}
            try:
                matrix, values = simulate(g, monitors, weights, cap=SCAN_CAP)
            except PathExplosionError:
                continue
            report, recovered = recover(matrix, values)
            assert report == identifiable_links(matrix)
            assert set(recovered) == set(report.identifiable)
            for e, value in recovered.items():
                assert value == weights[e], (sorted(g.edges), monitors, e)
            checked += 1
        assert checked == 200
        print(f"\nC9 recovery exactness: PASS ({checked} seeded instances, zero tolerance)")

    def test_criterion_10_decomposition_oracle(self, placement_scan):
        assert placement_scan["decomp_ok"] == placement_scan["decomp_blocks"], placement_scan["failures"]
        extra_blocks = 0
        for g in _random_placement_instances():
            for block in biconnected_components(g):
                if len(block.nodes) < 3:
                    continue
                extra_blocks += 1
                got = {
                    (c.nodes, c.real_edges, c.virtual_edges)
                    for c in triconnected_components(block)
                }
                assert got == set(reference_split_components(block.nodes, block.edges)), sorted(
                    block.edges
                )
        assert (placement_scan["decomp_blocks"], extra_blocks) == (27189, 298)
        print(
            f"\nC10 decomposition oracle agreement: PASS "
            f"({placement_scan['decomp_blocks']} exhaustive + {extra_blocks} random blocks)"
        )
