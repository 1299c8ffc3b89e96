from __future__ import annotations

import pytest

from linkscope.errors import DisconnectedError, InconclusiveError, NotFoundError, TooSmallError
from linkscope.graph import Graph
from linkscope.placement import mmp, verify_placement

from .conftest import G11_LINKS, STALL_EDGES, all_connected_graphs, c_n, path_n, random_connected_graph
from .oracles import minimality_probe

# Nine nodes, 22 links.  With monitors 1, 2, 3, 4, 7 and 9 the extended graph
# is 3-vertex-connected; the constructed rows reach rank 22 only at row 50,
# in round 14, after a whole turn of rounds has built nothing new.
G9_LINKS = [
    (1, 4), (1, 5), (1, 7), (1, 9), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8), (2, 9),
    (3, 4), (3, 6), (3, 9), (4, 5), (4, 6), (4, 9), (5, 6), (5, 9), (6, 7), (6, 8), (8, 9),
]


class TestMmpTraces:
    def test_c4_all_degree_two(self, c4):
        trace = mmp(c4)
        assert trace.monitors == (1, 2, 3, 4)
        assert trace.k_min == 4
        assert trace.stage1_degree_monitors == {1, 2, 3, 4}
        assert all(r.added == () for r in trace.per_triconnected)
        assert all(r.added == () for r in trace.per_biconnected)
        assert trace.topup == frozenset()

    def test_k4_topup(self, k4):
        trace = mmp(k4)
        assert trace.monitors == (1, 2, 3)
        assert trace.stage1_degree_monitors == frozenset()
        [tri] = trace.per_triconnected
        assert tri.s_t == 0 and tri.added == ()
        [bi] = trace.per_biconnected
        assert bi.c_b == 0 and bi.added == ()
        assert trace.topup == {1, 2, 3}

    def test_bowtie(self, bowtie):
        trace = mmp(bowtie)
        assert trace.monitors == (1, 2, 3, 4)
        assert trace.stage1_degree_monitors == {1, 2, 3, 4}
        # both triangle components sit at s_t + m_t = 3: no additions
        assert all(r.added == () for r in trace.per_triconnected)
        assert all(r.added == () for r in trace.per_biconnected)

    def test_path(self):
        trace = mmp(path_n(3))
        assert trace.monitors == (1, 2, 3)
        assert trace.k_min == 3

    def test_too_small(self):
        with pytest.raises(TooSmallError):
            mmp(Graph(edges=[(1, 2)]))

    def test_disconnected_rejected(self):
        # the block decomposition is the one connectivity check
        with pytest.raises(DisconnectedError, match="^graph must be connected$"):
            mmp(Graph(edges=[(1, 2), (2, 3), (1, 3), (4, 5)]))

    def test_deterministic(self, k4):
        assert mmp(k4) == mmp(k4)

    def test_seeded_reproducible(self, k4):
        a = mmp(k4, seed=11)
        b = mmp(k4, seed=11)
        assert a == b
        assert len(a.monitors) == 3

    def test_stage1_complete_on_corpus(self):
        for i, g in enumerate(all_connected_graphs(5)):
            if i % 13:
                continue
            trace = mmp(g)
            low_degree = {v for v in g.nodes if g.degree(v) < 3}
            assert low_degree <= set(trace.monitors)

    def test_count_invariant_under_relabeling(self):
        for seed in range(5):
            g = random_connected_graph(7, 0.4, 800 + seed)
            relabel = {v: (v * 3) % 7 + 1 + 20 for v in g.nodes}
            assert len(set(relabel.values())) == g.node_count
            h = Graph(relabel.values(), [(relabel[u], relabel[v]) for u, v in g.edges])
            assert mmp(g).k_min == mmp(h).k_min


class TestVerification:
    def test_examples(self, k4, c4):
        assert verify_placement(k4, mmp(k4).monitors) is True
        assert verify_placement(c4, mmp(c4).monitors) is True

    @pytest.mark.parametrize("monitors", [(), (1,), (1, 2)], ids=["none", "one", "two"])
    def test_fewer_than_three_monitors_fail(self, k4, monitors):
        assert verify_placement(k4, monitors) is False

    def test_monitors_checked_at_the_boundary(self, k4):
        with pytest.raises(NotFoundError, match=r"^monitors \[9\] not in graph$"):
            verify_placement(k4, (1, 2, 9))
        with pytest.raises(ValueError, match="^monitor ids must be distinct$"):
            verify_placement(k4, (1, 2, 2))
        # a non-member is refused even when too few monitors would fail
        with pytest.raises(NotFoundError):
            verify_placement(k4, (1, 9))

    @pytest.mark.parametrize("monitors", [(1, 2), (1, 2, 3)], ids=["two", "three"])
    def test_nonpositive_cap_rejected_up_front(self, k4, monitors):
        # checked before the monitors, as certify_full_rank checks it
        with pytest.raises(ValueError, match="^cap must be positive$"):
            verify_placement(k4, monitors, cap=0)

    def test_verified_on_random_graphs(self):
        for seed in range(12):
            g = random_connected_graph(6 + seed % 4, 0.45, 900 + seed)
            assert verify_placement(g, mmp(g).monitors) is True

    def test_evidence_names_the_deciding_check(self, k4):
        monitors = mmp(k4).monitors
        assert verify_placement(k4, monitors) is True
        assert verify_placement(k4, (1, 2)) is False
        assert verify_placement(k4, monitors, cap=1) is None

    def test_constructed_rows_settle_g9(self):
        # the least cap that settles G9 is 58: 50 rows fed over 8 rounds
        g = Graph(range(1, 10), G9_LINKS)
        monitors = (1, 2, 3, 4, 7, 9)
        assert verify_placement(g, monitors) is True
        assert verify_placement(g, monitors, cap=58) is True
        assert verify_placement(g, monitors, cap=57) is None

    @pytest.mark.parametrize(
        "links, nodes, monitors",
        [(STALL_EDGES, 32, None), (G9_LINKS, 9, (1, 2, 3, 4, 7, 9)), (G11_LINKS, 11, None)],
        ids=["stall", "g9", "g11"],
    )
    def test_stalled_input_needs_no_enumeration(self, no_path_search, links, nodes, monitors):
        g = Graph(range(1, nodes + 1), links)
        monitors = monitors or mmp(g).monitors
        assert verify_placement(g, monitors, cap=2000) is True


class TestMinimality:
    def test_k4(self, k4):
        assert minimality_probe(k4, mmp(k4).monitors)

    def test_c4(self, c4):
        assert minimality_probe(c4, mmp(c4).monitors)

    def test_budget_exhaustion(self):
        g = c_n(6)
        monitors = mmp(g).monitors  # all six nodes become monitors
        with pytest.raises(InconclusiveError):
            minimality_probe(g, monitors, budget=3)

    def test_small_corpus(self):
        for i, g in enumerate(all_connected_graphs(5)):
            if i % 17:
                continue
            assert minimality_probe(g, mmp(g).monitors)
