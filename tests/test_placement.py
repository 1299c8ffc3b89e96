from __future__ import annotations

import pytest

from linkscope.corpus import all_connected_graphs, random_connected_graph
from linkscope.errors import InconclusiveError, TooSmallError
from linkscope.graph import Graph
from linkscope import placement
from linkscope.placement import LOWEST, PlacementTrace, TieBreak, minimality_probe, mmp, verify_placement

from .conftest import STALL_EDGES, c_n, path_n


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

    def test_deterministic(self, k4):
        assert mmp(k4) == mmp(k4)

    def test_seeded_reproducible(self, k4):
        a = mmp(k4, TieBreak("seeded", 11))
        b = mmp(k4, TieBreak("seeded", 11))
        assert a == b
        assert len(a.monitors) == 3

    def test_seeded_needs_seed(self):
        with pytest.raises(ValueError):
            TieBreak("seeded")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            TieBreak("random", 3)

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
        assert verify_placement(k4, mmp(k4))
        assert verify_placement(c4, mmp(c4))

    def test_two_monitor_trace_fails(self, k4):
        trace = mmp(k4)
        forced = PlacementTrace(
            monitors=(1, 2),
            stage1_degree_monitors=frozenset(),
            per_triconnected=(),
            per_biconnected=(),
            topup=frozenset(),
            k_min=2,
            tiebreak=LOWEST,
            decomposition=trace.decomposition,
        )
        assert verify_placement(k4, trace)
        assert not verify_placement(k4, forced)

    def test_verified_on_random_graphs(self):
        for seed in range(12):
            g = random_connected_graph(6 + seed % 4, 0.45, 900 + seed)
            assert verify_placement(g, mmp(g))

    def test_evidence_names_the_deciding_check(self, k4):
        trace = mmp(k4)
        evidence = []
        assert verify_placement(k4, trace, evidence=evidence) is True
        assert verify_placement(k4, trace._replace(monitors=(1, 2)), evidence=evidence) is False
        assert verify_placement(k4, trace, cap=1, evidence=evidence) is None
        assert evidence == ["constructed paths", "extended graph", None]

    def test_enumeration_decides_when_constructed_paths_fall_short(self, k4, monkeypatch):
        # K4 with monitors 1, 2, 3 has six measurement paths; three rows fed
        # to a certificate that fell short leave cap - 3 for the enumeration
        monkeypatch.setattr(placement, "certify_full_rank", lambda g, ms, cap: (False, 3))
        evidence = []
        assert verify_placement(k4, mmp(k4), cap=9, evidence=evidence) is True
        assert verify_placement(k4, mmp(k4), cap=8, evidence=evidence) is None
        assert verify_placement(k4, mmp(k4), cap=3, evidence=evidence) is None
        assert evidence == ["path enumeration", None, None]

    def test_stalled_input_needs_no_enumeration(self, monkeypatch):
        def stall(*args, **kwargs):
            raise AssertionError("fell back to path enumeration")

        monkeypatch.setattr(placement, "enumerate_monitor_paths", stall)
        g = Graph(range(1, 33), STALL_EDGES)
        assert verify_placement(g, mmp(g), cap=2000) is True


class TestMinimality:
    def test_k4(self, k4):
        assert minimality_probe(k4, mmp(k4))

    def test_c4(self, c4):
        assert minimality_probe(c4, mmp(c4))

    def test_budget_exhaustion(self):
        g = c_n(6)
        trace = mmp(g)  # all six nodes become monitors
        with pytest.raises(InconclusiveError):
            minimality_probe(g, trace, budget=3)

    def test_small_corpus(self):
        for i, g in enumerate(all_connected_graphs(5)):
            if i % 17:
                continue
            assert minimality_probe(g, mmp(g))
