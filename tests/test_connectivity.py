from __future__ import annotations

import pytest

from linkscope.connectivity import (
    bridges,
    cut_vertices,
    is_k_edge_connected,
    is_k_vertex_connected,
    vertex_connectivity,
)
from linkscope.errors import DisconnectedError
from linkscope.graph import Graph

from .conftest import all_connected_graphs, c_n, k_n, path_n, random_connected_graph
from .oracles import (
    brute_bridges,
    brute_cut_vertices,
    brute_is_k_edge_connected,
    menger_is_k_vertex_connected,
)


class TestBridges:
    def test_path(self):
        assert bridges(path_n(3)) == {(1, 2), (2, 3)}

    def test_cycle_has_none(self, c4):
        assert bridges(c4) == frozenset()

    def test_joined_triangles(self):
        g = Graph(edges=[(1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (4, 6), (5, 6)])
        assert brute_bridges(g) == {(3, 4)}
        assert bridges(g) == {(3, 4)}

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedError):
            bridges(Graph([1, 2, 3], [(1, 2)]))


class TestCutVertices:
    def test_bowtie(self, bowtie):
        assert cut_vertices(bowtie) == {5}

    def test_k4(self, k4):
        assert cut_vertices(k4) == frozenset()

    def test_path(self):
        assert cut_vertices(path_n(4)) == {2, 3}

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedError):
            cut_vertices(Graph([1, 2, 3], [(1, 2)]))


class TestKConnectivity:
    def test_k4_three_connected(self, k4):
        assert is_k_vertex_connected(k4, 3)
        assert not is_k_vertex_connected(k4, 4)

    def test_c5(self):
        assert is_k_vertex_connected(c_n(5), 2)
        assert not is_k_vertex_connected(c_n(5), 3)

    def test_c4_with_chord(self, c4):
        g = Graph(c4.nodes, c4.edges | {(1, 3)})
        assert not is_k_vertex_connected(g, 3)  # deleting {1,3} separates 2 from 4

    def test_edge_connectivity(self, c4, k4):
        assert is_k_edge_connected(c4, 2)
        assert not is_k_edge_connected(c4, 3)
        assert is_k_edge_connected(k4, 3)
        assert not is_k_edge_connected(path_n(4), 2)

    def test_k_must_be_positive(self, k4):
        with pytest.raises(ValueError):
            is_k_vertex_connected(k4, 0)
        with pytest.raises(ValueError):
            is_k_edge_connected(k4, 0)

    def test_vertex_connectivity_values(self, k4, c4, bowtie):
        assert vertex_connectivity(k4) == 3
        assert vertex_connectivity(bowtie) == 1
        assert vertex_connectivity(c4) == 2
        assert vertex_connectivity(Graph([1])) == 0
        assert vertex_connectivity(k_n(2)) == 1

    def test_monotone_in_k(self):
        for g in (k_n(5), c_n(6), path_n(5)):
            values = [is_k_vertex_connected(g, k) for k in range(1, 6)]
            assert values == sorted(values, reverse=True)


class TestOracleAgreement:
    def test_small_corpus(self):
        graphs = [g for n in range(1, 6) for g in all_connected_graphs(n)]
        graphs += [g for i, g in enumerate(all_connected_graphs(6)) if i % 201 == 0]
        for g in graphs:
            assert bridges(g) == brute_bridges(g)
            assert cut_vertices(g) == brute_cut_vertices(g)
            for k in range(1, g.node_count + 2):
                assert is_k_vertex_connected(g, k) == menger_is_k_vertex_connected(g, k)
                assert is_k_edge_connected(g, k) == brute_is_k_edge_connected(g, k)

    def test_random_ten_node_graphs(self):
        for seed in range(8):
            g = random_connected_graph(10, 0.3 + 0.06 * seed, seed)
            assert bridges(g) == brute_bridges(g)
            assert cut_vertices(g) == brute_cut_vertices(g)
            for k in (2, 3):
                assert is_k_vertex_connected(g, k) == menger_is_k_vertex_connected(g, k)

    def test_random_thirty_node_graphs(self):
        verdicts = []
        for seed in range(6):
            g = random_connected_graph(30, (0.1, 0.15, 0.2)[seed % 3], 500 + seed)
            verdicts.append(is_k_vertex_connected(g, 3))
            assert verdicts[-1] == menger_is_k_vertex_connected(g, 3)
        assert True in verdicts and False in verdicts

    def test_three_connected_iff_connectivity_at_least_three(self):
        for g in all_connected_graphs(5):
            assert (vertex_connectivity(g) >= 3) == is_k_vertex_connected(g, 3)



class TestDegreeExits:
    """A node of degree below k answers False before any DFS (Whitney:
    vertex connectivity <= edge connectivity <= minimum degree).  The
    connected corpus is in TestOracleAgreement.test_small_corpus."""

    def test_disconnected_graphs(self):
        for g in (
            Graph([1, 2]),
            Graph([1, 2, 3], [(1, 2)]),
            Graph(edges=[(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)]),
            Graph([*k_n(4).nodes, 5], k_n(4).edges),
            Graph(edges=[*k_n(4).edges, *k_n(4, start=5).edges]),
        ):
            for k in range(1, 5):
                assert not is_k_vertex_connected(g, k) and not menger_is_k_vertex_connected(g, k)
                assert not is_k_edge_connected(g, k) and not brute_is_k_edge_connected(g, k)

    def test_single_node_is_k_edge_connected_for_every_k(self):
        single = Graph([1])
        for k in range(1, 6):
            assert is_k_edge_connected(single, k)
            assert not is_k_vertex_connected(single, k)

    def test_k2(self):
        k2 = k_n(2)
        assert is_k_vertex_connected(k2, 1) and is_k_edge_connected(k2, 1)
        assert not is_k_vertex_connected(k2, 2) and not is_k_edge_connected(k2, 2)

    def test_complete_graph_on_k_plus_one_nodes(self):
        # every degree equals k: the bound is met, not missed
        for k in range(1, 8):
            g = k_n(k + 1)
            assert is_k_vertex_connected(g, k) and is_k_edge_connected(g, k)
            assert not is_k_vertex_connected(g, k + 1) and not is_k_edge_connected(g, k + 1)

    def test_two_k5s_joined_by_two_disjoint_edges(self):
        # minimum degree 4 passes the degree exit up to k = 4, but the two
        # joining edges, and either pair of their ends, are 2-cuts
        g = Graph(edges=[*k_n(5).edges, *k_n(5, start=6).edges, (1, 6), (2, 7)])
        for k in range(1, 6):
            assert is_k_vertex_connected(g, k) == (k <= 2) == menger_is_k_vertex_connected(g, k)
            assert is_k_edge_connected(g, k) == (k <= 2) == brute_is_k_edge_connected(g, k)
        assert vertex_connectivity(g) == 2
