from __future__ import annotations

import pytest

from linkscope.connectivity import bridges
from linkscope.corpus import named_fixtures
from linkscope.graph import is_connected
from linkscope.tomography import validate_monitors

from .conftest import all_connected_graphs, k_n, random_connected_graph


class TestExhaustive:
    def test_counts(self):
        assert sum(1 for _ in all_connected_graphs(2)) == 1
        assert sum(1 for _ in all_connected_graphs(3)) == 4
        assert sum(1 for _ in all_connected_graphs(4)) == 38
        assert sum(1 for _ in all_connected_graphs(5)) == 728

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            list(all_connected_graphs(8))
        with pytest.raises(ValueError):
            list(all_connected_graphs(0))

    def test_all_connected_and_labeled(self):
        for g in all_connected_graphs(4):
            assert g.nodes == {1, 2, 3, 4}
            assert is_connected(g)

    def test_deterministic_order(self):
        assert list(all_connected_graphs(4)) == list(all_connected_graphs(4))


class TestRandom:
    def test_full_probability_gives_complete_graph(self):
        assert random_connected_graph(4, 1.0, 123) == k_n(4)

    def test_seed_determinism(self):
        assert random_connected_graph(6, 0.5, 42) == random_connected_graph(6, 0.5, 42)

    def test_two_nodes(self):
        g = random_connected_graph(2, 0.1, 5)
        assert g.edges == {(1, 2)}

    def test_always_connected(self):
        for seed in range(10):
            assert is_connected(random_connected_graph(8, 0.2, seed))


class TestFixtures:
    def test_required_names_present(self):
        names = set(named_fixtures())
        assert {"fig1a_bridge", "fig1b_bridge", "k4_m12", "triangle_m12", "c4_m13", "bowtie"} <= names

    def test_fixtures_valid(self):
        for name, (g, monitors) in named_fixtures().items():
            assert is_connected(g), name
            validate_monitors(g, monitors)

    def test_fig1a_shape(self):
        g, monitors = named_fixtures()["fig1a_bridge"]
        assert g.node_count == 8
        assert len(g.edges) == 9
        assert (4, 5) in bridges(g)
        m1, m2 = monitors
        # monitors on opposite sides of the bridge
        side = {1, 2, 3, 4}
        assert (m1 in side) != (m2 in side)

    def test_fig1b_bridge_touches_monitor(self):
        g, monitors = named_fixtures()["fig1b_bridge"]
        assert (4, 5) in bridges(g)
        assert 5 in monitors

    def test_k4_fixture(self):
        g, monitors = named_fixtures()["k4_m12"]
        assert g == k_n(4)
        assert monitors == (1, 2)
