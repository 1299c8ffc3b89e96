from __future__ import annotations

import pytest

from linkscope.corpus import all_connected_graphs, named_fixtures, random_connected_graph
from linkscope.errors import NotFoundError, TooFewMonitorsError
from linkscope.graph import Graph, add_edge, remove_node
from linkscope.tomography import (
    condition_1,
    condition_2,
    extend,
    interior_graph,
    interior_links,
    prop2_characterization,
    prop5_both_sides,
    prop6_both_sides,
    validate_monitors,
)

from .conftest import c_n, path_n
from .oracles import brute_is_k_edge_connected, brute_prop2, menger_is_k_vertex_connected


class TestInteriorGraph:
    def test_k4(self, k4):
        ig = interior_graph(k4, (1, 2))
        assert ig.graph.nodes == {3, 4}
        assert ig.graph.edges == {(3, 4)}
        assert ig.exterior_links == {(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)}
        assert ig.connected

    def test_triangle(self, triangle):
        ig = interior_graph(triangle, (1, 2))
        assert ig.graph.nodes == {3}
        assert ig.graph.edges == frozenset()
        assert ig.exterior_links == triangle.edges

    def test_c4_opposite_monitors(self, c4):
        ig = interior_graph(c4, (1, 3))
        assert ig.graph.nodes == {2, 4}
        assert ig.graph.edges == frozenset()
        assert not ig.connected
        assert ig.exterior_links == c4.edges

    def test_monitor_validation(self, k4):
        with pytest.raises(NotFoundError):
            interior_graph(k4, (1, 9))
        with pytest.raises(ValueError):
            validate_monitors(k4, (1, 1))


class TestConditions:
    def test_condition_1_k4(self, k4):
        assert condition_1(k4, (1, 2))

    def test_condition_1_bridge_instance(self):
        g, monitors = named_fixtures()["fig1a_bridge"]
        assert not condition_1(g, monitors)

    def test_condition_1_vacuous_on_empty_interior(self, triangle):
        assert condition_1(triangle, (1, 2))

    def test_condition_1_matches_definition_on_corpus(self):
        import itertools

        for n in (4, 5):
            for g in all_connected_graphs(n):
                for pair in itertools.combinations(sorted(g.nodes), 2):
                    want = all(
                        brute_is_k_edge_connected(Graph(g.nodes, g.edges - {e}), 2)
                        for e in interior_links(g, pair)
                    )
                    assert condition_1(g, pair) == want, (sorted(g.edges), pair)

    def test_condition_2(self, k4, c4):
        assert condition_2(k4, (1, 2))
        assert not condition_2(c4, (1, 3))
        assert not condition_2(c_n(5), (1, 2))

    def test_condition_2_matches_menger_on_corpus(self):
        import itertools

        for n in (4, 5):
            for g in all_connected_graphs(n):
                for pair in itertools.combinations(sorted(g.nodes), 2):
                    joined = g if g.has_edge(*pair) else add_edge(g, *pair)
                    want = menger_is_k_vertex_connected(joined, 3)
                    assert condition_2(g, pair) == want, (sorted(g.edges), pair)

    def test_prop2_examples(self, k4, c4):
        assert prop2_characterization(k4, (1, 2))
        assert not prop2_characterization(c4, (1, 3))
        assert not prop2_characterization(c4, (1, 2))

    def test_prop2_needs_four_nodes(self, triangle):
        with pytest.raises(ValueError):
            prop2_characterization(triangle, (1, 2))

    def test_prop2_matches_condition2_on_corpus(self):
        import itertools

        for g in all_connected_graphs(5):
            for pair in itertools.combinations(sorted(g.nodes), 2):
                assert condition_2(g, pair) == prop2_characterization(g, pair)

    def test_prop2_matches_definition(self):
        # every two-monitor instance on 4-5 nodes and a seeded sample on 6;
        # the degree exit decides most of them, so count the ones it cannot
        import itertools
        import random

        six = random.Random(15).sample(list(all_connected_graphs(6)), 300)
        walked = 0
        for g in [*all_connected_graphs(4), *all_connected_graphs(5), *six]:
            for pair in itertools.combinations(sorted(g.nodes), 2):
                want = brute_prop2(g, pair)
                assert prop2_characterization(g, pair) == want, (sorted(g.edges), pair)
                walked += all(len(g.adj[v]) > 2 for v in g.nodes if v not in pair)
        assert walked > 100


class TestExtendedGraph:
    def test_k4_extension_counts(self, k4):
        ext = extend(k4, (1, 2, 3))
        assert ext.graph.node_count == 6
        assert ext.graph.edge_count == 12  # 6 real + 2 * 3 virtual
        assert ext.virtual_1 == 5 and ext.virtual_2 == 6
        assert not ext.graph.has_edge(ext.virtual_1, ext.virtual_2)

    def test_too_few_monitors(self, k4):
        with pytest.raises(TooFewMonitorsError):
            extend(k4, (1, 2))

    def test_triangle_extension(self, triangle):
        ext = extend(triangle, (1, 2, 3))
        for m in (1, 2, 3):
            assert ext.graph.has_edge(ext.virtual_1, m)
            assert ext.graph.has_edge(ext.virtual_2, m)

    def test_removing_virtuals_recovers_base(self, k4):
        ext = extend(k4, (1, 2, 3))
        assert remove_node(remove_node(ext.graph, ext.virtual_1), ext.virtual_2) == k4


class TestExtendedEquivalences:
    def test_k4(self, k4):
        assert prop5_both_sides(k4, (1, 2, 3)) == (True, True)
        assert prop6_both_sides(k4, (1, 2, 3)) == (True, True)

    def test_path3_all_monitored(self):
        # the oracle settles both sides at once; equality is the contract
        assert prop5_both_sides(path_n(3), (1, 2, 3)) == (True, True)

    def test_star_leaf_monitors(self):
        star = Graph(edges=[(4, 1), (4, 2), (4, 3)])
        lhs, rhs = prop5_both_sides(star, (1, 2, 3))
        assert lhs == rhs

    def test_bowtie_and_cycles(self, bowtie):
        for g, monitors in [(bowtie, (1, 2, 3)), (c_n(6), (1, 3, 5)), (c_n(6), (1, 2, 3))]:
            lhs5, rhs5 = prop5_both_sides(g, monitors)
            lhs6, rhs6 = prop6_both_sides(g, monitors)
            assert lhs5 == rhs5
            assert lhs6 == rhs6

    def test_random_instances(self):
        for seed in range(25):
            n = 5 + seed % 5
            g = random_connected_graph(n, 0.3 + 0.1 * (seed % 4), 300 + seed)
            monitors = tuple(sorted(g.nodes)[: 3 + seed % 2])
            lhs5, rhs5 = prop5_both_sides(g, monitors)
            lhs6, rhs6 = prop6_both_sides(g, monitors)
            assert lhs5 == rhs5
            assert lhs6 == rhs6

    def test_interior_links_helper(self, k4):
        assert interior_links(k4, (1, 2)) == {(3, 4)}
