from __future__ import annotations

import json

import pytest

from linkscope.cli import main
from linkscope.corpus import named_fixtures
from linkscope.errors import NotFoundError, TooFewMonitorsError
from linkscope.graph import Graph, edge, serialize
from linkscope.tomography import (
    condition_1,
    condition_2,
    extend,
    interior_links,
    prop2_characterization,
    prop5_both_sides,
    prop6_both_sides,
    validate_monitors,
)

from .conftest import all_connected_graphs, c_n, path_n, random_connected_graph
from .oracles import brute_is_k_edge_connected, brute_prop2, menger_is_k_vertex_connected


class TestInteriorGraph:
    """The interior graph is what deleting both monitors leaves; ``check``
    reports whether it is connected and which links the deletion cuts off."""

    @staticmethod
    def check(g, monitors, tmp_path, capsys):
        f = tmp_path / "g.txt"
        f.write_text(serialize(g))
        code = main(["check", str(f), "--monitors", ",".join(map(str, monitors))])
        out = capsys.readouterr().out
        return code, json.loads(out) if code == 0 else None

    def test_k4(self, k4, tmp_path, capsys):
        code, report = self.check(k4, (1, 2), tmp_path, capsys)
        assert code == 0
        assert report["exterior_links"] == ["1-2", "1-3", "1-4", "2-3", "2-4"]
        assert report["interior_connected"] is True

    def test_triangle(self, triangle, tmp_path, capsys):
        _, report = self.check(triangle, (1, 2), tmp_path, capsys)
        assert report["exterior_links"] == ["1-2", "1-3", "2-3"]
        assert report["interior_connected"] is True
        # an interior with no nodes counts as connected
        _, report = self.check(path_n(2), (1, 2), tmp_path, capsys)
        assert report["exterior_links"] == ["1-2"]
        assert report["interior_connected"] is True

    def test_c4_opposite_monitors(self, c4, tmp_path, capsys):
        _, report = self.check(c4, (1, 3), tmp_path, capsys)
        assert report["interior_connected"] is False
        assert report["exterior_links"] == ["1-2", "1-4", "2-3", "3-4"]

    def test_monitor_validation(self, k4, tmp_path, capsys):
        assert self.check(k4, (1, 9), tmp_path, capsys)[0] == 3
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
                    joined = Graph(g.nodes, g.edges | {edge(*pair)})
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
        assert ext.node_count == 6
        assert len(ext.edges) == 12  # 6 real + 2 * 3 virtual
        assert ext.nodes - k4.nodes == {5, 6}
        assert not ext.has_edge(5, 6)

    def test_too_few_monitors(self, k4):
        with pytest.raises(TooFewMonitorsError):
            extend(k4, (1, 2))

    def test_triangle_extension(self, triangle):
        ext = extend(triangle, (1, 2, 3))
        for v in ext.nodes - triangle.nodes:
            assert ext.adj[v] == {1, 2, 3}

    def test_removing_virtuals_recovers_base(self, k4):
        ext = extend(k4, (1, 2, 3))
        virtual = ext.nodes - k4.nodes
        real = [e for e in ext.edges if not virtual & set(e)]
        assert Graph(ext.nodes - virtual, real) == k4


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

    @pytest.mark.parametrize(
        "pair, error, message",
        [
            ((1, 99), NotFoundError, r"^monitors \[99\] not in graph$"),
            ((1, 1), ValueError, r"^monitor ids must be distinct$"),
            ((1, 2, 3), ValueError, r"^operation is defined for exactly two monitors, got 3$"),
        ],
        ids=["outside-graph", "repeated", "three"],
    )
    def test_interior_links_checks_its_pair(self, k4, pair, error, message):
        with pytest.raises(error, match=message):
            interior_links(k4, pair)
