from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from linkscope.errors import (
    DuplicateEdgeError,
    GraphParseError,
    InvalidCycleError,
    NotFoundError,
    SelfLoopError,
)
from linkscope.graph import (
    MAX_HEADER_NODES,
    Graph,
    edge,
    is_connected,
    is_simple_path,
    iter_simple_paths,
    parse_graph,
    parse_int,
    serialize,
    sorted_neighbours,
)

from linkscope.witness import all_cycles, is_nonseparating_cycle

from .conftest import k_n, path_n


class TestParse:
    def test_basic(self):
        g = parse_graph("1 2\n2 3")
        assert g.nodes == {1, 2, 3}
        assert g.edges == {(1, 2), (2, 3)}

    def test_duplicate_edge_carries_line(self):
        with pytest.raises(DuplicateEdgeError) as err:
            parse_graph("1 2\n1 2")
        assert err.value.line == 2

    def test_duplicate_edge_reversed_orientation(self):
        with pytest.raises(DuplicateEdgeError):
            parse_graph("1 2\n2 1")

    def test_self_loop(self):
        with pytest.raises(SelfLoopError) as err:
            parse_graph("1 1")
        assert err.value.line == 1

    def test_malformed(self):
        with pytest.raises(GraphParseError):
            parse_graph("1 two")
        with pytest.raises(GraphParseError):
            parse_graph("1 2 3")

    def test_comments_and_blank_lines(self):
        g = parse_graph("# a comment\n\n1 2  # trailing\n2 3\n")
        assert g.edges == {(1, 2), (2, 3)}

    def test_header_allows_isolated_nodes(self):
        g = parse_graph("nodes: 4\n1 2\n")
        assert g.nodes == {1, 2, 3, 4}
        assert g.edges == {(1, 2)}

    def test_header_must_cover_edges(self):
        with pytest.raises(GraphParseError):
            parse_graph("nodes: 2\n1 3\n")

    def test_header_after_edges_rejected(self):
        with pytest.raises(GraphParseError):
            parse_graph("1 2\nnodes: 4\n")

    def test_negative_id_rejected(self):
        with pytest.raises(GraphParseError, match="^line 1: node ids must be non-negative$"):
            parse_graph("-1 2")

    # int() reads digit-group underscores and any Unicode decimal digit
    @pytest.mark.parametrize(
        "text, err",
        [
            ("1_0 2", "malformed token in '1_0 2'"),
            ("\u0661 2", "malformed token in '\u0661 2'"),
            ("1 \uff12", "malformed token in '1 \uff12'"),
            ("nodes: 1_0\n1 2", "malformed node-count header"),
            ("nodes: \u0663\n1 2", "malformed node-count header"),
        ],
        ids=["underscore", "arabic-indic", "fullwidth", "header-underscore", "header-arabic-indic"],
    )
    def test_integer_tokens_are_ascii_digits(self, text, err):
        with pytest.raises(GraphParseError, match=f"^line 1: {err}$"):
            parse_graph(text)

    def test_header_above_limit_rejected(self):
        # rejected before the node set is allocated
        with pytest.raises(GraphParseError) as err:
            parse_graph(f"nodes: {MAX_HEADER_NODES + 1}\n1 2\n")
        assert err.value.line == 1


class TestParseInt:
    @pytest.mark.parametrize("token, value", [("7", 7), ("+7", 7), ("-7", -7), (" 12\t", 12), ("007", 7)])
    def test_accepts_sign_and_ascii_digits(self, token, value):
        assert parse_int(token) == value

    @pytest.mark.parametrize("token", ["1_0", "\u0661", "\uff11", "\u00b2", "", " ", "+", "-", "+-1", "1.0", "0x1", "1 0"])
    def test_rejects_everything_else(self, token):
        with pytest.raises(ValueError, match="^invalid integer "):
            parse_int(token)


class TestSerialize:
    def test_round_trip_k4(self):
        g = k_n(4)
        assert parse_graph(serialize(g)) == g

    def test_round_trip_isolated(self):
        g = Graph([1, 2, 3], [(1, 2)])
        assert parse_graph(serialize(g)) == g

    def test_isolated_without_contiguous_ids_rejected(self):
        with pytest.raises(ValueError):
            serialize(Graph([2, 5], []))

    @given(st.integers(2, 6), st.integers(0, 2**15 - 1))
    @settings(derandomize=True, deadline=None)
    def test_round_trip_random(self, n, mask):
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        edges = {pairs[i] for i in range(len(pairs)) if mask >> i & 1}
        g = Graph(range(1, n + 1), edges)
        assert parse_graph(serialize(g)) == g


class TestMutators:
    def test_remove_then_add_is_identity(self, k4):
        opened = Graph(k4.nodes, k4.edges - {(1, 2)})
        assert Graph(opened.nodes, opened.edges | {(2, 1)}) == k4

    def test_mutation_does_not_alias(self, c4):
        before = set(c4.edges)
        Graph(c4.nodes, c4.edges | {(1, 3)})
        assert set(c4.edges) == before

    def test_graph_is_immutable(self, k4):
        with pytest.raises(AttributeError):
            k4.nodes = frozenset()

    def test_pickle_and_copy_round_trips(self, k4):
        # fills k4's sorted neighbours and cycle table; the copies rebuild
        # their own
        all_cycles(k4)
        for g in (Graph([1, 2, 3, 9], [(1, 2), (2, 3)]), k4):
            twin = Graph(g.nodes, g.edges)
            assert g == twin and hash(g) == hash(twin)
            for h in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
                assert h == g and hash(h) == hash(g) and h.adj == g.adj
                assert not hasattr(h, "_nbrs") and not hasattr(h, "_cycles")
                assert sorted_neighbours(h) == sorted_neighbours(g)
                assert sorted_neighbours(h) is not sorted_neighbours(g)
                assert all_cycles(h) == all_cycles(g)

    def test_sorted_neighbours_not_shared_with_derived_graphs(self, k4):
        nbrs = sorted_neighbours(k4)
        assert nbrs == {1: (2, 3, 4), 2: (1, 3, 4), 3: (1, 2, 4), 4: (1, 2, 3)}
        opened = Graph(k4.nodes, k4.edges - {(1, 2)})
        sorted_neighbours(opened)
        dropped = Graph(k4.nodes - {4}, [e for e in k4.edges if 4 not in e])
        for parent, child in ((k4, dropped), (opened, Graph(opened.nodes, opened.edges | {(1, 2)}))):
            assert not hasattr(child, "_nbrs")
            assert sorted_neighbours(child) is not sorted_neighbours(parent)
            assert sorted_neighbours(child) == {v: tuple(sorted(ns)) for v, ns in child.adj.items()}
        assert sorted_neighbours(k4) is nbrs and sorted_neighbours(opened)[1] == (3, 4)


class TestQueries:
    def test_connected(self, k4):
        assert is_connected(k4)
        assert not is_connected(Graph([1, 2, 3], [(1, 2)]))
        assert is_connected(Graph([7]))
        assert is_connected(Graph())

    @pytest.mark.parametrize(
        "kwargs, bad",
        [
            ({"edges": [(-1, 2)]}, "-1"),
            ({"nodes": [-1]}, "-1"),
            # True == 1, so a set would fold node 1 into True
            ({"edges": [(True, 2), (1, 3)]}, "True"),
        ],
        ids=["negative-endpoint", "negative-node", "bool-endpoint"],
    )
    def test_every_node_id_validated(self, kwargs, bad):
        with pytest.raises(ValueError, match=f"^node ids must be non-negative integers, got {bad}$"):
            Graph(**kwargs)

    def test_self_loop_rejected_at_edge(self):
        with pytest.raises(ValueError):
            edge(3, 3)

    def test_simple_path(self, k4):
        assert is_simple_path(k4, (1, 2, 3))
        assert is_simple_path(k4, (2,))
        assert not is_simple_path(k4, (1, 2, 1))
        assert not is_simple_path(k4, ())

    # chordlessness is checked by is_nonseparating_cycle; the monitors are
    # chosen so that only the chord test can fail
    def test_induced_triangle_in_k4(self, k4):
        assert is_nonseparating_cycle(k4, (1, 2, 3), (1, 4))

    def test_induced_c4_in_k4(self, k4):
        assert not is_nonseparating_cycle(k4, (1, 2, 3, 4), (1, 2))

    def test_induced_c4(self, c4):
        assert is_nonseparating_cycle(c4, (1, 2, 3, 4), (1, 2))

    def test_induced_rejects_non_cycle(self, c4):
        with pytest.raises(InvalidCycleError):
            is_nonseparating_cycle(c4, (1, 2, 3), (1, 2))

    def test_simple_paths_lexicographic(self):
        k5 = k_n(5)
        paths = list(iter_simple_paths(k5, 1, 2))
        assert paths == sorted(paths)
        assert len(paths) == 1 + 3 + 3 * 2 + 3 * 2 * 1
        assert all(is_simple_path(k5, p) and p[0] == 1 and p[-1] == 2 for p in paths)
        assert list(iter_simple_paths(k5, 1, 2, forbidden_internal={3, 4})) == [
            (1, 2),
            (1, 5, 2),
        ]

    def test_simple_path_to_itself_is_one_node(self, k4):
        assert list(iter_simple_paths(k4, 3, 3)) == [(3,)]

    @pytest.mark.parametrize("src, dst", [(1, 9), (9, 1)], ids=["dst", "src"])
    def test_simple_paths_endpoint_outside_graph(self, k4, src, dst):
        with pytest.raises(NotFoundError, match="^path endpoints must be graph nodes$"):
            list(iter_simple_paths(k4, src, dst))

    def test_simple_paths_beyond_recursion_limit(self):
        g = path_n(3000)
        assert list(iter_simple_paths(g, 1, 3000)) == [tuple(range(1, 3001))]

