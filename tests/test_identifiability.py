from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from linkscope.corpus import all_connected_graphs, named_fixtures, random_connected_graph
from linkscope.errors import (
    InconsistentMeasurementsError,
    InvalidPathError,
    PathExplosionError,
)
from linkscope.graph import Graph
from linkscope.identifiability import (
    MeasurementVector,
    MetricAssignment,
    adjacent_links,
    build_matrix,
    check_lemma1,
    enumerate_monitor_paths,
    identifiable_links,
    recover,
    simulate,
)

from .conftest import path_n
from .oracles import fraction_identifiable_columns, fraction_rank


class TestPathEnumeration:
    def test_triangle(self, triangle):
        assert enumerate_monitor_paths(triangle, (1, 2)) == [(1, 2), (1, 3, 2)]

    def test_k4_order(self, k4):
        assert enumerate_monitor_paths(k4, (1, 2)) == [
            (1, 2),
            (1, 3, 2),
            (1, 4, 2),
            (1, 3, 4, 2),
            (1, 4, 3, 2),
        ]

    def test_cap(self, triangle):
        with pytest.raises(PathExplosionError):
            enumerate_monitor_paths(triangle, (1, 2), cap=1)

    def test_three_monitors_skip_intermediates(self):
        paths = enumerate_monitor_paths(path_n(3), (1, 2, 3))
        assert paths == [(1, 2), (2, 3)]  # 1..3 would pass through monitor 2

    def test_orientation_collapsed(self, k4):
        paths = enumerate_monitor_paths(k4, (2, 1))
        assert all(p[0] == 1 and p[-1] == 2 for p in paths)


class TestMatrix:
    def test_triangle_rows(self, triangle):
        m = build_matrix(triangle, enumerate_monitor_paths(triangle, (1, 2)))
        assert m.edge_index == ((1, 2), (1, 3), (2, 3))
        assert m.rows == ((1, 0, 0), (0, 1, 1))

    def test_k4_rows(self, k4):
        m = build_matrix(k4, enumerate_monitor_paths(k4, (1, 2)))
        assert m.edge_index == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
        assert m.rows == (
            (1, 0, 0, 0, 0, 0),
            (0, 1, 0, 1, 0, 0),
            (0, 0, 1, 0, 1, 0),
            (0, 1, 0, 0, 1, 1),
            (0, 0, 1, 1, 0, 1),
        )

    def test_empty(self, triangle):
        m = build_matrix(triangle, [])
        assert m.rows == ()
        report = identifiable_links(m)
        assert report.rank == 0
        assert report.identifiable == frozenset()
        assert report.unidentifiable == triangle.edges

    def test_single_node_path_rejected(self, triangle):
        with pytest.raises(InvalidPathError):
            build_matrix(triangle, [(1,)])

    @pytest.mark.parametrize(
        "bad",
        [(1, 2, 1), (1, 2, 3, 2), (1, 3), (1, 2, 9), (9, 1)],
        ids=["repeated", "repeated-later", "non-adjacent", "unknown-end", "unknown-start"],
    )
    def test_invalid_path_rejected(self, bad):
        c4 = Graph(edges=[(1, 2), (2, 3), (3, 4), (1, 4)])
        with pytest.raises(InvalidPathError):
            build_matrix(c4, [(1, 2), bad])


class TestIdentifiableLinks:
    def test_triangle(self, triangle):
        report = identifiable_links(build_matrix(triangle, enumerate_monitor_paths(triangle, (1, 2))))
        assert report.rank == 2
        assert report.identifiable == {(1, 2)}
        assert report.unidentifiable == {(1, 3), (2, 3)}
        assert not report.fully_identifiable

    def test_k4(self, k4):
        report = identifiable_links(build_matrix(k4, enumerate_monitor_paths(k4, (1, 2))))
        assert report.rank == 5
        assert report.identifiable == {(1, 2), (3, 4)}

    def test_deterministic(self, k4):
        m = build_matrix(k4, enumerate_monitor_paths(k4, (1, 2)))
        assert identifiable_links(m) == identifiable_links(m)

    def test_monotone_in_rows(self, k4):
        paths = enumerate_monitor_paths(k4, (1, 2))
        prev_rank, prev_good = 0, frozenset()
        for i in range(len(paths) + 1):
            report = identifiable_links(build_matrix(k4, paths[:i]))
            assert report.rank >= prev_rank
            assert prev_good <= report.identifiable
            prev_rank, prev_good = report.rank, report.identifiable

    def test_against_fraction_oracle(self):
        instances = [(g, pair) for g in all_connected_graphs(5) for pair in combinations(sorted(g.nodes), 2)]
        rng = random.Random(7)
        for g, pair in rng.sample(instances, 250):
            m = build_matrix(g, enumerate_monitor_paths(g, pair))
            report = identifiable_links(m)
            assert report.rank == fraction_rank(list(m.rows))
            want = {m.edge_index[c] for c in fraction_identifiable_columns(list(m.rows), len(m.edge_index))}
            assert report.identifiable == want


class TestSimulateRecover:
    def test_triangle_values(self, triangle):
        w = MetricAssignment.for_graph(triangle, {(1, 2): 1, (1, 3): 2, (2, 3): 3})
        matrix, vector = simulate(triangle, (1, 2), w)
        assert vector.values == (Fraction(1), Fraction(5))
        assert recover(matrix, vector) == {(1, 2): Fraction(1)}

    def test_k4_all_ones(self, k4):
        w = MetricAssignment.for_graph(k4, {e: 1 for e in k4.edges})
        matrix, vector = simulate(k4, (1, 2), w)
        assert vector.values == (Fraction(1), Fraction(2), Fraction(2), Fraction(3), Fraction(3))
        assert recover(matrix, vector) == {(1, 2): Fraction(1), (3, 4): Fraction(1)}

    def test_nonpositive_weight_rejected(self, triangle):
        with pytest.raises(ValueError):
            MetricAssignment.for_graph(triangle, {(1, 2): 0, (1, 3): 2, (2, 3): 3})

    def test_coverage_enforced(self, triangle):
        with pytest.raises(ValueError):
            MetricAssignment.for_graph(triangle, {(1, 2): 1})

    def test_inconsistent_vector(self, triangle):
        matrix = build_matrix(
            triangle, [(1, 2), (1, 3, 2), (1, 2)]
        )  # duplicate dependent row
        bad = MeasurementVector((Fraction(1), Fraction(5), Fraction(999)))
        with pytest.raises(InconsistentMeasurementsError):
            recover(matrix, bad)

    def test_recovery_exact_on_random_instances(self):
        rng = random.Random(99)
        perturbed = 0
        for trial in range(30):
            g = random_connected_graph(5 + trial % 3, 0.5, 500 + trial)
            monitors = tuple(sorted(g.nodes)[:2])
            w = MetricAssignment.for_graph(
                g, {e: Fraction(rng.randint(1, 40), rng.randint(1, 40)) for e in g.edges}
            )
            matrix, vector = simulate(g, monitors, w)
            got = recover(matrix, vector)
            report = identifiable_links(matrix)
            assert set(got) == set(report.identifiable)
            for e, value in got.items():
                assert value == w.weights[e]
            # a non-integer error on a path the other paths span contradicts them
            rows = matrix.rows
            spanned = (i for i in reversed(range(len(rows))) if fraction_rank(rows[:i] + rows[i + 1 :]) == report.rank)
            i = next(spanned, None)
            if i is None:
                continue  # every path adds rank, so no measurement is checked by the others
            off = list(vector.values)
            off[i] += Fraction(1, 997)
            with pytest.raises(InconsistentMeasurementsError):
                recover(matrix, MeasurementVector(tuple(off)))
            perturbed += 1
        assert perturbed >= 10


class TestBridgeAndExterior:
    def test_fig1a(self):
        g, monitors = named_fixtures()["fig1a_bridge"]
        assert check_lemma1(g, monitors, (4, 5))

    def test_fig1b(self):
        g, monitors = named_fixtures()["fig1b_bridge"]
        assert check_lemma1(g, monitors, (4, 5))

    def test_monitors_same_side_rejected(self):
        g, _ = named_fixtures()["fig1a_bridge"]
        with pytest.raises(ValueError):
            check_lemma1(g, (1, 2), (4, 5))

    def test_not_a_bridge_rejected(self, k4):
        with pytest.raises(ValueError):
            check_lemma1(k4, (1, 2), (3, 4))

    def test_adjacent_links(self):
        g, _ = named_fixtures()["fig1a_bridge"]
        assert adjacent_links(g, (4, 5)) == {(2, 4), (3, 4), (5, 6), (5, 7)}

    def test_corollary1_examples(self, triangle, k4):
        # no exterior link but the direct monitor-monitor one is identifiable
        for g in (triangle, k4, Graph(edges=[(1, 2)])):
            report = identifiable_links(build_matrix(g, enumerate_monitor_paths(g, (1, 2))))
            exterior = {e for e in g.edges if 1 in e or 2 in e} - {(1, 2)}
            assert exterior <= report.unidentifiable

    def test_direct_monitor_link_always_identifiable(self):
        for g in all_connected_graphs(4):
            for pair in combinations(sorted(g.nodes), 2):
                if not g.has_edge(*pair):
                    continue
                report = identifiable_links(build_matrix(g, enumerate_monitor_paths(g, pair)))
                assert pair in report.identifiable


@st.composite
def connected_instances(draw):
    n = draw(st.integers(3, 6))
    pairs = list(combinations(range(1, n + 1), 2))
    mask = draw(st.integers(0, 2 ** len(pairs) - 1))
    g = Graph(range(1, n + 1), {pairs[i] for i in range(len(pairs)) if mask >> i & 1})
    from linkscope.graph import is_connected

    if not is_connected(g):
        # fall back to a spanning path to keep the instance usable
        g = Graph(range(1, n + 1), set(g.edges) | {(i, i + 1) for i in range(1, n)})
    monitors = tuple(draw(st.permutations(range(1, n + 1)))[:2])
    return g, monitors


@given(connected_instances())
@settings(max_examples=120, deadline=None)
def test_report_properties_hold_on_arbitrary_instances(instance):
    g, monitors = instance
    matrix = build_matrix(g, enumerate_monitor_paths(g, monitors))
    report = identifiable_links(matrix)
    assert report.identifiable | report.unidentifiable == g.edges
    assert not report.identifiable & report.unidentifiable
    assert report.rank <= min(len(matrix.rows), g.edge_count)
    assert report.fully_identifiable == (report.rank == g.edge_count)
    m1, m2 = monitors
    if g.has_edge(m1, m2):
        assert (min(m1, m2), max(m1, m2)) in report.identifiable
    exterior = {e for e in g.edges if m1 in e or m2 in e} - {(min(m1, m2), max(m1, m2))}
    assert exterior <= report.unidentifiable
