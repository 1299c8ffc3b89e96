from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from linkscope.connectivity import is_k_vertex_connected
from linkscope.corpus import all_connected_graphs, named_fixtures, random_connected_graph
from linkscope.errors import (
    InconsistentMeasurementsError,
    InvalidPathError,
    PathExplosionError,
)
from linkscope.graph import Graph
from linkscope.placement import mmp
from linkscope.tomography import extend
from linkscope.identifiability import (
    MeasurementVector,
    MetricAssignment,
    adjacent_links,
    build_matrix,
    certify_full_rank,
    check_lemma1,
    constructed_paths,
    enumerate_monitor_paths,
    identifiable_links,
    _Reducer,
    recover,
    simulate,
)

from .conftest import path_n
from .oracles import fraction_identifiable_columns, fraction_rank, reference_path_sums, reference_rref


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


class TestConstructedPaths:
    def test_k4_three_monitors(self, k4):
        paths = list(constructed_paths(k4, (3, 1, 2)))
        assert sorted(paths) == sorted(enumerate_monitor_paths(k4, (1, 2, 3)))
        proved, rows = certify_full_rank(k4, (1, 2, 3))
        assert proved and rows == 6

    def test_shortfall_is_no_verdict(self, triangle):
        # two monitors never identify the far link; the construction ends
        assert certify_full_rank(triangle, (1, 2)) == (False, 2)

    def test_rows_count_against_cap(self, k4):
        with pytest.raises(PathExplosionError):
            certify_full_rank(k4, (1, 2, 3), cap=5)
        assert certify_full_rank(k4, (1, 2, 3), cap=6) == (True, 6)

    def test_real_paths_sound_and_complete_on_small_graphs(self):
        # every connected graph on 3-6 nodes, with the placement's monitors
        # and a seeded monitor set of two, three or four nodes in turn
        rng = random.Random(7)
        proved = placements = 0
        for n in range(3, 7):
            for g in all_connected_graphs(n):
                placement = mmp(g).monitors
                seeded = tuple(rng.sample(g.sorted_nodes(), min(2 + placements % 3, n)))
                for ms in (placement, seeded):
                    paths = enumerate_monitor_paths(g, ms)
                    built = list(constructed_paths(g, ms))
                    assert len(set(built)) == len(built)
                    assert set(built) <= set(paths), (sorted(g.edges), ms)
                    if certify_full_rank(g, ms)[0]:
                        proved += 1
                        assert identifiable_links(build_matrix(g, paths)).fully_identifiable
                    elif ms is placement:
                        # complete where the sufficiency theorem applies
                        assert not is_k_vertex_connected(extend(g, ms).graph, 3), sorted(g.edges)
                placements += 1
        assert placements == 27474
        assert proved > placements


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

    def test_direct_construction_checks_weights(self):
        with pytest.raises(ValueError):
            MetricAssignment({(1, 2): Fraction(0)})

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


def _identify_sized_instances(count: int = 30):
    """Seeded graphs of the identify command's everyday size: 12-16 nodes, a
    random spanning tree plus random extra links up to average degree 3.5,
    and two or three monitors."""
    rng = random.Random(2024)
    for trial in range(count):
        n = 12 + trial % 5
        order = rng.sample(range(1, n + 1), n)
        edges = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)}
        while len(edges) < round(n * 3.5 / 2):
            edges.add(tuple(sorted(rng.sample(order, 2))))
        yield Graph(edges=edges), tuple(sorted(rng.sample(order, 2 + trial % 2)))


def _small_two_monitor_instances():
    for n in (4, 5):
        for g in all_connected_graphs(n):
            for pair in combinations(sorted(g.nodes), 2):
                yield g, pair


class TestReducer:
    """_Reducer against a plain Fraction Gauss-Jordan, after every add."""

    @staticmethod
    def _check(rows, ncols: int) -> int:
        red = _Reducer(ncols)
        ref: list = []  # reference_rref of the rows added so far
        pivots: list[int] = []
        for row in rows:
            before = [list(b) for b in red.basis]
            kept = red.add(row)
            assert red.d > 0
            if kept:
                # the reduced form of the rows so far is that of the earlier
                # rows' reduced form plus this row
                new_ref = reference_rref(ref + [row])
                assert len(new_ref) == len(ref) + 1
                ref, pivots = new_ref, [next(c for c, x in enumerate(r) if x) for r in new_ref]
                assert max(pivots) < ncols
                assert len(red.basis) == len(ref)
                for b, r in zip(red.basis, ref):
                    assert [v * x.denominator for v, x in zip(b, r)] == [red.d * x.numerator for x in r]
            else:
                # row = sum of row[p] times the reduced row of pivot p, so the
                # reduced form is unchanged (it already holds at the pivots)
                hits = [(row[p], r) for p, r in zip(pivots, ref) if row[p]]
                others = set(range(len(row))) - set(pivots)
                assert all(row[c] == sum(a * r[c] for a, r in hits) for c in others)
                assert red.basis == before
        assert red.rank == len(ref)
        return red.rank

    @staticmethod
    def _with_values(matrix, rng) -> list[list[int]]:
        """Incidence rows with a value column: the path sums of random
        rational weights, times the sums' common denominator."""
        w = [Fraction(rng.randint(1, 99), rng.randint(1, 12)) for _ in matrix.edge_index]
        sums = [sum(x for a, x in zip(row, w) if a) for row in matrix.rows]
        scale = lcm(*(v.denominator for v in sums))
        return [[*row, int(v * scale)] for row, v in zip(matrix.rows, sums)]

    def test_basis_is_d_times_rref_on_small_instances(self):
        rng = random.Random(5)
        count = 0
        for g, pair in _small_two_monitor_instances():
            m = build_matrix(g, enumerate_monitor_paths(g, pair))
            ncols = len(m.edge_index)
            rank = self._check([list(r) for r in m.rows], ncols)
            assert self._check(self._with_values(m, rng), ncols) == rank
            count += 1
        assert count == 38 * 6 + 728 * 10

    def test_basis_is_d_times_rref_on_identify_sized_instances(self):
        rng = random.Random(6)
        for g, monitors in _identify_sized_instances():
            m = build_matrix(g, enumerate_monitor_paths(g, monitors))
            ncols = len(m.edge_index)
            rank = self._check([list(r) for r in m.rows], ncols)
            assert self._check(self._with_values(m, rng), ncols) == rank


class TestSimulateOracle:
    """simulate's integer path sums against per-edge Fraction addition."""

    # denominators that share factors, so the common denominator is smaller
    # than their product and each path sum's fraction must be reduced
    DENOMINATORS = (1, 2, 3, 4, 6, 8, 9, 12, 18, 36, 7, 14, 49)

    def _weights(self, g, rng) -> MetricAssignment:
        return MetricAssignment.for_graph(
            g, {e: Fraction(rng.randint(1, 99), rng.choice(self.DENOMINATORS)) for e in g.edges}
        )

    def test_small_instances(self):
        rng = random.Random(8)
        for g, pair in _small_two_monitor_instances():
            w = self._weights(g, rng)
            matrix, vector = simulate(g, pair, w)
            assert vector.values == reference_path_sums(matrix.paths, w.weights)

    def test_identify_sized_instances(self):
        rng = random.Random(9)
        for g, monitors in _identify_sized_instances():
            w = self._weights(g, rng)
            matrix, vector = simulate(g, monitors, w)
            assert vector.values == reference_path_sums(matrix.paths, w.weights)
            assert all(type(x) is Fraction for x in vector.values)


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
