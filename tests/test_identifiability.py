from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, islice
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from linkscope import identifiability
from linkscope.connectivity import is_k_vertex_connected
from linkscope.corpus import named_fixtures
from linkscope.errors import (
    InconsistentMeasurementsError,
    InvalidPathError,
    PathExplosionError,
)
from linkscope.graph import Graph
from linkscope.placement import mmp
from linkscope.tomography import extend
from linkscope.identifiability import (
    build_matrix,
    certify_full_rank,
    constructed_paths,
    enumerate_monitor_paths,
    identifiable_links,
    _Reducer,
    recover,
    simulate,
)

from .conftest import G11_LINKS, all_connected_graphs, path_n, random_connected_graph
from .oracles import (
    adjacent_links,
    check_lemma1,
    fraction_identifiable_columns,
    fraction_rank,
    incidence_rows,
    reference_path_sums,
    reference_rref,
)


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

    @pytest.mark.parametrize("cap", [0, -1])
    def test_nonpositive_cap_rejected(self, triangle, cap):
        with pytest.raises(ValueError, match="^cap must be positive$"):
            enumerate_monitor_paths(triangle, (1, 2), cap)

    def test_three_monitors_skip_intermediates(self):
        paths = enumerate_monitor_paths(path_n(3), (1, 2, 3))
        assert paths == [(1, 2), (2, 3)]  # 1..3 would pass through monitor 2

    def test_orientation_collapsed(self, k4):
        paths = enumerate_monitor_paths(k4, (2, 1))
        assert all(p[0] == 1 and p[-1] == 2 for p in paths)


def _rounds(g, ms, n):
    """The paths of the first n rounds of the construction."""
    return [p for built in islice(constructed_paths(g, ms), n) for p in built]


class TestConstructedPaths:
    def test_k4_three_monitors(self, k4):
        paths = _rounds(k4, (3, 1, 2), 2)
        assert sorted(paths) == sorted(enumerate_monitor_paths(k4, (1, 2, 3)))
        assert certify_full_rank(k4, (1, 2, 3)) is True

    def test_rounds_go_on_after_an_empty_turn(self, triangle):
        # both measurement paths come in the first round; the rounds after
        # it build nothing, and the generator does not end
        rounds = list(islice(constructed_paths(triangle, (1, 2)), 50))
        assert sorted(rounds[0]) == enumerate_monitor_paths(triangle, (1, 2))
        assert rounds[1:] == [[]] * 49

    def test_shortfall_is_not_proved(self, triangle):
        # two monitors never identify the far link: the rank stays short, so
        # the rounds go on until the cap is spent, and False means only that
        # nothing was proved
        assert certify_full_rank(triangle, (1, 2), cap=2) is False
        assert certify_full_rank(triangle, (1, 2), cap=50) is False

    def test_rows_count_against_cap(self, k4):
        # K4 with monitors 1, 2 and 3 needs all six constructed rows, from
        # two rounds: eight units of the cap
        assert certify_full_rank(k4, (1, 2, 3), cap=7) is False
        assert certify_full_rank(k4, (1, 2, 3), cap=8) is True

    @pytest.mark.parametrize("cap", [0, -1])
    def test_nonpositive_cap_rejected(self, k4, cap):
        with pytest.raises(ValueError, match="cap must be positive"):
            certify_full_rank(k4, (1, 2, 3), cap)

    def test_one_node_order_per_round(self, monkeypatch):
        # every tree of a round grows from one set of neighbour lists, and
        # from round 4 on each round shuffles one order; the paths of the
        # four fixed-order rounds are pinned
        orders, shuffles = [], []
        neighbour_lists, shuffle = identifiability._neighbour_lists, random.Random.shuffle

        def counting_lists(g, order):
            orders.append(list(order))
            return neighbour_lists(g, order)

        def counting_shuffle(rng, x):
            shuffles.append(len(x))
            shuffle(rng, x)

        monkeypatch.setattr(identifiability, "_neighbour_lists", counting_lists)
        monkeypatch.setattr(random.Random, "shuffle", counting_shuffle)
        g, ms = Graph(range(1, 12), G11_LINKS), (1, 5, 8)
        first = [
            [
                (1, 5), (1, 6, 10, 4, 7, 5), (1, 11, 7, 5), (1, 6, 2, 3, 4, 7, 5), (1, 6, 2, 9, 7, 5),
                (1, 6, 2, 3, 9, 7, 5), (1, 6, 2, 9, 3, 4, 7, 5), (1, 6, 10, 11, 7, 5), (1, 11, 10, 4, 7, 5),
                (1, 6, 8), (1, 11, 10, 6, 8), (1, 11, 7, 4, 10, 6, 8), (1, 11, 7, 9, 2, 6, 8),
            ],
            [(1, 11, 10, 6, 2, 3, 4, 7, 5), (5, 7, 4, 3, 2, 6, 8)],
            [
                (1, 11, 10, 4, 3, 2, 6, 8), (1, 11, 7, 9, 3, 2, 6, 8), (5, 7, 9, 3, 2, 6, 8),
                (5, 7, 9, 2, 6, 8), (5, 7, 9, 3, 4, 10, 6, 8), (5, 7, 4, 10, 6, 8), (5, 7, 11, 10, 6, 8),
            ],
            [(1, 11, 10, 6, 2, 9, 7, 5)],
        ]
        rounds = constructed_paths(g, ms)
        for r in range(4 + 2 * len(ms)):
            built = next(rounds)
            if r < 4:
                assert built == first[r]
            assert len(orders) == r + 1
            assert shuffles == [11] * max(0, r - 3)
        nodes = list(range(1, 12))
        assert orders[:4] == [nodes, nodes, nodes[::-1], nodes[::-1]]
        assert all(sorted(order) == nodes for order in orders[4:])

    def test_real_paths_sound_and_complete_on_small_graphs(self):
        # every connected graph on 3-6 nodes, with the placement's monitors
        # and a seeded monitor set of two, three or four nodes in turn
        rng = random.Random(7)
        full = placements = 0
        for n in range(3, 7):
            for g in all_connected_graphs(n):
                placement = mmp(g).monitors
                seeded = tuple(rng.sample(g.sorted_nodes(), min(2 + placements % 3, n)))
                for ms in (placement, seeded):
                    paths = enumerate_monitor_paths(g, ms)
                    # the four fixed-order rounds, then two shuffled turns of
                    # hubs: every instance checks the shuffled trees too
                    built = _rounds(g, ms, 4 + 2 * len(ms))
                    assert len(set(built)) == len(built)
                    assert set(built) <= set(paths), (sorted(g.edges), ms)
                    oracle = identifiable_links(build_matrix(g, paths)).fully_identifiable
                    # the sufficiency and necessity theorem for three or
                    # more monitors, against the enumerated rank oracle
                    theorem = len(ms) >= 3 and is_k_vertex_connected(extend(g, ms), 3)
                    assert oracle == theorem, (sorted(g.edges), ms)
                    if oracle:
                        full += 1
                        assert certify_full_rank(g, ms) is True, (sorted(g.edges), ms)
                    else:
                        assert certify_full_rank(g, ms, cap=16) is False
                placements += 1
        assert placements == 27474
        assert full == 32070


class TestMatrix:
    def test_triangle_rows(self, triangle):
        m = build_matrix(triangle, enumerate_monitor_paths(triangle, (1, 2)))
        assert m.edge_index == ((1, 2), (1, 3), (2, 3))
        assert m.rows == ((0,), (1, 2))

    def test_k4_rows(self, k4):
        m = build_matrix(k4, enumerate_monitor_paths(k4, (1, 2)))
        assert m.edge_index == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
        # each row is the ascending columns of its path's links, whatever
        # order the path walks them in
        assert m.rows == ((0,), (1, 3), (2, 4), (1, 4, 5), (2, 3, 5))

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
            rows = incidence_rows(m)
            assert report.rank == fraction_rank(rows)
            want = {m.edge_index[c] for c in fraction_identifiable_columns(rows, len(m.edge_index))}
            assert report.identifiable == want


class TestSimulateRecover:
    def test_triangle_values(self, triangle):
        w = {(1, 2): 1, (1, 3): 2, (2, 3): 3}
        matrix, values = simulate(triangle, (1, 2), w)
        assert values == (Fraction(1), Fraction(5))
        assert recover(matrix, values)[1] == {(1, 2): Fraction(1)}

    def test_k4_all_ones(self, k4):
        w = {e: 1 for e in k4.edges}
        matrix, values = simulate(k4, (1, 2), w)
        assert values == (Fraction(1), Fraction(2), Fraction(2), Fraction(3), Fraction(3))
        assert recover(matrix, values)[1] == {(1, 2): Fraction(1), (3, 4): Fraction(1)}

    # simulate checks a plain mapping before it walks any path: a stub walk
    # shows that none ran
    @pytest.fixture
    def no_walk(self, monkeypatch):
        def walk(*args):
            raise AssertionError("paths walked before the weights were checked")

        monkeypatch.setattr(identifiability, "enumerate_monitor_paths", walk)

    def test_nonpositive_weight_rejected(self, triangle, no_walk):
        with pytest.raises(ValueError, match=r"^weight for edge \(1, 2\) must be positive, got 0$"):
            simulate(triangle, (1, 2), {(1, 2): 0, (1, 3): 2, (2, 3): 3})

    def test_direct_construction_checks_weights(self, triangle, no_walk):
        with pytest.raises(ValueError, match=r"^weight for edge \(2, 3\) must be positive, got -1/2$"):
            simulate(triangle, (1, 2), {(1, 2): 1, (1, 3): 2, (3, 2): Fraction(-1, 2)})

    def test_coverage_enforced(self, triangle, no_walk):
        with pytest.raises(ValueError, match=r"\(missing \[\(1, 3\), \(2, 3\)\], extra \[\]\)$"):
            simulate(triangle, (1, 2), {(1, 2): 1})

    def test_extra_link_rejected(self, triangle, no_walk):
        weights = {(1, 2): 1, (1, 3): 2, (2, 3): 3, (3, 4): 1}
        with pytest.raises(ValueError, match=r"\(missing \[\], extra \[\(3, 4\)\]\)$"):
            simulate(triangle, (1, 2), weights)

    def test_link_named_twice_rejected(self, triangle, no_walk):
        weights = {(1, 2): 1, (2, 1): 5, (1, 3): 1, (2, 3): 1}
        with pytest.raises(ValueError, match=r"^weights name link \(1, 2\) twice$"):
            simulate(triangle, (1, 2), weights)

    # Fraction() would read a float's binary value, a bool as 0 or 1 and a
    # string as a literal: only ints and Fractions are exact by type
    @pytest.mark.parametrize("bad", [0.1, True, "7/3", None], ids=["float", "bool", "str", "none"])
    def test_inexact_weight_rejected(self, triangle, no_walk, bad):
        with pytest.raises(ValueError, match=rf"^weight for edge \(1, 3\) must be an int or a Fraction, got {bad!r}$"):
            simulate(triangle, (1, 2), {(1, 2): 1, (3, 1): bad, (2, 3): Fraction(3, 2)})

    @pytest.mark.parametrize(
        "values, index",
        [([0.1, 2.5], 0), ([1, True], 1), ([Fraction(1), "7/3"], 1)],
        ids=["floats", "bool", "str"],
    )
    def test_inexact_value_rejected(self, triangle, monkeypatch, values, index):
        matrix = build_matrix(triangle, [(1, 2), (1, 3, 2)])

        def no_reduction(*args):
            raise AssertionError("reduced before the values were checked")

        monkeypatch.setattr(identifiability, "_Reducer", no_reduction)
        with pytest.raises(ValueError, match=rf"^value {index} must be an int or a Fraction, got {values[index]!r}$"):
            recover(matrix, values)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_nonpositive_cap_rejected(self, triangle, cap):
        with pytest.raises(ValueError, match="^cap must be positive$"):
            simulate(triangle, (1, 2), {(1, 2): 1, (1, 3): 2, (2, 3): 3}, cap)

    @pytest.mark.parametrize("values", [[1], [1, 5, 2]], ids=["one-too-few", "one-too-many"])
    def test_value_count_must_match_rows(self, triangle, values):
        matrix = build_matrix(triangle, [(1, 2), (1, 3, 2)])
        with pytest.raises(ValueError, match="^the number of values must match the number of matrix rows$"):
            recover(matrix, values)

    def test_coverage_checked_before_positivity(self, triangle, no_walk):
        with pytest.raises(ValueError, match="cover exactly"):
            simulate(triangle, (1, 2), {(1, 2): 0})

    def test_reversed_link_accepted(self, triangle):
        matrix, values = simulate(triangle, (1, 2), {(2, 1): 1, (3, 1): 2, (3, 2): Fraction(3, 2)})
        assert values == (Fraction(1), Fraction(7, 2))
        assert recover(matrix, values)[1] == {(1, 2): Fraction(1)}

    def test_inconsistent_vector(self, triangle):
        matrix = build_matrix(
            triangle, [(1, 2), (1, 3, 2), (1, 2)]
        )  # duplicate dependent row
        bad = (Fraction(1), Fraction(5), Fraction(999))
        with pytest.raises(InconsistentMeasurementsError):
            recover(matrix, bad)

    def test_recovery_exact_on_random_instances(self):
        rng = random.Random(99)
        perturbed = 0
        for trial in range(30):
            g = random_connected_graph(5 + trial % 3, 0.5, 500 + trial)
            monitors = tuple(sorted(g.nodes)[:2])
            w = {e: Fraction(rng.randint(1, 40), rng.randint(1, 40)) for e in g.edges}
            matrix, values = simulate(g, monitors, w)
            verdict, got = recover(matrix, values)
            report = identifiable_links(matrix)
            assert verdict == report
            assert set(got) == set(report.identifiable)
            for e, value in got.items():
                assert value == w[e]
            # a non-integer error on a path the other paths span contradicts them
            rows = incidence_rows(matrix)
            spanned = (i for i in reversed(range(len(rows))) if fraction_rank(rows[:i] + rows[i + 1 :]) == report.rank)
            i = next(spanned, None)
            if i is None:
                continue  # every path adds rank, so no measurement is checked by the others
            off = list(values)
            off[i] += Fraction(1, 997)
            with pytest.raises(InconsistentMeasurementsError):
                recover(matrix, off)
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
    def _check(matrix, values: list[int]) -> int:
        """Feeds each row of ``matrix`` with its value; the reference rows are
        the dense incidence rows with the value appended."""
        ncols = len(matrix.edge_index)
        red = _Reducer(ncols)
        ref: list = []  # reference_rref of the rows added so far
        pivots: list[int] = []
        for cols, dense, value in zip(matrix.rows, incidence_rows(matrix), values):
            row = [*dense, value]
            before = {c: list(b) for c, b in red.basis.items()}
            kept = red.add(cols, value)
            assert red.d > 0
            if kept:
                # the reduced form of the rows so far is that of the earlier
                # rows' reduced form plus this row
                new_ref = reference_rref(ref + [row])
                assert len(new_ref) == len(ref) + 1
                ref, pivots = new_ref, [next(c for c, x in enumerate(r) if x) for r in new_ref]
                assert max(pivots) < ncols
                # the basis, read in pivot order
                assert sorted(red.basis) == pivots
                for (_, b), r in zip(sorted(red.basis.items()), ref):
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
    def _with_values(matrix, rng) -> list[int]:
        """The path sums of random rational weights, times the sums' common
        denominator."""
        w = [Fraction(rng.randint(1, 99), rng.randint(1, 12)) for _ in matrix.edge_index]
        sums = [sum(x for a, x in zip(row, w) if a) for row in incidence_rows(matrix)]
        scale = lcm(*(v.denominator for v in sums))
        return [int(v * scale) for v in sums]

    @staticmethod
    def _recover_verdict(matrix, valued) -> bool:
        """recover's verdict on the scaled path sums equals the incidence
        rows' own; returns whether the rank is full."""
        report = identifiable_links(matrix)
        assert recover(matrix, [Fraction(v) for v in valued])[0] == report
        return report.fully_identifiable

    def test_basis_is_d_times_rref_on_small_instances(self):
        rng = random.Random(5)
        count = 0
        full = set()
        for g, pair in _small_two_monitor_instances():
            m = build_matrix(g, enumerate_monitor_paths(g, pair))
            rank = self._check(m, [0] * len(m.rows))
            valued = self._with_values(m, rng)
            assert self._check(m, valued) == rank
            full.add(self._recover_verdict(m, valued))
            count += 1
        assert count == 38 * 6 + 728 * 10
        # two monitors never identify every link once there are two or more;
        # the identify-sized set below holds the full-rank instances
        assert full == {False}

    def test_basis_is_d_times_rref_on_identify_sized_instances(self):
        # each graph with its seeded monitors, then with its placement's
        # monitors, which identify every link
        rng = random.Random(6)
        full = []
        for g, seeded in _identify_sized_instances():
            for monitors in (seeded, mmp(g).monitors):
                m = build_matrix(g, enumerate_monitor_paths(g, monitors))
                rank = self._check(m, [0] * len(m.rows))
                valued = self._with_values(m, rng)
                assert self._check(m, valued) == rank
                full.append(self._recover_verdict(m, valued))
        assert full == [False, True] * 30


class TestSimulateOracle:
    """simulate's integer path sums against per-edge Fraction addition."""

    # denominators that share factors, so the common denominator is smaller
    # than their product and each path sum's fraction must be reduced
    DENOMINATORS = (1, 2, 3, 4, 6, 8, 9, 12, 18, 36, 7, 14, 49)

    def _weights(self, g, rng) -> dict:
        return {e: Fraction(rng.randint(1, 99), rng.choice(self.DENOMINATORS)) for e in g.edges}

    def test_small_instances(self):
        rng = random.Random(8)
        for g, pair in _small_two_monitor_instances():
            w = self._weights(g, rng)
            matrix, values = simulate(g, pair, w)
            assert values == reference_path_sums(matrix.paths, w)

    def test_identify_sized_instances(self):
        rng = random.Random(9)
        for g, monitors in _identify_sized_instances():
            w = self._weights(g, rng)
            matrix, values = simulate(g, monitors, w)
            assert values == reference_path_sums(matrix.paths, w)
            assert all(type(x) is Fraction for x in values)


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
@settings(derandomize=True, max_examples=120, deadline=None)
def test_report_properties_hold_on_arbitrary_instances(instance):
    g, monitors = instance
    matrix = build_matrix(g, enumerate_monitor_paths(g, monitors))
    report = identifiable_links(matrix)
    assert report.identifiable | report.unidentifiable == g.edges
    assert not report.identifiable & report.unidentifiable
    assert report.rank <= min(len(matrix.rows), len(g.edges))
    assert report.fully_identifiable == (report.rank == len(g.edges))
    m1, m2 = monitors
    if g.has_edge(m1, m2):
        assert (min(m1, m2), max(m1, m2)) in report.identifiable
    exterior = {e for e in g.edges if m1 in e or m2 in e} - {(min(m1, m2), max(m1, m2))}
    assert exterior <= report.unidentifiable
