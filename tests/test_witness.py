from __future__ import annotations

import re
from itertools import combinations

import pytest

from linkscope.corpus import named_fixtures
from linkscope.errors import InvalidCycleError, NotFoundError, NotInteriorError, TooLargeError
from linkscope.graph import Graph, cycle_edges
from linkscope import graph, witness
from linkscope.tomography import condition_1, condition_2, interior_links
from linkscope.witness import (
    Lemma3Witness,
    Lemma4Witness,
    all_cycles,
    cycles_through_edge,
    find_lemma3_witness,
    find_lemma4_witness,
    find_nonseparating_cycle,
    is_case_b_link,
    is_nonseparating_cycle,
)

from .conftest import all_connected_graphs, c_n, k_n
from .oracles import brute_has_structure, reference_all_cycles, reference_cycles_through_edge


def case_b_instance():
    """Smallest known hard-case link: only one non-separating cycle passes
    through it and no second cycle can meet that one at the link ends alone."""
    g = Graph(edges=[(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 5), (3, 4)])
    return g, (4, 5), (2, 3)


def crossing_instance():
    """A hard-case link on six nodes that is hard only because every first
    attachment path crosses the second cycle: without that condition a fully
    disjoint structure exists."""
    g = Graph(edges=[(1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (2, 6), (3, 4), (3, 5)])
    return g, (5, 6), (2, 3)


class TestNonseparating:
    def test_k4_triangle(self, k4):
        assert is_nonseparating_cycle(k4, (1, 3, 4), (1, 2))

    def test_k4_full_cycle_not_induced(self, k4):
        assert not is_nonseparating_cycle(k4, (1, 2, 3, 4), (1, 2))

    def test_whole_graph_cycle_vacuous(self):
        g = c_n(6)
        assert is_nonseparating_cycle(g, tuple(range(1, 7)), (1, 2))

    def test_stranded_remainder(self):
        # triangle (1,2,3) strands node 4 from both monitors
        g = Graph(edges=[(1, 2), (1, 3), (2, 3), (1, 4), (3, 4)])
        assert not is_nonseparating_cycle(g, (1, 2, 3), (1, 2))

    def test_invalid_cycle_rejected(self, k4):
        with pytest.raises(InvalidCycleError):
            is_nonseparating_cycle(k4, (1, 2), (1, 2))


class TestCycleEnumeration:
    def test_cycles_through_edge_k4(self, k4):
        cycles = cycles_through_edge(k4, (3, 4))
        assert cycles == [(1, 3, 4), (2, 3, 4), (1, 2, 3, 4), (1, 2, 4, 3)]

    def test_all_cycles_k4_count(self, k4):
        assert len(all_cycles(k4)) == 7  # four triangles, three 4-cycles

    def test_all_cycles_c4(self, c4):
        assert all_cycles(c4) == [(1, 2, 3, 4)]

    def test_all_cycles_matches_reference_on_small_graphs(self):
        for n in range(1, 7):
            for g in all_connected_graphs(n):
                assert all_cycles(g) == reference_all_cycles(g), sorted(g.edges)


class TestCycleTable:
    """cycles_through_edge and all_cycles read one cycle table per graph."""

    def test_cycles_through_edge_matches_reference_on_small_graphs(self):
        for n in range(1, 7):
            for g in all_connected_graphs(n):
                links = g.sorted_edges()
                want = [reference_cycles_through_edge(g, e) for e in links]
                # the first query fills the table of g; a twin graph fills
                # its own table through all_cycles first
                assert [cycles_through_edge(g, e) for e in links] == want, links
                twin = Graph(g.nodes, g.edges)
                all_cycles(twin)
                assert [cycles_through_edge(twin, e) for e in links] == want, links

    def test_reversed_link_and_bridge(self, bowtie):
        g = Graph(edges=[*bowtie.edges, (4, 6)])
        assert cycles_through_edge(g, (4, 3)) == cycles_through_edge(g, (3, 4))
        assert cycles_through_edge(g, (4, 6)) == []

    def test_returned_lists_are_fresh(self, k4):
        cycles = cycles_through_edge(k4, (3, 4))
        everything = all_cycles(k4)
        cycles.clear()
        everything.append((9, 9, 9))
        assert cycles_through_edge(k4, (3, 4)) == [(1, 3, 4), (2, 3, 4), (1, 2, 3, 4), (1, 2, 4, 3)]
        assert all_cycles(k4) == reference_all_cycles(k4)
        assert cycles_through_edge(k4, (3, 4)) is not cycles_through_edge(k4, (3, 4))

    def test_non_edge_raises(self, c4):
        with pytest.raises(NotFoundError):
            cycles_through_edge(c4, (1, 3))
        all_cycles(c4)
        with pytest.raises(NotFoundError):
            cycles_through_edge(c4, (1, 3))

    def test_table_is_invisible_to_equality(self, k4):
        twin = Graph(k4.nodes, k4.edges)
        all_cycles(k4)  # fills k4's sorted neighbours and cycle table
        assert hasattr(k4, "_nbrs") and not hasattr(twin, "_nbrs")
        assert k4 == twin and hash(k4) == hash(twin)

    def test_walk_lists_only_cycles(self, monkeypatch):
        listed = []
        walk = graph.iter_simple_paths

        def spy(*args):
            for p in walk(*args):
                listed.append(p)
                yield p

        monkeypatch.setattr(graph, "iter_simple_paths", spy)
        cycles = all_cycles(k_n(7))
        assert len(cycles) == 1172 and len(listed) == len(cycles)

    def test_cycle_guard(self, monkeypatch):
        # K7 has 1,172 cycles; the walk stops at the 1,001st
        monkeypatch.setattr(witness, "CYCLE_GUARD", 1000)
        for query in (
            lambda g: all_cycles(g),
            lambda g: cycles_through_edge(g, (3, 4)),
            lambda g: find_lemma3_witness(g, (3, 4), (1, 2)),
        ):
            with pytest.raises(TooLargeError, match="^cycle table limited to 1000 cycles, graph has more$"):
                query(k_n(7))
        monkeypatch.setattr(witness, "CYCLE_GUARD", 1172)
        assert len(all_cycles(k_n(7))) == 1172


class TestFindNonseparating:
    def test_k4_first_hit(self, k4):
        assert find_nonseparating_cycle(k4, (3, 4), (1, 2)) == (1, 3, 4)

    def test_triangle_exclude_monitors(self, triangle):
        assert find_nonseparating_cycle(triangle, (1, 3), (1, 2), exclude_monitors=True) is None

    def test_c4_whole_cycle(self, c4):
        assert find_nonseparating_cycle(c4, (1, 2), (1, 3)) == (1, 2, 3, 4)

    def test_size_guard(self):
        big = c_n(13)
        with pytest.raises(TooLargeError):
            find_nonseparating_cycle(big, (1, 2), (1, 3))


class TestLemma3:
    def test_k4_witness(self, k4):
        w = find_lemma3_witness(k4, (3, 4), (1, 2))
        assert w is not None
        assert w.cycle_f == (1, 3, 4)
        assert w.cycle_c == (2, 3, 4)
        assert w.path_1 == (1,)
        assert w.path_2 == (2,)

    def test_bridge_graph_has_no_witness(self):
        g, monitors = named_fixtures()["fig1a_bridge"]
        assert find_lemma3_witness(g, (4, 5), monitors) is None

    def test_exterior_link_rejected(self, k4):
        with pytest.raises(NotInteriorError):
            find_lemma3_witness(k4, (1, 3), (1, 2))

    def test_witness_self_validates(self, k4):
        w = find_lemma3_witness(k4, (3, 4), (1, 2))
        tampered = Lemma3Witness(w.link, w.cycle_f, w.cycle_c, (1, 3), w.path_2)
        with pytest.raises(ValueError):
            tampered.validate(k4, (1, 2))


# the cube: faces 1-2-3-4 and 5-6-7-8, joined by 1-5, 2-6, 3-7 and 4-8
CUBE = Graph(edges=[(1, 2), (2, 3), (3, 4), (1, 4), (5, 6), (6, 7), (7, 8), (5, 8), (1, 5), (2, 6), (3, 7), (4, 8)])
# the wheel: hub 1 and rim 2-3-4-5-6
WHEEL = Graph(edges=[(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (3, 4), (4, 5), (5, 6), (2, 6)])


class TestWitnessValidation:
    """Each check of a witness's ``validate`` rejects a witness that differs
    from a found one in the fields given, and passes every earlier check."""

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"cycle_c": (1, 2, 3, 4)}, "both cycles must contain the link"),
            ({"cycle_f": (1, 2, 3, 7, 8, 4)}, "first cycle must be non-separating"),
            ({"cycle_c": (3, 4, 8, 7)}, "cycles share more than one node besides the link ends"),
            ({"path_2": (2, 5)}, "attachment paths must be simple paths"),
            ({"path_1": (4,)}, "attachment paths must start at the two monitors"),
            ({"path_2": (2, 1, 4)}, "attachment paths must be disjoint"),
            ({"path_2": (2, 6, 7)}, "attachment paths must avoid the link ends"),
            ({"path_1": (1,)}, "first path must meet the first cycle exactly at its end"),
            ({"path_2": (2,)}, "second path must meet the second cycle exactly at its end"),
        ],
        ids=["link", "separating", "shared", "simple", "start", "disjoint", "link-ends", "first-end", "second-end"],
    )
    def test_lemma3_check(self, change, message):
        w = find_lemma3_witness(CUBE, (7, 8), (1, 2))
        assert w == Lemma3Witness((7, 8), (3, 4, 8, 7), (5, 6, 7, 8), (1, 4), (2, 6))
        tampered = Lemma3Witness(**{**vars(w), **change})
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            tampered.validate(CUBE, (1, 2))

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"cycle": (1, 4, 5)}, "cycle must contain the link"),
            ({"cycle": (1, 2, 6, 5)}, "cycle must not contain a monitor"),
            ({"cycle": (1, 4, 5, 6)}, "cycle must be non-separating"),
            ({"path_to_w": (2, 5, 6)}, "attachment paths must be simple paths"),
            ({"path_to_v": (3, 4)}, "paths must end at the link ends"),
            ({"path_to_v": (4, 5)}, "paths must start at the two monitors"),
            ({"path_to_v": (3, 1, 5), "path_to_w": (2, 1, 6)}, "attachment paths must be disjoint"),
            ({"path_to_v": (3, 1, 5)}, "paths must meet the cycle only at their endpoint"),
        ],
        ids=["link", "monitor", "separating", "simple", "end", "start", "disjoint", "meets-cycle"],
    )
    def test_lemma4_check(self, change, message):
        w = find_lemma4_witness(WHEEL, (5, 6), (2, 3))
        assert w == Lemma4Witness((5, 6), (1, 5, 6), (3, 4, 5), (2, 6))
        tampered = Lemma4Witness(**{**vars(w), **change})
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            tampered.validate(WHEEL, (2, 3))


def case_b_count(g, cycle, monitors) -> int:
    """Hard-case interior links on the cycle."""
    return sum(
        is_case_b_link(g, e, monitors)
        for e in cycle_edges(cycle)
        if not set(e) & set(monitors)
    )


class TestCaseClassification:
    def test_k4_link_is_easy(self, k4):
        assert not is_case_b_link(k4, (3, 4), (1, 2))
        assert case_b_count(k4, (1, 3, 4), (1, 2)) == 0

    def test_no_interior_links_counts_zero(self, c4):
        assert case_b_count(c4, (1, 2, 3, 4), (1, 3)) == 0

    def test_known_hard_link(self):
        g, monitors, link = case_b_instance()
        assert is_case_b_link(g, link, monitors)
        assert case_b_count(g, (1, 2, 3), monitors) == 1


class TestAgainstBruteForce:
    """Both readers of the Lemma 3 walk agree with a search that tries every
    cycle pair and every pair of paths, on every two-monitor instance on four
    and five nodes and on the two named hard-case links."""

    def test_every_interior_link_of_the_small_instances(self):
        links = [case_b_instance(), crossing_instance()]
        for n in (4, 5):
            for g in all_connected_graphs(n):
                for pair in combinations(sorted(g.nodes), 2):
                    links.extend((g, pair, vw) for vw in sorted(interior_links(g, pair)))
        seen = set()
        qualifying_links = 0
        for g, pair, vw in links:
            found = find_lemma3_witness(g, vw, pair) is not None
            hard = is_case_b_link(g, vw, pair)
            where = (sorted(g.edges), pair, vw)
            assert found == brute_has_structure(g, vw, pair, disjoint=False), where
            assert hard == (not brute_has_structure(g, vw, pair, disjoint=True)), where
            seen.add((found, hard))
            qualifying_links += condition_1(g, pair) and condition_2(g, pair)
        # every verdict pair that can occur does; the qualifying links are the
        # acceptance scan's on four and five nodes and the two named links
        assert seen == {(False, True), (True, True), (True, False)}
        assert qualifying_links == 1154


class TestLemma4:
    def test_known_hard_link_witness(self):
        g, monitors, link = case_b_instance()
        w = find_lemma4_witness(g, link, monitors)
        assert w is not None
        assert w.cycle == (1, 2, 3)
        assert w.path_to_v == (5, 2)
        assert w.path_to_w == (4, 3)

    def test_bridge_graph_exhausts(self):
        g, monitors = named_fixtures()["fig1a_bridge"]
        assert find_lemma4_witness(g, (4, 5), monitors) is None

    def test_easy_link_without_monitor_free_cycle_exhausts(self, k4):
        # every cycle of K4 through 3-4 contains a monitor; the caller gates
        # on classification, so exhaustion is a value, not an error
        assert find_lemma4_witness(k4, (3, 4), (1, 2)) is None

    def test_monitor_free_cycle_required(self):
        g, monitors, link = case_b_instance()
        w = find_lemma4_witness(g, link, monitors)
        assert not (set(w.cycle) & set(monitors))

    def test_size_guard(self):
        big = c_n(13)
        with pytest.raises(TooLargeError):
            find_lemma4_witness(big, (5, 6), (1, 2))


class TestWitnessRecords:
    """Witnesses are plain objects whose vars() are exactly their fields."""

    def test_vars_are_the_fields(self, k4):
        w3 = find_lemma3_witness(k4, (3, 4), (1, 2))
        assert vars(w3) == {
            "link": (3, 4),
            "cycle_f": (1, 3, 4),
            "cycle_c": (2, 3, 4),
            "path_1": (1,),
            "path_2": (2,),
        }
        g, monitors, link = case_b_instance()
        w4 = find_lemma4_witness(g, link, monitors)
        assert vars(w4) == {
            "link": link,
            "cycle": (1, 2, 3),
            "path_to_v": (5, 2),
            "path_to_w": (4, 3),
        }

    def test_equality_hash_and_repr_follow_the_fields(self):
        a = Lemma4Witness((2, 3), (1, 2, 3), (5, 2), (4, 3))
        b = Lemma4Witness(link=(2, 3), cycle=(1, 2, 3), path_to_v=(5, 2), path_to_w=(4, 3))
        assert a == b and hash(a) == hash(b)
        assert a != Lemma4Witness((2, 3), (1, 2, 3), (4, 2), (5, 3))
        assert a != Lemma3Witness((2, 3), (1, 2, 3), (1, 2, 3), (5,), (4,))
        assert repr(a) == "Lemma4Witness(link=(2, 3), cycle=(1, 2, 3), path_to_v=(5, 2), path_to_w=(4, 3))"

    def test_fields_cannot_be_reassigned(self, k4):
        w = find_lemma3_witness(k4, (3, 4), (1, 2))
        with pytest.raises(AttributeError):
            w.link = (1, 2)


class TestCountBound:
    def test_bound_holds_on_small_dense_graphs(self):
        from itertools import combinations

        from linkscope.tomography import condition_1, condition_2, interior_links

        graphs = [k_n(5), k_n(4), Graph(edges=[(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (4, 5), (3, 5)])]
        for g in graphs:
            for pair in combinations(sorted(g.nodes), 2):
                if not (condition_1(g, pair) and condition_2(g, pair)):
                    continue
                caseb = {e: is_case_b_link(g, e, pair) for e in interior_links(g, pair)}
                for cyc in all_cycles(g):
                    if is_nonseparating_cycle(g, cyc, pair):
                        assert sum(1 for e in cycle_edges(cyc) if caseb.get(e, False)) <= 1
