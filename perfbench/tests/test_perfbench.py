"""Tests of the benchmark's own arithmetic and generators.

    python3 -m pytest perfbench/tests      (or: python3 -m unittest discover perfbench/tests)

Run from the repository root.  They import nothing from linkscope.
"""

from __future__ import annotations

import os
import sys
import unittest
from itertools import combinations

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))

from perfbench import checks, gen, spans, stats  # noqa: E402


def connected(n, edges):
    seen, stack = {1}, [1]
    while stack:
        u = stack.pop()
        for a, b in edges:
            for x, y in ((a, b), (b, a)):
                if x == u and y not in seen:
                    seen.add(y)
                    stack.append(y)
    return len(seen) == n


def span(name, parent, start, end):
    return [name, parent, 0, start, end, None, None]


class SelfTimeTest(unittest.TestCase):
    def test_leaf_keeps_its_duration(self):
        self.assertEqual(spans.self_times([span("a", None, 1.0, 3.5)]), [2.5])

    def test_children_are_subtracted_once_each(self):
        tree = [
            span("root", None, 0.0, 10.0),
            span("a", 0, 1.0, 4.0),
            span("b", 0, 5.0, 6.0),
            span("a.x", 1, 2.0, 3.0),
        ]
        self.assertEqual(spans.self_times(tree), [6.0, 2.0, 1.0, 1.0])

    def test_self_times_add_up_to_the_root(self):
        tree = [
            span("root", None, 0.0, 8.0),
            span("a", 0, 0.5, 7.0),
            span("b", 1, 1.0, 2.0),
            span("c", 1, 2.0, 6.5),
            span("d", 3, 3.0, 3.25),
        ]
        self.assertAlmostEqual(sum(spans.self_times(tree)), 8.0)

    def test_overlapping_and_overhanging_children_count_once(self):
        tree = [
            span("root", None, 0.0, 10.0),
            span("a", 0, 2.0, 6.0),
            span("b", 0, 4.0, 8.0),
            span("c", 0, 9.0, 12.0),
        ]
        self.assertEqual(spans.self_times(tree)[0], 10.0 - 6.0 - 1.0)

    def test_tracer_nests_spans_and_closes_an_interrupted_instance(self):
        tracer = spans.Tracer()
        root = tracer.begin("instance")
        child = tracer.begin("work")
        tracer.begin("inner")  # left open, as a deadline would leave it
        tracer.end_instance(root)
        self.assertEqual([s[spans.PARENT] for s in tracer.spans], [None, root, child])
        self.assertTrue(all(s[spans.END] is not None for s in tracer.spans))
        self.assertAlmostEqual(sum(spans.self_times(tracer.spans)), tracer.spans[0][spans.END] - tracer.spans[0][spans.START])


class ArithmeticTest(unittest.TestCase):
    def test_percentile_interpolates_between_ranks(self):
        xs = [4.0, 1.0, 3.0, 2.0, 5.0]
        self.assertEqual(stats.percentile(xs, 50), 3.0)
        self.assertEqual(stats.percentile(xs, 0), 1.0)
        self.assertEqual(stats.percentile(xs, 100), 5.0)
        self.assertAlmostEqual(stats.percentile(xs, 90), 4.6)
        self.assertAlmostEqual(stats.percentile([1.0, 2.0], 25), 1.25)
        self.assertEqual(stats.percentile([7.0], 90), 7.0)

    def test_percentile_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 101)

    def test_window_median(self):
        def mean(xs):
            return sum(xs) / len(xs)

        self.assertEqual(stats.window_median([1.0, 2.0, 6.0], mean, min_size=2), 3.0)
        # a burst confined to one window of four does not move the median
        values = [1.0] * 3000 + [9.0] * 1000
        self.assertEqual(stats.window_median(values, mean, windows=4, min_size=1000), 1.0)
        self.assertEqual(stats.window_median(list(range(10)), max, windows=10, min_size=3), 5)

    def test_throughput_charges_undecided_instances(self):
        self.assertEqual(stats.throughput([(0.5, True), (0.5, True)]), 2.0)
        # a stall that runs into its deadline lowers throughput
        self.assertEqual(stats.throughput([(0.5, True), (0.5, True), (1.0, False)]), 1.0)
        with self.assertRaises(ValueError):
            stats.throughput([])

    def test_share(self):
        self.assertEqual(stats.share(3, 4), 0.75)
        self.assertEqual(stats.share(0, 5), 0.0)
        for part, whole in ((1, 0), (5, 4), (-1, 4)):
            with self.assertRaises(ValueError):
                stats.share(part, whole)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        self.assertEqual(gen.place_instances(5, 20), gen.place_instances(5, 20))
        self.assertEqual(gen.identify_instances(5, 20), gen.identify_instances(5, 20))
        self.assertEqual(gen.scan_instances(5, 50), gen.scan_instances(5, 50))

    def test_other_seed_other_inputs(self):
        self.assertNotEqual(gen.place_instances(5, 5), gen.place_instances(6, 5))
        self.assertNotEqual(gen.identify_instances(5, 5), gen.identify_instances(6, 5))
        self.assertNotEqual(gen.scan_instances(5, 50), gen.scan_instances(6, 50))

    def test_longer_run_extends_the_same_sequence(self):
        self.assertEqual(gen.place_instances(3, 30)[:10], gen.place_instances(3, 10))
        self.assertEqual(gen.identify_instances(3, 30)[:10], gen.identify_instances(3, 10))

    def test_graphs_are_connected_and_simple_with_the_scheduled_size(self):
        for i, inst in enumerate(gen.place_instances(11, 2 * len(gen.PLACE_SIZES))):
            n, d = gen.PLACE_SIZES[i % len(gen.PLACE_SIZES)]
            edges = inst["edges"]
            self.assertEqual(inst["n"], n)
            self.assertEqual(len(edges), round(n * d / 2))
            self.assertEqual(len(set(map(tuple, edges))), len(edges))
            self.assertTrue(all(1 <= u < v <= n for u, v in edges))
            self.assertTrue(connected(n, edges))

    def test_identify_inputs(self):
        for inst in gen.identify_instances(2, 40):
            self.assertIn(len(inst["monitors"]), gen.IDENTIFY_MONITOR_COUNTS)
            self.assertEqual(len(set(inst["monitors"])), len(inst["monitors"]))
            self.assertEqual(len(inst["weights"]), len(inst["edges"]))

    def test_corpus_counts(self):
        # connected labelled graphs on 4, 5 and 6 nodes (OEIS A001187)
        self.assertEqual([len(gen.connected_masks(n)) for n in (4, 5, 6)], [38, 728, 26704])

    def test_scan_sample_has_no_repeats(self):
        sample = gen.scan_instances(9, 2000)
        self.assertEqual(len({tuple(x) for x in sample}), 2000)
        for n, mask, a, b in sample:
            self.assertIn(n, gen.SCAN_NODES)
            self.assertTrue(1 <= a < b <= n)
            self.assertTrue(connected(n, gen.mask_edges(n, mask)))


class CheckTest(unittest.TestCase):
    def test_three_connectivity_against_pair_deletion(self):
        def brute(n, edges):
            for pair in combinations(range(1, n + 1), 2):
                rest = set(range(1, n + 1)) - set(pair)
                seen, stack = {min(rest)}, [min(rest)]
                while stack:
                    u = stack.pop()
                    for a, b in edges:
                        for x, y in ((a, b), (b, a)):
                            if x == u and y in rest and y not in seen:
                                seen.add(y)
                                stack.append(y)
                if seen != rest:
                    return False
            return n >= 4

        import random

        rng = random.Random(1)
        for _ in range(300):
            n = rng.randint(4, 8)
            edges = gen.connected_graph(rng, n, rng.uniform(2.0, 5.0))
            self.assertEqual(checks.is_three_connected(range(1, n + 1), edges), brute(n, edges), edges)

    def test_place_check(self):
        k4 = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
        self.assertEqual(checks.check_place(4, k4, {"monitors": [1, 2, 3]}), [])
        self.assertTrue(checks.check_place(4, k4, {"monitors": [1, 2]}))
        c4 = [(1, 2), (2, 3), (3, 4), (1, 4)]
        self.assertTrue(checks.check_place(4, c4, {"monitors": [1, 2, 3]}))

    def test_identify_check(self):
        edges = [(1, 2), (2, 3)]
        good = {
            "recovered": {"1-2": "3/2"},
            "identifiable": ["1-2"],
            "unidentifiable": ["2-3"],
            "rank": 1,
            "fully_identifiable": False,
        }
        self.assertEqual(checks.check_identify(edges, ["3/2", "5"], good), [])
        self.assertTrue(checks.check_identify(edges, ["2", "5"], good))
        self.assertTrue(checks.check_identify(edges, ["3/2", "5"], dict(good, rank=3)))


if __name__ == "__main__":
    unittest.main()
