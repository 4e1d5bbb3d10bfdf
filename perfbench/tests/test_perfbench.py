"""Tests of the benchmark's own code.

    python3 -m unittest discover -s perfbench/tests

They cover the span arithmetic, the tail-percentile rule, digest checking
and the tracing wrappers; they do not time anything.
"""

from __future__ import annotations

import os
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import oriented_ideals as api  # noqa: E402
import oriented_ideals.symbolic  # noqa: E402

import summary  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


class SpanArithmetic(unittest.TestCase):
    # item [0, 10]
    #   a [1, 6]
    #     b [2, 4]
    #     c [4, 5]
    #   a [7, 9]
    #     a [7.5, 8.5]   (nested under its own name)
    names = ["item", "a", "b", "c", "a", "a"]
    start = [0.0, 1.0, 2.0, 4.0, 7.0, 7.5]
    end = [10.0, 6.0, 4.0, 5.0, 9.0, 8.5]
    parent = [-1, 0, 1, 1, 0, 4]

    def test_self_time_subtracts_children(self):
        own = tracing.self_times(self.names, self.start, self.end, self.parent)
        self.assertEqual(own["item"], 10 - 5 - 2)
        self.assertEqual(own["a"], (5 - 2 - 1) + (2 - 1) + 1)
        self.assertEqual(own["b"], 2)
        self.assertEqual(own["c"], 1)
        # self times partition the root interval
        self.assertEqual(sum(own.values()), 10)

    def test_inclusive_time_counts_outermost_span_of_a_name(self):
        total = tracing.inclusive_times(self.names, self.start, self.end, self.parent)
        self.assertEqual(total["a"], 5 + 2)
        self.assertEqual(total["item"], 10)

    def test_tracer_records_nesting(self):
        tracer = tracing.Tracer()
        outer = tracer.open("item")
        inner = tracer.open("x")
        self.assertEqual(tracer.item(), outer)
        tracer.close(inner)
        tracer.close(outer)
        self.assertEqual(tracer.parent, [-1, outer])
        self.assertLessEqual(tracer.start[inner], tracer.end[inner])
        self.assertLessEqual(tracer.end[inner], tracer.end[outer])


class TailRule(unittest.TestCase):
    def test_known_sizes(self):
        self.assertEqual(summary.tail_percentile(200), 95)
        self.assertEqual(summary.tail_percentile(46), 78)
        self.assertEqual(summary.tail_percentile(20), 50)
        self.assertIsNone(summary.tail_percentile(19))
        self.assertIsNone(summary.tail_percentile(3))

    def test_highest_percentile_with_ten_items_beyond(self):
        for n in range(20, 501):
            values = list(range(1, n + 1))
            p = summary.tail_percentile(n)
            tail = summary.percentile(values, p)
            self.assertGreaterEqual(sum(v > tail for v in values), 10, n)
            if p < 100:
                above = summary.percentile(values, p + 1)
                self.assertLess(sum(v > above for v in values), 10, n)

    def test_short_pass_uses_slowest_item(self):
        self.assertEqual(summary.item_tail([0.3, 0.1, 0.2]), 0.3)
        self.assertEqual(summary.item_tail([float(v) for v in range(1, 201)]), 190.0)


def one_item_workload(graph_weights=(1, 2, 1)):
    g = api.oriented_line(len(graph_weights), graph_weights)
    item = workloads.Item("line", lambda: api.compare_powers(g, 2), lambda r: r.to_json())
    return workloads.Workload("one-item", [item])


class DigestChecking(unittest.TestCase):
    def setUp(self):
        self.workload = one_item_workload()
        item = self.workload.items[0]
        self.good = {"line": workloads.digest(item.canonical(item.run()))}

    def test_matching_digest_passes(self):
        result = worker.measure(self.workload, [0], self.good, 0.0, traced=False)
        self.assertEqual((result["attempted"], result["failed"]), (1, 0))
        self.assertTrue(result["digests_agree"])

    def test_wrong_digest_fails(self):
        result = worker.measure(self.workload, [0], {"line": "0" * 16}, 0.0, traced=False)
        self.assertEqual(result["failed"], 1)
        self.assertIn("line: digest", result["problems"][0])

    def test_missing_digest_fails(self):
        result = worker.measure(self.workload, [0], {}, 0.0, traced=False)
        self.assertEqual(result["failed"], 1)
        self.assertIn("no recorded digest", result["problems"][0])

    def test_exception_counts_as_failure(self):
        def boom():
            raise ValueError("broken")

        workload = workloads.Workload("one-item", [workloads.Item("line", boom, repr)])
        result = worker.measure(workload, [0], self.good, 0.0, traced=False)
        self.assertEqual(result["failed"], 1)
        self.assertIn("ValueError", result["problems"][0])

    def test_traced_pass_gives_the_same_digest(self):
        result = worker.measure(self.workload, [0], self.good, 0.0, traced=True)
        self.assertEqual(result["failed"], 0)
        self.assertTrue(result["digests_agree"])
        self.assertEqual(result["per_layer"]["ideals.decomp_calls"], 1)


class Wrapping(unittest.TestCase):
    def test_every_binding_is_patched_and_restored(self):
        original = api.irreducible_decomposition
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
        try:
            # symbolic imported the function by name; its binding is wrapped too
            self.assertIsNot(oriented_ideals.symbolic.irreducible_decomposition, original)
            self.assertIs(api.irreducible_decomposition,
                          oriented_ideals.symbolic.irreducible_decomposition)
            span = tracer.open(tracing.ITEM)
            api.compare_powers(api.oriented_cycle(3, (2, 2, 2)), 2)
            tracer.close(span)
        finally:
            uninstall()
        self.assertIs(api.irreducible_decomposition, original)
        self.assertIs(oriented_ideals.symbolic.irreducible_decomposition, original)
        names = set(tracer.names)
        for name in ("symbolic.compare_powers", "ideals.irreducible_decomposition",
                     "covers.enumerate_strong_covers", "monomials.MonomialIdeal.__mul__"):
            self.assertIn(name, names)
        decomposition = tracer.names.index("ideals.irreducible_decomposition")
        self.assertEqual(tracer.names[tracer.parent[decomposition]], "symbolic.compare_powers")

    def test_layer_metrics_cover_every_per_layer_name(self):
        metrics = tracing.layer_metrics(tracing.Tracer())
        extra = {"cli.stdout_bytes", "trace.overhead_s"}
        self.assertEqual(set(metrics) | extra, set(tracing.LAYER_UNITS))


if __name__ == "__main__":
    unittest.main()
