"""Tests of the benchmark's reduction rules.

    python3 -m unittest discover -s perfbench/tests
"""

import copy
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import metrics  # noqa: E402


class TailPercentileTest(unittest.TestCase):
    def test_picks_highest_step_with_ten_samples_beyond(self):
        # n=100: p95 leaves 5 beyond, p90 leaves exactly 10.
        self.assertEqual(metrics.tail_percentile(range(1, 101)), (0.9, 90))
        # n=1000: p99 leaves exactly 10 beyond; p99.9 leaves 1.
        self.assertEqual(metrics.tail_percentile(range(1, 1001)),
                         (0.99, 990))
        # n=10000: p99.9 leaves exactly 10 beyond.
        self.assertEqual(metrics.tail_percentile(range(1, 10001)),
                         (0.999, 9990))

    def test_one_sample_short_drops_a_step(self):
        # n=99: p90 is rank 90 with 9 beyond, so p75 (rank 75) wins.
        self.assertEqual(metrics.tail_percentile(range(1, 100)), (0.75, 75))

    def test_too_few_samples_fall_back_to_median(self):
        self.assertEqual(metrics.tail_percentile([5, 1, 3]), (0.5, 3))
        self.assertEqual(metrics.tail_percentile(range(1, 21)), (0.5, 10.5))

    def test_order_of_samples_does_not_matter(self):
        self.assertEqual(metrics.tail_percentile(list(range(100, 0, -1))),
                         (0.9, 90))

    def test_timing_reports_count(self):
        t = metrics.timing([0.3, 0.1, 0.2])
        self.assertEqual((t["median"], t["n"]), (0.2, 3))
        self.assertEqual(metrics.timing([])["n"], 0)


class HostRateTest(unittest.TestCase):
    NOMINAL = metrics.NOMINAL_REF_S

    def test_nominal_host_reads_unscaled(self):
        passes = [{"accesses": 100, "run_s": 2.0, "ref_s": self.NOMINAL}]
        self.assertAlmostEqual(metrics.host_rate(passes, "accesses"), 50.0)

    def test_host_slowdown_scales_out(self):
        # A pass on a host running at half speed: the pass and the
        # reference kernel both take twice as long.
        fast = {"accesses": 100, "run_s": 2.0, "ref_s": self.NOMINAL}
        slow = {"accesses": 100, "run_s": 4.0, "ref_s": 2 * self.NOMINAL}
        self.assertAlmostEqual(metrics.host_rate([slow], "accesses"),
                               metrics.host_rate([fast], "accesses"))

    def test_slower_simulator_shows_in_full(self):
        base = {"accesses": 100, "run_s": 2.0, "ref_s": self.NOMINAL}
        slower = dict(base, run_s=3.0)
        self.assertAlmostEqual(metrics.host_rate([slower], "accesses")
                               / metrics.host_rate([base], "accesses"),
                               2.0 / 3.0)

    def test_median_over_passes(self):
        passes = [{"units": 10, "run_s": t, "ref_s": self.NOMINAL}
                  for t in (1.0, 2.0, 10.0)]
        self.assertAlmostEqual(metrics.host_rate(passes, "units"), 5.0)


class DigestTest(unittest.TestCase):
    SIM = {"cells": {"lazy-hmtx.snoop-bus": {
        "makespan": 9, "sys": {"loads": 3, "stores": 1},
        "serve": {"latency": {"count": 2, "ladder": [10, 500, 20, 500]}}}}}

    def test_equal_statistics_give_equal_digests(self):
        self.assertEqual(metrics.digest(self.SIM),
                         metrics.digest(copy.deepcopy(self.SIM)))

    def test_field_order_does_not_matter(self):
        cell = self.SIM["cells"]["lazy-hmtx.snoop-bus"]
        reordered = {"cells": {"lazy-hmtx.snoop-bus": dict(
            reversed(list(cell.items())))}}
        self.assertEqual(metrics.digest(self.SIM), metrics.digest(reordered))

    def test_any_changed_field_changes_the_digest(self):
        base = metrics.digest(self.SIM)
        for path in (("makespan",), ("sys", "stores"),
                     ("serve", "latency", "count")):
            sim = copy.deepcopy(self.SIM)
            node = sim["cells"]["lazy-hmtx.snoop-bus"]
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] += 1
            self.assertNotEqual(metrics.digest(sim), base, path)
        sim = copy.deepcopy(self.SIM)
        sim["cells"]["lazy-hmtx.snoop-bus"]["serve"]["latency"][
            "ladder"][1] -= 1
        self.assertNotEqual(metrics.digest(sim), base)

    def test_correctness_counts_a_pass_that_simulated_differently(self):
        other = copy.deepcopy(self.SIM)
        other["cells"]["lazy-hmtx.snoop-bus"]["makespan"] += 1
        doc = {"passes": [
            {"checks": 2, "failures": [], "sim": self.SIM},
            {"checks": 2, "failures": [], "sim": copy.deepcopy(self.SIM)},
            {"checks": 2, "failures": ["x: oracle"], "sim": other}]}
        attempted, failed, messages = metrics.correctness(doc)
        self.assertEqual((attempted, failed), (8, 2))
        self.assertIn("pass 2", messages[1])


class BenchmarkJsonTest(unittest.TestCase):
    def test_metric_lists_match_the_reduction(self):
        path = HERE.parent.parent / "BENCHMARK.json"
        if not path.is_file():
            self.skipTest("BENCHMARK.json not present")
        spec = json.loads(path.read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         metrics.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(metrics.per_layer_units().items()))
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(metrics.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
