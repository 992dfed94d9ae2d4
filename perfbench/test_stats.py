"""Self-tests of the benchmark's own helpers.

    python3 perfbench/test_stats.py

Covers the statistics (percentile tail rule, quartiles, failure
counting, step-wise minima, host factors), the metric list against ``BENCHMARK.json``,
the recorded outputs' format, and the seed rules' independence from
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(samples, 50), 50)
        self.assertEqual(stats.percentile(samples, 90), 90)
        self.assertEqual(stats.percentile(reversed(samples), 90), 90)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertEqual(stats.percentile(range(1000), 99), 989)  # ranks 991..1000 beyond
        with self.assertRaises(stats.TooFewSamples):
            stats.percentile(range(999), 99)  # rank 990 leaves 9 beyond
        with self.assertRaises(stats.TooFewSamples):
            stats.percentile(range(100), 95)
        self.assertEqual(stats.percentile(range(5), 50), 2)

    def test_tail_percentile_is_the_highest_supported(self):
        self.assertEqual(stats.tail_percentile(1000), 99)
        self.assertEqual(stats.tail_percentile(999), 95)
        self.assertEqual(stats.tail_percentile(300), 95)
        self.assertEqual(stats.tail_percentile(100), 90)
        for n in (100, 300, 999, 1000, 7400):
            stats.percentile(range(n), stats.tail_percentile(n))  # never too few beyond
        with self.assertRaises(stats.TooFewSamples):
            stats.tail_percentile(99)

    def test_rejects_bad_input(self):
        with self.assertRaises(stats.TooFewSamples):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 0)


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        self.assertEqual(stats.quartiles(values), tuple(statistics.quantiles(values, n=4)))
        q1, q2, q3 = stats.quartiles(values)
        self.assertAlmostEqual(stats.relative_spread(values), (q3 - q1) / q2)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(stats.relative_spread([2.0] * 10), 0.0)


class StepwiseMinTest(unittest.TestCase):
    def test_fastest_repeat_of_each_step(self):
        repeats = [[1.0, 5.0, 3.0], [2.0, 4.0, 9.0], [1.5, 6.0, 2.5]]
        self.assertEqual(stats.stepwise_min(repeats), [1.0, 4.0, 2.5])

    def test_repeats_must_line_up(self):
        with self.assertRaises(ValueError):
            stats.stepwise_min([[1.0, 2.0], [1.0]])


class HostFactorTest(unittest.TestCase):
    def test_fast_percentile_over_the_reference(self):
        samples = [1e-3 * (1 + k / 10) for k in range(20)]  # 1.0 .. 2.9 ms
        self.assertAlmostEqual(stats.host_factor(reversed(samples), 1e-3), 1.1)

    def test_needs_samples(self):
        with self.assertRaises(stats.TooFewSamples):
            stats.host_factor([], 1e-3)


class FailureBookTest(unittest.TestCase):
    def test_counts_and_ratio(self):
        book = stats.FailureBook(keep=2)
        book.ok(7)
        for reason in ("a", "b", "c"):
            book.fail(reason)
        self.assertEqual((book.attempted, book.failed), (10, 3))
        self.assertEqual(book.reasons, ["a", "b"])
        self.assertAlmostEqual(book.success_ratio, 0.7)

    def test_merge(self):
        first, second = stats.FailureBook(), stats.FailureBook()
        first.ok(5)
        second.ok(4)
        second.fail("lost")
        first.merge(second)
        self.assertEqual((first.attempted, first.failed, first.reasons), (10, 1, ["lost"]))

    def test_nothing_attempted_is_not_success(self):
        self.assertEqual(stats.FailureBook().success_ratio, 0.0)
        book = stats.FailureBook()
        book.ok(3)
        self.assertEqual(book.success_ratio, 1.0)


class MetricListTest(unittest.TestCase):
    def test_benchmark_json_lists_the_reported_metrics(self):
        doc = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in doc["end_to_end"]}, END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in doc["per_layer"]}, PER_LAYER)
        self.assertEqual(doc["paths"], [HERE.name])

    def test_benchmark_json_workloads_run(self):
        from run import WORKLOADS

        doc = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertLessEqual({w["name"] for w in doc["workloads"]}, set(WORKLOADS))

    def test_expected_outputs_cover_every_workload(self):
        import expected
        from run import WORKLOADS

        recorded = expected.load()
        self.assertEqual(set(recorded), set(WORKLOADS))
        for workload, seeds in recorded.items():
            for seed, want in seeds.items():
                self.assertEqual(len(want["fingerprints"]), 64, (workload, seed))
        self.assertIn("f1", recorded["e7-session"]["*"])
        self.assertIn("sim_makespan_s", recorded["dispatch-sharded-100k"]["1"])


@unittest.skipUnless((ROOT / "src" / "repro").is_dir(), "needs the program under src/")
class SeedRulesTest(unittest.TestCase):
    def test_independent_of_hash_seed(self):
        probe = (
            "from repro.synth.factories import random_domain\n"
            "from workloads import random_rules, rules_fingerprint\n"
            "items = random_domain(300, seed=7).items\n"
            "print(rules_fingerprint(random_rules(items, 5000, 11)))\n"
        )
        prints = set()
        for hashseed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed,
                       PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
            out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                                 capture_output=True, text=True, timeout=120)
            prints.add(out.stdout.strip())
        self.assertEqual(len(prints), 1, prints)


if __name__ == "__main__":
    unittest.main()
