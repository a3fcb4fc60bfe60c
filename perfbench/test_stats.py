"""Tests of the benchmark's arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import statistics
import unittest

import stats


class OrderStatistics(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 6.0, 8.0, 10.0]
        q = statistics.quantiles(values, n=4)
        self.assertEqual(stats.quartiles(values), (q[0], q[2]))

    def test_quartiles_of_one_value(self):
        self.assertEqual(stats.quartiles([7.0]), (7.0, 7.0))


class PercentileRule(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.reportable_percentile(19))
        self.assertEqual(stats.reportable_percentile(20), 50)
        self.assertEqual(stats.reportable_percentile(100), 90)
        self.assertEqual(stats.reportable_percentile(199), 90)
        self.assertEqual(stats.reportable_percentile(200), 95)
        self.assertEqual(stats.reportable_percentile(1000), 99)
        self.assertEqual(stats.reportable_percentile(10000), 99.9)

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 90), 90)
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile([3, 1, 2], 100), 3)


class TimeToLastBug(unittest.TestCase):
    bugs = [("leak", 4), ("overflow", 9), ("leak", 2), ("null-deref", 5)]
    kills = {"2": 0.5, "4": 0.25, "5": 1.5, "9": 3.0, "11": 4.0}

    def test_latest_of_each_class_first_witness(self):
        # leak is first witnessed when state 4 dies (0.25), not state 2.
        self.assertEqual(
            stats.time_to_last_bug(self.bugs, self.kills,
                                   {"leak", "null-deref"}), 1.5)
        self.assertEqual(
            stats.time_to_last_bug(self.bugs, self.kills), 3.0)

    def test_integer_and_string_state_ids(self):
        kills = {4: 0.25, 5: 1.5, 9: 3.0, 2: 0.5}
        self.assertEqual(stats.time_to_last_bug(self.bugs, kills), 3.0)

    def test_unwitnessed_class_has_no_time(self):
        self.assertIsNone(
            stats.time_to_last_bug(self.bugs, self.kills, {"double-free"}))
        self.assertIsNone(
            stats.time_to_last_bug([("leak", 7)], self.kills, {"leak"}))
        self.assertIsNone(stats.time_to_last_bug([], self.kills))


class FailedPathFrac(unittest.TestCase):
    def test_counts_every_lost_path(self):
        run_ = {"solver_failures": 1, "spill_failures": 2, "aborted": 3,
                "witness_extract_failures": 4, "states_created": 100}
        self.assertAlmostEqual(stats.failed_path_frac(run_), 0.1)

    def test_zero_when_nothing_lost(self):
        run_ = {"solver_failures": 0, "spill_failures": 0, "aborted": 0,
                "witness_extract_failures": 0, "states_created": 256}
        self.assertEqual(stats.failed_path_frac(run_), 0)


class Unattributed(unittest.TestCase):
    def test_wall_clock_minus_phases(self):
        self.assertAlmostEqual(stats.unattributed_s(10.0, [1.0, 0.5, 0.5]),
                               8.0)

    def test_clamped_at_zero(self):
        self.assertEqual(stats.unattributed_s(1.0, [0.7, 0.6]), 0.0)

    def test_overhead_frac(self):
        self.assertAlmostEqual(
            stats.overhead_frac([1.1, 1.2, 1.0], [1.0, 0.9, 1.1]), 0.1)


if __name__ == "__main__":
    unittest.main()
