"""Tests of run.py's own rules (no build, no syrwatch run needed).

    cd syrbench && python3 -B -m unittest -v test_run
"""

import unittest

import run


class TailPercentileTest(unittest.TestCase):
    def test_highest_rank_with_ten_beyond(self):
        samples = list(range(1, 31))  # 30 samples
        percentile, value, n = run.tail_percentile(samples)
        # k = 30 - 10 = 20: the 20th smallest, ten samples above it.
        self.assertEqual((value, n), (20, 30))
        self.assertAlmostEqual(percentile, 100 * 20 / 30)
        self.assertEqual(sum(1 for s in samples if s > value), 10)

    def test_order_of_samples_does_not_matter(self):
        samples = [7.5, 1.0, 3.25, 9.0, 2.0, 8.0, 4.0, 6.0, 5.0, 10.0, 11.0,
                   12.0, 0.5, 13.0]
        percentile, value, n = run.tail_percentile(samples)
        self.assertEqual(n, 14)
        self.assertEqual(value, sorted(samples)[3])  # k = 4
        self.assertAlmostEqual(percentile, 100 * 4 / 14)

    def test_eleven_samples_is_the_minimum(self):
        percentile, value, _ = run.tail_percentile(list(range(11)))
        self.assertEqual(value, 0)
        self.assertAlmostEqual(percentile, 100 / 11)

    def test_more_samples_reach_higher_percentiles(self):
        self.assertAlmostEqual(run.tail_percentile(range(24))[0],
                               100 * 14 / 24)
        self.assertAlmostEqual(run.tail_percentile(range(1000))[0], 99.0)

    def test_too_few_samples_are_an_error(self):
        for samples in ([], [4, 1, 3, 2], list(range(10))):
            with self.assertRaises(ValueError):
                run.tail_percentile(samples)

if __name__ == "__main__":
    unittest.main()
