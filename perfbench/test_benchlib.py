"""Tests of the benchmark's own helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The record-check test builds the workload program (perfbench/CMakeLists.txt)
into .bench_build/ when it is not built yet.
"""

import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402


class TailPercentile(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertIsNone(benchlib.tail_percentile(10))
        self.assertEqual(benchlib.tail_percentile(20), 50.0)
        self.assertEqual(benchlib.tail_percentile(57), 75.0)
        self.assertEqual(benchlib.tail_percentile(141), 90.0)
        self.assertEqual(benchlib.tail_percentile(282), 95.0)
        self.assertEqual(benchlib.tail_percentile(490), 97.5)
        self.assertEqual(benchlib.tail_percentile(1000), 99.0)

    def test_samples_beyond_counts_strictly_above_the_rank(self):
        self.assertEqual(benchlib.samples_beyond(100, 90.0), 10)
        self.assertEqual(benchlib.samples_beyond(99, 90.0), 9)

    def test_nearest_rank_percentile(self):
        vals = list(range(1, 101))
        self.assertEqual(benchlib.percentile(vals, 90.0), 90)
        self.assertEqual(benchlib.percentile(vals, 95.0), 95)
        self.assertEqual(benchlib.percentile([5.0], 99.0), 5.0)
        self.assertEqual(benchlib.median([3, 1, 2, 10]), 2.5)


def span(name, ts, dur, tid=1):
    return {"ph": "X", "name": name, "pid": 1, "tid": tid, "ts": ts, "dur": dur}


class SelfTime(unittest.TestCase):
    def test_duration_minus_child_coverage(self):
        events = [
            span("parent", 0, 100),
            span("a", 10, 20),
            span("grandchild", 15, 5),
            span("b", 60, 10),
            span("other_thread", 0, 100, tid=2),
        ]
        t = benchlib.self_times(events)
        self.assertEqual(t["parent"], 70)  # 100 - (20 + 10)
        self.assertEqual(t["a"], 15)       # 20 - 5
        self.assertEqual(t["grandchild"], 5)
        self.assertEqual(t["b"], 10)
        self.assertEqual(t["other_thread"], 100)  # not a child of "parent"

    def test_self_times_sum_to_the_covered_wall(self):
        events = [span("p", 0, 50), span("c", 0, 50), span("q", 60, 20)]
        self.assertEqual(sum(benchlib.self_times(events).values()), 70)

    def test_child_time_leaves_out_the_parents_self_time(self):
        events = [
            span("cell", 0, 100),
            span("batch", 10, 50),
            span("exec", 20, 10),  # inside batch, counted once
            span("write", 70, 5),
            span("cell", 200, 40),  # a second parent with no children
            span("worker", 0, 100, tid=2),  # another thread: not a child
        ]
        self.assertEqual(benchlib.child_time(events, {"cell"}), 55)
        self.assertEqual(benchlib.child_time(events, {"batch"}), 10)
        self.assertEqual(benchlib.child_time(events, {"worker"}), 0)

    def test_union_length_merges_overlaps(self):
        self.assertEqual(benchlib.union_length([(0, 10), (5, 15), (20, 25)]), 20)
        self.assertEqual(benchlib.union_length([]), 0)


class RecordCheck(unittest.TestCase):
    def test_tampered_record_is_rejected(self):
        import run
        run.build()
        res = subprocess.run([str(run.PROGRAM), "selftest"], capture_output=True,
                             text=True, timeout=60)
        self.assertEqual(res.returncode, 0, res.stderr)
        self.assertIn("selftest ok", res.stdout)


if __name__ == "__main__":
    unittest.main()
