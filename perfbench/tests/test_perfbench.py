"""Self-tests of the benchmark. From the repository root:

    python3 -m unittest discover -s perfbench/tests -v

The smoke test builds the driver on first use (a few minutes) and then
runs every workload on toy datasets with all correctness checks on.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import metrics  # noqa: E402
import run  # noqa: E402


def span(id_, parent, start, end, name="s"):
    return {"name": name, "request": 1, "id": id_, "parent": parent,
            "start_ns": start, "end_ns": end}


class TailTest(unittest.TestCase):

    def test_highest_rung_with_ten_beyond(self):
        self.assertEqual(metrics.tail(list(range(1, 101))), (90.0, 90, 10))
        self.assertEqual(metrics.tail(list(range(1, 100))), (50.0, 50, 49))
        self.assertEqual(metrics.tail(list(range(1, 1001))), (99.0, 990, 10))
        # The ladder stops at p99: 10k samples do not buy p99.9.
        self.assertEqual(metrics.tail(list(range(1, 10001))),
                         (99.0, 9900, 100))

    def test_order_does_not_matter(self):
        samples = [float(i % 37) for i in range(500)]
        self.assertEqual(metrics.tail(samples),
                         metrics.tail(sorted(samples)))

    def test_ties_count_only_samples_strictly_beyond(self):
        # p90 is 2.0 with nothing beyond it, so the tail falls back to p50.
        samples = [1.0] * 85 + [2.0] * 15
        self.assertEqual(metrics.tail(samples), (50.0, 1.0, 15))

    def test_too_few_samples_fall_back_to_the_maximum(self):
        self.assertEqual(metrics.tail([3.0, 7.0, 1.0]), (100.0, 7.0, 0))
        self.assertEqual(metrics.tail(list(range(10))), (100.0, 9, 0))
        self.assertEqual(metrics.tail([]), (100.0, 0.0, 0))


class SelfTimeTest(unittest.TestCase):

    def test_nested_children_are_subtracted_once(self):
        spans = [
            span(1, 0, 0, 100),    # root
            span(2, 1, 10, 40),    # child with a grandchild
            span(3, 2, 15, 25),    # grandchild
            span(4, 1, 50, 70),    # second child
        ]
        selfs = metrics.self_times(spans)
        self.assertEqual(selfs[1], 100 - 30 - 20)
        self.assertEqual(selfs[2], 30 - 10)
        self.assertEqual(selfs[3], 10)
        self.assertEqual(selfs[4], 20)

    def test_overlapping_children_count_their_union(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 50), span(3, 1, 30, 60)]
        self.assertEqual(metrics.self_times(spans)[1], 100 - 50)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(1, 0, 10, 20), span(2, 1, 5, 15), span(3, 1, 18, 30)]
        self.assertEqual(metrics.self_times(spans)[1], 10 - 5 - 2)

    def test_roots_of_separate_requests_are_independent(self):
        spans = [span(1, 0, 0, 10), span(2, 0, 5, 15)]
        self.assertEqual(metrics.self_times(spans), {1: 10, 2: 10})


class SpecTest(unittest.TestCase):
    """BENCHMARK.json has the shape the benchmark contract requires."""

    def setUp(self):
        self.spec = run.spec()

    def test_keys_and_limits(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds",
                                          "workloads", "end_to_end",
                                          "per_layer"})
        self.assertEqual(self.spec["command"][:2],
                         ["python3", "perfbench/run.py"])
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))
        for m in self.spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in self.spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in self.spec["end_to_end"]))


class MissingSourcesTest(unittest.TestCase):

    def test_fails_without_a_result(self):
        os.makedirs(run.BUILD, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.BUILD) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "yago-paper", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


class SmokeTest(unittest.TestCase):
    """Every workload on a toy dataset, untraced and traced: all answers
    check out, and the printed metrics are exactly those BENCHMARK.json
    names, with its units."""

    def run_bench(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
             workload, "--seed", "3", "--seconds", "1", "--trace",
             str(trace), "--scale", "tiny"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])

    def test_all_workloads(self):
        spec = run.spec()
        for workload in run.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    text, result = self.run_bench(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"], text)
                    self.assertEqual(result["failed"], 0, text)
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(
                        {n: m["unit"] for n, m in result["metrics"].items()},
                        {m["name"]: m["unit"] for m in spec[key]})
                    for m in result["metrics"].values():
                        self.assertIsInstance(m["value"], (int, float))
                    self.assertIn("plan_fingerprint=", text)
                    if trace == 1 and workload.endswith("-paper"):
                        self.assertIn("paper: 6.1x", text)


if __name__ == "__main__":
    unittest.main()
