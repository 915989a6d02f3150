#!/usr/bin/env python3
"""Fast self-test of the benchmark harness (well under a minute):

    python3 perfbench/selftest.py

Checks the tracer's self-time arithmetic on a synthetic nested call, that a
perturbed score is caught by the digest and counted as a failed operation,
a smoke run of every workload at small size with and without tracing, that
the names the runs print match BENCHMARK.json, and that the benchmark
refuses to run without the mcde sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest

import run
import tracer

SMALL = run.Sizes(csv_rows=3000, power_reps=3, scan_n=2000, stream_rows=80,
                  stream_width=40, window_checks=5, setup_probes=1)
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


class TracerArithmetic(unittest.TestCase):
    def test_self_time_of_nested_calls(self):
        # outer [0, 10] holds inner [1, 3] and inner [4, 7]
        ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
        t = tracer.Tracer(clock=lambda: next(ticks))
        inner = t.wrap("inner", lambda: None)
        outer = t.wrap("outer", lambda: (inner(), inner()))
        outer()
        layers = tracer.summarise(t.arrays())
        self.assertEqual(list(t.parent), [-1, 0, 0])
        self.assertEqual(layers["outer.self_s"], 5.0)
        self.assertEqual(layers["inner.self_s"], 5.0)
        self.assertEqual(layers["inner.calls"], 2)
        self.assertEqual(layers["trace.covered_s"], 10.0)

    def test_generator_resumptions_exclude_the_consumer(self):
        # two resumptions [0, 1] and [5, 6]; the consumer's [1, 5] is not charged
        ticks = iter([0.0, 1.0, 5.0, 6.0, 8.0, 8.0])
        t = tracer.Tracer(clock=lambda: next(ticks))
        gen = t.wrap_generator("gen", lambda: iter([1, 2]))
        self.assertEqual(list(gen()), [1, 2])
        layers = tracer.summarise(t.arrays())
        self.assertEqual(layers["gen.self_s"], 2.0)
        self.assertEqual(layers["gen.calls"], 3)  # the last one finds the end


class CorrectnessGate(unittest.TestCase):
    def test_perturbed_score_fails_every_operation(self):
        scores = [0.25, 0.5, 0.75]
        perturbed = [0.25, 0.5, 0.75 + 1e-12]
        ops = [run.Op(1.0, 1.0, list(perturbed)) for _ in range(3)]
        self.assertEqual(run.tally(ops, run.digest(perturbed), run.digest(scores)), (3, 3))
        ops = [run.Op(1.0, 1.0, list(scores)) for _ in range(3)]
        self.assertEqual(run.tally(ops, run.digest(scores), run.digest(scores)), (3, 0))

    def test_one_deviating_operation_fails(self):
        ops = [run.Op(1.0, 1.0, [0.5]), run.Op(1.0, 1.0, [0.5000001])]
        self.assertEqual(run.tally(ops, run.digest([0.5]), None), (2, 1))

    def test_scores_outside_the_unit_interval(self):
        self.assertEqual(run.score_problems([0.0, 1.0]), [])
        for bad in (1.5, -0.1, float("nan"), float("inf")):
            self.assertTrue(run.score_problems([0.5, bad]))

    def test_wrong_digest_shows_in_error_rate(self):
        result, lines = run.run("power_n1000", 1, 0.0, False, SMALL, expected_digest="0" * 16)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        rate = next(line for line in lines if " error_rate " in line)
        self.assertEqual(float(rate.split()[2]), 1.0)


class SmokeRuns(unittest.TestCase):
    def test_workload_names_match(self):
        self.assertEqual(sorted(w["name"] for w in SPEC["workloads"]), sorted(run.WORKLOADS))

    def test_every_workload_at_small_size(self):
        wanted = {False: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
                  True: {m["name"]: m["unit"] for m in SPEC["per_layer"]}}
        for workload in run.WORKLOADS:
            for trace in (False, True):
                with self.subTest(workload=workload, trace=trace):
                    result, lines = run.run(workload, 2, 0.0, trace, SMALL)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], "\n".join(lines))
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, wanted[trace])
                    for value in result["metrics"].values():
                        self.assertIsInstance(value["value"], float)

    def test_refuses_to_run_without_sources(self):
        bare = run.WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        for path in run.HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "power_n1000", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
