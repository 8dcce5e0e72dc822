#!/usr/bin/env python3
"""Tests of the benchmark itself, on its tiny-size mode.

    python3 pdmm_perf/test_tiny.py      (from the root of a source checkout)

Runs run.py --tiny on every workload, untraced and traced, and checks that
each run succeeds and that every metric BENCHMARK.json names for that mode
appears exactly once, with its unit, as a finite number.
"""
import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_tiny(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--tiny"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=900)
    return proc.returncode, proc.stdout


class TinyRuns(unittest.TestCase):
    def check_mode(self, trace):
        s = spec()
        expected = {m["name"]: m["unit"]
                    for m in s["per_layer" if trace else "end_to_end"]}
        for w in s["workloads"]:
            with self.subTest(workload=w["name"], trace=trace):
                rc, out = run_tiny(w["name"], trace)
                self.assertEqual(rc, 0)
                result = json.loads(out.strip().splitlines()[-1])
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                # json.loads keeps the last of duplicate keys, so count the
                # printed names in the raw line as well.
                last = out.strip().splitlines()[-1]
                for name, unit in expected.items():
                    self.assertEqual(last.count(f'"{name}": '), 1, name)
                    got = result["metrics"][name]
                    self.assertEqual(got["unit"], unit, name)
                    self.assertTrue(math.isfinite(got["value"]), name)
                self.assertEqual(set(result["metrics"]), set(expected))

    def test_end_to_end(self):
        self.check_mode(0)

    def test_traced(self):
        self.check_mode(1)

    def test_rejects_unknown_workload(self):
        rc, out = run_tiny("no_such_workload", 0)
        self.assertNotEqual(rc, 0)
        self.assertEqual(out, "")


if __name__ == "__main__":
    unittest.main()
