#!/usr/bin/env python3
"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 perfbench/test_smoke.py

Checks that each workload prints every end-to-end metric (untraced) and
every per-layer metric (traced) by name with its unit, that the output
checks pass, and that a corrupted reference digest makes the command
fail.
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# End-to-end metrics every untraced run prints; "n/a" marks the ones a
# workload does not have (train_s on a search-only workload, ...).
END_TO_END = {
    "run_s": "s", "search_s": "s", "train_s": "s", "eval_s": "s",
    "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "job_p50_s": "s",
    "job_p90_s": "s", "jobs_per_s": "1/s", "ops": "count",
    "ops_failed": "count",
}


def load(path):
    with open(path) as handle:
        return json.load(handle)


def run(workload, trace, *extra):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--smoke", *extra]
    result = subprocess.run(command, cwd=ROOT, capture_output=True,
                            text=True, timeout=600)
    lines = result.stdout.strip().splitlines()
    summary = json.loads(lines[-1]) if lines else None
    metrics = {}
    for line in lines:
        match = re.match(r"metric (\S+) (\S+) (\S+)", line)
        if match:
            metrics[match.group(1)] = (match.group(2), match.group(3))
    return result, summary, metrics


class Smoke(unittest.TestCase):
    benchmark = load(os.path.join(ROOT, "BENCHMARK.json"))
    # Every workload run.py knows, gated in BENCHMARK.json or not.
    workloads = sorted(load(os.path.join(HERE, "reference.json"))["workloads"])

    def check_run(self, workload, trace, expected_units):
        result, summary, metrics = run(workload, trace)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertTrue(summary["correct"], result.stdout)
        self.assertEqual(summary["failed"], 0)
        self.assertGreaterEqual(summary["attempted"], 1)
        for name, unit in expected_units.items():
            self.assertIn(name, metrics,
                          "%s: %s not printed" % (workload, name))
            self.assertEqual(metrics[name][1], unit, name)
        gated = [m["name"] for m in self.benchmark[
            "per_layer" if trace else "end_to_end"]]
        self.assertEqual(sorted(summary["metrics"]), sorted(gated))
        for name, entry in summary["metrics"].items():
            self.assertEqual(entry["unit"], expected_units[name], name)
        return result

    def test_every_workload_prints_every_metric(self):
        per_layer = {m["name"]: m["unit"] for m in self.benchmark["per_layer"]}
        for workload in self.workloads:
            with self.subTest(workload=workload, trace=0):
                self.check_run(workload, 0, END_TO_END)
            with self.subTest(workload=workload, trace=1):
                result = self.check_run(workload, 1, per_layer)
                match = re.search(r"spans written to (\S+)", result.stdout)
                self.assertIsNotNone(match, result.stdout)
                with open(match.group(1)) as handle:
                    self.assertTrue(json.load(handle)["traceEvents"])

    def test_corrupted_reference_digest_fails(self):
        for workload in ("pipeline-mnist4", "dist-mnist10"):
            with self.subTest(workload=workload):
                result, summary, _ = run(workload, 0, "--expect-digest",
                                         "0123456789abcdef")
                self.assertNotEqual(result.returncode, 0)
                self.assertFalse(summary["correct"])
                self.assertGreaterEqual(summary["failed"], 1)
                self.assertIn("differs from the recorded reference",
                              result.stdout)


if __name__ == "__main__":
    unittest.main()
