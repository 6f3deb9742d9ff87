#!/usr/bin/env python3
"""Unit test of ci/perf_ab.py's verdict rules; needs no build.

    python3 ci/test_perf_ab.py

Feeds synthetic per-run values to the verdict and workload judgement,
and checks that a change to perfbench/ skips the comparison.
"""
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perf_ab  # noqa: E402

BOUND = 0.25
# Ten steady parent runs: IQR/median 0.02, well inside the bound.
STEADY = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
# Ten noisy parent runs: IQR/median about 0.5, wider than the bound.
NOISY = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.6, 1.4, 1.0, 1.0]


def scaled(runs, factor):
    return [value * factor for value in runs]


class Verdict(unittest.TestCase):
    def test_twice_as_slow_is_regressed(self):
        result, worse, spread = perf_ab.verdict(
            STEADY, scaled(STEADY, 2.0), "lower", BOUND)
        self.assertEqual(result, "regressed")
        self.assertAlmostEqual(worse, 1.0)
        self.assertLess(spread, BOUND)

    def test_change_inside_the_bound_is_ok(self):
        result, worse, _ = perf_ab.verdict(
            STEADY, scaled(STEADY, 1.2), "lower", BOUND)
        self.assertEqual(result, "ok")
        self.assertAlmostEqual(worse, 0.2)

    def test_faster_change_is_ok(self):
        result, worse, _ = perf_ab.verdict(
            STEADY, scaled(STEADY, 0.5), "lower", BOUND)
        self.assertEqual(result, "ok")
        self.assertLess(worse, 0.0)

    def test_parent_spread_wider_than_the_bound_is_unresolved(self):
        result, _, spread = perf_ab.verdict(
            NOISY, scaled(NOISY, 1.3), "lower", BOUND)
        self.assertGreater(spread, BOUND)
        self.assertEqual(result, "unresolved")

    def test_every_change_run_worse_regresses_despite_the_spread(self):
        change = [max(NOISY) * 1.1 + 0.01 * i for i in range(10)]
        result, worse, spread = perf_ab.verdict(NOISY, change, "lower",
                                                BOUND)
        self.assertGreater(spread, BOUND)
        self.assertGreater(worse, BOUND)
        self.assertEqual(result, "regressed")

    def test_every_change_run_better_is_ok_despite_the_spread(self):
        change = [min(NOISY) * 0.9 - 0.01 * i for i in range(10)]
        result, _, spread = perf_ab.verdict(NOISY, change, "lower", BOUND)
        self.assertGreater(spread, BOUND)
        self.assertEqual(result, "ok")

    def test_all_worse_but_within_the_bound_stays_unresolved(self):
        # Every change run is worse, but the medians differ by less
        # than the bound: not a regression the gate may claim.
        base = [1.0, 1.0, 1.0, 1.9, 1.9, 1.9, 1.9, 2.0, 2.0, 2.0]
        change = [2.01] * 10
        result, worse, spread = perf_ab.verdict(base, change, "lower",
                                                BOUND)
        self.assertGreater(spread, BOUND)
        self.assertLess(worse, BOUND)
        self.assertEqual(result, "unresolved")

    def test_higher_is_better_metric(self):
        self.assertEqual(perf_ab.verdict(STEADY, scaled(STEADY, 0.5),
                                         "higher", BOUND)[0], "regressed")
        self.assertEqual(perf_ab.verdict(STEADY, scaled(STEADY, 2.0),
                                         "higher", BOUND)[0], "ok")
        self.assertEqual(perf_ab.verdict(STEADY, scaled(STEADY, 0.9),
                                         "higher", BOUND)[0], "ok")


def run(value, attempted=10, failed=0):
    return {"metrics": {"run_s": value, "jobs": value},
            "attempted": attempted, "failed": failed, "provenance": {}}


END_TO_END = [
    {"name": "run_s", "unit": "s", "better": "lower", "bound": BOUND},
    {"name": "jobs", "unit": "1/s", "better": "higher", "bound": BOUND},
]


class Workload(unittest.TestCase):
    def test_same_runs_pass(self):
        runs = {"base": [run(v) for v in STEADY],
                "change": [run(v) for v in STEADY]}
        entry, regressed = perf_ab.judge_workload(END_TO_END, runs)
        self.assertEqual(regressed, [])
        self.assertEqual(entry["metrics"]["run_s"]["verdict"], "ok")
        self.assertEqual(entry["ops"]["change"],
                         {"attempted": 100, "failed": 0})

    def test_slower_change_regresses_the_lower_is_better_metric(self):
        runs = {"base": [run(v) for v in STEADY],
                "change": [run(2.0 * v) for v in STEADY]}
        _, regressed = perf_ab.judge_workload(END_TO_END, runs)
        # Twice the value is worse for run_s and better for jobs.
        self.assertEqual(regressed, ["run_s"])

    def test_larger_failed_op_share_fails(self):
        runs = {"base": [run(v) for v in STEADY],
                "change": [run(v, failed=1 if i == 0 else 0)
                           for i, v in enumerate(STEADY)]}
        entry, regressed = perf_ab.judge_workload(END_TO_END, runs)
        self.assertTrue(entry["more_failed_ops"])
        self.assertEqual(regressed, ["failed-op share"])

    def test_missing_metric_is_a_run_error(self):
        runs = {"base": [run(v) for v in STEADY],
                "change": [run(v) for v in STEADY]}
        del runs["change"][3]["metrics"]["jobs"]
        with self.assertRaises(perf_ab.RunError):
            perf_ab.judge_workload(END_TO_END, runs)


class ParseRun(unittest.TestCase):
    OUTPUT = "\n".join([
        'provenance nproc=4 cpu="Intel Xeon (R)"',
        "provenance kernel_tier=avx512 build=Release git=abc",
        "provenance comparable=yes",
        "metric run_s 1.5 s",
        '{"metrics": {"run_s": {"value": 1.5, "unit": "s"}}, '
        '"correct": true, "attempted": 3, "failed": 1}'])

    def test_reads_metrics_ops_and_provenance(self):
        run = perf_ab.parse_run(self.OUTPUT)
        self.assertEqual(run["metrics"], {"run_s": 1.5})
        self.assertEqual((run["attempted"], run["failed"]), (3, 1))
        self.assertEqual(run["provenance"]["cpu"], "Intel Xeon (R)")
        self.assertEqual(run["provenance"]["comparable"], "yes")

    def test_incomparable_build_is_refused(self):
        output = self.OUTPUT.replace(
            "comparable=yes", "comparable=no (debug or sanitizer build)")
        with self.assertRaises(perf_ab.RunError):
            perf_ab.parse_run(output)

    def test_missing_result_line_is_a_run_error(self):
        with self.assertRaises(perf_ab.RunError):
            perf_ab.parse_run(self.OUTPUT.rsplit("\n", 1)[0])


class BenchmarkChange(unittest.TestCase):
    def setUp(self):
        self.scratch = tempfile.TemporaryDirectory()
        self.repo = self.scratch.name
        os.makedirs(os.path.join(self.repo, "perfbench"))
        self.write("perfbench/run.py", "print('v1')\n")
        self.write("BENCHMARK.json", "{}\n")
        self.write("src.txt", "code\n")
        self.git("init", "--quiet")
        self.git("add", "-A")
        self.git("-c", "user.name=t", "-c", "user.email=t@t", "commit",
                 "--quiet", "-m", "base")

    def tearDown(self):
        self.scratch.cleanup()

    def write(self, path, text):
        with open(os.path.join(self.repo, path), "w") as handle:
            handle.write(text)

    def git(self, *args):
        subprocess.run(["git", "-C", self.repo, *args], check=True)

    def test_code_change_is_compared(self):
        self.write("src.txt", "faster code\n")
        self.assertFalse(perf_ab.benchmark_changed(self.repo, "HEAD"))

    def test_differing_perfbench_skips_the_comparison(self):
        self.write("perfbench/run.py", "print('v2')\n")
        self.assertTrue(perf_ab.benchmark_changed(self.repo, "HEAD"))
        lines = []
        self.assertEqual(perf_ab.ab(self.repo, "HEAD", [], lines.append), 0)
        self.assertIn("benchmark changed", lines[0])
        self.assertFalse(os.path.exists(
            os.path.join(self.repo, perf_ab.REPORT)))

    def test_new_file_under_perfbench_skips_the_comparison(self):
        self.write("perfbench/extra.py", "\n")
        self.assertTrue(perf_ab.benchmark_changed(self.repo, "HEAD"))


if __name__ == "__main__":
    unittest.main()
