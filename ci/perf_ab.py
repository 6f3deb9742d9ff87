#!/usr/bin/env python3
"""A/B the repository benchmark: the working tree against its merge-base.

    python3 ci/perf_ab.py BASE_REF [-- PREFIX...]

Resolves `git merge-base HEAD BASE_REF` and checks that commit out into
a temporary directory (a shared clone, deleted on exit). The working
tree is the change side. Each side runs its own
`perfbench/run.py --workload W --seconds S --trace 0`, so each builds
into its own .bench_build/. The workloads, end-to-end metrics, their
`better` direction and bound, and S come from BENCHMARK.json.

Every workload runs PAIRS alternating pairs (parent first in even pairs,
change first in odd ones). Each metric's verdict follows verdict(); the
whole comparison is written to BENCH_perfbench.json at the repository
root. If perfbench/ or BENCHMARK.json differ between the two trees the
benchmark itself changed: nothing is compared and the exit status is 0,
because a benchmark change is re-baselined on its own.

Everything after `--` prefixes only the change side's measured command
(for example `-- taskset -c 0`). It exists for the gate's self-test,
which must see a regression, and for nothing else.

Exit status: 0 when nothing regressed, 1 when a metric regressed or the
change side failed a larger share of its ops, 2 on a build or run error
or a run that is not comparable (a debug or sanitizer build).
"""
import argparse
import json
import os
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Ten pairs: the fewest the claim rule of a gain can be judged on.
PAIRS = 10
BENCHMARK_PATHS = ["perfbench", "BENCHMARK.json"]
REPORT = "BENCH_perfbench.json"


class RunError(Exception):
    """A build or benchmark run that produced no usable result."""


def git(root, *args):
    result = subprocess.run(["git", "-C", root, *args],
                            capture_output=True, text=True)
    if result.returncode != 0:
        raise RunError("git %s: %s" % (" ".join(args),
                                       result.stderr.strip()))
    return result.stdout.strip()


def benchmark_changed(root, base_sha):
    """True when perfbench/ or BENCHMARK.json in the working tree at
    `root` differ from commit `base_sha` (untracked files included)."""
    diff = subprocess.run(["git", "-C", root, "diff", "--quiet", base_sha,
                           "--", *BENCHMARK_PATHS])
    if diff.returncode not in (0, 1):
        raise RunError("git diff failed against " + base_sha)
    return diff.returncode == 1 or bool(
        git(root, "ls-files", "--others", "--exclude-standard", "--",
            *BENCHMARK_PATHS))


def quartiles(runs):
    """(q1, median, q3), linearly interpolated between the runs."""
    return statistics.quantiles(runs, n=4, method="inclusive")


def verdict(base_runs, change_runs, better, bound):
    """Judge one metric on one workload.

    `worse` is the change median's relative distance from the parent
    median in the metric's bad direction. When the parent's spread
    (IQR over median) is within `bound`, the metric is "regressed" when
    `worse` exceeds the bound and "ok" otherwise. When the spread is
    wider, a median shift cannot be told from noise: the metric is
    "unresolved", unless every change run is worse than every parent
    run and `worse` exceeds the bound ("regressed"), or every change
    run is better than every parent run ("ok").
    Returns (verdict, worse, parent spread).
    """
    sign = 1.0 if better == "lower" else -1.0
    q1, base_median, q3 = quartiles(base_runs)
    change_median = statistics.median(change_runs)
    worse = sign * (change_median - base_median) / base_median
    spread = (q3 - q1) / base_median
    if spread <= bound:
        return ("regressed" if worse > bound else "ok"), worse, spread
    all_worse = all(sign * (c - b) > 0
                    for c in change_runs for b in base_runs)
    all_better = all(sign * (c - b) < 0
                     for c in change_runs for b in base_runs)
    if all_worse and worse > bound:
        return "regressed", worse, spread
    if all_better:
        return "ok", worse, spread
    return "unresolved", worse, spread


def parse_run(stdout):
    """The last JSON line of one run, plus its provenance key=values.
    A run whose provenance is not comparable (a debug, assert or
    sanitizer build) is refused."""
    provenance = {}
    result = None
    for line in stdout.splitlines():
        if line.startswith("provenance "):
            for token in shlex.split(line[len("provenance "):]):
                key, _, value = token.partition("=")
                provenance[key] = value
        elif line.startswith("{"):
            result = line
    if result is None:
        raise RunError("no result line")
    if provenance.get("comparable") != "yes":
        raise RunError("not comparable: %s" % provenance.get("comparable"))
    doc = json.loads(result)
    return {"metrics": {name: metric["value"]
                        for name, metric in doc["metrics"].items()},
            "attempted": doc["attempted"], "failed": doc["failed"],
            "provenance": provenance}


def run_side(tree, workload, seconds, prefix=()):
    command = [*prefix, sys.executable,
               os.path.join(tree, "perfbench", "run.py"),
               "--workload", workload, "--seconds", str(seconds),
               "--trace", "0"]
    result = subprocess.run(command, cwd=tree, capture_output=True,
                            text=True)
    try:
        return parse_run(result.stdout)
    except (RunError, ValueError, KeyError, TypeError) as error:
        sys.stderr.write(result.stderr[-4000:])
        raise RunError("%s in %s: %s (exit %d)" % (
            workload, tree, error, result.returncode))


def summary(runs):
    q1, median, q3 = quartiles(runs)
    return {"runs": runs, "median": median, "q1": q1, "q3": q3}


def judge_workload(end_to_end, runs):
    """Judge one workload's runs ({"base": [...], "change": [...]},
    each a parse_run result) on every end-to-end metric of
    BENCHMARK.json, and compare the sides' failed-op shares. Returns
    the workload's report entry and the names of what regressed."""
    metrics, regressed = {}, []
    for metric in end_to_end:
        name = metric["name"]
        values = {side: [run["metrics"].get(name) for run in runs[side]]
                  for side in runs}
        if any(v is None for side in values for v in values[side]):
            raise RunError("metric %s missing from a run" % name)
        result, worse, spread = verdict(values["base"], values["change"],
                                        metric["better"], metric["bound"])
        metrics[name] = {
            "unit": metric["unit"], "better": metric["better"],
            "bound": metric["bound"], "base": summary(values["base"]),
            "change": summary(values["change"]), "worse": worse,
            "base_spread": spread, "verdict": result}
        if result == "regressed":
            regressed.append(name)
    ops = {side: {"attempted": sum(r["attempted"] for r in runs[side]),
                  "failed": sum(r["failed"] for r in runs[side])}
           for side in runs}
    share = {side: ops[side]["failed"] / max(ops[side]["attempted"], 1)
             for side in ops}
    more_failed = share["change"] > share["base"]
    if more_failed:
        regressed.append("failed-op share")
    return {"metrics": metrics, "ops": ops,
            "more_failed_ops": more_failed}, regressed


def compare(benchmark, base_tree, change_tree, prefix, log):
    """Run every workload in PAIRS alternating pairs and judge it."""
    seconds = benchmark["run_seconds"]
    sides = {"base": (base_tree, ()), "change": (change_tree, prefix)}
    report = {"provenance": {}, "workloads": {}, "regressed": []}
    for workload in [w["name"] for w in benchmark["workloads"]]:
        runs = {"base": [], "change": []}
        for pair in range(PAIRS):
            order = ("base", "change") if pair % 2 == 0 else (
                "change", "base")
            for side in order:
                tree, side_prefix = sides[side]
                run = run_side(tree, workload, seconds, side_prefix)
                runs[side].append(run)
                report["provenance"].setdefault(side, {
                    key: run["provenance"].get(key)
                    for key in ("nproc", "cpu", "kernel_tier", "build")})
                log("%s pair %d %s: run_s %s, failed %d/%d" % (
                    workload, pair + 1, side,
                    run["metrics"].get("run_s"), run["failed"],
                    run["attempted"]))
        entry, regressed = judge_workload(benchmark["end_to_end"], runs)
        report["workloads"][workload] = entry
        report["regressed"] += [workload + " " + name
                                for name in regressed]
    report["pass"] = not report["regressed"]
    return report


def ab(root, base_ref, prefix, log=print):
    """The whole A/B; returns the exit status."""
    base_sha = git(root, "merge-base", "HEAD", base_ref)
    if benchmark_changed(root, base_sha):
        log("the benchmark changed (perfbench/ or BENCHMARK.json differ "
            "from %s): not compared; re-baseline it on its own" %
            base_sha[:12])
        return 0
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    scratch = tempfile.mkdtemp(prefix="perf_ab_")
    try:
        base_tree = os.path.join(scratch, "base")
        git(root, "clone", "--quiet", "--shared", "--no-checkout", root,
            base_tree)
        git(base_tree, "checkout", "--quiet", "--detach", base_sha)
        log("parent %s in %s" % (base_sha[:12], base_tree))
        report = compare(benchmark, base_tree, root, prefix, log)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    report = {
        "base": {"ref": base_ref, "sha": base_sha},
        "change": {"sha": git(root, "rev-parse", "HEAD"),
                   "dirty": bool(git(root, "status", "--porcelain",
                                     "--untracked-files=no")),
                   "prefix": list(prefix)},
        "pairs": PAIRS, "run_seconds": benchmark["run_seconds"],
        **report}
    with open(os.path.join(root, REPORT), "w") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    for workload, entry in report["workloads"].items():
        for name, metric in entry["metrics"].items():
            log("%-15s %-12s parent %.4g [%.4g, %.4g]  change %.4g "
                "[%.4g, %.4g]  %+.1f%%  %s" % (
                    workload, name, metric["base"]["median"],
                    metric["base"]["q1"], metric["base"]["q3"],
                    metric["change"]["median"], metric["change"]["q1"],
                    metric["change"]["q3"], 100.0 * metric["worse"],
                    metric["verdict"]))
    log("wrote %s: %s" % (REPORT, "pass" if report["pass"] else
                          "FAIL (" + ", ".join(report["regressed"]) + ")"))
    return 0 if report["pass"] else 1


def main(argv):
    prefix = []
    if "--" in argv:
        prefix = argv[argv.index("--") + 1:]
        argv = argv[:argv.index("--")]
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        usage="%(prog)s BASE_REF [-- PREFIX...]",
        epilog="PREFIX (after --) prefixes only the change side's "
               "measured command, e.g. `-- taskset -c 0`. It exists for "
               "the gate's self-test, which must see a regression, and "
               "for nothing else.")
    parser.add_argument("base_ref", metavar="BASE_REF",
                        help="the branch or commit to compare against "
                             "(its merge-base with HEAD is the parent)")
    args = parser.parse_args(argv)
    # A cancelled job still deletes the parent checkout.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(2))
    try:
        return ab(ROOT, args.base_ref, prefix,
                  log=lambda line: print(line, flush=True))
    except RunError as error:
        print("perf_ab: " + str(error), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
