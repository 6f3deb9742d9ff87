/**
 * @file
 * elv_perfbench: one workload of the repository benchmark per process.
 *
 *   elv_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *                 [--smoke] [--expect-digest HEX] [--out DIR]
 *
 * Prints `provenance ...`, `metric <name> <value> <unit>` and check
 * lines, then one JSON line {"correct","attempted","failed","metrics"}.
 * Exits 0 when every op and output check passed, 1 otherwise, 2 on bad
 * usage. perfbench/run.py builds it and passes the recorded digests.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hpp"

namespace {

using perfbench::Options;
using perfbench::WorkloadSpec;

void
usage()
{
    std::fprintf(stderr,
                 "usage: elv_perfbench --workload pipeline-mnist4|"
                 "search-mnist10|service-small-jobs|dist-mnist10\n"
                 "         [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n"
                 "         [--expect-digest HEX] [--out DIR]\n");
}

/** Search settings of the in-process and distributed workloads. */
bool
workload_spec(const Options &options, WorkloadSpec &spec)
{
    spec.job.seed = options.seed;
    spec.job.candidates = options.smoke ? 8 : 64;
    if (options.workload == "pipeline-mnist4") {
        spec.job.benchmark = "mnist-4";
        spec.job.device = "ibm_perth";
        spec.job.scale = options.smoke ? 0.05 : 0.3;
        spec.threads = 1;
        spec.epochs = options.smoke ? 2 : 40;
        spec.dist_workers = 2;
        spec.dist_threads = 1;
        return true;
    }
    if (options.workload == "search-mnist10" ||
        options.workload == "dist-mnist10") {
        spec.job.benchmark = "mnist-10";
        spec.job.device = "ibm_guadalupe";
        spec.job.scale = options.smoke ? 0.005 : 0.02;
        spec.threads = 4;
        spec.epochs = options.smoke ? 1 : 3;
        spec.dist_workers = 2;
        spec.dist_threads = 2;
        return true;
    }
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage();
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--workload")
            options.workload = value();
        else if (arg == "--seed")
            options.seed = std::strtoull(value(), nullptr, 10);
        else if (arg == "--seconds")
            options.seconds = std::atof(value());
        else if (arg == "--trace")
            options.trace = std::strcmp(value(), "0") != 0;
        else if (arg == "--smoke")
            options.smoke = true;
        else if (arg == "--expect-digest")
            options.expect_digest = value();
        else if (arg == "--out")
            options.out_dir = value();
        else {
            usage();
            return 2;
        }
    }
    if (!(options.seconds > 0.0)) {
        usage();
        return 2;
    }

    perfbench::Report report;
    try {
        WorkloadSpec spec;
        if (options.workload == "service-small-jobs")
            perfbench::run_service(options, report);
        else if (!workload_spec(options, spec)) {
            usage();
            return 2;
        } else if (options.workload == "dist-mnist10")
            perfbench::run_dist(options, spec, report);
        else
            perfbench::run_pipeline(options, spec, report);
    } catch (const std::exception &error) {
        report.op_failed(std::string("run aborted: ") + error.what());
        report.print(options.trace ? perfbench::kPerLayerMetrics
                                   : perfbench::kEndToEndMetrics);
    }
    return report.correct() ? 0 : 1;
}
