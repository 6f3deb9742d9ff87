/**
 * @file
 * Table 4: Elivagar vs QuantumNAS search cost.
 *
 * Two regimes, as in the paper:
 *  - 'C' (classical simulators): measured wall-clock of both searches in
 *    this process (SuperCircuit training + evolutionary co-search vs
 *    candidate generation + CNR + RepCap), both using adjoint/"backprop"
 *    gradients.
 *  - 'Q' (quantum hardware): circuit-execution counts at PAPER scale,
 *    which is how the paper itself estimates this column (Sec. 8.2.2:
 *    wall-clock on cloud QPUs is unreliable, so executions are
 *    compared). QuantumNAS costs 2 t |D_train| p parameter-shift
 *    executions for SuperCircuit training plus fitness evaluations;
 *    Elivagar costs M per candidate for CNR plus n_c d_c n_p per
 *    survivor for RepCap (Sec. 6.1).
 *
 * Shape to reproduce: Elivagar is faster in both regimes and the 'Q'
 * speedup grows with problem size (paper: 11.7x geomean 'C', 271x
 * geomean 'Q', 5220x on MNIST-10). The measured 'C' column is
 * compressed relative to the paper's because our scaled-down
 * SuperCircuit training (40 epochs x 240 samples vs 200 x full set)
 * shrinks QuantumNAS's dominant cost while Elivagar's predictor costs
 * are size-independent.
 */
#include <cstdio>

#include "common/statistics.hpp"
#include "common/table.hpp"
#include "harness.hpp"
#include "qml/trainer.hpp"

int
main(int argc, char **argv)
{
    using namespace elv;
    using namespace elv::bench;

    elv::bench::Reporter reporter("table4_speedup", argc, argv);

    struct Row
    {
        const char *benchmark;
        double paper_speedup_c;
        double paper_speedup_q;
    };
    const Row rows[] = {
        {"moons", 5.6, 44.0},     {"vowel-4", 7.0, 77.0},
        {"vowel-2", 6.2, 104.0},  {"bank", 6.4, 119.0},
        {"mnist-2", 18.6, 182.0}, {"fmnist-2", 22.0, 282.0},
        {"fmnist-4", 20.7, 646.0}, {"mnist-4", 11.3, 1046.0},
        {"mnist-10", 28.4, 5220.0},
    };

    RunOptions options;
    options.threads = reporter.threads();
    reporter.set_seed(options.seed);
    options.max_train_samples = 240;
    options.epochs = 20;
    // Tilt toward the paper's training-heavy regime: SuperCircuit
    // training dominates QuantumNAS cost there (200 epochs over the
    // full training sets).
    options.super_epochs = 40;

    Table table("Table 4 - QuantumNAS vs Elivagar search cost");
    table.set_header({"benchmark", "QNAS (s)", "Elivagar (s)",
                      "speedup C", "paper C", "speedup Q", "paper Q"});

    std::vector<double> speedups_c, speedups_q;
    for (const Row &row : rows) {
        const qml::Benchmark bench =
            load_benchmark(row.benchmark, options);
        const dev::Device device = dev::make_device("ibmq_jakarta");

        const MethodRun qnas = run_quantumnas(bench, device, options);
        const MethodRun elivagar = run_elivagar(bench, device, options);

        // 'Q' regime at PAPER scale. The paper itself estimates this
        // column from circuit-execution counts (Sec. 8.2.2), so we
        // evaluate the same model with Table 2's full sizes and the
        // paper's hyperparameters: SuperCircuit training costs
        // (1 + 2p) |D_train| parameter-shift executions per epoch
        // (t = 200 epochs; the +1 is the forward evaluation every
        // gradient step needs, and the count is what a quantum device
        // executes regardless of how the simulator batches samples
        // across threads), the co-search evaluates ~500 genomes on a
        // |D_test|-sized validation set, and Elivagar spends M = 32
        // executions per candidate on CNR plus n_c d_c n_p = 512 n_c
        // per survivor on RepCap (128 candidates, top 50% kept).
        const std::uint64_t qnas_q =
            qml::parameter_shift_execution_count_dataset(
                bench.spec.params, /*epochs=*/200, bench.spec.train) +
            std::uint64_t{500} *
                static_cast<std::uint64_t>(bench.spec.test);
        const std::uint64_t elv_q =
            std::uint64_t{128 * 32} +
            std::uint64_t{64 * 512} *
                static_cast<std::uint64_t>(bench.spec.classes);

        const double speedup_c =
            qnas.search_seconds / std::max(1e-9,
                                           elivagar.search_seconds);
        const double speedup_q = static_cast<double>(qnas_q) /
                                 static_cast<double>(
                                     std::max<std::uint64_t>(1, elv_q));
        speedups_c.push_back(speedup_c);
        speedups_q.push_back(speedup_q);

        table.add_row({row.benchmark,
                       Table::fmt(qnas.search_seconds, 2),
                       Table::fmt(elivagar.search_seconds, 2),
                       Table::fmt(speedup_c, 1) + "x",
                       Table::fmt(row.paper_speedup_c, 1) + "x",
                       Table::fmt(speedup_q, 0) + "x",
                       Table::fmt(row.paper_speedup_q, 0) + "x"});
        std::fprintf(stderr, "  [table4] %s done\n", row.benchmark);
    }
    table.add_row({"GMean", "", "",
                   Table::fmt(geometric_mean(speedups_c), 1) + "x",
                   "11.7x",
                   Table::fmt(geometric_mean(speedups_q), 0) + "x",
                   "271x"});
    reporter.add(table);
    std::printf("\nShape check: Elivagar wins in both regimes and the "
                "hardware ('Q') speedup\ngrows with benchmark size, "
                "because SuperCircuit training scales with the\n"
                "parameter count under parameter-shift gradients.\n");
    return 0;
}
