/**
 * @file
 * Shared experiment harness for the per-table/per-figure benchmark
 * binaries. Each `run_*` function executes one method (Sec. 7.4) on one
 * benchmark/device cell end to end — search (if any), final training
 * with the common Sec. 7.3 methodology, and evaluation on the noisy
 * device simulator — and reports accuracy, compiled-circuit statistics,
 * execution counts and wall-clock time.
 *
 * Sizes are scaled down from the paper (Sec. 7 trains for 200 epochs,
 * repeats 25 times, and uses cloud QPUs; every knob here is in
 * RunOptions) — the harness reproduces the *shape* of each result:
 * method ordering, ablation deltas and speedup trends.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "compiler/passes.hpp"
#include "core/candidate_gen.hpp"
#include "device/device.hpp"
#include "qml/synthetic.hpp"

namespace elv::bench {

/** Scaled-down experiment sizes (see the paper-scale notes above). */
struct RunOptions
{
    /** Cap on training samples (the benchmark is scaled to fit). */
    int max_train_samples = 160;
    /** Final-training epochs (paper: 200). */
    int epochs = 30;
    /** Optimizer restarts; the best by train accuracy is kept. */
    int train_restarts = 2;

    /** Elivagar: candidate pool (paper: larger) and predictor sizes. */
    int candidates = 24;
    int cnr_replicas = 8;
    /** Paper defaults (Sec. 7.5): d_c = 16, n_p = 32. */
    int repcap_samples_per_class = 16;
    int repcap_param_inits = 32;

    /** Random baseline: circuits averaged (paper: 25). */
    int random_circuits = 3;

    /** SuperCircuit training epochs for QCS baselines. */
    int super_epochs = 15;
    int super_layers = 3;

    /** QuantumNAS evolutionary settings. */
    int nas_population = 8;
    int nas_generations = 4;
    int nas_valid_samples = 10;

    /** QuantumSupernet random-search samples. */
    int supernet_samples = 16;

    /** Shots per noisy inference (hardware estimates probabilities
     * from finite samples; 0 = exact distributions). */
    int shots = 512;

    /** Device-noise multiplier (1 = calibrated). The Fig. 9 ablation
     * uses a higher value: the paper's ablation ran on real hardware,
     * whose effective noise exceeds our calibrated simulators'. */
    double noise_scale = 1.0;

    /** Search threads (0 = one per hardware thread, 1 = serial). */
    int threads = 0;

    std::uint64_t seed = 1;
};

/**
 * Shared reporting sink for the bench binaries. Parses the common CLI
 * flags — `--json` (dump the run's tables to BENCH_<name>.json in the
 * working directory on destruction), `--threads N` (search parallelism;
 * 0 = one per hardware thread), `--trace FILE` (record a Chrome trace
 * of the whole run, written on destruction), `--metrics` (collect
 * pipeline metrics; printed on destruction and embedded in the JSON
 * dump) and `--profile FILE` (sampling profiler over the whole run;
 * collapsed stacks written on destruction) — echoes every table to
 * stdout as it is added, and buffers its JSON form for the dump.
 * Numeric values are parsed whole; a malformed value or an unknown
 * option (other than the bench-local `--small` preset) prints an
 * `error:` line and exits 1.
 *
 * JSON dumps carry run provenance (seed, thread count, build version,
 * ISO-8601 timestamp, dispatched kernel tier) so archived result
 * trajectories stay comparable across machines and commits. Perf
 * regressions are gated end to end by ci/perf_ab.py, not here.
 */
class Reporter
{
  public:
    Reporter(std::string name, int argc, char **argv);

    /** Writes BENCH_<name>.json / the trace file when requested. */
    ~Reporter();

    Reporter(const Reporter &) = delete;
    Reporter &operator=(const Reporter &) = delete;

    /** Print the table to stdout and buffer it for the JSON report. */
    void add(const elv::Table &table);

    bool json_enabled() const { return json_; }

    /** --threads value; feed into RunOptions::threads. */
    int threads() const { return threads_; }

    /** Record the run's seed for the JSON metadata. */
    void set_seed(std::uint64_t seed) { seed_ = seed; }

  private:
    std::string name_;
    bool json_ = false;
    int threads_ = 0;
    std::uint64_t seed_ = 0;
    std::string trace_path_;
    std::string profile_path_;
    bool metrics_ = false;
    std::vector<std::string> tables_;
};

/** One method-on-cell outcome. */
struct MethodRun
{
    /** Final physical circuit (the last/representative one for averaged
     * baselines) and its trained parameters; used by the companion-
     * framework bench (Fig. 11). */
    circ::Circuit circuit;
    std::vector<double> params;
    /** Test accuracy on the noisy device simulator. */
    double noisy_accuracy = 0.0;
    /** Test accuracy on the noiseless simulator. */
    double ideal_accuracy = 0.0;
    /** Compiled-circuit statistics (Tables 5-6). */
    comp::CircuitStats stats;
    /** Device-style circuit executions spent on the search phase. */
    std::uint64_t search_executions = 0;
    /** Wall-clock seconds of the search phase (Table 4 'C'). */
    double search_seconds = 0.0;
};

/** Elivagar ablation knobs (Figs. 9-10). */
struct ElivagarKnobs
{
    core::EmbeddingMode embedding = core::EmbeddingMode::Searched;
    bool use_cnr = true;
    bool noise_aware = true;
};

/** Generate the benchmark scaled per RunOptions. */
qml::Benchmark load_benchmark(const std::string &name,
                              const RunOptions &options);

/** The Random baseline (average of random RXYZ + CZ circuits). */
MethodRun run_random(const qml::Benchmark &bench,
                     const dev::Device &device, const RunOptions &options);

/** The Human-designed baseline (angle / IQP / amplitude, averaged). */
MethodRun run_human(const qml::Benchmark &bench, const dev::Device &device,
                    const RunOptions &options);

/** QuantumSupernet: SuperCircuit + random search. */
MethodRun run_supernet(const qml::Benchmark &bench,
                       const dev::Device &device,
                       const RunOptions &options);

/** QuantumNAS: SuperCircuit + evolutionary circuit-mapping co-search. */
MethodRun run_quantumnas(const qml::Benchmark &bench,
                         const dev::Device &device,
                         const RunOptions &options);

/** Elivagar (optionally ablated). */
MethodRun run_elivagar(const qml::Benchmark &bench,
                       const dev::Device &device,
                       const RunOptions &options,
                       const ElivagarKnobs &knobs = {});

/**
 * Train a physical circuit with the shared methodology and evaluate it
 * noiselessly and on the noisy device simulator. Exposed for benches
 * that evaluate custom circuits (Figs. 10-11).
 */
MethodRun train_and_evaluate(const circ::Circuit &physical,
                             const qml::Benchmark &bench,
                             const dev::Device &device,
                             const RunOptions &options,
                             std::uint64_t seed_offset = 0);

} // namespace elv::bench
