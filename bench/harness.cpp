#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <numeric>
#include <sstream>

#include "baselines/quantum_supernet.hpp"
#include "baselines/quantumnas.hpp"
#include "baselines/simple.hpp"
#include "baselines/supercircuit.hpp"
#include "common/file_write.hpp"
#include "common/flag_number.hpp"
#include "common/logging.hpp"
#include "common/runinfo.hpp"
#include "compiler/compile.hpp"
#include "core/run_spec.hpp"
#include "core/search.hpp"
#include "noise/noise_model.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "qml/trainer.hpp"
#include "sim/cpu_features.hpp"

namespace elv::bench {

namespace {

/** Elivagar predictor sizes: CNR replicas, and the paper's RepCap
 *  defaults (Sec. 7.5) d_c = 16, n_p = 32. */
constexpr int kCnrReplicas = 8;
constexpr int kRepcapSamplesPerClass = 16;
constexpr int kRepcapParamInits = 32;
/** Random baseline: circuits averaged (paper: 25). */
constexpr int kRandomCircuits = 3;
/** Minimum SuperCircuit depth of the QCS baselines. */
constexpr int kSuperLayers = 3;
/** Validation samples per QCS-baseline fitness evaluation. */
constexpr int kNasValidSamples = 10;

double
seconds_since(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

qml::DistributionFn
noisy_fn(const noise::NoisyDensitySimulator &sim)
{
    return [&sim](const circ::Circuit &c, const std::vector<double> &p,
                  const std::vector<double> &x) {
        return sim.run_distribution(c, p, x);
    };
}

/**
 * A fully-connected pseudo-device with the same median error rates as
 * `device`, used to evaluate amplitude-embedding baselines whose state
 * preparation cannot be routed (a substitution that *favors* the
 * baseline: it pays gate noise but no SWAP overhead).
 */
dev::Device
virtual_fully_connected(const dev::Device &device, int num_qubits)
{
    std::vector<std::pair<int, int>> edges;
    for (int a = 0; a < num_qubits; ++a)
        for (int b = a + 1; b < num_qubits; ++b)
            edges.emplace_back(a, b);
    dev::Device out{device.name + "-vfc",
                    dev::Topology(num_qubits, std::move(edges)),
                    {},
                    {},
                    {},
                    {},
                    {}};
    const std::size_t n = static_cast<std::size_t>(num_qubits);
    out.t1_us.assign(n, dev::Device::median(device.t1_us));
    out.t2_us.assign(n, dev::Device::median(device.t2_us));
    out.readout_error.assign(n,
                             dev::Device::median(device.readout_error));
    out.error_1q.assign(n, dev::Device::median(device.error_1q));
    out.error_2q.assign(out.topology.edges().size(),
                        dev::Device::median(device.error_2q));
    out.duration_1q_ns = device.duration_1q_ns;
    out.duration_2q_ns = device.duration_2q_ns;
    out.duration_readout_ns = device.duration_readout_ns;
    return out;
}

} // namespace

Reporter::Reporter(std::string name, int argc, char **argv)
    : name_(std::move(name))
{
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto value = [&]() -> const char * {
                if (i + 1 >= argc)
                    elv::fatal("missing value for " + arg);
                return argv[++i];
            };
            if (arg == "--json")
                json_ = true;
            else if (arg == "--threads")
                threads_ = elv::flag_number(arg, value(), 0, 1024);
            else if (arg == "--trace")
                trace_path_ = value();
            else if (arg == "--metrics")
                metrics_ = true;
            else if (arg == "--profile")
                profile_path_ = value();
            else if (arg != "--small") // bench-local, parsed by the binary
                elv::fatal("unknown option '" + arg + "'");
        }
    } catch (const UsageError &error) {
        std::cerr << "error: " << error.what() << "\nusage: " << argv[0]
                  << " [--json] [--threads N] [--trace FILE] [--metrics]"
                     " [--profile FILE]\n";
        std::exit(1);
    }
    if (metrics_)
        elv::obs::Registry::global().set_enabled(true);
    if (!trace_path_.empty())
        elv::obs::Tracer::global().start();
    if (!profile_path_.empty())
        elv::obs::Profiler::global().start();
}

Reporter::~Reporter()
{
    if (!trace_path_.empty() &&
        elv::obs::Tracer::global().write(trace_path_))
        std::cout << "wrote " << trace_path_ << "\n";
    if (!profile_path_.empty() &&
        elv::obs::Profiler::global().write_collapsed(profile_path_))
        std::cout << "wrote " << profile_path_ << "\n";
    if (metrics_) {
        // The snapshot is name-sorted (map-backed registry), so this
        // print is deterministic across runs — diffable in CI logs.
        const auto snap = elv::obs::Registry::global().snapshot();
        std::cout << "metrics:\n";
        for (const auto &counter : snap.counters)
            std::cout << "  " << counter.name << " " << counter.value
                      << "\n";
        for (const auto &gauge : snap.gauges)
            std::cout << "  " << gauge.name << " " << gauge.value
                      << " (max " << gauge.max << ")\n";
        for (const auto &hist : snap.histograms) {
            char line[160];
            std::snprintf(line, sizeof line,
                          "  %s count %llu sum %.6g q50 %.6g q99 %.6g",
                          hist.name.c_str(),
                          static_cast<unsigned long long>(
                              std::accumulate(hist.counts.begin(),
                                              hist.counts.end(),
                                              std::uint64_t{0})),
                          hist.sum, hist.quantile(0.5),
                          hist.quantile(0.99));
            std::cout << line << "\n";
        }
    }
    if (!json_)
        return;
    const std::string path = "BENCH_" + name_ + ".json";
    std::ostringstream out;
    out << "{\"bench\": " << Table::json_escape(name_)
        << ", \"threads\": " << threads_
        << ", \"seed\": " << seed_
        << ", \"version\": " << Table::json_escape(elv::version_string())
        << ", \"timestamp\": "
        << Table::json_escape(elv::iso8601_utc_now())
        // Which SIMD tier the simulator kernels dispatched to: perf
        // numbers from different tiers are not comparable, so archived
        // trajectories must record it.
        << ", \"kernel_dispatch\": "
        << Table::json_escape(
               elv::sim::kernel_tier_name(elv::sim::active_tier()));
    if (metrics_) {
        const auto snap = elv::obs::Registry::global().snapshot();
        out << ", \"metrics\": {";
        for (std::size_t c = 0; c < snap.counters.size(); ++c) {
            if (c)
                out << ", ";
            out << Table::json_escape(snap.counters[c].name) << ": "
                << snap.counters[c].value;
        }
        out << "}";
    }
    out << ", \"tables\": [";
    for (std::size_t t = 0; t < tables_.size(); ++t) {
        if (t)
            out << ", ";
        out << tables_[t];
    }
    out << "]}\n";
    if (!elv::write_file(path, out.str())) {
        std::cerr << "bench_" << name_ << ": cannot write " << path
                  << "\n";
        return;
    }
    std::cout << "wrote " << path << "\n";
}

void
Reporter::add(const elv::Table &table)
{
    table.print();
    tables_.push_back(table.to_json());
}

qml::Benchmark
load_benchmark(const std::string &name, const RunOptions &options)
{
    const qml::BenchmarkSpec spec = qml::benchmark_spec(name);
    // Pick the scale so that the test split keeps at least ~64 samples
    // (accuracy quantization would otherwise dominate the comparisons),
    // then cap the training split at max_train_samples.
    const double train_scale =
        static_cast<double>(options.max_train_samples) /
        static_cast<double>(spec.train);
    const double test_scale = 64.0 / static_cast<double>(spec.test);
    const double scale =
        std::min(1.0, std::max(train_scale, test_scale));
    qml::Benchmark bench = qml::make_benchmark(name, options.seed, scale);
    if (static_cast<int>(bench.train.size()) >
        options.max_train_samples) {
        elv::Rng rng(options.seed ^ 0x7472756eULL);
        qml::shuffle_dataset(bench.train, rng);
        bench.train = qml::take(
            bench.train,
            static_cast<std::size_t>(options.max_train_samples));
    }
    return bench;
}

MethodRun
train_and_evaluate(const circ::Circuit &physical,
                   const qml::Benchmark &bench, const dev::Device &device,
                   const RunOptions &options, std::uint64_t seed_offset)
{
    MethodRun run;
    run.stats = comp::circuit_stats(physical);

    const noise::NoisyDensitySimulator noisy(device,
                                             options.noise_scale);

    double best_train_acc = -1.0;
    std::vector<double> best_params;
    for (int restart = 0; restart < std::max(1, options.train_restarts);
         ++restart) {
        qml::TrainConfig tc;
        tc.epochs = options.epochs;
        tc.threads = options.threads;
        tc.seed = options.seed + seed_offset + 1000 +
                  static_cast<std::uint64_t>(restart);
        const auto trained =
            qml::train_circuit(physical, bench.train, tc);
        const double train_acc =
            qml::evaluate(physical, trained.params, bench.train,
                          options.threads)
                .accuracy;
        if (train_acc > best_train_acc) {
            best_train_acc = train_acc;
            best_params = trained.params;
        }
    }

    run.ideal_accuracy =
        qml::evaluate(physical, best_params, bench.test, options.threads)
            .accuracy;
    // Circuits whose routing spread over many physical qubits make the
    // exact noisy simulation exponentially expensive; bound the cost by
    // subsampling the noisy test evaluation for them, and run its rows
    // serially: a 12-qubit density matrix is 256 MiB per runner.
    qml::Dataset noisy_test = bench.test;
    const bool wide = physical.touched_qubits().size() > 10;
    if (wide && noisy_test.size() > 24) {
        elv::Rng sub_rng(options.seed + seed_offset + 77);
        qml::shuffle_dataset(noisy_test, sub_rng);
        noisy_test = qml::take(noisy_test, 24);
    }
    qml::DistributionFn noisy_provider = noisy_fn(noisy);
    if (options.shots > 0)
        noisy_provider = qml::with_shot_noise(
            std::move(noisy_provider), options.shots,
            options.seed + seed_offset);
    run.noisy_accuracy = qml::evaluate(physical, best_params, noisy_test,
                                       noisy_provider,
                                       wide ? 1 : options.threads)
                             .accuracy;
    run.circuit = physical;
    run.params = std::move(best_params);
    return run;
}

MethodRun
run_random(const qml::Benchmark &bench, const dev::Device &device,
           const RunOptions &options)
{
    elv::Rng rng(options.seed ^ 0x52414e44ULL);
    base::BaselineShape shape;
    shape.num_qubits = bench.spec.qubits;
    shape.num_features = bench.spec.dim;
    shape.num_params = bench.spec.params;
    shape.num_meas = bench.spec.meas;

    const auto circuits =
        base::random_baseline(shape, kRandomCircuits, rng);

    MethodRun total;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < circuits.size(); ++i) {
        // Random circuits assume all-to-all connectivity: route first
        // (Qiskit level 3 in the paper).
        const auto compiled =
            comp::compile_for_device(circuits[i], device, 3, rng);
        const MethodRun one = train_and_evaluate(
            compiled.circuit, bench, device, options, 10 * i);
        total.noisy_accuracy +=
            one.noisy_accuracy / static_cast<double>(circuits.size());
        total.ideal_accuracy +=
            one.ideal_accuracy / static_cast<double>(circuits.size());
        total.stats.gates_1q += one.stats.gates_1q /
                                static_cast<int>(circuits.size());
        total.stats.gates_2q += one.stats.gates_2q /
                                static_cast<int>(circuits.size());
        total.stats.depth +=
            one.stats.depth / static_cast<int>(circuits.size());
        total.circuit = one.circuit;
        total.params = one.params;
    }
    total.search_seconds = seconds_since(start);
    return total;
}

MethodRun
run_human(const qml::Benchmark &bench, const dev::Device &device,
          const RunOptions &options)
{
    elv::Rng rng(options.seed ^ 0x48554dULL);
    base::BaselineShape shape;
    shape.num_qubits = bench.spec.qubits;
    shape.num_features = bench.spec.dim;
    shape.num_params = bench.spec.params;
    shape.num_meas = bench.spec.meas;

    const auto circuits = base::human_baseline(shape);
    const dev::Device vfc =
        virtual_fully_connected(device, bench.spec.qubits);

    MethodRun total;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < circuits.size(); ++i) {
        MethodRun one;
        if (circuits[i].has_amplitude_embedding()) {
            // Amplitude state preparation cannot be routed; evaluate on
            // the fully-connected pseudo-device (favors the baseline).
            one = train_and_evaluate(circuits[i], bench, vfc, options,
                                     20 * i);
        } else {
            const auto compiled =
                comp::compile_for_device(circuits[i], device, 3, rng);
            one = train_and_evaluate(compiled.circuit, bench, device,
                                     options, 20 * i);
        }
        total.noisy_accuracy +=
            one.noisy_accuracy / static_cast<double>(circuits.size());
        total.ideal_accuracy +=
            one.ideal_accuracy / static_cast<double>(circuits.size());
        total.stats.gates_1q += one.stats.gates_1q /
                                static_cast<int>(circuits.size());
        total.stats.gates_2q += one.stats.gates_2q /
                                static_cast<int>(circuits.size());
        total.stats.depth +=
            one.stats.depth / static_cast<int>(circuits.size());
        if (!circuits[i].has_amplitude_embedding()) {
            total.circuit = one.circuit;
            total.params = one.params;
        }
    }
    total.search_seconds = seconds_since(start);
    return total;
}

MethodRun
run_supernet(const qml::Benchmark &bench, const dev::Device &device,
             const RunOptions &options)
{
    elv::Rng rng(options.seed ^ 0x53557045ULL);
    const auto start = std::chrono::steady_clock::now();

    const int layers = std::max(
        kSuperLayers,
        (bench.spec.params + 3 * bench.spec.qubits - 1) /
                (3 * bench.spec.qubits) +
            1);
    const base::SuperCircuit super(bench.spec.qubits, layers,
                                   bench.spec.dim, bench.spec.meas,
                                   /*cry_embedding=*/true);
    qml::TrainConfig tc;
    tc.epochs = options.super_epochs;
    tc.threads = options.threads;
    tc.seed = options.seed ^ 0x1111ULL;
    const auto trained = base::train_supercircuit(
        super, bench.train, bench.spec.params, tc);

    base::SupernetConfig config;
    config.num_samples = options.supernet_samples;
    config.target_params = bench.spec.params;
    config.valid_samples = kNasValidSamples;
    config.seed = options.seed ^ 0x2222ULL;
    const auto found = base::supernet_search(
        super, trained.shared_params, bench.train, config);

    const auto compiled =
        comp::compile_for_device(found.best_logical, device, 3, rng);
    const double search_time = seconds_since(start);

    MethodRun run = train_and_evaluate(compiled.circuit, bench, device,
                                       options, 30);
    run.search_seconds = search_time;
    run.search_executions =
        trained.circuit_executions + found.search_executions;
    return run;
}

MethodRun
run_quantumnas(const qml::Benchmark &bench, const dev::Device &device,
               const RunOptions &options)
{
    elv::Rng rng(options.seed ^ 0x714eULL);
    const auto start = std::chrono::steady_clock::now();

    const int layers = std::max(
        kSuperLayers,
        (bench.spec.params + 3 * bench.spec.qubits - 1) /
                (3 * bench.spec.qubits) +
            1);
    const base::SuperCircuit super(bench.spec.qubits, layers,
                                   bench.spec.dim, bench.spec.meas);
    qml::TrainConfig tc;
    tc.epochs = options.super_epochs;
    tc.threads = options.threads;
    tc.seed = options.seed ^ 0x3333ULL;
    const auto trained = base::train_supercircuit(
        super, bench.train, bench.spec.params, tc);

    base::QuantumNasConfig config;
    config.population = options.nas_population;
    config.generations = options.nas_generations;
    config.target_params = bench.spec.params;
    config.valid_samples = kNasValidSamples;
    config.seed = options.seed ^ 0x4444ULL;
    const auto found = base::quantumnas_search(
        super, trained.shared_params, device, bench.train, config);

    // Paper setting: QuantumNAS circuits are compiled at level 2.
    const auto compiled =
        comp::compile_for_device(found.best_physical, device, 2, rng);
    const double search_time = seconds_since(start);

    MethodRun run = train_and_evaluate(compiled.circuit, bench, device,
                                       options, 40);
    run.search_seconds = search_time;
    run.search_executions =
        trained.circuit_executions + found.search_executions;
    return run;
}

MethodRun
run_elivagar(const qml::Benchmark &bench, const dev::Device &device,
             const RunOptions &options, const ElivagarKnobs &knobs)
{
    const auto start = std::chrono::steady_clock::now();

    core::RunSpec spec;
    spec.candidates = options.candidates;
    spec.seed = options.seed ^ 0xe1ULL;
    core::ElivagarConfig config =
        core::search_config(spec, bench.spec, options.threads, "");
    // The ablation knobs, then the bench's cheaper scoring budget.
    config.candidate.embedding = knobs.embedding;
    config.candidate.noise_aware = knobs.noise_aware;
    config.use_cnr = knobs.use_cnr;
    config.cnr.num_replicas = kCnrReplicas;
    config.cnr.noise_scale = options.noise_scale;
    config.repcap.samples_per_class = kRepcapSamplesPerClass;
    config.repcap.param_inits = kRepcapParamInits;

    const auto found = core::elivagar_search(device, bench.train, config);
    const double search_time = seconds_since(start);

    MethodRun run =
        train_and_evaluate(found.best_circuit, bench, device, options, 50);
    run.search_executions = found.total_executions();
    run.search_seconds = search_time;
    return run;
}

} // namespace elv::bench
