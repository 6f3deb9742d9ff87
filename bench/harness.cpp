#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>

#include "baselines/quantum_supernet.hpp"
#include "baselines/quantumnas.hpp"
#include "baselines/simple.hpp"
#include "baselines/supercircuit.hpp"
#include "common/logging.hpp"
#include "common/runinfo.hpp"
#include "compiler/compile.hpp"
#include "core/run_spec.hpp"
#include "core/search.hpp"
#include "noise/noise_model.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "qml/trainer.hpp"
#include "sim/cpu_features.hpp"

namespace elv::bench {

double
process_cpu_seconds()
{
#if defined(CLOCK_PROCESS_CPUTIME_ID)
    timespec ts;
    if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) == 0)
        return static_cast<double>(ts.tv_sec) +
               1e-9 * static_cast<double>(ts.tv_nsec);
#endif
    return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

namespace {

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
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            json_ = true;
        } else if (arg == "--threads" && i + 1 < argc) {
            threads_ = std::atoi(argv[++i]);
            if (threads_ < 0)
                threads_ = 0;
        } else if (arg == "--trace" && i + 1 < argc) {
            trace_path_ = argv[++i];
        } else if (arg == "--metrics") {
            metrics_ = true;
        } else if (arg == "--baseline" && i + 1 < argc) {
            baseline_path_ = argv[++i];
        } else if (arg == "--profile" && i + 1 < argc) {
            profile_path_ = argv[++i];
        } else if (arg == "--perf-report" && i + 1 < argc) {
            perf_report_path_ = argv[++i];
        } else if (arg == "--gate-threshold" && i + 1 < argc) {
            const double v = std::atof(argv[++i]);
            if (v > 0.0)
                gate_threshold_ = v;
        } else if (arg == "--small" || arg == "--gbench") {
            // Bench-local presets, parsed by the binary itself.
        } else {
            std::cerr << "bench_" << name_ << ": ignoring unknown option '"
                      << arg
                      << "' (known: --json, --threads N, --trace FILE, "
                         "--metrics, --baseline FILE, --profile FILE, "
                         "--perf-report FILE, --gate-threshold F)\n";
        }
    }
    // CI's perf-gate self-test: scale every recorded sample so a known
    // synthetic regression provably trips the gate.
    if (const char *sd = std::getenv("ELV_PERF_SLOWDOWN")) {
        const double v = std::atof(sd);
        if (v > 0.0 && v != 1.0) {
            slowdown_ = v;
            std::cerr << "bench_" << name_ << ": ELV_PERF_SLOWDOWN=" << v
                      << " scales recorded perf samples\n";
        }
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
    // The gate normally runs from main() (for the exit code); run it
    // here too so the verdict report exists even when a bench forgets.
    if (!baseline_path_.empty() && !gate_done_)
        run_perf_gate();
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
    std::ofstream out(path);
    if (!out) {
        std::cerr << "bench_" << name_ << ": cannot write " << path
                  << "\n";
        return;
    }
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
    if (!perf_.empty()) {
        // Min-of-k wall-clock samples; the map keys keep the section
        // name-sorted, so dumps diff cleanly run to run.
        out.precision(12);
        out << ", \"perf\": {";
        bool first = true;
        for (const auto &[pname, seconds] : perf_) {
            if (!first)
                out << ", ";
            first = false;
            out << Table::json_escape(pname) << ": " << seconds;
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
    std::cout << "wrote " << path << "\n";
}

void
Reporter::add(const elv::Table &table)
{
    table.print();
    tables_.push_back(table.to_json());
}

void
Reporter::record_perf(const std::string &name, double seconds)
{
    const double scaled = seconds * slowdown_;
    const auto it = perf_.find(name);
    if (it == perf_.end() || scaled < it->second)
        perf_[name] = scaled;
}

int
Reporter::perf_gate_exit_code()
{
    if (!gate_done_)
        run_perf_gate();
    return gate_rc_;
}

void
Reporter::run_perf_gate()
{
    gate_done_ = true;
    gate_rc_ = 0;
    if (baseline_path_.empty())
        return;

    // Load the baseline dump and pin its provenance. A baseline from a
    // different kernel tier or thread count measures a different
    // machine-shape; gating against it would flag phantom regressions,
    // so mismatches skip the gate loudly instead of failing it.
    std::map<std::string, double> base_perf;
    std::string base_tier;
    int base_threads = -1;
    std::string skip_reason;

    std::ifstream in(baseline_path_);
    if (!in) {
        skip_reason = "baseline unreadable: " + baseline_path_;
    } else {
        std::ostringstream buf;
        buf << in.rdbuf();
        obs::JsonValue doc;
        std::string error;
        if (!obs::json_parse(buf.str(), doc, error)) {
            skip_reason = "baseline parse error: " + error;
        } else {
            if (const obs::JsonValue *v = doc.get("kernel_dispatch"))
                base_tier = v->as_string();
            if (const obs::JsonValue *v = doc.get("threads"))
                base_threads = v->as_integer<int>().value_or(-1);
            if (const obs::JsonValue *v = doc.get("perf"))
                for (const auto &[key, val] : v->members)
                    if (val.is_number())
                        base_perf[key] = val.number;
            const std::string tier =
                sim::kernel_tier_name(sim::active_tier());
            if (base_tier != tier)
                skip_reason = "kernel_dispatch mismatch: baseline '" +
                              base_tier + "' vs current '" + tier + "'";
            else if (base_threads >= 0 && base_threads != threads_)
                skip_reason = "threads mismatch: baseline " +
                              std::to_string(base_threads) +
                              " vs current " + std::to_string(threads_);
            else if (base_perf.empty())
                skip_reason = "baseline has no perf section";
        }
    }

    // Sections faster than this are jitter-dominated: sandboxed and
    // virtualized kernels report process CPU time at scheduler-jiffy
    // (10 ms) granularity even when clock_getres claims nanoseconds,
    // so anything under one jiffy is pure quantization noise. They
    // are still reported, just never gated.
    constexpr double kMinGateSeconds = 0.01;

    struct Entry
    {
        std::string name;
        double current = 0.0;
        double baseline = 0.0;
        bool has_baseline = false;
        bool gated = false;
        double ratio = 0.0;
        bool regressed = false;
    };
    std::vector<Entry> entries;
    int regressions = 0;
    int gated = 0;
    for (const auto &[pname, current] : perf_) {
        Entry e;
        e.name = pname;
        e.current = current;
        if (skip_reason.empty()) {
            const auto it = base_perf.find(pname);
            if (it != base_perf.end() && it->second > 0.0) {
                e.has_baseline = true;
                e.baseline = it->second;
                e.ratio = current / it->second;
                e.gated = it->second >= kMinGateSeconds;
                if (e.gated)
                    ++gated;
                e.regressed =
                    e.gated &&
                    current > it->second * (1.0 + gate_threshold_);
                if (e.regressed)
                    ++regressions;
            }
        }
        entries.push_back(std::move(e));
    }

    if (!skip_reason.empty()) {
        std::cerr << "bench_" << name_ << ": perf gate skipped ("
                  << skip_reason << ")\n";
    } else {
        for (const Entry &e : entries) {
            if (!e.regressed)
                continue;
            char line[256];
            std::snprintf(line, sizeof line,
                          "perf gate: %s %.6gs vs baseline %.6gs "
                          "(%+.1f%%) REGRESSED",
                          e.name.c_str(), e.current, e.baseline,
                          100.0 * (e.ratio - 1.0));
            std::cout << line << "\n";
        }
        char verdict[192];
        std::snprintf(verdict, sizeof verdict,
                      "perf gate: %s (%zu entries, %d gated, "
                      "%d regression%s, threshold +%.0f%%)",
                      regressions ? "FAIL" : "PASS", entries.size(),
                      gated, regressions,
                      regressions == 1 ? "" : "s",
                      100.0 * gate_threshold_);
        std::cout << verdict << "\n";
        gate_rc_ = regressions ? 1 : 0;
    }

    // The verdict document, machine-readable for CI artifact triage.
    obs::JsonWriter json;
    json.begin_object();
    json.kv("report", "perf_gate");
    json.kv("bench", name_);
    json.kv("baseline", baseline_path_);
    json.kv("kernel_dispatch",
            sim::kernel_tier_name(sim::active_tier()));
    json.kv("threads", threads_);
    json.kv("threshold", gate_threshold_);
    json.kv("min_gate_seconds", kMinGateSeconds);
    json.kv("slowdown", slowdown_);
    if (!skip_reason.empty())
        json.kv("skip_reason", skip_reason);
    json.key("entries").begin_array();
    for (const Entry &e : entries) {
        json.begin_object();
        json.kv("name", e.name);
        json.kv("current_seconds", e.current);
        if (e.has_baseline) {
            json.kv("baseline_seconds", e.baseline);
            json.kv("ratio", e.ratio);
        }
        json.kv("gated", e.gated);
        json.kv("regressed", e.regressed);
        json.end_object();
    }
    json.end_array();
    json.kv("regressions", regressions);
    json.kv("pass", gate_rc_ == 0);
    json.end_object();

    std::ofstream report(perf_report_path_);
    if (!report) {
        std::cerr << "bench_" << name_ << ": cannot write "
                  << perf_report_path_ << "\n";
        return;
    }
    report << json.str() << "\n";
    std::cout << "wrote " << perf_report_path_ << "\n";
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
            qml::evaluate(physical, trained.params, bench.train)
                .accuracy;
        if (train_acc > best_train_acc) {
            best_train_acc = train_acc;
            best_params = trained.params;
        }
    }

    run.ideal_accuracy =
        qml::evaluate(physical, best_params, bench.test).accuracy;
    // Circuits whose routing spread over many physical qubits make the
    // exact noisy simulation exponentially expensive; bound the cost by
    // subsampling the noisy test evaluation for them.
    qml::Dataset noisy_test = bench.test;
    if (physical.touched_qubits().size() > 10 &&
        noisy_test.size() > 24) {
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
                                       noisy_provider)
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
        base::random_baseline(shape, options.random_circuits, rng);

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
        options.super_layers,
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
    config.valid_samples = options.nas_valid_samples;
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
        options.super_layers,
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
    config.valid_samples = options.nas_valid_samples;
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
    config.cnr.num_replicas = options.cnr_replicas;
    config.cnr.noise_scale = options.noise_scale;
    config.repcap.samples_per_class = options.repcap_samples_per_class;
    config.repcap.param_inits = options.repcap_param_inits;

    const auto found = core::elivagar_search(device, bench.train, config);
    const double search_time = seconds_since(start);

    MethodRun run =
        train_and_evaluate(found.best_circuit, bench, device, options, 50);
    run.search_executions = found.total_executions();
    run.search_seconds = search_time;
    return run;
}

} // namespace elv::bench
