/**
 * @file
 * Simulator and search-engine scaling benchmarks.
 *
 * Default mode measures the two perf-critical comparisons of the
 * parallel search engine and dumps them to BENCH_parallel.json:
 *
 *  - lane-batched replay (sim::StateBatch) against one-state-at-a-time
 *    replay of a RepCap-shaped candidate, by qubits x lanes, with a
 *    bit-identity check of every lane — the table behind RepCap's
 *    lane constant;
 *  - scalar vs SIMD kernel tiers on two fixed circuits;
 *  - `elivagar_search` at --threads 1 vs --threads N on an
 *    8-qubit/64-candidate search, with a bit-identity check of the
 *    full ranking (the determinism contract of src/parallel/).
 *
 * `--small` restricts the comparisons to the smallest sizes and a
 * reduced candidate pool — the CI smoke/perf-gate preset. `--baseline
 * FILE` gates the recorded section timings against a previous dump
 * (see the harness perf observatory).
 *
 * `--gbench` instead runs the original google-benchmark microbenches
 * for the paper's Sec. 5 efficiency claim: the stabilizer tableau
 * scales polynomially with qubit count while the dense state-vector
 * and density-matrix backends scale exponentially — which is what
 * makes Clifford-replica CNR cheap even for circuits far beyond dense
 * simulation.
 */
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/clifford_replica.hpp"
#include "circuit/serialize.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/candidate_gen.hpp"
#include "core/cnr.hpp"
#include "core/search.hpp"
#include "device/device.hpp"
#include "harness.hpp"
#include "parallel/thread_pool.hpp"
#include "qml/synthetic.hpp"
#include "sim/cpu_features.hpp"
#include "sim/density_matrix.hpp"
#include "sim/fusion.hpp"
#include "sim/state_batch.hpp"
#include "sim/statevector.hpp"
#include "stabilizer/tableau.hpp"

namespace {

using namespace elv;

/** Layered Clifford circuit: H + CX brickwork + S, depth ~3 * layers. */
circ::Circuit
clifford_brickwork(int qubits, int layers)
{
    circ::Circuit c(qubits);
    for (int l = 0; l < layers; ++l) {
        for (int q = 0; q < qubits; ++q)
            c.add_gate(circ::GateKind::H, {q});
        for (int q = l % 2; q + 1 < qubits; q += 2)
            c.add_gate(circ::GateKind::CX, {q, q + 1});
        for (int q = 0; q < qubits; ++q)
            c.add_gate(circ::GateKind::S, {q});
    }
    std::vector<int> meas;
    for (int q = 0; q < std::min(qubits, 10); ++q)
        meas.push_back(q);
    c.set_measured(meas);
    return c;
}

void
BM_StateVectorClifford(benchmark::State &state)
{
    const int qubits = static_cast<int>(state.range(0));
    const circ::Circuit c = clifford_brickwork(qubits, 4);
    sim::StateVector psi(qubits);
    for (auto _ : state) {
        psi.run(c);
        benchmark::DoNotOptimize(psi.amps().data());
    }
    state.SetLabel(std::to_string(qubits) + " qubits (dense 2^n)");
}

void
BM_DensityMatrixClifford(benchmark::State &state)
{
    const int qubits = static_cast<int>(state.range(0));
    const circ::Circuit c = clifford_brickwork(qubits, 4);
    sim::DensityMatrix rho(qubits);
    for (auto _ : state) {
        rho.run(c);
        benchmark::DoNotOptimize(rho.trace());
    }
    state.SetLabel(std::to_string(qubits) + " qubits (dense 4^n)");
}

void
BM_StabilizerClifford(benchmark::State &state)
{
    const int qubits = static_cast<int>(state.range(0));
    const circ::Circuit c = clifford_brickwork(qubits, 4);
    Rng rng(5);
    for (auto _ : state) {
        const std::size_t outcome = stab::run_shot(c, rng);
        benchmark::DoNotOptimize(outcome);
    }
    state.SetLabel(std::to_string(qubits) +
                   " qubits (tableau, poly n)");
}

void
BM_CnrDensityBackend(benchmark::State &state)
{
    const dev::Device device = dev::make_device("ibm_guadalupe");
    Rng rng(7);
    core::CandidateConfig config;
    config.num_qubits = static_cast<int>(state.range(0));
    config.num_params = 16;
    config.num_embeds = 4;
    config.num_meas = 2;
    config.num_features = 4;
    const circ::Circuit c = core::generate_candidate(device, config, rng);
    core::CnrOptions options;
    options.num_replicas = 4;
    for (auto _ : state) {
        const auto result =
            core::clifford_noise_resilience(c, device, rng, options);
        benchmark::DoNotOptimize(result.cnr);
    }
}

void
BM_CnrStabilizerBackend(benchmark::State &state)
{
    const dev::Device device = dev::make_device("ibm_guadalupe");
    Rng rng(7);
    core::CandidateConfig config;
    config.num_qubits = static_cast<int>(state.range(0));
    config.num_params = 16;
    config.num_embeds = 4;
    config.num_meas = 2;
    config.num_features = 4;
    const circ::Circuit c = core::generate_candidate(device, config, rng);
    core::CnrOptions options;
    options.num_replicas = 4;
    options.backend = core::CnrBackend::Stabilizer;
    options.shots = 512;
    for (auto _ : state) {
        const auto result =
            core::clifford_noise_resilience(c, device, rng, options);
        benchmark::DoNotOptimize(result.cnr);
    }
}

void
BM_AdjointVsParameterShiftGap(benchmark::State &state)
{
    // The Table 4 'Q'-regime cost driver: executions per gradient.
    const int params = static_cast<int>(state.range(0));
    state.counters["param_shift_execs"] =
        static_cast<double>(1 + 2 * params);
    state.counters["adjoint_execs"] = 1.0;
    for (auto _ : state)
        benchmark::DoNotOptimize(params);
}

/** An entangler-heavy circuit that mixes every specialized kernel. */
circ::Circuit
kernel_mix(int qubits, int layers)
{
    circ::Circuit c(qubits);
    for (int l = 0; l < layers; ++l) {
        for (int q = 0; q < qubits; ++q)
            c.add_variational(circ::GateKind::RZ, {q});
        for (int q = l % 2; q + 1 < qubits; q += 2)
            c.add_gate(circ::GateKind::CX, {q, q + 1});
        for (int q = 0; q < qubits; ++q)
            c.add_gate(circ::GateKind::S, {q});
        for (int q = (l + 1) % 2; q + 1 < qubits; q += 2)
            c.add_gate(circ::GateKind::CZ, {q, q + 1});
        c.add_gate(circ::GateKind::SWAP, {0, qubits - 1});
        for (int q = 0; q < qubits; ++q)
            c.add_gate(circ::GateKind::Z, {q});
    }
    std::vector<int> meas;
    for (int q = 0; q < std::min(qubits, 10); ++q)
        meas.push_back(q);
    c.set_measured(meas);
    return c;
}

double
seconds_since(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Fixed angles for a circuit's variational slots. */
std::vector<double>
fixed_params(const circ::Circuit &c)
{
    std::vector<double> params(
        static_cast<std::size_t>(c.num_params()));
    for (std::size_t i = 0; i < params.size(); ++i)
        params[i] = 0.05 + 0.1 * static_cast<double>(i);
    return params;
}

/** Seconds per run of `c` on a fresh state. */
double
time_statevector(const circ::Circuit &c, int qubits, int reps)
{
    sim::StateVector psi(qubits);
    const std::vector<double> params = fixed_params(c);
    psi.run(c, params); // warm-up
    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r)
        psi.run(c, params);
    return seconds_since(start) / reps;
}

/** True when scalar and SIMD kernels produce bit-identical states. */
bool
tiers_bit_identical(const circ::Circuit &c, int qubits)
{
    const std::vector<double> params = fixed_params(c);
    sim::set_forced_tier(sim::KernelTier::Baseline);
    sim::StateVector scalar(qubits);
    scalar.run(c, params);
    sim::clear_forced_tier();
    sim::StateVector simd(qubits);
    simd.run(c, params);
    for (std::size_t i = 0; i < scalar.dim(); ++i)
        if (std::memcmp(&scalar.amps()[i], &simd.amps()[i],
                        sizeof(scalar.amps()[i])) != 0)
            return false;
    return true;
}

/** A mnist-10-shaped RepCap candidate (12 params and 6 embedding
 *  gates per qubit, 36 features) on `qubits` qubits of guadalupe. */
circ::Circuit
repcap_candidate(int qubits)
{
    core::CandidateConfig config;
    config.num_qubits = qubits;
    config.num_params = 12 * qubits;
    config.num_embeds = 6 * qubits;
    config.num_meas = std::min(4, qubits);
    config.num_features = 36;
    elv::Rng rng(static_cast<std::uint64_t>(qubits));
    std::vector<int> kept;
    return core::generate_candidate(dev::make_device("ibm_guadalupe"),
                                    config, rng)
        .compacted(kept);
}

/** Microseconds per state for lone and lane-batched replay of `c`:
 *  the fastest of `rounds` alternating rounds of `reps` replays each,
 *  since the host's speed drifts between rounds. */
struct ReplayCost
{
    double lone_us = 0.0;
    double batch_us = 0.0;
    bool identical = true;
};

ReplayCost
time_replay(const circ::Circuit &c, std::size_t lanes, int rounds, int reps)
{
    const sim::FusedProgram program = sim::FusedProgram::compile(c);
    elv::Rng rng(lanes);
    std::vector<std::vector<double>> xs(lanes, std::vector<double>(36));
    for (auto &x : xs)
        for (auto &v : x)
            v = rng.uniform(-1.0, 1.0);
    const auto variational = program.resolve(circ::ParamRole::Variational,
                                             fixed_params(c), {});
    std::vector<sim::ResolvedBarriers> embedded;
    for (const auto &x : xs)
        embedded.push_back(
            program.resolve(circ::ParamRole::Embedding, {}, x));
    const sim::LaneBarriers lane_embedded = program.resolve_embedding(xs);

    std::vector<sim::StateVector> lone(lanes,
                                       sim::StateVector(c.num_qubits()));
    sim::StateBatch batch(c.num_qubits(), lanes);
    ReplayCost cost;
    const double per_state = 1e6 / (reps * static_cast<double>(lanes));
    for (int round = 0; round < rounds; ++round) {
        auto start = std::chrono::steady_clock::now();
        for (int r = 0; r < reps; ++r)
            for (std::size_t b = 0; b < lanes; ++b)
                program.run(lone[b], variational, embedded[b], xs[b]);
        const double lone_us = per_state * seconds_since(start);
        start = std::chrono::steady_clock::now();
        for (int r = 0; r < reps; ++r)
            program.run(batch, variational, lane_embedded, 0);
        const double batch_us = per_state * seconds_since(start);
        cost.lone_us = round ? std::min(cost.lone_us, lone_us) : lone_us;
        cost.batch_us = round ? std::min(cost.batch_us, batch_us) : batch_us;
    }
    for (std::size_t b = 0; b < lanes; ++b)
        cost.identical =
            cost.identical &&
            std::memcmp(lone[b].amps().data(), batch.lane(b).amps().data(),
                        lone[b].dim() * sizeof(sim::Amp)) == 0;
    return cost;
}

/** The 8-qubit search of the parallel acceptance bench (64 candidates,
 *  16 under the `--small` smoke preset). */
core::ElivagarConfig
search_config(const qml::Benchmark &bench, int threads, bool small)
{
    core::ElivagarConfig config;
    config.num_candidates = small ? 16 : 64;
    config.candidate.num_qubits = 8;
    config.candidate.num_params = 24;
    config.candidate.num_embeds = 8;
    config.candidate.num_meas = 1;
    config.candidate.num_features = bench.spec.dim;
    // Stabilizer CNR keeps each candidate cheap enough that the bench
    // finishes in seconds while still being execution-bound.
    config.cnr.backend = core::CnrBackend::Stabilizer;
    config.cnr.num_replicas = 8;
    config.cnr.shots = 512;
    config.repcap.samples_per_class = 8;
    config.repcap.param_inits = 8;
    config.seed = 7;
    config.threads = threads;
    return config;
}

bool
identical_rankings(const core::SearchResult &a, const core::SearchResult &b)
{
    if (circ::to_text(a.best_circuit) != circ::to_text(b.best_circuit) ||
        a.best_score != b.best_score ||
        a.candidates.size() != b.candidates.size())
        return false;
    for (std::size_t n = 0; n < a.candidates.size(); ++n) {
        if (a.candidates[n].cnr != b.candidates[n].cnr ||
            a.candidates[n].repcap != b.candidates[n].repcap ||
            a.candidates[n].score != b.candidates[n].score ||
            a.candidates[n].rejected_by_cnr !=
                b.candidates[n].rejected_by_cnr)
            return false;
    }
    return true;
}

int
run_comparisons(int argc, char **argv)
{
    bool small = false;
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--small")
            small = true;

    // This bench exists to emit BENCH_parallel.json; force --json on.
    std::vector<char *> args(argv, argv + argc);
    char force_json[] = "--json";
    args.push_back(force_json);
    bench::Reporter reporter("parallel", static_cast<int>(args.size()),
                             args.data());
    reporter.set_seed(7);

    // Part 1: lane-batched replay throughput, one thread: microseconds
    // per state by qubits x lanes (the shape of the TFQ and MindSpore
    // Quantum batch tables). RepCap replays its samples in batches of
    // 32 lanes; the bit-identical column is the batch contract.
    bool lanes_ok = true;
    const std::vector<std::size_t> lane_counts = {8, 16, 32, 64};
    Table replay("Lane-batched replay, us per state (single-threaded, " +
                 std::string(sim::kernel_tier_name(sim::active_tier())) +
                 ")");
    std::vector<std::string> header = {"qubits", "lone"};
    for (const std::size_t lanes : lane_counts)
        header.push_back("B=" + std::to_string(lanes));
    header.push_back("bit-identical");
    replay.set_header(header);
    for (const int qubits :
         small ? std::vector<int>{4, 6} : std::vector<int>{4, 6, 8}) {
        const circ::Circuit c = repcap_candidate(qubits);
        std::vector<std::string> row = {std::to_string(qubits), ""};
        bool identical = true;
        double lone_us = 0.0;
        for (const std::size_t lanes : lane_counts) {
            const ReplayCost cost =
                time_replay(c, lanes, small ? 2 : 7, small ? 10 : 50);
            lone_us = lanes == lane_counts.front()
                          ? cost.lone_us
                          : std::min(lone_us, cost.lone_us);
            identical = identical && cost.identical;
            reporter.record_perf("batch.replay.q" + std::to_string(qubits) +
                                     ".b" + std::to_string(lanes),
                                 cost.batch_us * 1e-6);
            row.push_back(Table::fmt(cost.batch_us, 2));
        }
        row[1] = Table::fmt(lone_us, 2);
        row.push_back(identical ? "yes" : "NO");
        lanes_ok = lanes_ok && identical;
        replay.add_row(row);
    }
    reporter.add(replay);

    const std::vector<int> case_qubits =
        small ? std::vector<int>{8, 12} : std::vector<int>{8, 12, 16};
    struct KernelCase
    {
        const char *name;
        const char *perf; // stable slug for the perf observatory
        circ::Circuit circuit;
        int qubits;
    };
    std::vector<KernelCase> cases;
    for (const int qubits : case_qubits)
        cases.push_back({"clifford brickwork", "clifford",
                         clifford_brickwork(qubits, 6), qubits});
    for (const int qubits : case_qubits)
        cases.push_back(
            {"entangler mix", "mix", kernel_mix(qubits, 6), qubits});

    // Part 1b: runtime SIMD dispatch on two fixed circuits. The
    // scalar-vs-SIMD columns share one binary —
    // the tier is forced at runtime — and the bit-identical column is
    // the dispatch contract (ELV_FORCE_KERNEL=baseline reproduces the
    // dispatched results exactly).
    bool tiers_ok = true;
    Table simd("SIMD dispatch: scalar vs " +
               std::string(sim::kernel_tier_name(sim::active_tier())) +
               " (single-threaded)");
    simd.set_header({"circuit", "qubits", "scalar f64 (ms)",
                     "simd f64 (ms)", "simd speedup", "bit-identical"});
    for (const KernelCase &kc : cases) {
        const int reps = small ? 10 : (kc.qubits >= 16 ? 10 : 40);
        sim::set_forced_tier(sim::KernelTier::Baseline);
        const double scalar_s = time_statevector(kc.circuit, kc.qubits, reps);
        sim::clear_forced_tier();
        const double simd_s = time_statevector(kc.circuit, kc.qubits, reps);
        reporter.record_perf("simd.f64." + std::string(kc.perf) +
                                 ".q" + std::to_string(kc.qubits),
                             simd_s);
        const bool identical = tiers_bit_identical(kc.circuit, kc.qubits);
        tiers_ok = tiers_ok && identical;
        simd.add_row({kc.name, std::to_string(kc.qubits),
                      Table::fmt(1e3 * scalar_s, 3),
                      Table::fmt(1e3 * simd_s, 3),
                      Table::fmt(scalar_s / std::max(1e-12, simd_s), 2),
                      identical ? "yes" : "NO"});
    }
    reporter.add(simd);

    // Part 2: serial vs parallel search, with the bit-identity check
    // the determinism contract promises.
    const int threads = reporter.threads()
                            ? reporter.threads()
                            : par::ThreadPool::hardware_threads();
    const qml::Benchmark bench = qml::make_benchmark("moons", 11, 0.15);
    const dev::Device device = dev::make_device("ibmq_mumbai");

    // The ~1 s search timings are the perf gate's anchor entries, and
    // one wall-clock sample on a shared runner is too noisy to hold a
    // 15% threshold. The smoke preset times each leg three times
    // (record_perf keeps the minimum; the table shows the best wall
    // pair), and the gate samples are process-CPU-second deltas: the
    // search does a deterministic amount of work, so its CPU time is
    // stable even when the whole process gets descheduled.
    const int samples = small ? 3 : 1;
    core::SearchResult serial, parallel;
    double serial_s = 0.0, parallel_s = 0.0;
    for (int s = 0; s < samples; ++s) {
        auto serial_start = std::chrono::steady_clock::now();
        double cpu_start = bench::process_cpu_seconds();
        serial = core::elivagar_search(device, bench.train,
                                       search_config(bench, 1, small));
        const double serial_cpu = bench::process_cpu_seconds() - cpu_start;
        const double serial_t = seconds_since(serial_start);

        auto parallel_start = std::chrono::steady_clock::now();
        cpu_start = bench::process_cpu_seconds();
        parallel =
            core::elivagar_search(device, bench.train,
                                  search_config(bench, threads, small));
        const double parallel_cpu = bench::process_cpu_seconds() - cpu_start;
        const double parallel_t = seconds_since(parallel_start);
        reporter.record_perf("search.serial", serial_cpu);
        reporter.record_perf("search.parallel", parallel_cpu);
        if (s == 0 || serial_t < serial_s)
            serial_s = serial_t;
        if (s == 0 || parallel_t < parallel_s)
            parallel_s = parallel_t;
    }

    Table search("Elivagar search: serial vs parallel (8 qubits, " +
                 std::string(small ? "16" : "64") + " candidates)");
    search.set_header({"threads", "serial (s)", "parallel (s)",
                       "speedup", "bit-identical"});
    search.add_row({std::to_string(threads), Table::fmt(serial_s, 3),
                    Table::fmt(parallel_s, 3),
                    Table::fmt(serial_s / parallel_s, 2),
                    identical_rankings(serial, parallel) ? "yes" : "NO"});
    reporter.add(search);
    const bool ok =
        identical_rankings(serial, parallel) && tiers_ok && lanes_ok;
    const int gate_rc = reporter.perf_gate_exit_code();
    return ok ? gate_rc : 1;
}

} // namespace

BENCHMARK(BM_StateVectorClifford)->DenseRange(4, 16, 4)->Arg(18);
BENCHMARK(BM_DensityMatrixClifford)->DenseRange(4, 8, 2)->Arg(9);
BENCHMARK(BM_StabilizerClifford)->RangeMultiplier(2)->Range(4, 64);
BENCHMARK(BM_CnrDensityBackend)->DenseRange(3, 7, 2);
BENCHMARK(BM_CnrStabilizerBackend)->DenseRange(3, 7, 2);
BENCHMARK(BM_AdjointVsParameterShiftGap)->Arg(16)->Arg(40)->Arg(72);

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--gbench") {
            std::vector<char *> args;
            for (int j = 0; j < argc; ++j)
                if (j != i)
                    args.push_back(argv[j]);
            int bench_argc = static_cast<int>(args.size());
            benchmark::Initialize(&bench_argc, args.data());
            benchmark::RunSpecifiedBenchmarks();
            return 0;
        }
    }
    return run_comparisons(argc, argv);
}
