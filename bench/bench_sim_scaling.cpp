/**
 * @file
 * Simulator and search-engine scaling benchmarks. Every table is
 * dumped to BENCH_parallel.json:
 *
 *  - the paper's Sec. 5 scaling claim: time per run by qubit count on
 *    the state-vector, density-matrix and stabilizer backends, and of
 *    CNR on the density and stabilizer backends;
 *  - lane-batched replay (sim::StateBatch) against one-state-at-a-time
 *    replay of a RepCap-shaped candidate, by qubits x lanes, with a
 *    bit-identity check of every lane — the table behind RepCap's
 *    lane constant;
 *  - scalar vs SIMD kernel tiers on two fixed circuits;
 *  - `elivagar_search` at --threads 1 vs --threads N on an
 *    8-qubit/64-candidate search, with a bit-identity check of the
 *    full ranking (the determinism contract of src/parallel/).
 *
 * `--small` restricts every table to its smallest sizes and a reduced
 * candidate pool — the CI smoke preset. The exit code is the
 * bit-identity checks alone; timings are reported, never gated.
 */
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>
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

/** Mean seconds per call of `run` over at least `budget_s` of wall
 *  time (and at least two calls), after one warm-up call. Each call's
 *  result feeds a volatile sink so no call can be optimized away. */
template <typename Run>
std::pair<double, int>
seconds_per_run(Run &&run, double budget_s)
{
    volatile double sink = run();
    int runs = 0;
    const auto start = std::chrono::steady_clock::now();
    do {
        sink = sink + run();
        ++runs;
    } while (runs < 2 || seconds_since(start) < budget_s);
    return {seconds_since(start) / runs, runs};
}

/** A guadalupe candidate on `qubits` qubits for the CNR rows. */
circ::Circuit
cnr_candidate(const dev::Device &device, int qubits, Rng &rng)
{
    core::CandidateConfig config;
    config.num_qubits = qubits;
    config.num_params = 16;
    config.num_embeds = 4;
    config.num_meas = 2;
    config.num_features = 4;
    return core::generate_candidate(device, config, rng);
}

/**
 * The paper's Sec. 5 efficiency claim, measured: time per run of a
 * 4-layer Clifford brickwork by qubit count on the dense state-vector
 * (2^n amplitudes), dense density-matrix (4^n entries) and stabilizer
 * tableau (poly n) backends, and of a 4-replica CNR on the density and
 * stabilizer backends. The tableau keeps scaling polynomially long
 * after the dense backends stop, which is what makes Clifford-replica
 * CNR cheap for circuits far beyond dense simulation.
 */
Table
scaling_table(bool small)
{
    const double budget_s = small ? 0.01 : 0.1;
    Table table("Sec. 5 scaling: time per run by qubit count "
                     "(single-threaded)");
    table.set_header({"backend", "qubits", "runs", "us per run"});
    auto add = [&](const char *backend, int qubits, auto &&run) {
        const auto [seconds, runs] = seconds_per_run(run, budget_s);
        table.add_row({backend, std::to_string(qubits),
                       std::to_string(runs), Table::fmt(1e6 * seconds, 2)});
    };
    using Qubits = std::vector<int>;
    for (const int qubits :
         small ? Qubits{4, 8, 12} : Qubits{4, 8, 12, 16, 18}) {
        const circ::Circuit c = clifford_brickwork(qubits, 4);
        sim::StateVector psi(qubits);
        add("state vector", qubits, [&] {
            psi.run(c);
            return std::real(psi.amps()[0]);
        });
    }
    for (const int qubits : small ? Qubits{4, 6} : Qubits{4, 6, 8, 9}) {
        const circ::Circuit c = clifford_brickwork(qubits, 4);
        sim::DensityMatrix rho(qubits);
        add("density matrix", qubits, [&] {
            rho.run(c);
            return rho.trace();
        });
    }
    for (const int qubits :
         small ? Qubits{4, 16, 64} : Qubits{4, 8, 16, 32, 64}) {
        const circ::Circuit c = clifford_brickwork(qubits, 4);
        Rng rng(5);
        add("stabilizer", qubits, [&] {
            return static_cast<double>(stab::run_shot(c, rng));
        });
    }
    const dev::Device device = dev::make_device("ibm_guadalupe");
    for (const core::CnrBackend backend :
         {core::CnrBackend::Density, core::CnrBackend::Stabilizer}) {
        for (const int qubits : small ? Qubits{3, 5} : Qubits{3, 5, 7}) {
            Rng rng(7);
            const circ::Circuit c = cnr_candidate(device, qubits, rng);
            core::CnrOptions options;
            options.num_replicas = 4;
            options.backend = backend;
            options.shots = 512;
            add(backend == core::CnrBackend::Density ? "CNR density"
                                                     : "CNR stabilizer",
                qubits, [&] {
                    return core::clifford_noise_resilience(c, device, rng,
                                                           options)
                        .cnr;
                });
        }
    }
    return table;
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
    reporter.add(scaling_table(small));

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
        circ::Circuit circuit;
        int qubits;
    };
    std::vector<KernelCase> cases;
    for (const int qubits : case_qubits)
        cases.push_back({"clifford brickwork",
                         clifford_brickwork(qubits, 6), qubits});
    for (const int qubits : case_qubits)
        cases.push_back({"entangler mix", kernel_mix(qubits, 6), qubits});

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

    auto start = std::chrono::steady_clock::now();
    const core::SearchResult serial = core::elivagar_search(
        device, bench.train, search_config(bench, 1, small));
    const double serial_s = seconds_since(start);
    start = std::chrono::steady_clock::now();
    const core::SearchResult parallel = core::elivagar_search(
        device, bench.train, search_config(bench, threads, small));
    const double parallel_s = seconds_since(start);

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
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    return run_comparisons(argc, argv);
}
