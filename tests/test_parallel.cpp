/**
 * @file
 * Tests for the parallel search engine: thread-pool correctness under
 * contention, bit-identical search results for any thread count
 * (including a cancelled run resumed from its journal), and
 * equivalence of the specialized CX/CZ/SWAP and
 * diagonal 1-qubit gate kernels with the generic dense kernels on both
 * simulators.
 */
#include <gtest/gtest.h>

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/serialize.hpp"
#include "common/cancel.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "core/checkpoint.hpp"
#include "core/search.hpp"
#include "parallel/thread_pool.hpp"
#include "qml/synthetic.hpp"
#include "sim/density_matrix.hpp"
#include "sim/statevector.hpp"

namespace {

using namespace elv;
using namespace elv::core;

// ---------------------------------------------------------------------
// Thread pool
// ---------------------------------------------------------------------

TEST(ThreadPool, HardwareThreadsIsPositive)
{
    EXPECT_GE(par::ThreadPool::hardware_threads(), 1);
}

TEST(ThreadPool, HardwareThreadsFollowsTheAffinityMask)
{
    // Pin one thread to one CPU this process may use; the affinity
    // call acts on that thread alone.
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    ASSERT_EQ(sched_getaffinity(0, sizeof(allowed), &allowed), 0);
    int cpu = 0;
    while (!CPU_ISSET(cpu, &allowed))
        ++cpu;
    int pinned_rc = -1;
    int seen = 0;
    std::thread pinned([&] {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        pinned_rc = pthread_setaffinity_np(pthread_self(), sizeof(one),
                                           &one);
        seen = par::ThreadPool::hardware_threads();
    });
    pinned.join();
    ASSERT_EQ(pinned_rc, 0);
    EXPECT_EQ(seen, 1);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnceUnderContention)
{
    par::ThreadPool pool(8);
    EXPECT_EQ(pool.size(), 8);

    const std::size_t n = 20000;
    std::vector<std::atomic<int>> hits(n);
    std::atomic<std::size_t> total{0};
    pool.parallel_for(n, [&](std::size_t i) {
        hits[i].fetch_add(1);
        total.fetch_add(1);
    });
    EXPECT_EQ(total.load(), n);
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, SerialPoolRunsInlineOnCallingThread)
{
    par::ThreadPool pool(1);
    EXPECT_EQ(pool.size(), 1);
    const auto caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    pool.parallel_for(64, [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i); // safe: inline, single thread
    });
    ASSERT_EQ(order.size(), 64u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i); // serial path preserves index order
}

TEST(ThreadPool, ParallelMapReturnsResultsInIndexOrder)
{
    par::ThreadPool pool(4);
    const auto out = pool.parallel_map<int>(
        257, [](std::size_t i) { return static_cast<int>(i * i); });
    ASSERT_EQ(out.size(), 257u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<int>(i * i));
}

TEST(ThreadPool, NestedParallelForRunsInline)
{
    // A nested loop runs inline: in index order, on the thread whose
    // body made the nested call, the helping caller's bodies included.
    par::ThreadPool pool(4);
    const auto caller = std::this_thread::get_id();
    std::atomic<std::size_t> by_caller{0};
    std::atomic<std::size_t> not_inline{0};
    pool.parallel_for(64, [&](std::size_t) {
        const auto outer = std::this_thread::get_id();
        if (outer == caller)
            by_caller.fetch_add(1);
        // Hold every runner until the caller has claimed an outer body.
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (by_caller.load() == 0 &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
        std::mutex mutex;
        std::vector<std::size_t> order;
        bool moved = false;
        pool.parallel_for(16, [&](std::size_t i) {
            std::lock_guard<std::mutex> lock(mutex);
            order.push_back(i);
            moved = moved || std::this_thread::get_id() != outer;
        });
        std::vector<std::size_t> in_order(16);
        std::iota(in_order.begin(), in_order.end(), std::size_t{0});
        if (moved || order != in_order)
            not_inline.fetch_add(1);
    });
    EXPECT_GT(by_caller.load(), 0u);
    EXPECT_EQ(not_inline.load(), 0u);
}

TEST(ThreadPool, FailureSkipsUnclaimedIndices)
{
    par::ThreadPool pool(4);
    std::atomic<std::size_t> ran{0};
    EXPECT_THROW(pool.parallel_for(
                     2000,
                     [&](std::size_t i) {
                         ran.fetch_add(1);
                         if (i == 3)
                             throw std::runtime_error("index 3");
                         std::this_thread::sleep_for(
                             std::chrono::microseconds(50));
                     }),
                 std::runtime_error);
    // Indices claimed after the failure skip their body.
    EXPECT_LT(ran.load(), 500u);

    // The pool must survive a failed loop and run the next one fully.
    std::atomic<std::size_t> total{0};
    pool.parallel_for(2000, [&](std::size_t) { total.fetch_add(1); });
    EXPECT_EQ(total.load(), 2000u);
}

// ---------------------------------------------------------------------
// Parallel search determinism
// ---------------------------------------------------------------------

/** Small search configuration (seconds, not minutes, per run). */
ElivagarConfig
small_search_config(int num_features, std::uint64_t seed)
{
    ElivagarConfig config;
    config.num_candidates = 12;
    config.candidate.num_qubits = 4;
    config.candidate.num_params = 12;
    config.candidate.num_embeds = 4;
    config.candidate.num_meas = 1;
    config.candidate.num_features = num_features;
    config.cnr.num_replicas = 4;
    config.repcap.samples_per_class = 4;
    config.repcap.param_inits = 2;
    config.seed = seed;
    return config;
}

void
expect_identical_results(const SearchResult &a, const SearchResult &b)
{
    EXPECT_EQ(circ::to_text(a.best_circuit),
              circ::to_text(b.best_circuit));
    EXPECT_EQ(a.best_score, b.best_score); // bit-exact
    EXPECT_EQ(a.survivors, b.survivors);
    EXPECT_EQ(a.cnr_executions, b.cnr_executions);
    EXPECT_EQ(a.repcap_executions, b.repcap_executions);
    ASSERT_EQ(a.candidates.size(), b.candidates.size());
    for (std::size_t n = 0; n < a.candidates.size(); ++n) {
        EXPECT_EQ(circ::to_text(a.candidates[n].circuit),
                  circ::to_text(b.candidates[n].circuit))
            << n;
        EXPECT_EQ(a.candidates[n].cnr, b.candidates[n].cnr) << n;
        EXPECT_EQ(a.candidates[n].repcap, b.candidates[n].repcap) << n;
        EXPECT_EQ(a.candidates[n].score, b.candidates[n].score) << n;
        EXPECT_EQ(a.candidates[n].rejected_by_cnr,
                  b.candidates[n].rejected_by_cnr)
            << n;
    }
}

TEST(ParallelSearch, EightThreadsMatchSerialAcrossSeeds)
{
    const qml::Benchmark bench = qml::make_benchmark("moons", 7, 0.1);
    const dev::Device device = dev::make_device("ibm_lagos");

    for (std::uint64_t seed : {23ULL, 101ULL}) {
        ElivagarConfig serial =
            small_search_config(bench.spec.dim, seed);
        serial.threads = 1;
        ElivagarConfig parallel = serial;
        parallel.threads = 8;

        const SearchResult a =
            elivagar_search(device, bench.train, serial);
        const SearchResult b =
            elivagar_search(device, bench.train, parallel);
        expect_identical_results(a, b);
    }
}

TEST(ParallelSearch, CrashResumeAtEightThreadsMatchesSerialReference)
{
    const qml::Benchmark bench = qml::make_benchmark("moons", 8, 0.1);
    const dev::Device device = dev::make_device("ibm_lagos");
    const std::string path = ::testing::TempDir() +
                             "elv_parallel_crash.journal";
    std::remove(path.c_str());

    // Serial reference.
    ElivagarConfig reference_config =
        small_search_config(bench.spec.dim, 23);
    reference_config.threads = 1;
    const SearchResult reference =
        elivagar_search(device, bench.train, reference_config);

    // Stop mid-CNR while running on 8 threads: the progress hook, run
    // on the pool workers, trips the cancel token once two CNR values
    // are stored. Then resume on 8 threads.
    ElivagarConfig crash_config = reference_config;
    crash_config.threads = 8;
    crash_config.checkpoint_path = path;
    const auto token = std::make_shared<CancelToken>();
    crash_config.hooks.cancel = token;
    crash_config.hooks.progress = [token](const char *phase,
                                          std::size_t done, std::size_t) {
        if (std::strcmp(phase, "cnr") == 0 && done >= 2)
            token->cancel();
    };
    EXPECT_THROW(elivagar_search(device, bench.train, crash_config),
                 CancelledError);

    ElivagarConfig resume_config = reference_config;
    resume_config.threads = 8;
    resume_config.checkpoint_path = path;
    const SearchResult resumed =
        elivagar_search(device, bench.train, resume_config);

    EXPECT_TRUE(resumed.resumed);
    expect_identical_results(reference, resumed);
    std::remove(path.c_str());
}

TEST(ParallelSearch, FingerprintIgnoresThreadCount)
{
    // A journal written at one thread count must resume at another.
    ElivagarConfig a = small_search_config(2, 23);
    a.threads = 1;
    ElivagarConfig b = a;
    b.threads = 8;
    EXPECT_EQ(config_fingerprint(a), config_fingerprint(b));
}

// ---------------------------------------------------------------------
// Specialized gate kernels
// ---------------------------------------------------------------------

/** Deterministic random normalized state on `num_qubits` qubits. */
sim::StateVector
random_state(int num_qubits, std::uint64_t seed)
{
    sim::StateVector psi(num_qubits);
    Rng rng(seed);
    for (auto &a : psi.amps())
        a = sim::Amp(rng.normal(), rng.normal());
    double norm = 0.0;
    for (const auto &a : psi.amps())
        norm += std::norm(a);
    for (auto &a : psi.amps())
        a /= std::sqrt(norm);
    return psi;
}

double
max_amp_diff(const sim::StateVector &a, const sim::StateVector &b)
{
    double worst = 0.0;
    for (std::size_t i = 0; i < a.dim(); ++i)
        worst = std::max(worst, std::abs(a.amp(i) - b.amp(i)));
    return worst;
}

/** 5-qubit circuit exercising every gate kind (except AmpEmbed). */
circ::Circuit
every_gate_circuit()
{
    circ::Circuit c(5);
    c.add_gate(circ::GateKind::H, {0});
    c.add_gate(circ::GateKind::H, {2});
    c.add_gate(circ::GateKind::H, {4});
    c.add_variational(circ::GateKind::RX, {1});
    c.add_variational(circ::GateKind::RY, {2});
    c.add_variational(circ::GateKind::RZ, {3});
    c.add_variational(circ::GateKind::U3, {0});
    c.add_gate(circ::GateKind::S, {1});
    c.add_gate(circ::GateKind::Sdg, {2});
    c.add_gate(circ::GateKind::X, {3});
    c.add_gate(circ::GateKind::Y, {4});
    c.add_gate(circ::GateKind::Z, {0});
    c.add_gate(circ::GateKind::CX, {0, 3});
    c.add_gate(circ::GateKind::CX, {4, 1});
    c.add_gate(circ::GateKind::CZ, {1, 2});
    c.add_gate(circ::GateKind::CZ, {3, 0});
    c.add_gate(circ::GateKind::SWAP, {2, 4});
    c.add_variational(circ::GateKind::CRY, {0, 2});
    c.add_variational(circ::GateKind::RZ, {4});
    c.set_measured({0, 1, 2, 3, 4});
    return c;
}

std::vector<double>
circuit_params(const circ::Circuit &c, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> params(
        static_cast<std::size_t>(c.num_params()));
    for (auto &p : params)
        p = rng.uniform(-3.0, 3.0);
    return params;
}

TEST(Kernels, DirectKernelsMatchGenericMatmulOnRandomStates)
{
    const std::array<double, 3> zeros = {0.0, 0.0, 0.0};
    // CX / CZ / SWAP against the dense 4x4 kernel.
    struct Case2q
    {
        circ::GateKind kind;
        int q0, q1;
    };
    for (const auto &[kind, q0, q1] :
         {Case2q{circ::GateKind::CX, 1, 3},
          Case2q{circ::GateKind::CX, 3, 0},
          Case2q{circ::GateKind::CZ, 0, 2},
          Case2q{circ::GateKind::SWAP, 2, 1}}) {
        sim::StateVector generic = random_state(4, 99);
        sim::StateVector fast = generic;
        generic.apply_2q(sim::gate_matrix_2q(kind, zeros), q0, q1);
        if (kind == circ::GateKind::CX)
            fast.apply_cx(q0, q1);
        else if (kind == circ::GateKind::CZ)
            fast.apply_cz(q0, q1);
        else
            fast.apply_swap(q0, q1);
        EXPECT_LE(max_amp_diff(generic, fast), 1e-12)
            << circ::gate_name(kind);
    }

    // Diagonal 1-qubit gates against the dense 2x2 kernel.
    const std::array<double, 3> angles = {0.7, 0.0, 0.0};
    for (circ::GateKind kind :
         {circ::GateKind::RZ, circ::GateKind::S, circ::GateKind::Sdg,
          circ::GateKind::Z}) {
        const sim::Mat2 u = sim::gate_matrix_1q(kind, angles);
        for (int q = 0; q < 4; ++q) {
            sim::StateVector generic = random_state(4, 7 + q);
            sim::StateVector fast = generic;
            generic.apply_1q(u, q);
            fast.apply_diag_1q(u[0][0], u[1][1], q);
            EXPECT_LE(max_amp_diff(generic, fast), 1e-12)
                << circ::gate_name(kind) << " q" << q;
        }
    }
}

/**
 * The generic dense path, a test oracle: every op as its full matrix
 * through the dense kernels, no permutation or diagonal fast path.
 */
void
run_dense(sim::StateVector &state, const circ::Circuit &c,
          const std::vector<double> &params)
{
    state.reset();
    for (const circ::Op &op : c.ops()) {
        const auto angles = circ::op_angles(op, params, {});
        if (op.num_qubits() == 1)
            state.apply_1q(sim::gate_matrix_1q(op.kind, angles),
                           op.qubits[0]);
        else
            state.apply_2q(sim::gate_matrix_2q(op.kind, angles),
                           op.qubits[0], op.qubits[1]);
    }
}

TEST(Kernels, StateVectorDispatchMatchesGenericForEveryGate)
{
    const circ::Circuit c = every_gate_circuit();
    const std::vector<double> params = circuit_params(c, 5);

    sim::StateVector fast(c.num_qubits());
    fast.run(c, params); // specialized kernels

    sim::StateVector generic(c.num_qubits());
    run_dense(generic, c, params);

    EXPECT_LE(max_amp_diff(generic, fast), 1e-12);
    EXPECT_NEAR(fast.norm(), 1.0, 1e-12);
}

TEST(Kernels, DensityMatrixDispatchMatchesGenericForEveryGate)
{
    const circ::Circuit c = every_gate_circuit();
    const std::vector<double> params = circuit_params(c, 5);
    const std::size_t dim = std::size_t{1} << c.num_qubits();

    sim::DensityMatrix fast(c.num_qubits());
    fast.run(c, params);

    // The oracle is |psi><psi| of the dense state-vector run.
    sim::StateVector dense(c.num_qubits());
    run_dense(dense, c, params);
    sim::DensityMatrix generic(c.num_qubits());
    generic.set_pure(dense);

    double worst = 0.0;
    for (std::size_t r = 0; r < dim; ++r)
        for (std::size_t col = 0; col < dim; ++col)
            worst = std::max(worst, std::abs(fast.element(r, col) -
                                             generic.element(r, col)));
    EXPECT_LE(worst, 1e-12);
    EXPECT_NEAR(fast.trace(), 1.0, 1e-12);

    // The noiseless density evolution must still match the pure state.
    sim::StateVector psi(c.num_qubits());
    psi.run(c, params);
    const auto rho_probs =
        fast.probabilities({0, 1, 2, 3, 4});
    const auto psi_probs = psi.probabilities({0, 1, 2, 3, 4});
    ASSERT_EQ(rho_probs.size(), psi_probs.size());
    for (std::size_t k = 0; k < rho_probs.size(); ++k)
        EXPECT_NEAR(rho_probs[k], psi_probs[k], 1e-10) << k;
}

TEST(Kernels, SampleFromMatchesQubitListOverload)
{
    const circ::Circuit c = every_gate_circuit();
    const std::vector<double> params = circuit_params(c, 11);
    sim::StateVector psi(c.num_qubits());
    psi.run(c, params);

    const std::vector<int> qubits = {0, 2, 4};
    const auto probs = psi.probabilities(qubits);
    Rng rng_a(77), rng_b(77);
    for (int shot = 0; shot < 200; ++shot)
        EXPECT_EQ(psi.sample(qubits, rng_a),
                  sim::StateVector::sample_from(probs, rng_b));
}

} // namespace
