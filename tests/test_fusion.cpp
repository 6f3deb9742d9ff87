/**
 * @file
 * Fused execution engine: gate fusion equivalence, superoperator
 * channel kernels vs the Kraus-loop oracle, compiled noisy programs vs
 * the per-gate Kraus loop, lane-batched replay vs the scalar replay
 * (memcmp-equal under every kernel tier), and the batched-training
 * determinism contract (bit-identical results for every thread count).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <thread>
#include <vector>

#include "circuit/builders.hpp"
#include "circuit/circuit.hpp"
#include "circuit/clifford_replica.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/statistics.hpp"
#include "core/candidate_gen.hpp"
#include "device/device.hpp"
#include "noise/channels.hpp"
#include "noise/noise_model.hpp"
#include "noise/superop.hpp"
#include "qml/synthetic.hpp"
#include "qml/trainer.hpp"
#include "sim/cpu_features.hpp"
#include "sim/density_matrix.hpp"
#include "sim/fusion.hpp"
#include "sim/state_batch.hpp"
#include "sim/statevector.hpp"
#include "sim/vec_batch.hpp"

#include "oracles.hpp"

namespace {

using namespace elv;
using elv::test::KrausRho;

/** Append a random mix of fixed, variational and embedding gates. */
void
add_random_ops(circ::Circuit &c, int ops, elv::Rng &rng, int features)
{
    const int qubits = c.num_qubits();
    const circ::GateKind fixed1[] = {
        circ::GateKind::H, circ::GateKind::S,   circ::GateKind::Sdg,
        circ::GateKind::X, circ::GateKind::Y,   circ::GateKind::Z,
    };
    const circ::GateKind fixed2[] = {circ::GateKind::CX,
                                     circ::GateKind::CZ,
                                     circ::GateKind::SWAP};
    const circ::GateKind param1[] = {circ::GateKind::RX,
                                     circ::GateKind::RY,
                                     circ::GateKind::RZ,
                                     circ::GateKind::U3};
    for (int n = 0; n < ops; ++n) {
        const int q0 = static_cast<int>(rng.uniform_index(qubits));
        switch (rng.uniform_index(5)) {
        case 0:
        case 1:
            c.add_gate(fixed1[rng.uniform_index(6)], {q0});
            break;
        case 2: {
            int q1 = static_cast<int>(rng.uniform_index(qubits));
            while (q1 == q0)
                q1 = static_cast<int>(rng.uniform_index(qubits));
            c.add_gate(fixed2[rng.uniform_index(3)], {q0, q1});
            break;
        }
        case 3:
            c.add_variational(param1[rng.uniform_index(4)], {q0});
            break;
        default:
            c.add_embedding(
                circ::GateKind::RY, {q0},
                static_cast<int>(rng.uniform_index(features)));
            break;
        }
    }
}

/** Random mix of fixed, variational and embedding gates. */
circ::Circuit
random_circuit(int qubits, int ops, elv::Rng &rng, int features = 3)
{
    circ::Circuit c(qubits);
    add_random_ops(c, ops, rng, features);
    c.set_measured({0});
    return c;
}

/** Restores the CPU-detected kernel tier when a test ends. */
struct TierGuard
{
    ~TierGuard() { sim::clear_forced_tier(); }
};

std::vector<double>
random_values(std::size_t count, elv::Rng &rng)
{
    std::vector<double> v(count);
    for (auto &p : v)
        p = rng.uniform(-M_PI, M_PI);
    return v;
}

double
max_amp_diff(const sim::StateVector &a, const sim::StateVector &b)
{
    double diff = 0.0;
    for (std::size_t i = 0; i < a.dim(); ++i)
        diff = std::max(diff, std::abs(a.amp(i) - b.amp(i)));
    return diff;
}

/** Largest |a(r, c) - b(r, c)| of two density matrices (production or
 *  Kraus-loop) of equal size. */
template <typename RhoA, typename RhoB>
double
max_element_diff(const RhoA &a, const RhoB &b)
{
    const std::size_t dim = std::size_t{1} << a.num_qubits();
    double diff = 0.0;
    for (std::size_t r = 0; r < dim; ++r)
        for (std::size_t c = 0; c < dim; ++c)
            diff = std::max(diff,
                            std::abs(a.element(r, c) - b.element(r, c)));
    return diff;
}

/** A mixed non-trivial test state. */
sim::DensityMatrix
prepared_state(int qubits)
{
    sim::DensityMatrix rho(qubits);
    circ::Circuit c(qubits);
    for (int q = 0; q < qubits; ++q)
        c.add_gate(circ::GateKind::H, {q});
    for (int q = 0; q + 1 < qubits; ++q)
        c.add_gate(circ::GateKind::CX, {q, q + 1});
    c.add_gate(circ::GateKind::S, {0});
    rho.run(c);
    // Make it mixed.
    rho.apply_superop_1q(
        noise::kraus_superop_1q(noise::depolarizing_1q_kraus(0.05)),
        qubits - 1);
    return rho;
}

/**
 * Reference for the compiled noisy programs: the per-gate Kraus loop.
 * Every gate, then its depolarizing (twice for CRY) and thermal-
 * relaxation channels as separate Kraus passes, then readout confusion.
 */
std::vector<double>
kraus_loop_distribution(const dev::Device &device, double scale,
                        const circ::Circuit &circuit,
                        const std::vector<double> &params = {},
                        const std::vector<double> &x = {})
{
    std::vector<int> kept;
    const circ::Circuit local = circuit.compacted(kept);
    auto physical = [&kept](int lq) {
        return static_cast<std::size_t>(kept[static_cast<std::size_t>(lq)]);
    };
    auto relax = [&](KrausRho &rho, int lq, double duration_ns) {
        const std::size_t pq = physical(lq);
        rho.apply_kraus_1q(noise::thermal_relaxation_kraus(
                               device.t1_us[pq] / std::max(scale, 1e-9),
                               device.t2_us[pq] / std::max(scale, 1e-9),
                               duration_ns),
                           lq);
    };

    KrausRho rho(local.num_qubits());
    for (const circ::Op &op : local.ops()) {
        rho.apply_op(op, params, x);
        if (scale == 0.0 || op.kind == circ::GateKind::AmpEmbed)
            continue;
        if (op.num_qubits() == 1) {
            const int lq = op.qubits[0];
            rho.apply_kraus_1q(
                noise::depolarizing_1q_kraus(std::clamp(
                    scale * device.error_1q[physical(lq)], 0.0, 1.0)),
                lq);
            relax(rho, lq, device.duration_1q_ns);
        } else {
            const int la = op.qubits[0], lb = op.qubits[1];
            const double err = std::clamp(
                scale * device.edge_error(static_cast<int>(physical(la)),
                                          static_cast<int>(physical(lb))),
                0.0, 1.0);
            const int reps = op.kind == circ::GateKind::CRY ? 2 : 1;
            for (int rep = 0; rep < reps; ++rep)
                rho.apply_kraus_2q(noise::depolarizing_2q_kraus(err), la, lb);
            relax(rho, la, device.duration_2q_ns);
            relax(rho, lb, device.duration_2q_ns);
        }
    }
    auto probs = rho.probabilities(local.measured());
    if (scale > 0.0) {
        std::vector<double> flips;
        for (int lq : local.measured())
            flips.push_back(
                std::min(0.5, scale * device.readout_error[physical(lq)]));
        probs = noise::apply_readout_confusion(probs, flips);
    }
    return probs;
}

/** 1 - TVD between the noiseless output and the Kraus-loop one. */
double
kraus_loop_fidelity(const dev::Device &device, double scale,
                    const circ::Circuit &circuit,
                    const std::vector<double> &params = {},
                    const std::vector<double> &x = {})
{
    std::vector<int> kept;
    const circ::Circuit local = circuit.compacted(kept);
    sim::StateVector psi(local.num_qubits());
    psi.run(local, params, x);
    return 1.0 - elv::total_variation_distance(
                     psi.probabilities(local.measured()),
                     kraus_loop_distribution(device, scale, circuit, params,
                                             x));
}

/** Bitwise equality of two density matrices of equal size. */
bool
same_bits(const sim::DensityMatrix &a, const sim::DensityMatrix &b)
{
    const std::size_t dim = std::size_t{1} << a.num_qubits();
    for (std::size_t r = 0; r < dim; ++r)
        for (std::size_t c = 0; c < dim; ++c) {
            const sim::Amp x = a.element(r, c), y = b.element(r, c);
            if (std::memcmp(&x, &y, sizeof x) != 0)
                return false;
        }
    return true;
}

/** Bitwise equality of two state vectors of equal size. */
bool
same_bits(const sim::StateVector &a, const sim::StateVector &b)
{
    return a.dim() == b.dim() &&
           std::memcmp(a.amps().data(), b.amps().data(),
                       a.dim() * sizeof(sim::Amp)) == 0;
}

TEST(Fusion, MatchesPerGateExecutionOnRandomCircuits)
{
    elv::Rng rng(41);
    for (int trial = 0; trial < 20; ++trial) {
        const int qubits = 2 + static_cast<int>(rng.uniform_index(4));
        const circ::Circuit c = random_circuit(qubits, 40, rng);
        const auto params = random_values(
            static_cast<std::size_t>(c.num_params()), rng);
        const auto x = random_values(3, rng);

        sim::StateVector plain(qubits), fused(qubits);
        plain.run(c, params, x);
        sim::FusedProgram::compile(c).run(fused, params, x);
        EXPECT_LE(max_amp_diff(plain, fused), 1e-12)
            << "trial " << trial << " qubits " << qubits;
    }
}

TEST(Fusion, MergesAdjacentFixedGates)
{
    // H S H on one qubit + CX with absorbed neighbors: everything fixed
    // fuses; the whole circuit becomes a handful of dense ops.
    circ::Circuit c(2);
    c.add_gate(circ::GateKind::H, {0});
    c.add_gate(circ::GateKind::S, {0});
    c.add_gate(circ::GateKind::H, {1});
    c.add_gate(circ::GateKind::CX, {0, 1});
    c.add_gate(circ::GateKind::Z, {1});
    c.set_measured({0, 1});

    const sim::FusedProgram p = sim::FusedProgram::compile(c);
    EXPECT_EQ(p.source_ops(), 5u);
    EXPECT_EQ(p.ops().size(), 1u); // all five collapse into one Mat4
    EXPECT_EQ(p.ops_merged(), 4u);
}

TEST(Fusion, ParametricGatesAreBarriers)
{
    circ::Circuit c(1);
    c.add_gate(circ::GateKind::H, {0});
    c.add_variational(circ::GateKind::RZ, {0});
    c.add_gate(circ::GateKind::H, {0});
    c.set_measured({0});

    const sim::FusedProgram p = sim::FusedProgram::compile(c);
    ASSERT_EQ(p.ops().size(), 3u);
    EXPECT_EQ(p.ops()[1].kind, sim::FusedOp::Kind::Barrier);
    EXPECT_EQ(p.ops_merged(), 0u);
}

TEST(Superop, DepolarizingMatchesKrausLoop1q)
{
    for (const double p : {0.0, 0.013, 0.2}) {
        const auto kraus = noise::depolarizing_1q_kraus(p);
        const sim::Mat4 s = noise::kraus_superop_1q(kraus);
        for (int q = 0; q < 3; ++q) {
            sim::DensityMatrix b = prepared_state(3);
            KrausRho a(b);
            a.apply_kraus_1q(kraus, q);
            b.apply_superop_1q(s, q);
            EXPECT_LE(max_element_diff(a, b), 1e-14)
                << "p=" << p << " q=" << q;
        }
    }
}

TEST(Superop, DepolarizingMatchesKrausLoop2q)
{
    const auto kraus = noise::depolarizing_2q_kraus(0.021);
    const sim::Mat16 s = noise::kraus_superop_2q(kraus);
    const int pairs[][2] = {{0, 1}, {1, 0}, {0, 2}, {2, 1}};
    for (const auto &pair : pairs) {
        sim::DensityMatrix b = prepared_state(3);
        KrausRho a(b);
        a.apply_kraus_2q(kraus, pair[0], pair[1]);
        b.apply_superop_2q(s, pair[0], pair[1]);
        EXPECT_LE(max_element_diff(a, b), 1e-14)
            << "pair (" << pair[0] << "," << pair[1] << ")";
    }
}

TEST(Superop, ThermalRelaxationMatchesKrausLoop)
{
    const auto kraus =
        noise::thermal_relaxation_kraus(85.0, 60.0, 0.25);
    const sim::Mat4 s = noise::kraus_superop_1q(kraus);
    for (int q = 0; q < 3; ++q) {
        sim::DensityMatrix b = prepared_state(3);
        KrausRho a(b);
        a.apply_kraus_1q(kraus, q);
        b.apply_superop_1q(s, q);
        EXPECT_LE(max_element_diff(a, b), 1e-14) << "q=" << q;
    }
}

TEST(Superop, UnitarySuperopMatchesDirectUnitary)
{
    elv::Rng rng(7);
    const sim::Mat2 u1 = sim::gate_matrix_1q(
        circ::GateKind::U3, {rng.uniform(0.0, M_PI),
                             rng.uniform(0.0, 2 * M_PI),
                             rng.uniform(0.0, 2 * M_PI)});
    sim::DensityMatrix b = prepared_state(3);
    KrausRho a(b);
    a.apply_1q(u1, 1);
    b.apply_superop_1q(noise::unitary_superop_1q(u1), 1);
    EXPECT_LE(max_element_diff(a, b), 1e-14);

    const sim::Mat4 u2 =
        sim::gate_matrix_2q(circ::GateKind::CX, {0.0, 0.0, 0.0});
    sim::DensityMatrix d = prepared_state(3);
    KrausRho c(d);
    c.apply_2q(u2, 2, 0);
    d.apply_superop_2q(noise::unitary_superop_2q(u2), 2, 0);
    EXPECT_LE(max_element_diff(c, d), 1e-14);
}

TEST(NoisyProgram, MatchesUnfusedChannelLoop)
{
    const dev::Device device = dev::make_device("ibmq_jakarta");
    elv::Rng rng(19);
    core::CandidateConfig config;
    config.num_qubits = 4;
    config.num_params = 8;
    config.num_embeds = 3;
    config.num_meas = 2;
    config.num_features = 3;

    noise::NoisyDensitySimulator fused(device);
    for (int trial = 0; trial < 5; ++trial) {
        const circ::Circuit c =
            core::generate_candidate(device, config, rng);
        const auto params = random_values(
            static_cast<std::size_t>(c.num_params()), rng);
        const auto x = random_values(3, rng);

        const auto a = fused.run_distribution(c, params, x);
        const auto b = kraus_loop_distribution(device, 1.0, c, params, x);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i)
            EXPECT_NEAR(a[i], b[i], 1e-12) << "trial " << trial;

        EXPECT_NEAR(fused.fidelity(c, params, x),
                    kraus_loop_fidelity(device, 1.0, c, params, x), 1e-12);
    }
}

TEST(NoisyProgram, MatchesUnfusedOnCliffordReplicas)
{
    // The CNR hot path: all-fixed replicas fuse maximally.
    const dev::Device device = dev::make_device("ibmq_jakarta");
    elv::Rng rng(29);
    core::CandidateConfig config;
    config.num_qubits = 5;
    config.num_params = 10;
    config.num_embeds = 2;
    config.num_meas = 2;
    config.num_features = 3;
    const circ::Circuit candidate =
        core::generate_candidate(device, config, rng);

    noise::NoisyDensitySimulator fused(device);
    for (int m = 0; m < 4; ++m) {
        const circ::Circuit replica =
            circ::make_clifford_replica(candidate, rng);
        EXPECT_NEAR(fused.fidelity(replica),
                    kraus_loop_fidelity(device, 1.0, replica), 1e-12);
    }
}

TEST(NoisyProgram, NoiseScaleZeroIsNoiselessInBothPaths)
{
    const dev::Device device = dev::make_device("ibmq_jakarta");
    elv::Rng rng(31);
    core::CandidateConfig config;
    config.num_qubits = 3;
    config.num_params = 6;
    config.num_embeds = 2;
    config.num_meas = 1;
    config.num_features = 3;
    const circ::Circuit c = core::generate_candidate(device, config, rng);
    const auto params =
        random_values(static_cast<std::size_t>(c.num_params()), rng);
    const auto x = random_values(3, rng);

    noise::NoisyDensitySimulator fused(device, 0.0);
    const auto a = fused.run_distribution(c, params, x);
    const auto b = kraus_loop_distribution(device, 0.0, c, params, x);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_NEAR(a[i], b[i], 1e-12);
    EXPECT_NEAR(fused.fidelity(c, params, x), 1.0, 1e-9);
}

TEST(NoisyProgram, InPlaceAbsorptionMatchesExpandedProduct)
{
    // Compile folds a 1-qubit channel into an open 2-qubit entry in
    // place; that must give the bits of the expanded 16x16 product, for
    // either slot, at every tier.
    TierGuard guard;
    elv::Rng rng(61);
    auto random_amp = [&rng] {
        return sim::Amp(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    };
    const dev::Device device = dev::make_device("ibm_lagos");
    noise::SuperopTable table;
    // The noise a barrier leaves behind: 6 of its 16 coefficients are
    // nonzero.
    circ::Op rx;
    rx.kind = circ::GateKind::RX;
    rx.qubits = {0, -1};
    rx.role = circ::ParamRole::Variational;
    rx.param_index = 0;
    circ::Op cx;
    cx.kind = circ::GateKind::CX;
    cx.qubits = {0, 1};

    std::vector<sim::Mat4> ones(3);
    for (auto &row : ones[0])
        for (auto &e : row)
            e = random_amp();
    ones[1] = table.gate_1q(rx, false, 0, device, 1.0);
    ones[2] = ones[0];
    ones[2][0][1] = sim::Amp(-0.0, 0.0);
    ones[2][1][3] = sim::Amp(0.0, -0.0);
    ones[2][2] = {};
    ones[2][3][0] = sim::Amp(0.0, 0.5);
    std::vector<sim::Mat16> twos(2);
    for (auto &row : twos[0])
        for (auto &e : row)
            e = random_amp();
    twos[1] = table.gate_2q(cx, true, 0, 1, device, 1.0);

    for (int t = 0; t <= static_cast<int>(sim::best_supported_tier()); ++t) {
        sim::set_forced_tier(static_cast<sim::KernelTier>(t));
        for (std::size_t a = 0; a < ones.size(); ++a)
            for (std::size_t b = 0; b < twos.size(); ++b)
                for (int slot = 0; slot < 2; ++slot) {
                    const sim::Mat16 want = sim::matmul(
                        noise::expand_superop_1q(ones[a], slot), twos[b]);
                    sim::Mat16 got = twos[b];
                    noise::absorb_superop_1q(got, ones[a], slot);
                    EXPECT_EQ(std::memcmp(&want, &got, sizeof got), 0)
                        << "tier " << t << " s " << a << " m " << b
                        << " slot " << slot;
                }
    }
}

/** Fixed, variational and embedding gates on the coupled pairs of
 *  `device` among its first four qubits, including CRY barriers (the
 *  double-depolarizing 2-qubit case). */
circ::Circuit
device_circuit(const dev::Device &device, elv::Rng &rng, int ops)
{
    std::vector<std::pair<int, int>> edges;
    for (const auto &e : device.topology.edges())
        if (e.first < 4 && e.second < 4)
            edges.push_back(e);
    circ::Circuit c(device.num_qubits());
    const circ::GateKind fixed1[] = {circ::GateKind::H, circ::GateKind::S,
                                     circ::GateKind::X, circ::GateKind::Z};
    for (int n = 0; n < ops; ++n) {
        const auto &e = edges[rng.uniform_index(edges.size())];
        const int q = rng.bernoulli(0.5) ? e.first : e.second;
        switch (rng.uniform_index(6)) {
        case 0:
            c.add_gate(fixed1[rng.uniform_index(4)], {q});
            break;
        case 1:
            c.add_gate(rng.bernoulli(0.5) ? circ::GateKind::CX
                                          : circ::GateKind::CZ,
                       {e.first, e.second});
            break;
        case 2:
            c.add_variational(circ::GateKind::CRY, {e.second, e.first});
            break;
        case 3:
            c.add_variational(circ::GateKind::U3, {q});
            break;
        case 4:
            c.add_embedding(circ::GateKind::RY, {q},
                            static_cast<int>(rng.uniform_index(3)));
            break;
        default:
            c.add_gate(circ::GateKind::SWAP, {e.first, e.second});
            break;
        }
    }
    c.set_measured({edges[0].first});
    return c;
}

TEST(SuperopTable, TableCompiledProgramsReplayBitIdentically)
{
    // Programs compiled against one shared, warm table replay to the
    // same bits as programs each built against a fresh table, at every
    // noise scale, and match the Kraus loop.
    const dev::Device device = dev::make_device("ibm_lagos");
    for (const double scale : {0.0, 0.5, 1.0}) {
        elv::Rng rng(43);
        noise::SuperopTable table;
        for (int trial = 0; trial < 6; ++trial) {
            const circ::Circuit c = device_circuit(device, rng, 30);
            const auto params = random_values(
                static_cast<std::size_t>(c.num_params()), rng);
            const auto x = random_values(3, rng);
            std::vector<int> kept;
            const circ::Circuit local = c.compacted(kept);

            const auto shared = noise::NoisyProgram::compile(
                local, kept, device, scale, table);
            const auto fresh =
                noise::NoisyProgram::compile(local, kept, device, scale);
            EXPECT_EQ(shared.size(), fresh.size());
            EXPECT_EQ(shared.ops_merged(), fresh.ops_merged());
            sim::DensityMatrix a(local.num_qubits()), b(local.num_qubits());
            shared.run(a, params, x);
            fresh.run(b, params, x);
            EXPECT_TRUE(same_bits(a, b))
                << "scale " << scale << " trial " << trial;

            noise::NoisyDensitySimulator sim(device, scale);
            const auto got = sim.run_distribution(c, params, x);
            const auto want =
                kraus_loop_distribution(device, scale, c, params, x);
            for (std::size_t i = 0; i < got.size(); ++i)
                EXPECT_NEAR(got[i], want[i], 1e-12);
        }
        EXPECT_GT(table.size(), 0u);
    }
}

TEST(SuperopTable, DriftedCalibrationIsANewEntry)
{
    dev::Device device = dev::make_device("ibm_lagos");
    elv::Rng rng(47);
    const circ::Circuit c = device_circuit(device, rng, 24);
    std::vector<int> kept;
    const circ::Circuit local = c.compacted(kept);
    const auto params =
        random_values(static_cast<std::size_t>(c.num_params()), rng);
    const auto x = random_values(3, rng);

    noise::SuperopTable table;
    const auto before =
        noise::NoisyProgram::compile(local, kept, device, 1.0, table);
    const std::size_t entries = table.size();
    for (double &e : device.error_1q)
        e *= 1.7;
    for (double &e : device.error_2q)
        e *= 0.6;
    const auto after =
        noise::NoisyProgram::compile(local, kept, device, 1.0, table);
    EXPECT_GT(table.size(), entries);

    const auto fresh = noise::NoisyProgram::compile(local, kept, device, 1.0);
    sim::DensityMatrix a(local.num_qubits()), b(local.num_qubits()),
        stale(local.num_qubits());
    after.run(a, params, x);
    fresh.run(b, params, x);
    before.run(stale, params, x);
    EXPECT_TRUE(same_bits(a, b));
    EXPECT_FALSE(same_bits(a, stale));
}

TEST(SuperopTable, UncoupledEdgeIsFatalOnAWarmTable)
{
    // The key holds calibration values, not qubit labels: give qubit 2
    // qubit 1's calibration so CX(0, 2) would key exactly like the
    // cached CX(0, 1). The coupling check must still reject it.
    dev::Device device = dev::make_device("ibm_lagos");
    ASSERT_TRUE(device.topology.has_edge(0, 1));
    ASSERT_FALSE(device.topology.has_edge(0, 2));
    device.t1_us[2] = device.t1_us[1];
    device.t2_us[2] = device.t2_us[1];

    noise::SuperopTable table;
    circ::Circuit coupled(3);
    coupled.add_gate(circ::GateKind::CX, {0, 1});
    coupled.set_measured({0});
    std::vector<int> kept = {0, 1, 2};
    noise::NoisyProgram::compile(coupled, kept, device, 1.0, table);
    ASSERT_EQ(table.size(), 1u);

    circ::Circuit uncoupled(3);
    uncoupled.add_gate(circ::GateKind::CX, {0, 2});
    uncoupled.set_measured({0});
    EXPECT_THROW(
        noise::NoisyProgram::compile(uncoupled, kept, device, 1.0, table),
        elv::UsageError);
}

TEST(SuperopTable, SharedSimulatorIsThreadSafe)
{
    // One simulator (one table, one program cache) serving four threads
    // gives every thread the serial answers, bit for bit.
    const dev::Device device = dev::make_device("ibmq_jakarta");
    elv::Rng rng(53);
    core::CandidateConfig config;
    config.num_qubits = 4;
    config.num_params = 8;
    config.num_embeds = 2;
    config.num_meas = 2;
    config.num_features = 3;
    const circ::Circuit candidate =
        core::generate_candidate(device, config, rng);
    std::vector<circ::Circuit> replicas;
    for (int m = 0; m < 8; ++m)
        replicas.push_back(circ::make_clifford_replica(candidate, rng));
    const auto params = random_values(
        static_cast<std::size_t>(candidate.num_params()), rng);
    const auto x = random_values(3, rng);

    std::vector<double> serial;
    {
        const noise::NoisyDensitySimulator sim(device);
        for (const circ::Circuit &r : replicas)
            serial.push_back(sim.fidelity(r));
        serial.push_back(sim.run_distribution(candidate, params, x)[0]);
    }

    const noise::NoisyDensitySimulator shared(device);
    std::vector<std::vector<double>> got(4);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < got.size(); ++t)
        threads.emplace_back([&, t] {
            for (int rep = 0; rep < 3; ++rep) {
                got[t].clear();
                for (const circ::Circuit &r : replicas)
                    got[t].push_back(shared.fidelity(r));
                got[t].push_back(
                    shared.run_distribution(candidate, params, x)[0]);
            }
        });
    for (auto &th : threads)
        th.join();
    for (const auto &values : got)
        EXPECT_EQ(values, serial);
}

/**
 * The generic dense path over a fused program, a test oracle: every
 * entry as its full matrix through the dense kernels, with no
 * permutation or diagonal fast path.
 */
void
replay_dense(const sim::FusedProgram &program, sim::StateVector &psi,
             const std::vector<double> &params,
             const std::vector<double> &x)
{
    psi.reset();
    for (const sim::FusedOp &f : program.ops()) {
        if (f.kind == sim::FusedOp::Kind::One) {
            psi.apply_1q(f.m2, f.q0);
        } else if (f.kind != sim::FusedOp::Kind::Barrier) {
            psi.apply_2q(f.m4, f.q0, f.q1);
        } else if (f.op.kind == circ::GateKind::AmpEmbed) {
            psi.set_amplitude_embedding(x);
        } else {
            const auto angles = circ::op_angles(f.op, params, x);
            if (f.op.num_qubits() == 1)
                psi.apply_1q(sim::gate_matrix_1q(f.op.kind, angles),
                             f.op.qubits[0]);
            else
                psi.apply_2q(sim::gate_matrix_2q(f.op.kind, angles),
                             f.op.qubits[0], f.op.qubits[1]);
        }
    }
}

/** Equal amplitudes, except that a zero's sign may differ. */
bool
same_values(const sim::StateVector &a, const sim::StateVector &b)
{
    for (std::size_t i = 0; i < a.dim(); ++i)
        if (a.amp(i).real() != b.amp(i).real() ||
            a.amp(i).imag() != b.amp(i).imag())
            return false;
    return a.dim() == b.dim();
}

TEST(Fusion, ResolvedBarriersReplayBitIdentically)
{
    // RepCap's path: barrier matrices resolved once per binding, then
    // replayed, must give the state FusedProgram::run gives — for U3,
    // CRY, product and amplitude embeddings. Against the dense oracle
    // (no permutation or diagonal kernel) only a zero's sign may
    // differ.
    elv::Rng rng(59);
    for (int trial = 0; trial < 20; ++trial) {
        const int qubits = 3 + static_cast<int>(rng.uniform_index(3));
        circ::Circuit c = random_circuit(qubits, 30, rng, 4);
        for (int q = 0; q + 1 < qubits; ++q) {
            c.add_variational(circ::GateKind::CRY, {q + 1, q});
            c.add_embedding(circ::GateKind::RZ, {q}, q % 4, (q + 1) % 4);
            c.add_embedding(circ::GateKind::CRY, {q, q + 1}, 3);
            c.add_gate(circ::GateKind::CX, {q, q + 1});
        }
        if (trial % 3 == 0) {
            circ::Circuit amp(qubits);
            amp.add_amplitude_embedding();
            for (const circ::Op &op : c.ops())
                amp.append_op(op);
            c = amp;
        }
        const auto params = random_values(
            static_cast<std::size_t>(c.num_params()), rng);
        const auto x = random_values(4, rng);

        const sim::FusedProgram program = sim::FusedProgram::compile(c);
        sim::StateVector want(qubits), got(qubits), dense(qubits);
        program.run(want, params, x);
        program.run(got,
                    program.resolve(circ::ParamRole::Variational, params,
                                    {}),
                    program.resolve(circ::ParamRole::Embedding, {}, x), x);
        replay_dense(program, dense, params, x);
        EXPECT_TRUE(same_bits(want, got)) << "trial " << trial;
        EXPECT_TRUE(same_values(want, dense)) << "trial " << trial;
    }
}

TEST(Fusion, LonePermutationGatesStayPermutations)
{
    // A fixed CX/CZ/SWAP nothing fuses into is a Permutation entry; one
    // that absorbs a neighbour, or is composed with a later gate on the
    // same pair, stays a dense Two entry.
    circ::Circuit c(3);
    c.add_variational(circ::GateKind::RY, {0});
    c.add_gate(circ::GateKind::CX, {1, 0});
    c.add_variational(circ::GateKind::RY, {1});
    c.add_gate(circ::GateKind::CZ, {0, 2});
    c.add_variational(circ::GateKind::RY, {0});
    c.add_gate(circ::GateKind::H, {1});
    c.add_gate(circ::GateKind::SWAP, {1, 2}); // absorbs the H
    c.add_variational(circ::GateKind::RY, {2});
    c.add_gate(circ::GateKind::CX, {0, 1});
    c.add_gate(circ::GateKind::CX, {0, 1}); // composes with the last
    c.set_measured({0});

    const sim::FusedProgram p = sim::FusedProgram::compile(c);
    std::vector<circ::GateKind> perms;
    std::size_t dense = 0;
    for (const sim::FusedOp &f : p.ops()) {
        if (f.kind == sim::FusedOp::Kind::Permutation) {
            perms.push_back(f.op.kind);
            EXPECT_EQ(f.q0, f.op.qubits[0]);
            EXPECT_EQ(f.q1, f.op.qubits[1]);
        }
        dense += f.kind == sim::FusedOp::Kind::Two;
    }
    EXPECT_EQ(perms, (std::vector<circ::GateKind>{circ::GateKind::CX,
                                                  circ::GateKind::CZ}));
    EXPECT_EQ(dense, 2u);
}

/** Per-lane inputs for the batch tests. */
std::vector<std::vector<double>>
lane_inputs(std::size_t lanes, std::size_t features, elv::Rng &rng)
{
    std::vector<std::vector<double>> xs;
    for (std::size_t b = 0; b < lanes; ++b)
        xs.push_back(random_values(features, rng));
    return xs;
}

/**
 * A random circuit plus every construct the batch replay has its own
 * path for: lone CX/CZ/SWAP in both operand orders on qubits 0 and 1,
 * diagonal and dense 1-qubit barriers of both roles, variational and
 * embedding CRY, and (optionally) a leading amplitude embedding.
 */
circ::Circuit
batch_gauntlet_circuit(int qubits, bool amplitude, elv::Rng &rng)
{
    circ::Circuit c(qubits);
    if (amplitude)
        c.add_amplitude_embedding();
    add_random_ops(c, 24, rng, 4);
    const std::pair<int, int> pairs[] = {
        {0, 1}, {1, 0}, {0, qubits - 1}, {qubits - 1, 1}};
    for (const circ::GateKind kind :
         {circ::GateKind::CX, circ::GateKind::CZ, circ::GateKind::SWAP}) {
        for (const auto &[a, b] : pairs) {
            // Barriers on both operands keep the gate lone.
            c.add_variational(circ::GateKind::RZ, {a});
            c.add_embedding(circ::GateKind::RX, {b}, a % 4);
            c.add_gate(kind, {a, b});
            c.add_embedding(circ::GateKind::RZ, {a}, b % 4);
            c.add_variational(circ::GateKind::U3, {b});
        }
    }
    for (int q = 0; q + 1 < qubits; ++q) {
        c.add_variational(circ::GateKind::CRY, {q + 1, q});
        c.add_embedding(circ::GateKind::CRY, {q, q + 1}, q % 4);
        c.add_gate(circ::GateKind::H, {q});
        c.add_gate(circ::GateKind::CZ, {q, q + 1}); // absorbs the H
    }
    c.set_measured({0, qubits - 1});
    return c;
}

TEST(StateBatch, LanesMatchScalarReplayUnderEveryTier)
{
    TierGuard guard;
    const int best = static_cast<int>(sim::best_supported_tier());
    elv::Rng rng(83);
    for (int trial = 0; trial < 8; ++trial) {
        const int qubits = 3 + trial % 4;
        const circ::Circuit c =
            batch_gauntlet_circuit(qubits, trial % 4 == 1, rng);
        const sim::FusedProgram program = sim::FusedProgram::compile(c);
        std::size_t perms = 0;
        for (const sim::FusedOp &f : program.ops())
            perms += f.kind == sim::FusedOp::Kind::Permutation;
        ASSERT_GE(perms, 12u);
        const auto params = random_values(
            static_cast<std::size_t>(c.num_params()), rng);
        const auto variational =
            program.resolve(circ::ParamRole::Variational, params, {});

        for (const std::size_t lanes : {1u, 7u, 9u, 33u}) {
            const auto xs = lane_inputs(lanes + 3, 4, rng);
            const sim::LaneBarriers embedded =
                program.resolve_embedding(xs);
            // Scalar reference of each lane, on the baseline tier.
            sim::set_forced_tier(sim::KernelTier::Baseline);
            std::vector<sim::StateVector> want;
            for (std::size_t b = 0; b < lanes; ++b) {
                want.emplace_back(qubits);
                program.run(want.back(), params, xs[3 + b]);
            }
            for (int t = 0; t <= best; ++t) {
                sim::set_forced_tier(static_cast<sim::KernelTier>(t));
                sim::StateBatch batch(qubits, lanes);
                program.run(batch, variational, embedded, 3);
                for (std::size_t b = 0; b < lanes; ++b)
                    EXPECT_TRUE(same_bits(want[b], batch.lane(b)))
                        << "trial " << trial << " lanes " << lanes
                        << " tier " << t << " lane " << b;
            }
        }
    }
}

TEST(StateBatch, ProbabilitiesMatchScalarPerLaneUnderEveryTier)
{
    TierGuard guard;
    elv::Rng rng(89);
    const int qubits = 5;
    const circ::Circuit c = batch_gauntlet_circuit(qubits, false, rng);
    const sim::FusedProgram program = sim::FusedProgram::compile(c);
    const auto params =
        random_values(static_cast<std::size_t>(c.num_params()), rng);
    const std::size_t lanes = 13;
    const auto xs = lane_inputs(lanes, 4, rng);
    const std::vector<int> measured = {3, 0, 4};
    const std::size_t outcomes = 8;
    for (int t = 0; t <= static_cast<int>(sim::best_supported_tier()); ++t) {
        sim::set_forced_tier(static_cast<sim::KernelTier>(t));
        sim::StateBatch batch(qubits, lanes);
        program.run(batch,
                    program.resolve(circ::ParamRole::Variational, params, {}),
                    program.resolve_embedding(xs), 0);
        // Outcome-major with a row stride wider than the batch.
        std::vector<double> dists(outcomes * (lanes + 2), -1.0);
        batch.probabilities(measured, dists.data() + 1, lanes + 2);
        for (std::size_t b = 0; b < lanes; ++b) {
            const auto want = batch.lane(b).probabilities(measured);
            for (std::size_t o = 0; o < outcomes; ++o) {
                const double got = dists[o * (lanes + 2) + 1 + b];
                EXPECT_EQ(std::memcmp(&got, &want[o], sizeof got), 0)
                    << "tier " << t << " lane " << b << " outcome " << o;
            }
        }
        for (std::size_t o = 0; o < outcomes; ++o) {
            EXPECT_EQ(dists[o * (lanes + 2)], -1.0);
            EXPECT_EQ(dists[o * (lanes + 2) + lanes + 1], -1.0);
        }
    }
}

TEST(StateBatch, PairSumsMatchScalarUnderEveryTier)
{
    // RepCap's TVD pair loop: acc[j] sums |P_i(o) - P_j(o)| over the
    // outcomes in order for every later state j. A final RepCap value
    // can absorb a last-bit change in one pair, so every tier is held
    // to the plain per-pair loop here, bit for bit.
    TierGuard guard;
    elv::Rng rng(97);
    const std::size_t outcomes = 16;
    for (const std::size_t d : {2u, 7u, 9u, 33u, 160u}) {
        std::vector<double> dists(outcomes * d);
        for (auto &p : dists)
            p = rng.uniform(0.0, 0.2);
        for (int t = 0; t <= static_cast<int>(sim::best_supported_tier());
             ++t) {
            sim::set_forced_tier(static_cast<sim::KernelTier>(t));
            for (std::size_t i = 0; i < d; ++i) {
                std::vector<double> got(d, -1.0);
                sim::vec::dispatch<sim::vec::AbsDiffRows>(
                    dists.data(), outcomes, d, i, got.data());
                for (std::size_t j = 0; j < d; ++j) {
                    double want = -1.0;
                    if (j > i) {
                        want = 0.0;
                        for (std::size_t o = 0; o < outcomes; ++o)
                            want += std::abs(dists[o * d + i] -
                                             dists[o * d + j]);
                    }
                    EXPECT_EQ(std::memcmp(&got[j], &want, sizeof want), 0)
                        << "d " << d << " tier " << t << " pair " << i
                        << ", " << j;
                }
            }
        }
    }
}

TEST(StateBatch, OperandChecksMatchStateVector)
{
    sim::StateBatch batch(3, 4);
    const sim::Mat2 h = sim::gate_matrix_1q(circ::GateKind::H, {});
    const sim::Mat4 cx = sim::gate_matrix_2q(circ::GateKind::CX, {});
    EXPECT_THROW(batch.apply_1q(h, 3), elv::InternalError);
    EXPECT_THROW(batch.apply_gate(circ::GateKind::RZ, h, -1),
                 elv::InternalError);
    EXPECT_THROW(batch.apply_2q(cx, 1, 1), elv::InternalError);
    EXPECT_THROW(batch.apply_gate(circ::GateKind::CX, cx, 0, 3),
                 elv::InternalError);
    EXPECT_THROW(batch.apply_swap(2, 2), elv::InternalError);
    const std::vector<double> x(9, 0.5);
    EXPECT_THROW(batch.set_amplitude_embedding({x.data(), 1}, 9),
                 elv::InternalError);
    std::vector<double> out(8 * 4);
    EXPECT_THROW(batch.probabilities({0, 3}, out.data(), 4),
                 elv::InternalError);
    EXPECT_THROW(sim::StateBatch(3, 0), elv::InternalError);
}

/** A small trainable circuit on the moons features. */
circ::Circuit
training_circuit()
{
    circ::Circuit c(3);
    for (int q = 0; q < 3; ++q)
        c.add_embedding(circ::GateKind::RY, {q}, q % 2);
    for (int q = 0; q < 3; ++q)
        c.add_variational(circ::GateKind::RX, {q});
    c.add_gate(circ::GateKind::CX, {0, 1});
    c.add_gate(circ::GateKind::CX, {1, 2});
    for (int q = 0; q < 3; ++q)
        c.add_variational(circ::GateKind::RZ, {q});
    c.set_measured({0});
    return c;
}

TEST(BatchedTraining, BitIdenticalForEveryThreadCount)
{
    const qml::Benchmark bench = qml::make_benchmark("moons", 17, 0.1);
    const circ::Circuit c = training_circuit();

    qml::TrainConfig serial;
    serial.epochs = 2;
    serial.batch_size = 5; // deliberately not dividing the set
    serial.seed = 3;
    serial.threads = 1;
    const qml::TrainResult ref = qml::train_circuit(c, bench.train, serial);

    for (int threads = 2; threads <= 4; ++threads) {
        qml::TrainConfig tc = serial;
        tc.threads = threads;
        const qml::TrainResult got = qml::train_circuit(c, bench.train, tc);
        ASSERT_EQ(ref.params.size(), got.params.size());
        for (std::size_t i = 0; i < ref.params.size(); ++i)
            EXPECT_EQ(ref.params[i], got.params[i])
                << "threads=" << threads << " param " << i;
        ASSERT_EQ(ref.loss_history.size(), got.loss_history.size());
        for (std::size_t e = 0; e < ref.loss_history.size(); ++e)
            EXPECT_EQ(ref.loss_history[e], got.loss_history[e])
                << "threads=" << threads << " epoch " << e;
        EXPECT_EQ(ref.circuit_executions, got.circuit_executions)
            << "threads=" << threads;
    }
}

// ---------------------------------------------------------------------
// Pinned training: loss history, trained parameters, execution count and
// noiseless test loss/accuracy, bit for bit. Any change that reassociates
// floating-point work in training or noiseless evaluation fails here.

struct PinnedTraining
{
    std::vector<double> loss_history;
    std::vector<double> params;
    std::uint64_t executions;
    double test_loss;
    double test_accuracy;
};

void
expect_pinned(const circ::Circuit &c, const qml::Benchmark &bench,
              const qml::TrainConfig &tc, const PinnedTraining &want)
{
    const qml::TrainResult got = qml::train_circuit(c, bench.train, tc);
    ASSERT_EQ(got.loss_history.size(), want.loss_history.size());
    for (std::size_t e = 0; e < want.loss_history.size(); ++e)
        EXPECT_EQ(got.loss_history[e], want.loss_history[e])
            << "epoch " << e;
    ASSERT_EQ(got.params.size(), want.params.size());
    for (std::size_t p = 0; p < want.params.size(); ++p)
        EXPECT_EQ(got.params[p], want.params[p]) << "param " << p;
    EXPECT_EQ(got.circuit_executions, want.executions);
    const qml::EvalResult eval = qml::evaluate(c, got.params, bench.test);
    EXPECT_EQ(eval.loss, want.test_loss);
    EXPECT_EQ(eval.accuracy, want.test_accuracy);
}

TEST(PinnedTraining, AdjointHumanDesignedOnMnist4)
{
    // IQP embedding (fixed H/CX between product-embedding barriers) plus
    // entangler layers; two threads share the compiled program.
    const qml::Benchmark bench = qml::make_benchmark("mnist-4", 7, 0.02);
    const circ::Circuit c = circ::build_human_designed(
        bench.spec.qubits, bench.spec.dim, bench.spec.params,
        bench.spec.meas, circ::EmbeddingScheme::IQP);
    qml::TrainConfig tc;
    tc.epochs = 3;
    tc.batch_size = 16;
    tc.seed = 5;
    tc.threads = 2;
    expect_pinned(
        c, bench, tc,
        {{0x1.7f40bccb8296fp+0, 0x1.6c468d18be725p+0, 0x1.5fe665de958p+0},
         {-0x1.1589a7c65d29ep+1, 0x1.50231052805fdp+0, 0x1.319cd4a8b9679p-4,
          0x1.8d86b6ee70e4ap+0,  -0x1.5dab1b5b6679dp+1, 0x1.7a220e2c082b2p+0,
          -0x1.746257c079281p+1, -0x1.1ed28d154e436p+1, -0x1.ca53c32acf9c4p-3,
          -0x1.6bae52d59f636p+1, 0x1.30fa0937aa8cp+1,   0x1.cb58f15bb6564p-1,
          0x1.c33a55720df48p+0,  0x1.703ce7b4ca67ep-1,  0x1.cc5e0772d9623p-1,
          -0x1.9479cd5f39857p-1, 0x1.438be6feb8d79p-2,  -0x1.1defc05d25454p+0,
          -0x1.e154d1750e40bp+0, 0x1.6b63965961fe6p-3,  0x1.6b1e0680db6dap+0,
          -0x1.b5e5153d820dcp+0, -0x1.43234327798bdp+0, -0x1.05b3988f6e162p+1,
          -0x1.cccb9d3e5ebefp-1, -0x1.8a0ca01516057p+1, 0x1.f2fecca80a246p+0,
          -0x1.2f4f94cb759eep+0, 0x1.3fb658fd14a54p+1,  0x1.85f4584093acbp+1,
          -0x1.9f9bbd4027521p-6, 0x1.17142d6452b36p-3,  -0x1.536eca84f4d7dp+1,
          -0x1.77d435be06e1bp-6, 0x1.ad0dd26da6ca1p-1,  -0x1.776f419391b73p+1,
          0x1.b47f2b1ce8323p+0,  0x1.246fe40b6e8cdp+0,  -0x1.deada742a88ecp-1,
          -0x1.3135f4644029ep+1},
         480,
         0x1.52ee8eb12ddd1p+0,
         0x1.999999999999ap-3});
}

TEST(PinnedTraining, AdjointOnMoons)
{
    const qml::Benchmark bench = qml::make_benchmark("moons", 17, 0.1);
    qml::TrainConfig tc;
    tc.epochs = 2;
    tc.batch_size = 5;
    tc.seed = 3;
    tc.threads = 1;
    expect_pinned(
        training_circuit(), bench, tc,
        {{0x1.48a06cc167586p+0, 0x1.3b7cff4de2395p+0},
         {0x1.612fa414aafcbp-3, 0x1.a2ec4d8e448d4p-1, -0x1.56b10693665d2p+1,
          0x1.8c2e057823e0ap-3, 0x1.3495b9b2bde43p+0, 0x1.91083ba50d4bcp+1},
         120,
         0x1.37c7beef2ad05p+0,
         0x1.2aaaaaaaaaaabp-1});
}

TEST(ExecutionCount, DatasetVariantCountsEachSampleOnce)
{
    // 35 samples, 10 parameters, 2 epochs: (1 + 2 * 10) executions per
    // sample per epoch, however the samples are batched.
    EXPECT_EQ(qml::parameter_shift_execution_count_dataset(10, 2, 35),
              21ull * 2ull * 35ull);
}

} // namespace
