/**
 * @file
 * Noise-substrate tests: Kraus completeness of every channel, readout
 * confusion, noisy density-matrix execution (trace preservation, fidelity
 * degradation with depth and with noise scale, calibration changes
 * reaching the next run, the width limit), Pauli twirl sanity, and
 * cross-backend agreement between the exact density-matrix executor and
 * the stochastic stabilizer executor on Clifford circuits.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "circuit/builders.hpp"
#include "circuit/clifford_replica.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/statistics.hpp"
#include "device/device.hpp"
#include "noise/channels.hpp"
#include "noise/noise_model.hpp"
#include "noise/superop.hpp"
#include "sim/density_matrix.hpp"
#include "stabilizer/tableau.hpp"

namespace {

using namespace elv;
using namespace elv::circ;
using namespace elv::noise;
using elv::dev::make_device;

/** Check sum_k K^dag K = I for a 1-qubit Kraus set. */
void
expect_complete_1q(const std::vector<sim::Mat2> &kraus)
{
    sim::Mat2 acc = {};
    for (const auto &k : kraus) {
        const sim::Mat2 t = sim::matmul(sim::dagger(k), k);
        for (int i = 0; i < 2; ++i)
            for (int j = 0; j < 2; ++j)
                acc[i][j] += t[i][j];
    }
    for (int i = 0; i < 2; ++i)
        for (int j = 0; j < 2; ++j)
            EXPECT_NEAR(std::abs(acc[i][j] -
                                 (i == j ? sim::Amp(1) : sim::Amp(0))),
                        0.0, 1e-12);
}

TEST(Channels, KrausCompleteness)
{
    expect_complete_1q(depolarizing_1q_kraus(0.0));
    expect_complete_1q(depolarizing_1q_kraus(0.13));
    expect_complete_1q(depolarizing_1q_kraus(1.0));
    expect_complete_1q(amplitude_damping_kraus(0.3));
    expect_complete_1q(phase_damping_kraus(0.25));
    expect_complete_1q(thermal_relaxation_kraus(100.0, 80.0, 300.0));
    expect_complete_1q(thermal_relaxation_kraus(100.0, 200.0, 300.0));

    sim::Mat4 acc = {};
    for (const auto &k : depolarizing_2q_kraus(0.2)) {
        const sim::Mat4 t = sim::matmul(sim::dagger(k), k);
        for (int i = 0; i < 4; ++i)
            for (int j = 0; j < 4; ++j)
                acc[i][j] += t[i][j];
    }
    for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 4; ++j)
            EXPECT_NEAR(std::abs(acc[i][j] -
                                 (i == j ? sim::Amp(1) : sim::Amp(0))),
                        0.0, 1e-12);
}

TEST(Channels, PauliProbsSumToOne)
{
    for (const PauliProbs &p :
         {depolarizing_pauli(0.1),
          thermal_relaxation_pauli(100.0, 70.0, 300.0),
          compose(depolarizing_pauli(0.05),
                  thermal_relaxation_pauli(50.0, 40.0, 200.0))}) {
        EXPECT_NEAR(p.pi + p.px + p.py + p.pz, 1.0, 1e-12);
        EXPECT_GE(p.pi, 0.0);
        EXPECT_GE(p.px, 0.0);
        EXPECT_GE(p.py, 0.0);
        EXPECT_GE(p.pz, 0.0);
    }
}

TEST(Channels, ThermalRelaxationTwirlShrinksWithDuration)
{
    const PauliProbs fast = thermal_relaxation_pauli(100, 70, 100);
    const PauliProbs slow = thermal_relaxation_pauli(100, 70, 2000);
    EXPECT_GT(fast.pi, slow.pi);
}

TEST(Channels, ComposeMatchesDoubleDepolarizing)
{
    // Composing two depolarizing channels stays a Pauli channel with a
    // combined error rate p = p1 + p2 - 4 p1 p2 / 3.
    const double p1 = 0.1, p2 = 0.2;
    const PauliProbs c = compose(depolarizing_pauli(p1),
                                 depolarizing_pauli(p2));
    const double combined = p1 + p2 - 4.0 * p1 * p2 / 3.0;
    EXPECT_NEAR(1.0 - c.pi, combined, 1e-12);
    EXPECT_NEAR(c.px, combined / 3.0, 1e-12);
}

TEST(Readout, ConfusionMatrixBitwise)
{
    // Pure |00> distribution with 10% flip on bit 0, 20% on bit 1.
    const std::vector<double> probs = {1.0, 0.0, 0.0, 0.0};
    const auto noisy = apply_readout_confusion(probs, {0.1, 0.2});
    EXPECT_NEAR(noisy[0], 0.9 * 0.8, 1e-12);
    EXPECT_NEAR(noisy[1], 0.1 * 0.8, 1e-12);
    EXPECT_NEAR(noisy[2], 0.9 * 0.2, 1e-12);
    EXPECT_NEAR(noisy[3], 0.1 * 0.2, 1e-12);
}

TEST(Readout, ZeroErrorIsIdentity)
{
    const std::vector<double> probs = {0.25, 0.25, 0.25, 0.25};
    const auto noisy = apply_readout_confusion(probs, {0.0, 0.0});
    EXPECT_EQ(noisy, probs);
}

TEST(NoisyDensity, DistributionIsNormalized)
{
    const dev::Device dev = make_device("ibmq_jakarta");
    NoisyDensitySimulator sim(dev);
    Circuit c(dev.num_qubits());
    c.add_gate(GateKind::H, {0});
    c.add_gate(GateKind::CX, {0, 1});
    c.set_measured({0, 1});
    const auto probs = sim.run_distribution(c);
    double total = 0.0;
    for (double p : probs) {
        EXPECT_GE(p, -1e-12);
        total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(NoisyDensity, FidelityDecreasesWithDepth)
{
    const dev::Device dev = make_device("oqc_lucy");
    NoisyDensitySimulator sim(dev);
    double prev = 1.0;
    for (int layers : {1, 4, 16}) {
        // Identity-composing layers: the ideal output stays |000>, so
        // 1 - TVD degrades monotonically as noise accumulates.
        Circuit c(dev.num_qubits());
        for (int l = 0; l < layers; ++l) {
            c.add_gate(GateKind::H, {0});
            c.add_gate(GateKind::CX, {0, 1});
            c.add_gate(GateKind::CX, {1, 2});
            c.add_gate(GateKind::CX, {1, 2});
            c.add_gate(GateKind::CX, {0, 1});
            c.add_gate(GateKind::H, {0});
        }
        c.set_measured({0, 1, 2});
        const double fid = sim.fidelity(c);
        EXPECT_LT(fid, prev);
        EXPECT_GT(fid, 0.0);
        prev = fid;
    }
}

TEST(NoisyDensity, NoiseScaleZeroIsIdeal)
{
    const dev::Device dev = make_device("ibm_lagos");
    NoisyDensitySimulator noiseless(dev, 0.0);
    Circuit c(dev.num_qubits());
    c.add_gate(GateKind::H, {1});
    c.add_gate(GateKind::CX, {1, 3});
    c.set_measured({1, 3});
    EXPECT_NEAR(noiseless.fidelity(c), 1.0, 1e-12);

    NoisyDensitySimulator noisy(dev, 1.0);
    NoisyDensitySimulator very_noisy(dev, 4.0);
    EXPECT_GT(noisy.fidelity(c), very_noisy.fidelity(c));
}

TEST(NoisyDensity, RejectsUncoupledTwoQubitGates)
{
    const dev::Device dev = make_device("ibmq_jakarta");
    NoisyDensitySimulator sim(dev);
    Circuit c(dev.num_qubits());
    c.add_gate(GateKind::CX, {0, 6}); // not coupled on Falcon-7
    c.set_measured({0});
    EXPECT_THROW(sim.run_distribution(c), elv::UsageError);
}

TEST(NoisyDensity, WorksOnLargeDeviceViaCompaction)
{
    // A 3-qubit circuit placed on physical qubits of the 127-qubit
    // Eagle: compaction must keep the density matrix tiny.
    const dev::Device dev = make_device("ibm_kyoto");
    // Find a path of three connected qubits.
    int a = -1, b = -1, c2 = -1;
    for (int q = 0; q < dev.num_qubits() && a < 0; ++q) {
        const auto &nbs = dev.topology.neighbors(q);
        if (nbs.size() >= 2) {
            a = nbs[0];
            b = q;
            c2 = nbs[1];
        }
    }
    ASSERT_GE(a, 0);
    Circuit c(dev.num_qubits());
    c.add_gate(GateKind::H, {b});
    c.add_gate(GateKind::CX, {b, a});
    c.add_gate(GateKind::CX, {b, c2});
    c.set_measured({a, b, c2});
    NoisyDensitySimulator sim(dev);
    const double fid = sim.fidelity(c);
    EXPECT_GT(fid, 0.5);
    EXPECT_LT(fid, 1.0);
}

TEST(NoisyDensity, CalibrationDriftReachesTheDensityBackend)
{
    // The simulator reads the device it refers to at every compile. A
    // circuit run again after the calibration moved must be simulated
    // against the new gate errors and relaxation times, not replay a
    // program compiled before the move (readout, which is read live,
    // would hide that).
    dev::Device dev = make_device("ibm_lagos");
    const NoisyDensitySimulator sim(dev);
    Circuit c(dev.num_qubits());
    c.add_variational(GateKind::RY, {0});
    c.add_gate(GateKind::CX, {0, 1});
    c.add_variational(GateKind::RZ, {1});
    c.set_measured({0, 1});
    const std::vector<double> params = {0.7, -1.1};
    const auto before = sim.run_distribution(c, params);

    for (double &e : dev.error_1q)
        e *= 3.0;
    for (double &e : dev.error_2q)
        e *= 3.0;
    for (double &t : dev.t1_us)
        t *= 0.5;
    const auto after = sim.run_distribution(c, params);
    const auto want = NoisyDensitySimulator(dev).run_distribution(c, params);
    ASSERT_EQ(after.size(), want.size());
    double moved = 0.0;
    for (std::size_t i = 0; i < after.size(); ++i) {
        EXPECT_NEAR(after[i], want[i], 1e-12) << i;
        moved = std::max(moved, std::abs(after[i] - before[i]));
    }
    EXPECT_GT(moved, 1e-4);
}

TEST(NoisyDensity, RefusesCircuitsWiderThanTheDensityLimit)
{
    // Past sim::DensityMatrix::kMaxQubits touched qubits both calls
    // refuse the circuit as a usage error, before anything is
    // allocated (13 qubits would take 1 GiB), and name the backend
    // that scales.
    const dev::Device dev = make_device("ibm_guadalupe");
    const NoisyDensitySimulator sim(dev);
    for (const int width : {13, 14}) {
        ASSERT_GT(width, sim::DensityMatrix::kMaxQubits);
        Circuit c(dev.num_qubits());
        std::vector<int> measured;
        for (int q = 0; q < width; ++q) {
            c.add_gate(GateKind::H, {q});
            measured.push_back(q);
        }
        c.set_measured(measured);
        for (const bool fidelity : {true, false}) {
            try {
                if (fidelity)
                    sim.fidelity(c);
                else
                    sim.run_distribution(c);
                ADD_FAILURE() << width << " qubits were simulated";
            } catch (const elv::UsageError &e) {
                EXPECT_NE(std::string(e.what()).find(
                              "CnrBackend::Stabilizer"),
                          std::string::npos)
                    << e.what();
            }
        }
    }
}

TEST(CrossBackend, StabilizerMatchesDensityOnCliffordCircuit)
{
    // The stochastic-Pauli stabilizer executor approximates the exact
    // density-matrix executor on a Clifford circuit. Depolarizing and
    // readout parts are exact under twirling; thermal relaxation is
    // approximated, so the tolerance is loose but tight enough to catch
    // structural bugs.
    const dev::Device dev = make_device("ibm_perth");
    Circuit phys(dev.num_qubits());
    phys.add_gate(GateKind::H, {1});
    phys.add_gate(GateKind::CX, {1, 3});
    phys.add_gate(GateKind::CX, {3, 5});
    phys.add_gate(GateKind::S, {5});
    phys.add_gate(GateKind::H, {5});
    phys.set_measured({1, 3, 5});

    NoisyDensitySimulator exact(dev);
    const auto dense = exact.run_distribution(phys);

    std::vector<int> kept;
    const Circuit local = phys.compacted(kept);
    DevicePauliNoise hook(dev, kept);
    Rng rng(2024);
    const auto sampled =
        stab::sample_distribution(local, 40000, rng, &hook);

    ASSERT_EQ(dense.size(), sampled.size());
    EXPECT_LT(total_variation_distance(dense, sampled), 0.05);
}

TEST(CrossBackend, NoiselessAgreementIsExact)
{
    const dev::Device dev = make_device("ibm_perth");
    Circuit phys(dev.num_qubits());
    phys.add_gate(GateKind::H, {1});
    phys.add_gate(GateKind::CX, {1, 3});
    phys.set_measured({1, 3});

    NoisyDensitySimulator ideal(dev, 0.0);
    const auto dense = ideal.run_distribution(phys);

    std::vector<int> kept;
    const Circuit local = phys.compacted(kept);
    DevicePauliNoise hook(dev, kept, 0.0);
    Rng rng(7);
    const auto sampled =
        stab::sample_distribution(local, 20000, rng, &hook);
    EXPECT_LT(total_variation_distance(dense, sampled), 0.02);
}

TEST(FastChannels, FullDepolarizingIsMaximallyMixed)
{
    sim::DensityMatrix rho(2);
    Circuit c(2);
    c.add_gate(GateKind::H, {0});
    c.add_gate(GateKind::CX, {0, 1});
    rho.run(c);
    // p = 3/4 is the full twirl: every Pauli term equally likely.
    const sim::Mat4 full = kraus_superop_1q(depolarizing_1q_kraus(0.75));
    rho.apply_superop_1q(full, 0);
    rho.apply_superop_1q(full, 1);
    const auto probs = rho.probabilities({0, 1});
    for (double p : probs)
        EXPECT_NEAR(p, 0.25, 1e-12);
    EXPECT_NEAR(rho.trace(), 1.0, 1e-12);
}

} // namespace
