/**
 * @file
 * Extension tests: embedding-angle gradients from the adjoint engine
 * (checked against finite differences), QTN-VQC joint training (the
 * classical frontend must make hard embeddings learnable), and
 * QuantumNAT calibration/normalization (must recover accuracy lost to
 * biased readout noise).
 */
#include <gtest/gtest.h>

#include <cmath>

#include "circuit/builders.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "compiler/compile.hpp"
#include "device/device.hpp"
#include "extensions/qtnvqc.hpp"
#include "extensions/quantumnat.hpp"
#include "noise/noise_model.hpp"
#include "qml/synthetic.hpp"
#include "qml/trainer.hpp"
#include "sim/gradients.hpp"

namespace {

using namespace elv;
using namespace elv::circ;
using namespace elv::ext;

TEST(EmbeddingGradients, MatchFiniteDifferences)
{
    Rng rng(1);
    Circuit c(3);
    c.add_embedding(GateKind::RX, {0}, 0);
    c.add_variational(GateKind::RY, {1});
    c.add_gate(GateKind::CX, {0, 1});
    c.add_embedding(GateKind::RZ, {1}, 1);
    c.add_variational(GateKind::U3, {2});
    c.add_gate(GateKind::CZ, {1, 2});
    c.add_embedding(GateKind::RY, {2}, 0); // feature 0 re-uploaded
    c.set_measured({1, 2});

    std::vector<double> params(static_cast<std::size_t>(c.num_params()));
    for (auto &p : params)
        p = rng.uniform(-M_PI, M_PI);
    std::vector<double> x = {0.4, -0.8};

    const auto obs = sim::class_projectors(c.measured(), 2);
    const auto g = sim::adjoint_gradient(sim::FusedProgram::compile(c),
                                         params, x, obs, true);
    ASSERT_EQ(g.embedding_jacobian.size(), obs.size());
    ASSERT_EQ(g.embedding_jacobian[0].size(), 3u);

    // Finite differences on the *angles*: perturb the feature feeding
    // each embedding op one at a time (distinguishing re-uploads needs
    // per-op perturbation, so rebuild with shifted features per op).
    const auto embed_ops = c.embedding_op_indices();
    const double eps = 1e-6;
    for (std::size_t e = 0; e < embed_ops.size(); ++e) {
        // Use a unique temporary feature index for op e so only that
        // op's angle shifts.
        Circuit shifted = c;
        // (Circuit is immutable here; emulate by constructing x vectors
        // where only this op's angle changes via a dedicated feature.)
        // Instead: rebuild the circuit with op e reading feature 2.
        Circuit rebuilt(3);
        std::size_t count = 0;
        for (const Op &op : c.ops()) {
            if (op.role == ParamRole::Embedding) {
                const int feature =
                    count == e ? 2 : op.data_index;
                rebuilt.add_embedding(op.kind, {op.qubits[0]}, feature);
                ++count;
            } else if (op.role == ParamRole::Variational) {
                rebuilt.add_variational(op.kind, {op.qubits[0]});
            } else {
                rebuilt.add_gate(op.kind,
                                 {op.qubits[0], op.qubits[1]});
            }
        }
        rebuilt.set_measured(c.measured());

        const double base_angle =
            x[static_cast<std::size_t>(c.ops()[embed_ops[e]].data_index)];
        std::vector<double> xp = {x[0], x[1], base_angle + eps};
        std::vector<double> xm = {x[0], x[1], base_angle - eps};
        const sim::FusedProgram program =
            sim::FusedProgram::compile(rebuilt);
        const auto vp = sim::expectations(program, params, xp, obs);
        const auto vm = sim::expectations(program, params, xm, obs);
        for (std::size_t oi = 0; oi < obs.size(); ++oi)
            EXPECT_NEAR(g.embedding_jacobian[oi][e],
                        (vp[oi] - vm[oi]) / (2 * eps), 1e-6)
                << "embedding op " << e << " obs " << oi;
    }
}

TEST(EmbeddingGradients, ProductEmbeddingsRejected)
{
    Circuit c(2);
    c.add_embedding(GateKind::RZ, {0}, 0, 1);
    c.set_measured({0});
    const auto obs = sim::class_projectors(c.measured(), 2);
    EXPECT_THROW(sim::adjoint_gradient(sim::FusedProgram::compile(c), {},
                                       {0.1, 0.2}, obs, true),
                 elv::InternalError);
}

TEST(QtnVqcTest, TransformShapeAndDeterminism)
{
    QtnVqcConfig config;
    config.seed = 2;
    const QtnVqc frontend(4, 3, config);
    const auto y1 = frontend.transform({0.1, 0.2, 0.3, 0.4});
    const auto y2 = frontend.transform({0.1, 0.2, 0.3, 0.4});
    ASSERT_EQ(y1.size(), 3u);
    EXPECT_EQ(y1, y2);
}

TEST(QtnVqcTest, JointTrainingLearnsMoons)
{
    const qml::Benchmark bench = qml::make_benchmark("moons", 3, 0.15);
    // A deliberately small circuit: the classical frontend must carry
    // part of the representational load.
    Circuit c(2);
    c.add_embedding(GateKind::RX, {0}, 0);
    c.add_embedding(GateKind::RY, {1}, 1);
    c.add_gate(GateKind::CX, {0, 1});
    c.add_variational(GateKind::RY, {0});
    c.add_variational(GateKind::RY, {1});
    c.set_measured({0});

    QtnVqcConfig config;
    config.epochs = 40;
    config.seed = 4;
    QtnVqc frontend(bench.spec.dim, 2, config);
    std::uint64_t executions = 0;
    const auto params =
        frontend.train_joint(c, bench.train, &executions);
    EXPECT_GT(executions, 0u);

    const auto eval = frontend.evaluate(
        c, params, bench.test, qml::statevector_distribution());
    EXPECT_GT(eval.accuracy, 0.8);
}

TEST(QtnVqcTest, PinnedJointTraining)
{
    // The trained circuit parameters and the trained frontend's output,
    // bit for bit: a change that reorders the forward pass or the
    // gradient accumulation fails here.
    const qml::Benchmark bench = qml::make_benchmark("moons", 3, 0.1);
    Circuit c(2);
    c.add_embedding(GateKind::RX, {0}, 0);
    c.add_embedding(GateKind::RY, {1}, 1);
    c.add_gate(GateKind::CX, {0, 1});
    c.add_variational(GateKind::RY, {0});
    c.add_variational(GateKind::RY, {1});
    c.set_measured({0});

    QtnVqcConfig config;
    config.epochs = 3;
    config.seed = 4;
    QtnVqc frontend(bench.spec.dim, 2, config);
    std::uint64_t executions = 0;
    const auto params = frontend.train_joint(c, bench.train, &executions);
    EXPECT_EQ(params,
              (std::vector<double>{0x1.143ba3d703778p+0,
                                   0x1.f69e30be9d45dp+0}));
    EXPECT_EQ(frontend.transform(bench.test.samples[0]),
              (std::vector<double>{-0x1.e0a031f8249ddp-2,
                                   0x1.530273988d27p-4}));
    EXPECT_EQ(executions, 180u);
}

TEST(QtnVqcTest, FrontendBeatsPlainCircuitOnAverage)
{
    // Same quantum circuit with and without the trainable frontend:
    // QTN-VQC should win (the Fig. 11b direction) on a task whose raw
    // embedding is too weak.
    const qml::Benchmark bench = qml::make_benchmark("bank", 5, 0.1);
    Rng rng(6);
    const Circuit c = build_random_rxyz_cz(3, 4, 8, 1, rng);

    double plain = 0.0, fronted = 0.0;
    for (std::uint64_t seed = 0; seed < 2; ++seed) {
        qml::TrainConfig tc;
        tc.epochs = 25;
        tc.seed = seed;
        const auto trained = qml::train_circuit(c, bench.train, tc);
        plain += qml::evaluate(c, trained.params, bench.test).accuracy;

        QtnVqcConfig qc;
        qc.epochs = 25;
        qc.seed = seed;
        QtnVqc frontend(bench.spec.dim, 4, qc);
        const auto params = frontend.train_joint(c, bench.train);
        fronted += frontend
                       .evaluate(c, params, bench.test,
                                 qml::statevector_distribution())
                       .accuracy;
    }
    EXPECT_GE(fronted, plain - 0.1);
}

TEST(QuantumNatTest, RequiresCalibration)
{
    const QuantumNat nat;
    EXPECT_FALSE(nat.is_calibrated());
    EXPECT_THROW(nat.normalize({0.5, 0.5}), elv::InternalError);
}

TEST(QuantumNatTest, RecoversAccuracyUnderNoise)
{
    const qml::Benchmark bench = qml::make_benchmark("moons", 7, 0.15);
    const dev::Device device = dev::make_device("oqc_lucy");

    // Train a small circuit noiselessly, then route it onto the ring.
    Rng rng(8);
    const Circuit raw = build_random_rxyz_cz(4, 2, 12, 1, rng);
    qml::TrainConfig tc;
    tc.epochs = 30;
    tc.seed = 9;
    const auto trained = qml::train_circuit(raw, bench.train, tc);
    Rng route_rng(80);
    const Circuit logical =
        comp::compile_for_device(raw, device, 3, route_rng).circuit;

    // Noisy inference backend with harsh readout noise.
    const noise::NoisyDensitySimulator noisy(device, 2.0);
    const auto noisy_fn = [&noisy](const Circuit &c,
                                   const std::vector<double> &p,
                                   const std::vector<double> &x) {
        return noisy.run_distribution(c, p, x);
    };

    const auto ideal_acc =
        qml::evaluate(logical, trained.params, bench.test).accuracy;
    const auto noisy_acc =
        qml::evaluate(logical, trained.params, bench.test, noisy_fn)
            .accuracy;

    QuantumNat nat;
    nat.calibrate(logical, trained.params, bench.train, noisy_fn,
                  qml::statevector_distribution());
    const auto mitigated =
        nat.evaluate(logical, trained.params, bench.test, noisy_fn);

    // Normalization must not hurt and should close part of the
    // ideal-noisy gap.
    EXPECT_GE(mitigated.accuracy + 1e-9, noisy_acc);
    EXPECT_LE(mitigated.accuracy, ideal_acc + 0.1);
}

TEST(QuantumNatTest, NormalizationIsMonotoneInProbability)
{
    QuantumNat nat;
    const qml::Benchmark bench = qml::make_benchmark("moons", 10, 0.05);
    Rng rng(11);
    Circuit c = build_random_rxyz_cz(2, 2, 4, 1, rng);
    qml::TrainConfig tc;
    tc.epochs = 2;
    tc.seed = 12;
    const auto trained = qml::train_circuit(c, bench.train, tc);
    nat.calibrate(c, trained.params, bench.train,
                  qml::statevector_distribution(),
                  qml::statevector_distribution());
    // With identical providers, normalization preserves score ordering
    // within each class column.
    const auto s1 = nat.normalize({0.3, 0.7});
    const auto s2 = nat.normalize({0.6, 0.4});
    EXPECT_GT(s2[0], s1[0]);
    EXPECT_LT(s2[1], s1[1]);
}

} // namespace
