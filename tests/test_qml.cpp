/**
 * @file
 * QML-stack tests: dataset utilities, PCA correctness, the
 * classification head, the Adam optimizer, and end-to-end training
 * (circuits must actually learn the synthetic tasks; both gradient
 * backends must agree on the physics and differ only in cost).
 */
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "circuit/builders.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "qml/classifier.hpp"
#include "qml/dataset.hpp"
#include "qml/diagnostics.hpp"
#include "qml/optimizer.hpp"
#include "qml/pca.hpp"
#include "qml/synthetic.hpp"
#include "qml/trainer.hpp"

namespace {

using namespace elv;
using namespace elv::circ;
using namespace elv::qml;

TEST(Dataset, NormalizationBounds)
{
    Rng rng(1);
    Dataset data = make_bank(200, rng);
    normalize_features(data, -1.0, 1.0);
    for (const auto &row : data.samples)
        for (double v : row) {
            EXPECT_GE(v, -1.0 - 1e-12);
            EXPECT_LE(v, 1.0 + 1e-12);
        }
}

TEST(Dataset, NormalizeLikeUsesReferenceRanges)
{
    Dataset ref;
    ref.num_classes = 2;
    ref.samples = {{0.0}, {10.0}};
    ref.labels = {0, 1};
    Dataset other;
    other.num_classes = 2;
    other.samples = {{5.0}, {20.0}};
    other.labels = {0, 1};
    normalize_features_like(other, ref, 0.0, 1.0);
    EXPECT_NEAR(other.samples[0][0], 0.5, 1e-12);
    // Out-of-range values are clamped to the target interval.
    EXPECT_NEAR(other.samples[1][0], 1.0, 1e-12);
}

TEST(Dataset, SamplePerClassBalanced)
{
    Rng rng(2);
    Dataset data = make_moons(100, 0.1, rng);
    const auto idx = sample_per_class(data, 10, rng);
    ASSERT_EQ(idx.size(), 20u);
    int per_class[2] = {0, 0};
    std::set<std::size_t> unique(idx.begin(), idx.end());
    EXPECT_EQ(unique.size(), 20u);
    for (std::size_t i : idx)
        ++per_class[data.labels[i]];
    EXPECT_EQ(per_class[0], 10);
    EXPECT_EQ(per_class[1], 10);
}

TEST(Dataset, ShuffleKeepsPairs)
{
    Rng rng(3);
    Dataset data;
    data.num_classes = 2;
    for (int i = 0; i < 50; ++i) {
        data.samples.push_back({static_cast<double>(i)});
        data.labels.push_back(i % 2);
    }
    shuffle_dataset(data, rng);
    for (std::size_t i = 0; i < data.samples.size(); ++i)
        EXPECT_EQ(static_cast<int>(data.samples[i][0]) % 2,
                  data.labels[i]);
}

TEST(Pca, RecoversDominantDirection)
{
    // Data stretched along (1, 1)/sqrt(2): the first component must align
    // with it, and the explained variance must dominate.
    Rng rng(4);
    std::vector<std::vector<double>> data;
    for (int i = 0; i < 500; ++i) {
        const double main_axis = rng.normal(0.0, 3.0);
        const double off_axis = rng.normal(0.0, 0.2);
        data.push_back({main_axis + off_axis, main_axis - off_axis});
    }
    const Pca pca(data, 2);
    const auto &var = pca.explained_variance();
    EXPECT_GT(var[0], 10.0 * var[1]);

    const auto projected = pca.transform(std::vector<double>{1.0, 1.0});
    EXPECT_GT(std::abs(projected[0]), std::abs(projected[1]));
}

TEST(Pca, TransformPreservesPairwiseDistances)
{
    // With all components kept, PCA is an isometry (orthogonal map).
    Rng rng(5);
    std::vector<std::vector<double>> data;
    for (int i = 0; i < 100; ++i)
        data.push_back({rng.normal(), rng.normal(), rng.normal()});
    const Pca pca(data, 3);
    const auto t = pca.transform(data);
    for (int trial = 0; trial < 20; ++trial) {
        const std::size_t a = rng.uniform_index(100);
        const std::size_t b = rng.uniform_index(100);
        double d_orig = 0.0, d_proj = 0.0;
        for (int f = 0; f < 3; ++f) {
            d_orig += (data[a][f] - data[b][f]) *
                      (data[a][f] - data[b][f]);
            d_proj += (t[a][f] - t[b][f]) * (t[a][f] - t[b][f]);
        }
        EXPECT_NEAR(d_orig, d_proj, 1e-9);
    }
}

TEST(Synthetic, BenchmarkTableMatchesPaper)
{
    const auto table = benchmark_table();
    ASSERT_EQ(table.size(), 9u);
    const BenchmarkSpec moons = benchmark_spec("moons");
    EXPECT_EQ(moons.classes, 2);
    EXPECT_EQ(moons.dim, 2);
    EXPECT_EQ(moons.train, 600);
    EXPECT_EQ(moons.params, 16);
    const BenchmarkSpec m10 = benchmark_spec("mnist-10");
    EXPECT_EQ(m10.classes, 10);
    EXPECT_EQ(m10.dim, 36);
    EXPECT_EQ(m10.train, 60000);
    EXPECT_EQ(m10.params, 72);
    EXPECT_THROW(benchmark_spec("cifar"), elv::UsageError);
}

TEST(Synthetic, GeneratedBenchmarksAreWellFormed)
{
    for (const auto &spec : benchmark_table()) {
        const Benchmark bench = make_benchmark(spec.name, 7, 0.05);
        bench.train.check();
        bench.test.check();
        EXPECT_EQ(bench.train.dim(), spec.dim) << spec.name;
        EXPECT_EQ(bench.train.num_classes, spec.classes) << spec.name;
        // Every class must be represented in the (scaled) train set.
        std::set<int> seen(bench.train.labels.begin(),
                           bench.train.labels.end());
        EXPECT_EQ(static_cast<int>(seen.size()), spec.classes)
            << spec.name;
        for (const auto &row : bench.train.samples)
            for (double v : row)
                EXPECT_LE(std::abs(v), M_PI / 2 + 1e-9);
    }
}

TEST(Synthetic, GenerationIsDeterministic)
{
    const Benchmark a = make_benchmark("bank", 99, 0.1);
    const Benchmark b = make_benchmark("bank", 99, 0.1);
    EXPECT_EQ(a.train.samples, b.train.samples);
    EXPECT_EQ(a.test.labels, b.test.labels);
}

TEST(Classifier, ProbabilitiesFormDistribution)
{
    Rng rng(6);
    const Circuit c = build_random_rxyz_cz(4, 4, 12, 2, rng);
    std::vector<double> params(12);
    for (auto &p : params)
        p = rng.uniform(-M_PI, M_PI);
    const auto probs =
        class_probabilities(c, params, {0.1, 0.2, 0.3, 0.4}, 3);
    ASSERT_EQ(probs.size(), 3u);
    double total = 0.0;
    for (double p : probs) {
        EXPECT_GE(p, 0.0);
        total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Classifier, PredictAndLoss)
{
    EXPECT_EQ(predict_class({0.2, 0.7, 0.1}), 1);
    EXPECT_NEAR(cross_entropy({0.5, 0.5}, 0), std::log(2.0), 1e-12);
    EXPECT_GT(cross_entropy({1e-20, 1.0}, 0), 20.0);
}

TEST(Optimizer, AdamMinimizesQuadratic)
{
    Adam adam(2, 0.1);
    std::vector<double> params = {3.0, -2.0};
    for (int step = 0; step < 500; ++step) {
        const std::vector<double> grads = {2.0 * (params[0] - 1.0),
                                           2.0 * (params[1] + 0.5)};
        adam.step(params, grads);
    }
    EXPECT_NEAR(params[0], 1.0, 1e-3);
    EXPECT_NEAR(params[1], -0.5, 1e-3);
}

TEST(Trainer, LearnsMoons)
{
    const Benchmark bench = make_benchmark("moons", 5, 0.2);
    Rng rng(8);
    const Circuit c =
        build_random_rxyz_cz(bench.spec.qubits, bench.spec.dim,
                             bench.spec.params, bench.spec.meas, rng);
    TrainConfig config;
    config.epochs = 40;
    config.seed = 11;
    const TrainResult trained = train_circuit(c, bench.train, config);

    // Loss must fall substantially and test accuracy beat chance.
    EXPECT_LT(trained.loss_history.back(),
              0.8 * trained.loss_history.front());
    const EvalResult eval = evaluate(c, trained.params, bench.test);
    EXPECT_GT(eval.accuracy, 0.75);
}

TEST(Trainer, ParameterShiftMatchesAdjointTrajectory)
{
    // Identical seeds and data: the two backends compute the same
    // gradients, so the loss histories must coincide.
    const Benchmark bench = make_benchmark("moons", 6, 0.05);
    Rng rng(9);
    const Circuit c = build_random_rxyz_cz(3, 2, 6, 1, rng);

    TrainConfig adj;
    adj.epochs = 3;
    adj.seed = 21;
    adj.backend = GradientBackend::Adjoint;
    TrainConfig shift = adj;
    shift.backend = GradientBackend::ParameterShift;

    const TrainResult a = train_circuit(c, bench.train, adj);
    const TrainResult b = train_circuit(c, bench.train, shift);
    ASSERT_EQ(a.loss_history.size(), b.loss_history.size());
    for (std::size_t e = 0; e < a.loss_history.size(); ++e)
        EXPECT_NEAR(a.loss_history[e], b.loss_history[e], 1e-8);

    // ... but the hardware backend needs 1 + 2P times more executions.
    EXPECT_EQ(b.circuit_executions,
              a.circuit_executions * (1 + 2 * 6));
}

TEST(Trainer, HandlesAmplitudeEmbeddingCircuits)
{
    const Benchmark bench = make_benchmark("mnist-2", 3, 0.03);
    const Circuit c = build_human_designed(
        4, bench.spec.dim, 12, bench.spec.meas,
        EmbeddingScheme::Amplitude);
    TrainConfig config;
    config.epochs = 3;
    config.seed = 4;
    const TrainResult trained = train_circuit(c, bench.train, config);
    EXPECT_EQ(trained.params.size(), 12u);
    const EvalResult eval = evaluate(c, trained.params, bench.test);
    EXPECT_GE(eval.accuracy, 0.0); // smoke: runs end to end
}

TEST(Diagnostics, BarrenPlateauVarianceDecaysWithWidth)
{
    // McClean et al.: for deep random circuits, the gradient variance
    // of a local cost decays exponentially with qubit count. Check the
    // monotone-decay shape between 2 and 6 qubits.
    double prev = 1e9;
    for (int qubits : {2, 4, 6}) {
        // Structured brickwork ansatz so the tracked parameter (slot 0,
        // an RY on the measured qubit) is always causally connected.
        Circuit c(qubits);
        for (int layer = 0; layer < 8; ++layer) {
            for (int q = 0; q < qubits; ++q) {
                c.add_variational(GateKind::RY, {q});
                c.add_variational(GateKind::RZ, {q});
            }
            for (int q = 0; q + 1 < qubits; ++q)
                c.add_gate(GateKind::CX, {q, q + 1});
            if (qubits > 1)
                c.add_gate(GateKind::CX, {qubits - 1, 0});
        }
        c.set_measured({0});
        Rng rng(41);
        GradientVarianceOptions options;
        options.num_samples = 48;
        const GradientVariance gv = gradient_variance(c, rng, options);
        EXPECT_GT(gv.variance, 0.0);
        EXPECT_LT(gv.variance, prev) << qubits << " qubits";
        EXPECT_NEAR(gv.mean, 0.0, 0.15);
        prev = gv.variance;
    }
}

TEST(Diagnostics, CountsExecutionsAndValidatesInput)
{
    Rng rng(42);
    Circuit c = build_random_rxyz_cz(3, 2, 6, 1, rng);
    GradientVarianceOptions options;
    options.num_samples = 8;
    Rng gv_rng(1);
    const GradientVariance gv = gradient_variance(c, gv_rng, options);
    EXPECT_EQ(gv.circuit_executions, 8u);

    Circuit no_params(2);
    no_params.add_gate(GateKind::H, {0});
    no_params.set_measured({0});
    Rng r2(2);
    EXPECT_THROW(gradient_variance(no_params, r2), elv::InternalError);
}

TEST(Trainer, NoiseAwareTrainingThroughProvider)
{
    // Training through a distribution provider (here: the noiseless
    // statevector, wrapped) must match plain parameter-shift training
    // exactly — and a noisy provider must still learn the task.
    const Benchmark bench = make_benchmark("moons", 8, 0.08);
    Rng rng(10);
    const Circuit c = build_random_rxyz_cz(3, 2, 8, 1, rng);

    TrainConfig plain;
    plain.epochs = 4;
    plain.seed = 31;
    plain.backend = GradientBackend::ParameterShift;
    const TrainResult a = train_circuit(c, bench.train, plain);

    TrainConfig provided = plain;
    provided.distribution = statevector_distribution();
    const TrainResult b = train_circuit(c, bench.train, provided);
    ASSERT_EQ(a.loss_history.size(), b.loss_history.size());
    for (std::size_t e = 0; e < a.loss_history.size(); ++e)
        EXPECT_NEAR(a.loss_history[e], b.loss_history[e], 1e-9);
}

TEST(Trainer, ProviderRequiresParameterShift)
{
    const Benchmark bench = make_benchmark("moons", 9, 0.05);
    Rng rng(11);
    const Circuit c = build_random_rxyz_cz(2, 2, 4, 1, rng);
    TrainConfig config;
    config.epochs = 1;
    config.backend = GradientBackend::Adjoint;
    config.distribution = statevector_distribution();
    EXPECT_THROW(train_circuit(c, bench.train, config),
                 elv::InternalError);
}

} // namespace
