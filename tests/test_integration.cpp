/**
 * @file
 * Integration tests across subsystems: every method of the paper's
 * comparison (Sec. 7.4) runs end to end — search where applicable, the
 * shared training methodology, noiseless and noisy evaluation — and
 * produces sane, hardware-native results on a common benchmark/device
 * cell. Also covers the shot-noise inference path and cross-module
 * determinism.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "baselines/quantum_supernet.hpp"
#include "baselines/quantumnas.hpp"
#include "baselines/simple.hpp"
#include "baselines/supercircuit.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/statistics.hpp"
#include "compiler/compile.hpp"
#include "core/candidate_gen.hpp"
#include "core/search.hpp"
#include "noise/noise_model.hpp"
#include "qml/synthetic.hpp"
#include "qml/trainer.hpp"

namespace {

using namespace elv;

struct Cell
{
    qml::Benchmark bench;
    dev::Device device;

    Cell()
        : bench(qml::make_benchmark("moons", 11, 0.2)),
          device(dev::make_device("ibmq_jakarta"))
    {
    }
};

/** Train a physical circuit and return (ideal, noisy) accuracies. */
std::pair<double, double>
train_eval(const circ::Circuit &physical, const Cell &cell,
           std::uint64_t seed)
{
    qml::TrainConfig tc;
    tc.epochs = 30;
    tc.seed = seed;
    const auto trained =
        qml::train_circuit(physical, cell.bench.train, tc);
    const double ideal =
        qml::evaluate(physical, trained.params, cell.bench.test).accuracy;
    const noise::NoisyDensitySimulator noisy(cell.device);
    const double hw =
        qml::evaluate(physical, trained.params, cell.bench.test,
                      [&noisy](const circ::Circuit &c,
                               const std::vector<double> &p,
                               const std::vector<double> &x) {
                          return noisy.run_distribution(c, p, x);
                      })
            .accuracy;
    return {ideal, hw};
}

TEST(EndToEnd, RandomBaseline)
{
    Cell cell;
    elv::Rng rng(1);
    base::BaselineShape shape;
    shape.num_qubits = 4;
    shape.num_features = 2;
    shape.num_params = 16;
    shape.num_meas = 1;
    const auto circuits = base::random_baseline(shape, 2, rng);
    for (const auto &logical : circuits) {
        const auto compiled =
            comp::compile_for_device(logical, cell.device, 3, rng);
        ASSERT_TRUE(
            comp::is_hardware_native(compiled.circuit,
                                     cell.device.topology));
        // Unselected random circuits are smoke-tested for pipeline
        // integrity, not quality (they can land below chance on the
        // small test split).
        const auto [ideal, hw] = train_eval(compiled.circuit, cell, 5);
        EXPECT_GT(ideal, 0.2);
        EXPECT_GT(hw, 0.2);
    }
}

TEST(EndToEnd, HumanBaselineAllSchemes)
{
    Cell cell;
    elv::Rng rng(2);
    base::BaselineShape shape;
    shape.num_qubits = 4;
    shape.num_features = 2;
    shape.num_params = 16;
    shape.num_meas = 1;
    for (const auto &logical : base::human_baseline(shape)) {
        if (logical.has_amplitude_embedding()) {
            // Amplitude circuits evaluate noiselessly end to end.
            qml::TrainConfig tc;
            tc.epochs = 20;
            tc.seed = 3;
            const auto trained =
                qml::train_circuit(logical, cell.bench.train, tc);
            EXPECT_GT(qml::evaluate(logical, trained.params,
                                    cell.bench.test)
                          .accuracy,
                      0.2);
        } else {
            const auto compiled =
                comp::compile_for_device(logical, cell.device, 3, rng);
            const auto [ideal, hw] =
                train_eval(compiled.circuit, cell, 7);
            EXPECT_GT(ideal, 0.2);
            EXPECT_GT(hw, 0.2);
        }
    }
}

TEST(EndToEnd, QuantumSupernetPipeline)
{
    Cell cell;
    elv::Rng rng(3);
    const base::SuperCircuit super(4, 3, 2, 1, true);
    qml::TrainConfig tc;
    tc.epochs = 10;
    tc.seed = 4;
    const auto trained =
        base::train_supercircuit(super, cell.bench.train, 12, tc);
    base::SupernetConfig config;
    config.num_samples = 8;
    config.target_params = 12;
    config.valid_samples = 10;
    const auto found = base::supernet_search(
        super, trained.shared_params, cell.bench.test, config);
    const auto compiled = comp::compile_for_device(found.best_logical,
                                                   cell.device, 3, rng);
    const auto [ideal, hw] = train_eval(compiled.circuit, cell, 9);
    EXPECT_GT(ideal, 0.4);
    EXPECT_GT(hw, 0.4);
}

TEST(EndToEnd, QuantumNasPipeline)
{
    Cell cell;
    elv::Rng rng(4);
    const base::SuperCircuit super(4, 3, 2, 1);
    qml::TrainConfig tc;
    tc.epochs = 10;
    tc.seed = 5;
    const auto trained =
        base::train_supercircuit(super, cell.bench.train, 12, tc);
    base::QuantumNasConfig config;
    config.population = 4;
    config.generations = 2;
    config.target_params = 12;
    config.valid_samples = 8;
    const auto found = base::quantumnas_search(
        super, trained.shared_params, cell.device, cell.bench.test,
        config);
    ASSERT_TRUE(comp::is_hardware_native(found.best_physical,
                                         cell.device.topology));
    const auto [ideal, hw] = train_eval(found.best_physical, cell, 10);
    EXPECT_GT(ideal, 0.4);
    EXPECT_GT(hw, 0.4);
}

TEST(EndToEnd, ElivagarPipeline)
{
    Cell cell;
    core::ElivagarConfig config;
    config.num_candidates = 16;
    config.candidate.num_qubits = 4;
    config.candidate.num_params = 16;
    config.candidate.num_embeds = 6;
    config.candidate.num_meas = 1;
    config.candidate.num_features = 2;
    config.cnr.num_replicas = 6;
    config.repcap.samples_per_class = 8;
    config.repcap.param_inits = 8;
    config.seed = 21;
    const auto found =
        core::elivagar_search(cell.device, cell.bench.train, config);
    ASSERT_TRUE(comp::is_hardware_native(found.best_circuit,
                                         cell.device.topology));
    const auto [ideal, hw] = train_eval(found.best_circuit, cell, 12);
    EXPECT_GT(ideal, 0.5);
    EXPECT_GT(hw, 0.5);
}

TEST(EndToEnd, SearchIsDeterministic)
{
    Cell cell;
    core::ElivagarConfig config;
    config.num_candidates = 8;
    config.candidate.num_qubits = 4;
    config.candidate.num_params = 12;
    config.candidate.num_embeds = 4;
    config.candidate.num_meas = 1;
    config.candidate.num_features = 2;
    config.cnr.num_replicas = 4;
    config.repcap.samples_per_class = 4;
    config.repcap.param_inits = 4;
    config.seed = 33;
    const auto a =
        core::elivagar_search(cell.device, cell.bench.train, config);
    const auto b =
        core::elivagar_search(cell.device, cell.bench.train, config);
    EXPECT_DOUBLE_EQ(a.best_score, b.best_score);
    EXPECT_EQ(a.best_circuit.to_string(), b.best_circuit.to_string());
    EXPECT_EQ(a.cnr_executions, b.cnr_executions);
}

TEST(ShotNoise, HistogramIsNormalizedAndConverges)
{
    Cell cell;
    elv::Rng rng(6);
    const circ::Circuit c =
        circ::build_random_rxyz_cz(3, 2, 8, 2, rng);
    std::vector<double> params(8);
    for (auto &p : params)
        p = rng.uniform(-M_PI, M_PI);
    const std::vector<double> x = {0.3, -0.5};

    const auto exact_fn = qml::statevector_distribution();
    const auto exact = exact_fn(c, params, x);

    const auto few = qml::with_shot_noise(exact_fn, 64, 1)(c, params, x);
    double total = 0.0;
    for (double p : few)
        total += p;
    EXPECT_NEAR(total, 1.0, 1e-12);

    const auto many =
        qml::with_shot_noise(exact_fn, 200000, 2)(c, params, x);
    EXPECT_LT(total_variation_distance(exact, many), 0.01);
}

TEST(ShotNoise, FewShotsDegradeAccuracy)
{
    // On a trained circuit, 8-shot inference must be no better than
    // exact inference (and typically worse).
    Cell cell;
    elv::Rng rng(8);
    const circ::Circuit c =
        circ::build_random_rxyz_cz(4, 2, 16, 1, rng);
    qml::TrainConfig tc;
    tc.epochs = 30;
    tc.seed = 14;
    const auto trained = qml::train_circuit(c, cell.bench.train, tc);

    const double exact_acc =
        qml::evaluate(c, trained.params, cell.bench.test).accuracy;
    const double few_shot_acc =
        qml::evaluate(c, trained.params, cell.bench.test,
                      qml::with_shot_noise(
                          qml::statevector_distribution(), 4, 3))
            .accuracy;
    EXPECT_LE(few_shot_acc, exact_acc + 0.1);
}

TEST(ShotNoise, HistogramIsAFunctionOfItsInputs)
{
    // One wrapper samples the same rows forward, backward and from four
    // threads. A row's histogram must not depend on the calls before
    // it, so all three passes agree.
    Cell cell;
    elv::Rng rng(9);
    const circ::Circuit c = circ::build_random_rxyz_cz(4, 2, 12, 2, rng);
    std::vector<double> params(12);
    for (auto &p : params)
        p = rng.uniform(-M_PI, M_PI);
    const auto shots =
        qml::with_shot_noise(qml::statevector_distribution(), 16, 5);
    const auto &rows = cell.bench.test.samples;

    std::vector<std::vector<double>> forward(rows.size()),
        backward(rows.size()), threaded(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i)
        forward[i] = shots(c, params, rows[i]);
    for (std::size_t i = rows.size(); i-- > 0;)
        backward[i] = shots(c, params, rows[i]);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < 4; ++t)
        threads.emplace_back([&, t] {
            for (std::size_t i = t; i < rows.size(); i += 4)
                threaded[i] = shots(c, params, rows[i]);
        });
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_EQ(backward, forward);
    EXPECT_EQ(threaded, forward);
}

TEST(Evaluate, BitIdenticalAtEveryThreadCount)
{
    // A device-native mnist-4 candidate on ibm_perth with random
    // parameters, evaluated noiselessly and on the density backend. The
    // pins are the serial row loop's loss and accuracy; the fanned-out
    // rows must reduce to them bit for bit at every thread count.
    const qml::Benchmark bench = qml::make_benchmark("mnist-4", 7, 0.01);
    const dev::Device device = dev::make_device("ibm_perth");
    core::CandidateConfig cc;
    cc.num_qubits = bench.spec.qubits;
    cc.num_params = bench.spec.params;
    cc.num_embeds = bench.spec.dim;
    cc.num_meas = bench.spec.meas;
    cc.num_features = bench.spec.dim;
    elv::Rng rng(31);
    const circ::Circuit c = core::generate_candidate(device, cc, rng);
    std::vector<double> params(static_cast<std::size_t>(c.num_params()));
    for (auto &p : params)
        p = rng.uniform(-M_PI, M_PI);
    const noise::NoisyDensitySimulator noisy(device);
    const qml::DistributionFn noisy_fn =
        [&noisy](const circ::Circuit &circuit, const std::vector<double> &p,
                 const std::vector<double> &x) {
            return noisy.run_distribution(circuit, p, x);
        };
    ASSERT_EQ(bench.test.size(), 20u);

    for (int threads : {1, 2, 4}) {
        const qml::EvalResult ideal =
            qml::evaluate(c, params, bench.test, threads);
        const qml::EvalResult hw =
            qml::evaluate(c, params, bench.test, noisy_fn, threads);
        EXPECT_EQ(ideal.loss, 0x1.981accab04268p+0) << threads;
        EXPECT_EQ(ideal.accuracy, 0x1.3333333333333p-3) << threads;
        EXPECT_EQ(hw.loss, 0x1.8015ce675b12bp+0) << threads;
        EXPECT_EQ(hw.accuracy, 0x1.3333333333333p-3) << threads;
    }
}

} // namespace
