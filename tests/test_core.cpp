/**
 * @file
 * Core (Elivagar) tests: Algorithm 1 candidate generation invariants,
 * CNR behaviour (bounds, monotonicity in noise and depth, correlation
 * with true circuit fidelity — the Fig. 5 claim), RepCap behaviour
 * (bounds, sensitivity to data embedding, preference for separating
 * circuits — the Fig. 6/7 claim), and the 5-step search pipeline.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <set>
#include <string>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/statistics.hpp"
#include "compiler/compile.hpp"
#include "core/candidate_gen.hpp"
#include "core/checkpoint.hpp"
#include "core/cnr.hpp"
#include "core/repcap.hpp"
#include "core/search.hpp"
#include "common/validate.hpp"
#include "noise/noise_model.hpp"
#include "qml/synthetic.hpp"
#include "qml/trainer.hpp"
#include "sim/cpu_features.hpp"
#include "sim/fusion.hpp"
#include "sim/statevector.hpp"

namespace {

using namespace elv;
using namespace elv::circ;
using namespace elv::core;

CandidateConfig
small_config()
{
    CandidateConfig config;
    config.num_qubits = 4;
    config.num_params = 12;
    config.num_embeds = 4;
    config.num_meas = 2;
    config.num_features = 4;
    return config;
}

TEST(CandidateGen, ProducesHardwareNativeCircuits)
{
    Rng rng(1);
    const dev::Device device = dev::make_device("ibm_guadalupe");
    const CandidateConfig config = small_config();
    for (int trial = 0; trial < 20; ++trial) {
        const Circuit c = generate_candidate(device, config, rng);
        EXPECT_TRUE(comp::is_hardware_native(c, device.topology));
        EXPECT_EQ(c.num_params(), config.num_params);
        EXPECT_EQ(c.num_embedding_gates(), config.num_embeds);
        EXPECT_EQ(static_cast<int>(c.measured().size()),
                  config.num_meas);
        EXPECT_EQ(static_cast<int>(c.touched_qubits().size()),
                  config.num_qubits);
    }
}

TEST(CandidateGen, EmbeddingCoversAllFeaturesWhenBudgetAllows)
{
    Rng rng(2);
    const dev::Device device = dev::make_device("ibmq_jakarta");
    CandidateConfig config = small_config();
    config.num_embeds = 8; // two full feature cycles
    for (int trial = 0; trial < 10; ++trial) {
        const Circuit c = generate_candidate(device, config, rng);
        std::set<int> features;
        for (const Op &op : c.ops())
            if (op.role == ParamRole::Embedding)
                features.insert(op.data_index);
        EXPECT_EQ(features.size(), 4u);
    }
}

TEST(CandidateGen, FixedEmbeddingModesEmitPrefixes)
{
    Rng rng(3);
    const dev::Device device = dev::make_device("ibm_guadalupe");
    CandidateConfig config = small_config();

    config.embedding = EmbeddingMode::FixedAngle;
    const Circuit angle = generate_candidate(device, config, rng);
    EXPECT_EQ(angle.num_embedding_gates(), config.num_features);
    EXPECT_TRUE(comp::is_hardware_native(angle, device.topology));

    config.embedding = EmbeddingMode::FixedIQP;
    const Circuit iqp = generate_candidate(device, config, rng);
    EXPECT_TRUE(comp::is_hardware_native(iqp, device.topology));
    EXPECT_GT(iqp.count_kind(GateKind::H), 0);
    bool has_product = false;
    for (const Op &op : iqp.ops())
        if (op.role == ParamRole::Embedding && op.data_index2 >= 0)
            has_product = true;
    EXPECT_TRUE(has_product);
}

TEST(CandidateGen, NoiseAwareAvoidsBadReadoutQubits)
{
    // On OQC Lucy (13% median readout error with spread), noise-aware
    // measurement selection should pick the worst-readout qubit less
    // often than uniform selection does.
    const dev::Device device = dev::make_device("oqc_lucy");
    int worst = 0;
    for (int q = 1; q < device.num_qubits(); ++q)
        if (device.readout_error[static_cast<std::size_t>(q)] >
            device.readout_error[static_cast<std::size_t>(worst)])
            worst = q;

    CandidateConfig config = small_config();
    config.num_qubits = device.num_qubits(); // subgraph = whole ring
    config.num_meas = 1;

    int aware_hits = 0, unaware_hits = 0;
    Rng rng_a(4), rng_u(4);
    for (int trial = 0; trial < 300; ++trial) {
        config.noise_aware = true;
        if (generate_candidate(device, config, rng_a).measured()[0] ==
            worst)
            ++aware_hits;
        config.noise_aware = false;
        if (generate_candidate(device, config, rng_u).measured()[0] ==
            worst)
            ++unaware_hits;
    }
    EXPECT_LT(aware_hits, unaware_hits);
}

TEST(CandidateGen, DeviceUnawareNeedsRouting)
{
    Rng rng(5);
    CandidateConfig config = small_config();
    config.num_qubits = 5;
    const dev::Device device = dev::make_device("ibmq_manila");
    int native = 0;
    for (int trial = 0; trial < 20; ++trial) {
        const Circuit c = generate_device_unaware(config, rng);
        EXPECT_EQ(c.num_params(), config.num_params);
        if (comp::is_hardware_native(c, device.topology))
            ++native;
    }
    // All-to-all random circuits almost never fit a line topology.
    EXPECT_LT(native, 5);
}

TEST(Cnr, BoundsAndZeroNoise)
{
    Rng rng(6);
    const dev::Device device = dev::make_device("ibm_lagos");
    const Circuit c =
        generate_candidate(device, small_config(), rng);

    CnrOptions options;
    options.num_replicas = 8;
    options.noise_scale = 0.0;
    const CnrResult ideal =
        clifford_noise_resilience(c, device, rng, options);
    EXPECT_NEAR(ideal.cnr, 1.0, 1e-9);
    EXPECT_EQ(ideal.circuit_executions, 8u);

    options.noise_scale = 1.0;
    const CnrResult noisy =
        clifford_noise_resilience(c, device, rng, options);
    EXPECT_GT(noisy.cnr, 0.0);
    EXPECT_LT(noisy.cnr, 1.0);
}

TEST(Cnr, DecreasesWithNoiseScale)
{
    Rng rng(7);
    const dev::Device device = dev::make_device("ibm_perth");
    const Circuit c =
        generate_candidate(device, small_config(), rng);
    CnrOptions options;
    options.num_replicas = 12;
    double prev = 1.1;
    for (double scale : {0.5, 2.0, 6.0}) {
        options.noise_scale = scale;
        Rng local(77);
        const double cnr =
            clifford_noise_resilience(c, device, local, options).cnr;
        EXPECT_LT(cnr, prev);
        prev = cnr;
    }
}

TEST(Cnr, PredictsCircuitFidelity)
{
    // The Fig. 5 claim: CNR correlates strongly with the fidelity of
    // the original (non-Clifford) circuit under bound parameters.
    const dev::Device device = dev::make_device("oqc_lucy");
    const noise::NoisyDensitySimulator noisy(device);
    Rng rng(8);

    std::vector<double> cnrs, fidelities;
    CandidateConfig config = small_config();
    for (int n = 0; n < 40; ++n) {
        // Vary circuit size so fidelities spread out.
        config.num_params = 4 + 3 * (n % 10);
        const Circuit c = generate_candidate(device, config, rng);
        CnrOptions options;
        options.num_replicas = 16;
        cnrs.push_back(
            clifford_noise_resilience(c, device, rng, options).cnr);

        // Circuit fidelity averaged over parameter/input bindings (the
        // quantity CNR predicts over the course of training, Sec. 5.1).
        double fid = 0.0;
        const int bindings = 8;
        for (int b = 0; b < bindings; ++b) {
            std::vector<double> params(
                static_cast<std::size_t>(c.num_params()));
            for (auto &p : params)
                p = rng.uniform(-M_PI, M_PI);
            std::vector<double> x(
                static_cast<std::size_t>(config.num_features));
            for (auto &v : x)
                v = rng.uniform(-M_PI / 2, M_PI / 2);
            fid += noisy.fidelity(c, params, x);
        }
        fidelities.push_back(fid / bindings);
    }
    EXPECT_GT(pearson_r(cnrs, fidelities), 0.55);
}

TEST(Cnr, StabilizerBackendAgreesWithDensity)
{
    Rng rng(9);
    const dev::Device device = dev::make_device("ibm_nairobi");
    const Circuit c =
        generate_candidate(device, small_config(), rng);

    CnrOptions dense;
    dense.num_replicas = 16;
    Rng r1(42);
    const double cnr_dense =
        clifford_noise_resilience(c, device, r1, dense).cnr;

    CnrOptions stab = dense;
    stab.backend = CnrBackend::Stabilizer;
    stab.shots = 4096;
    Rng r2(42);
    const double cnr_stab =
        clifford_noise_resilience(c, device, r2, stab).cnr;

    // Different replicas and sampling noise: loose agreement.
    EXPECT_NEAR(cnr_dense, cnr_stab, 0.12);
}

/** A 3-qubit Clifford circuit on coupled ibm_lagos qubits. */
Circuit
lagos_clifford_circuit()
{
    Circuit c(3);
    c.add_gate(GateKind::H, {0});
    c.add_gate(GateKind::CX, {0, 1});
    c.add_gate(GateKind::S, {1});
    c.add_gate(GateKind::CX, {1, 2});
    c.set_measured({0, 1, 2});
    return c;
}

TEST(Cnr, FidelityInBoundsUnderBothBackends)
{
    const dev::Device device = dev::make_device("ibm_lagos");
    for (const CnrBackend backend :
         {CnrBackend::Density, CnrBackend::Stabilizer}) {
        CnrOptions options;
        options.num_replicas = 1;
        options.backend = backend;
        Rng rng(3);
        const CnrResult result = clifford_noise_resilience(
            lagos_clifford_circuit(), device, rng, options);
        EXPECT_GT(result.cnr, 0.0);
        EXPECT_LE(result.cnr, 1.0);
        EXPECT_EQ(result.circuit_executions, 1u);
    }
}

TEST(Cnr, BothBackendsRejectCorruptDevice)
{
    dev::Device device = dev::make_device("ibm_lagos");
    device.readout_error[0] = 2.0;
    for (const CnrBackend backend :
         {CnrBackend::Density, CnrBackend::Stabilizer}) {
        CnrOptions options;
        options.backend = backend;
        Rng rng(5);
        EXPECT_THROW(clifford_noise_resilience(lagos_clifford_circuit(),
                                               device, rng, options),
                     UsageError);
    }
}

TEST(RepCap, BoundsAndDeterminism)
{
    const qml::Benchmark bench = qml::make_benchmark("moons", 1, 0.2);
    Rng rng(10);
    const dev::Device device = dev::make_device("ibmq_jakarta");
    CandidateConfig config = small_config();
    config.num_features = bench.spec.dim;
    const Circuit c = generate_candidate(device, config, rng);

    RepCapOptions options;
    options.samples_per_class = 6;
    options.param_inits = 4;
    Rng r1(5), r2(5);
    const RepCapResult a =
        representational_capacity(c, bench.train, r1, options);
    const RepCapResult b =
        representational_capacity(c, bench.train, r2, options);
    EXPECT_DOUBLE_EQ(a.repcap, b.repcap);
    EXPECT_GE(a.repcap, 0.0);
    EXPECT_LE(a.repcap, 1.0);
    EXPECT_EQ(a.circuit_executions,
              static_cast<std::uint64_t>(2 * 6 * 4));
}

TEST(RepCap, EmbeddingCircuitsBeatConstantCircuits)
{
    // A circuit that never touches the data maps every sample to the
    // same state: all pairwise similarities are 1, so inter-class
    // separation is zero and RepCap must be lower than for a circuit
    // that actually embeds the data.
    const qml::Benchmark bench = qml::make_benchmark("moons", 2, 0.2);
    Rng rng(11);

    Circuit constant(4);
    for (int i = 0; i < 6; ++i)
        constant.add_variational(GateKind::RY, {i % 4});
    constant.add_gate(GateKind::CX, {0, 1});
    constant.set_measured({0, 1});

    Circuit embedding(4);
    embedding.add_embedding(GateKind::RX, {0}, 0);
    embedding.add_embedding(GateKind::RY, {1}, 1);
    embedding.add_gate(GateKind::CX, {0, 1});
    for (int i = 0; i < 4; ++i)
        embedding.add_variational(GateKind::RY, {i % 2});
    embedding.set_measured({0, 1});

    RepCapOptions options;
    options.samples_per_class = 8;
    options.param_inits = 6;
    Rng r1(3), r2(3);
    const double rc_const =
        representational_capacity(constant, bench.train, r1, options)
            .repcap;
    const double rc_embed =
        representational_capacity(embedding, bench.train, r2, options)
            .repcap;
    EXPECT_GT(rc_embed, rc_const);
}

TEST(RepCap, PredictsTrainedPerformance)
{
    // The Fig. 6/7 claim, at test scale: across random candidates,
    // RepCap correlates positively with trained test accuracy.
    const qml::Benchmark bench = qml::make_benchmark("moons", 3, 0.15);
    const dev::Device device = dev::make_device("ibmq_jakarta");
    Rng rng(12);

    CandidateConfig config = small_config();
    config.num_features = bench.spec.dim;
    config.num_embeds = 4;
    config.num_params = 12;
    config.num_meas = 1;

    std::vector<double> repcaps, accuracies;
    for (int n = 0; n < 16; ++n) {
        const Circuit c = generate_candidate(device, config, rng);
        RepCapOptions options;
        options.samples_per_class = 12;
        options.param_inits = 12;
        Rng rc_rng(100 + n);
        repcaps.push_back(
            representational_capacity(c, bench.train, rc_rng, options)
                .repcap);

        // Best of two optimizer restarts, so initialization variance
        // does not swamp the circuit-quality signal.
        double best = 0.0;
        for (std::uint64_t s = 1; s <= 2; ++s) {
            qml::TrainConfig tc;
            tc.epochs = 40;
            tc.seed = s;
            const auto trained = qml::train_circuit(c, bench.train, tc);
            best = std::max(
                best,
                qml::evaluate(c, trained.params, bench.test).accuracy);
        }
        accuracies.push_back(best);
    }
    EXPECT_GT(spearman_r(repcaps, accuracies), 0.4);
}

TEST(Search, EndToEndPipeline)
{
    const qml::Benchmark bench = qml::make_benchmark("moons", 4, 0.15);
    const dev::Device device = dev::make_device("ibm_lagos");

    ElivagarConfig config;
    config.num_candidates = 24;
    config.candidate = small_config();
    config.candidate.num_params = 16;
    config.candidate.num_embeds = 6;
    config.candidate.num_meas = 1;
    config.candidate.num_features = bench.spec.dim;
    config.cnr.num_replicas = 6;
    config.repcap.samples_per_class = 8;
    config.repcap.param_inits = 8;
    config.seed = 13;

    const SearchResult result =
        elivagar_search(device, bench.train, config);
    EXPECT_TRUE(
        comp::is_hardware_native(result.best_circuit, device.topology));
    EXPECT_EQ(result.candidates.size(), 24u);
    EXPECT_GE(result.survivors, 1);
    EXPECT_LE(result.survivors, 12); // top 50%
    EXPECT_EQ(result.cnr_executions, 24u * 6u);
    // RepCap executions only for survivors.
    EXPECT_EQ(result.repcap_executions,
              static_cast<std::uint64_t>(result.survivors) * 2 * 8 * 8);
    EXPECT_GT(result.best_score, 0.0);

    // The chosen circuit must be trainable to a reasonable accuracy
    // (best of two optimizer restarts, as initializations vary).
    double best_acc = 0.0;
    for (std::uint64_t s = 1; s <= 2; ++s) {
        qml::TrainConfig tc;
        tc.epochs = 40;
        tc.seed = s;
        const auto trained =
            qml::train_circuit(result.best_circuit, bench.train, tc);
        best_acc = std::max(
            best_acc,
            qml::evaluate(result.best_circuit, trained.params,
                          bench.test)
                .accuracy);
    }
    EXPECT_GT(best_acc, 0.6);
}

TEST(Search, CnrDisabledEvaluatesEveryone)
{
    const qml::Benchmark bench = qml::make_benchmark("moons", 5, 0.1);
    const dev::Device device = dev::make_device("ibm_lagos");

    ElivagarConfig config;
    config.num_candidates = 8;
    config.candidate = small_config();
    config.candidate.num_features = bench.spec.dim;
    config.use_cnr = false;
    config.repcap.samples_per_class = 4;
    config.repcap.param_inits = 3;
    config.seed = 14;

    const SearchResult result =
        elivagar_search(device, bench.train, config);
    EXPECT_EQ(result.survivors, 8);
    EXPECT_EQ(result.cnr_executions, 0u);
    for (const auto &record : result.candidates)
        EXPECT_FALSE(record.rejected_by_cnr);
}

TEST(Search, HigherThresholdRejectsMore)
{
    const qml::Benchmark bench = qml::make_benchmark("moons", 6, 0.1);
    // A very noisy device so CNR values spread below 1.
    const dev::Device device = dev::make_device("rigetti_aspen_m3");

    ElivagarConfig config;
    config.num_candidates = 10;
    config.candidate = small_config();
    config.candidate.num_features = bench.spec.dim;
    config.cnr.num_replicas = 4;
    config.repcap.samples_per_class = 4;
    config.repcap.param_inits = 2;
    config.seed = 15;

    config.cnr_threshold = 0.0;
    config.keep_fraction = 1.0;
    const SearchResult lax = elivagar_search(device, bench.train, config);
    config.cnr_threshold = 0.9;
    config.keep_fraction = 0.5;
    const SearchResult strict =
        elivagar_search(device, bench.train, config);
    EXPECT_LT(strict.survivors, lax.survivors);
    EXPECT_LT(strict.repcap_executions, lax.repcap_executions);
}

TEST(Search, DeviceNarrowerThanTheBenchmarkIsAUsageError)
{
    // mnist-10 needs 6 qubits; ibmq_manila has 5. Refused up front,
    // before the journal file is created.
    const qml::Benchmark bench = qml::make_benchmark("mnist-10", 7, 0.02);
    const dev::Device device = dev::make_device("ibmq_manila");
    ElivagarConfig config;
    config.num_candidates = 4;
    config.candidate.num_qubits = bench.spec.qubits;
    config.candidate.num_params = bench.spec.params;
    config.candidate.num_meas = bench.spec.meas;
    config.candidate.num_features = bench.spec.dim;
    config.checkpoint_path = ::testing::TempDir() + "narrow_device.journal";
    std::filesystem::remove(config.checkpoint_path);
    EXPECT_THROW(elivagar_search(device, bench.train, config), UsageError);
    EXPECT_FALSE(std::filesystem::exists(config.checkpoint_path));
}

// ---------------------------------------------------------------------
// Pinned scores: every candidate's score, CNR and RepCap, bit for bit.
// Any change that reassociates floating-point work in the search path
// (fusion order, kernel arithmetic, summation order) fails here.

struct PinnedScore
{
    const char *score;
    const char *cnr;
    const char *repcap;
};

/** {score, CNR, RepCap} per candidate, as hexfloats. */
const PinnedScore kMnist4Perth[] = {
    {"0x1.14b5c4510e006p-1", "0x1.ed496e8b5eba5p-1",
     "0x1.19e8e5fd68f08p-1"},
    {"0x1.11ebb9cbf440fp-1", "0x1.f1b27d7ead3a9p-1",
     "0x1.15d431703515cp-1"},
    {"0x1.19c2da43b693ap-1", "0x1.ecc21f1246066p-1",
     "0x1.1f35af4cb5ec8p-1"},
    {"0x0p+0", "0x1.eb397e791f965p-1",
     "0x0p+0"},
    {"0x1.1cae8b85f0cbdp-1", "0x1.fa3e91bd226bp-1",
     "0x1.1e4ba8bd28f5p-1"},
    {"0x0p+0", "0x1.e3f54d265935fp-1",
     "0x0p+0"},
    {"0x1.10fe95897187ep-1", "0x1.ed9d1c3c6c5c9p-1",
     "0x1.16084381eec4cp-1"},
    {"0x0p+0", "0x1.e4b0a0f165294p-1",
     "0x0p+0"},
    {"0x0p+0", "0x1.ca2036e384491p-1",
     "0x0p+0"},
    {"0x0p+0", "0x1.ea17258677084p-1",
     "0x0p+0"},
    {"0x0p+0", "0x1.eaec956ccfc2bp-1",
     "0x0p+0"},
    {"0x1.0c193f47e5c62p-1", "0x1.ecf1d60223c67p-1",
     "0x1.113b378409884p-1"},
    {"0x1.153e25e971572p-1", "0x1.f6126ce93ad42p-1",
     "0x1.17f8702f80e8bp-1"},
    {"0x1.1a9b841dcb3b2p-1", "0x1.ef8dcd204fe78p-1",
     "0x1.1f4239f611b96p-1"},
    {"0x0p+0", "0x1.e36556ad85ac6p-1",
     "0x0p+0"},
    {"0x0p+0", "0x1.e3cff9cc4a021p-1",
     "0x0p+0"},
};
/** {score, CNR, RepCap} per candidate, as hexfloats. */
const PinnedScore kMnist10Guadalupe[] = {
    {"0x0p+0", "0x1.be2d9b41f7d69p-1",
     "0x0p+0"},
    {"0x0p+0", "0x1.c67e94e74bb4fp-1",
     "0x0p+0"},
    {"0x1.0cc9eb28d6e0ap-1", "0x1.d2fd31d0336c9p-1",
     "0x1.1971c890a9b02p-1"},
    {"0x1.0fd3cab24e70dp-1", "0x1.d72c69b492002p-1",
     "0x1.1b5c02a49d1f9p-1"},
    {"0x0p+0", "0x1.bb794672b6017p-1",
     "0x0p+0"},
    {"0x1.13267be1ac4a1p-1", "0x1.ebad0216b0c2ap-1",
     "0x1.18c795a178f4cp-1"},
    {"0x0p+0", "0x1.cc08e0082025cp-1",
     "0x0p+0"},
    {"0x1.2131c12b26e61p-1", "0x1.ce916c1f28b22p-1",
     "0x1.3041251bf2fbep-1"},
};

/** The elivagar_cli mapping of (benchmark, device, pool, seed, scale). */
SearchResult
cli_search(const std::string &benchmark, const std::string &device_name,
           int candidates, double scale)
{
    const qml::Benchmark bench = qml::make_benchmark(benchmark, 7, scale);
    const dev::Device device = dev::make_device(device_name);
    ElivagarConfig config;
    config.num_candidates = candidates;
    config.candidate.num_qubits = bench.spec.qubits;
    config.candidate.num_params = bench.spec.params;
    config.candidate.num_embeds = std::min(
        bench.spec.params, std::max(bench.spec.dim, bench.spec.params / 4));
    config.candidate.num_meas = bench.spec.meas;
    config.candidate.num_features = bench.spec.dim;
    config.seed = 7;
    config.threads = 2;
    return elivagar_search(device, bench.train, config);
}

template <std::size_t N>
void
expect_pinned(const SearchResult &found, const PinnedScore (&pins)[N])
{
    ASSERT_EQ(found.candidates.size(), N);
    for (std::size_t n = 0; n < N; ++n) {
        const CandidateRecord &record = found.candidates[n];
        EXPECT_EQ(double_to_hex(record.score), pins[n].score) << "cand " << n;
        EXPECT_EQ(double_to_hex(record.cnr), pins[n].cnr) << "cand " << n;
        EXPECT_EQ(double_to_hex(record.repcap), pins[n].repcap)
            << "cand " << n;
    }
}

TEST(PinnedScores, Mnist4OnPerth)
{
    expect_pinned(cli_search("mnist-4", "ibm_perth", 16, 0.1), kMnist4Perth);
}

TEST(PinnedScores, Mnist10OnGuadalupe)
{
    expect_pinned(cli_search("mnist-10", "ibm_guadalupe", 8, 0.02),
                  kMnist10Guadalupe);
}

/**
 * The per-state RepCap loop, a test oracle: every sample replayed on
 * its own StateVector, then rotated and measured one state at a time.
 * representational_capacity replays lane batches and must match it
 * bit for bit, consuming the same RNG stream.
 */
RepCapResult
repcap_oracle(const Circuit &circuit, const qml::Dataset &data, Rng &rng,
              const RepCapOptions &options)
{
    std::vector<int> kept;
    const Circuit local = circuit.compacted(kept);
    const auto &measured = local.measured();
    const auto chosen =
        qml::sample_per_class(data, options.samples_per_class, rng);
    const std::size_t d = chosen.size();
    std::vector<double> r_c(d * d, 0.0);
    RepCapResult result;
    const sim::FusedProgram program = sim::FusedProgram::compile(local);
    std::vector<sim::ResolvedBarriers> embedded;
    for (std::size_t s = 0; s < d; ++s)
        embedded.push_back(program.resolve(ParamRole::Embedding, {},
                                           data.samples[chosen[s]]));
    std::vector<sim::StateVector> states(
        d, sim::StateVector(local.num_qubits()));
    sim::StateVector rotated(local.num_qubits());
    const std::size_t outcomes = std::size_t{1} << measured.size();
    std::vector<double> dists(outcomes * d);
    std::vector<double> abs_sum(d);
    for (int t = 0; t < options.param_inits; ++t) {
        std::vector<double> params(
            static_cast<std::size_t>(local.num_params()));
        for (auto &p : params)
            p = rng.uniform(-M_PI, M_PI);
        const sim::ResolvedBarriers variational =
            program.resolve(ParamRole::Variational, params, {});
        for (std::size_t s = 0; s < d; ++s) {
            program.run(states[s], variational, embedded[s],
                        data.samples[chosen[s]]);
            ++result.circuit_executions;
        }
        for (int k = 0; k < options.num_bases; ++k) {
            std::vector<sim::Mat2> basis;
            for (std::size_t m = 0; m < measured.size(); ++m) {
                const std::array<double, 3> angles = {
                    rng.uniform(0.0, M_PI), rng.uniform(0.0, 2.0 * M_PI),
                    rng.uniform(0.0, 2.0 * M_PI)};
                basis.push_back(sim::gate_matrix_1q(GateKind::U3, angles));
            }
            for (std::size_t s = 0; s < d; ++s) {
                rotated.amps() = states[s].amps();
                for (std::size_t m = 0; m < measured.size(); ++m)
                    rotated.apply_1q(basis[m], measured[m]);
                auto probs = rotated.probabilities(measured);
                validate_distribution(probs,
                                      "RepCap randomized measurement");
                for (std::size_t o = 0; o < outcomes; ++o)
                    dists[o * d + s] = probs[o];
            }
            for (std::size_t i = 0; i < d; ++i) {
                r_c[i * d + i] += 1.0;
                std::fill(abs_sum.begin() + static_cast<std::ptrdiff_t>(i),
                          abs_sum.end(), 0.0);
                for (std::size_t o = 0; o < outcomes; ++o) {
                    const double *row = dists.data() + o * d;
                    for (std::size_t j = i + 1; j < d; ++j)
                        abs_sum[j] += std::abs(row[i] - row[j]);
                }
                for (std::size_t j = i + 1; j < d; ++j) {
                    const double sim_ij = 1.0 - 0.5 * abs_sum[j];
                    r_c[i * d + j] += sim_ij;
                    r_c[j * d + i] += sim_ij;
                }
            }
        }
    }
    const double norm = 1.0 / (static_cast<double>(options.param_inits) *
                               static_cast<double>(options.num_bases));
    double frob2 = 0.0;
    for (std::size_t i = 0; i < d; ++i)
        for (std::size_t j = 0; j < d; ++j) {
            const double ref =
                data.labels[chosen[i]] == data.labels[chosen[j]] ? 1.0
                                                                 : 0.0;
            const double diff = r_c[i * d + j] * norm - ref;
            frob2 += diff * diff;
        }
    result.repcap = 1.0 - frob2 / static_cast<double>(d * d);
    return result;
}

/** representational_capacity against the oracle from one seed. */
void
expect_matches_oracle(const Circuit &c, const qml::Dataset &data,
                      std::uint64_t seed, const RepCapOptions &options,
                      const std::string &what)
{
    Rng r1(seed), r2(seed);
    const RepCapResult got = representational_capacity(c, data, r1, options);
    const RepCapResult want = repcap_oracle(c, data, r2, options);
    EXPECT_EQ(double_to_hex(got.repcap), double_to_hex(want.repcap)) << what;
    EXPECT_EQ(got.circuit_executions, want.circuit_executions) << what;
    EXPECT_EQ(r1.next_u64(), r2.next_u64()) << what << ": RNG streams differ";
}

/** The CLI's candidate shape for a benchmark. */
CandidateConfig
pool_config(const qml::Benchmark &bench)
{
    CandidateConfig config;
    config.num_qubits = bench.spec.qubits;
    config.num_params = bench.spec.params;
    config.num_embeds = std::min(
        bench.spec.params, std::max(bench.spec.dim, bench.spec.params / 4));
    config.num_meas = bench.spec.meas;
    config.num_features = bench.spec.dim;
    return config;
}

TEST(RepCap, BatchedMatchesPerStateOracleOnMnistPools)
{
    const std::pair<const char *, const char *> cells[] = {
        {"mnist-4", "ibm_perth"}, {"mnist-10", "ibm_guadalupe"}};
    for (const auto &[benchmark, device_name] : cells) {
        const qml::Benchmark bench = qml::make_benchmark(benchmark, 7, 0.05);
        const dev::Device device = dev::make_device(device_name);
        const CandidateConfig config = pool_config(bench);
        RepCapOptions options;
        options.param_inits = 3;
        Rng pool(11);
        for (int n = 0; n < 6; ++n) {
            const Circuit c = generate_candidate(device, config, pool);
            expect_matches_oracle(c, bench.train, 300 + n, options,
                                  std::string(benchmark) + " cand " +
                                      std::to_string(n));
        }
    }
}

TEST(RepCap, BatchedMatchesPerStateOracleOnAmplitudeEmbedding)
{
    const qml::Benchmark bench = qml::make_benchmark("mnist-4", 7, 0.05);
    Circuit c(4);
    c.add_amplitude_embedding();
    for (int layer = 0; layer < 2; ++layer) {
        for (int q = 0; q < 4; ++q)
            c.add_variational(layer ? GateKind::RZ : GateKind::RY, {q});
        for (int q = 0; q + 1 < 4; ++q)
            c.add_gate(GateKind::CX, {q, q + 1});
    }
    c.set_measured({0, 2});
    RepCapOptions options;
    options.param_inits = 3;
    expect_matches_oracle(c, bench.train, 5, options, "amplitude");
}

TEST(RepCap, BatchedMatchesPerStateOracleWhenLanesDoNotDivide)
{
    // d = 4 x 9 = 36 samples: one full batch of lanes plus a 4-lane
    // one, under every kernel tier.
    const qml::Benchmark bench = qml::make_benchmark("mnist-4", 7, 0.05);
    const dev::Device device = dev::make_device("ibm_perth");
    Rng pool(13);
    const Circuit c =
        generate_candidate(device, pool_config(bench), pool);
    RepCapOptions options;
    options.samples_per_class = 9;
    options.param_inits = 3;
    for (int t = 0; t <= static_cast<int>(sim::best_supported_tier()); ++t) {
        sim::set_forced_tier(static_cast<sim::KernelTier>(t));
        expect_matches_oracle(c, bench.train, 77, options,
                              "tier " + std::to_string(t));
    }
    sim::clear_forced_tier();
}

} // namespace
