/**
 * @file
 * Tests for the lint dataflow engine (lightcone, parameter liveness,
 * const/Clifford regions), the search-time semantic pruning pass it
 * powers, the `--fix` elision, and the SARIF/baseline surface.
 *
 * The load-bearing suite is the ranking gauntlet: CNR and RepCap
 * evaluated with and without `prune_dead_structure` over a corpus of
 * dead-structure circuits must produce the *same candidate ranking*
 * and scores equal within 1e-9 — the pruning pass is a pure
 * performance optimization, never a semantic change.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "circuit/builders.hpp"
#include "circuit/circuit.hpp"
#include "circuit/clifford_replica.hpp"
#include "circuit/serialize.hpp"
#include "common/rng.hpp"
#include "core/cnr.hpp"
#include "core/repcap.hpp"
#include "core/search.hpp"
#include "device/device.hpp"
#include "lint/dataflow.hpp"
#include "lint/lint.hpp"
#include "lint/sarif.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "qml/dataset.hpp"
#include "qml/trainer.hpp"
#include "sim/fusion.hpp"
#include "sim/statevector.hpp"

namespace {

using namespace elv;
using circ::Circuit;
using circ::GateKind;
using circ::Op;
using circ::ParamRole;
using lint::AbstractState;
using lint::CircuitView;

/**
 * 3 qubits, measured {0, 1}. Ops 0-3 are the live cone; op 4 (var RZ
 * on q2, slot 2) and op 5 (H on q2) are outside it.
 */
Circuit
dead_tail_circuit()
{
    Circuit c(3);
    c.add_embedding(GateKind::RY, {0}, 0);
    c.add_variational(GateKind::RX, {0});
    c.add_gate(GateKind::CX, {0, 1});
    c.add_variational(GateKind::RY, {1});
    c.add_variational(GateKind::RZ, {2}); // dead: q2 never meets the cone
    c.add_gate(GateKind::H, {2});         // dead
    c.set_measured({0, 1});
    return c;
}

/** Measured distribution of `circuit` under `params` (feature 0.4). */
std::vector<double>
measured_distribution(const Circuit &circuit,
                      const std::vector<double> &params)
{
    sim::StateVector psi(circuit.num_qubits());
    psi.run(circuit, params, {0.4});
    return psi.probabilities(circuit.measured());
}

// ---------------------------------------------------------------------
// Framework: the abstract domain and the fixed-point driver, used
// directly (the analyses below are clients, not the framework itself).
// ---------------------------------------------------------------------

TEST(DataflowFramework, JoinIsMonotoneUnion)
{
    std::vector<Op> ops;
    const std::vector<int> measured = {0};
    const CircuitView view{3, 2, ops, measured};
    AbstractState a = AbstractState::bottom(view);
    AbstractState b = AbstractState::bottom(view);
    b.mark_qubit(1);
    b.mark_params(0, 1);
    EXPECT_TRUE(a.join(b));
    EXPECT_TRUE(a.qubit_set(1));
    EXPECT_FALSE(a.qubit_set(2));
    EXPECT_EQ(a.param[0], 1);
    EXPECT_FALSE(a.join(b)); // already absorbed: no change
    EXPECT_FALSE(b.join(AbstractState::bottom(view)));
}

TEST(DataflowFramework, ForwardReachabilityToFixpoint)
{
    // A forward taint analysis written against the raw framework:
    // qubit 0 is tainted; any op touching a tainted qubit is marked
    // and spreads the taint to its operands.
    std::vector<Op> ops(3);
    ops[0].kind = GateKind::CX;
    ops[0].qubits = {0, 1};
    ops[1].kind = GateKind::H;
    ops[1].qubits = {2, -1};
    ops[2].kind = GateKind::CX;
    ops[2].qubits = {1, 2};
    const std::vector<int> measured = {0};
    const CircuitView view{3, 0, ops, measured};

    AbstractState state = AbstractState::bottom(view);
    state.mark_qubit(0);
    std::vector<char> marks;
    const lint::FixpointStats stats = lint::run_to_fixpoint(
        view, lint::Direction::Forward, state,
        [](const Op &op, int, AbstractState &s) {
            bool hit = false;
            for (int k = 0; k < op.num_qubits(); ++k)
                hit |= s.qubit_set(op.qubits[static_cast<std::size_t>(k)]);
            if (hit)
                for (int k = 0; k < op.num_qubits(); ++k)
                    s.mark_qubit(op.qubits[static_cast<std::size_t>(k)]);
            return hit;
        },
        marks);
    EXPECT_FALSE(stats.capped);
    // The framework iterates one global state to a fixpoint, so the
    // result is flow-insensitive: once CX 1,2 spreads the taint to
    // qubit 2 (sweep 1), the re-sweep marks the earlier H as touching
    // tainted data too. Three sweeps: compute, propagate, confirm.
    EXPECT_EQ(marks, (std::vector<char>{1, 1, 1}));
    EXPECT_EQ(stats.sweeps, 3);
    EXPECT_TRUE(state.qubit_set(2)); // via 0 -> 1 -> 2
}

TEST(DataflowFramework, BackwardConeNeedsASecondSweep)
{
    // Backward scan visits `RY 3` before the CX that pulls qubit 3
    // into the cone: single-sweep analyses get this wrong.
    Circuit c(4);
    c.add_gate(GateKind::CX, {2, 3});
    c.add_variational(GateKind::RY, {3});
    c.set_measured({2});
    const lint::LightconeAnalysis analysis =
        lint::analyze_lightcone(lint::view_of(c));
    EXPECT_EQ(analysis.live_ops, (std::vector<char>{1, 1}));
    EXPECT_TRUE(analysis.dead_ops().empty());
    EXPECT_EQ(analysis.live_params, (std::vector<char>{1}));
}

// ---------------------------------------------------------------------
// Lightcone analysis.
// ---------------------------------------------------------------------

TEST(Lightcone, DeadTailIsOutsideTheCone)
{
    const Circuit c = dead_tail_circuit();
    const lint::LightconeAnalysis analysis =
        lint::analyze_lightcone(lint::view_of(c));
    EXPECT_EQ(analysis.dead_ops(), (std::vector<int>{4, 5}));
    EXPECT_EQ(analysis.dead_params(), (std::vector<int>{2}));
    EXPECT_TRUE(analysis.live_qubits[0]);
    EXPECT_TRUE(analysis.live_qubits[1]);
    EXPECT_FALSE(analysis.live_qubits[2]);
    EXPECT_FALSE(analysis.no_measurements);
}

TEST(Lightcone, AmplitudeEmbeddingPullsEveryQubit)
{
    Circuit c(3);
    c.add_amplitude_embedding();
    c.add_variational(GateKind::RX, {2});
    c.set_measured({0});
    const lint::LightconeAnalysis analysis =
        lint::analyze_lightcone(lint::view_of(c));
    // AmpEmbed writes all qubits, so it is live and puts q2 in the
    // cone; but the RX on q2 sits *after* the embed and before nothing
    // that routes q2 into the measurement — it is still live because
    // q2 entered the cone through the embed's operand marking.
    EXPECT_TRUE(analysis.live_ops[0]);
    for (char q : analysis.live_qubits)
        EXPECT_TRUE(q);
}

TEST(Lightcone, NoMeasurementsReportsAndKeepsAllDead)
{
    Circuit c(2);
    c.add_gate(GateKind::H, {0});
    const lint::LightconeAnalysis analysis =
        lint::analyze_lightcone(lint::view_of(c));
    EXPECT_TRUE(analysis.no_measurements);
    EXPECT_EQ(analysis.dead_ops(), (std::vector<int>{0}));
}

// ---------------------------------------------------------------------
// Const/Clifford regions, and the fused-program counterpart.
// ---------------------------------------------------------------------

TEST(CliffordRegions, PrefixSuffixAndParamFreePrefix)
{
    Circuit c(2);
    c.add_gate(GateKind::H, {0});      // clifford prefix
    c.add_gate(GateKind::CX, {0, 1});  // clifford prefix
    c.add_variational(GateKind::RX, {0});
    c.add_gate(GateKind::S, {1});      // clifford suffix
    c.set_measured({0, 1});
    const lint::CliffordRegions regions =
        lint::analyze_clifford_regions(lint::view_of(c));
    EXPECT_EQ(regions.clifford_prefix, 2);
    EXPECT_EQ(regions.clifford_suffix, 1);
    EXPECT_EQ(regions.param_free_prefix, 2);
    EXPECT_FALSE(regions.fully_clifford);
    EXPECT_FALSE(regions.param_free);
}

TEST(CliffordRegions, FullyCliffordCircuit)
{
    Circuit c(2);
    c.add_gate(GateKind::H, {0});
    c.add_gate(GateKind::CX, {0, 1});
    c.set_measured({0, 1});
    const lint::CliffordRegions regions =
        lint::analyze_clifford_regions(lint::view_of(c));
    EXPECT_TRUE(regions.fully_clifford);
    EXPECT_TRUE(regions.param_free);
    EXPECT_EQ(regions.clifford_prefix, 2);
    EXPECT_EQ(regions.clifford_suffix, 0); // prefix claims everything
}

TEST(CliffordRegions, FusedConstPrefixBoundsTheCliffordPrefix)
{
    Circuit c(2);
    c.add_gate(GateKind::H, {0});
    c.add_gate(GateKind::CX, {0, 1});
    c.add_variational(GateKind::RX, {0});
    c.add_gate(GateKind::H, {1});
    c.set_measured({0, 1});
    const sim::FusedProgram fused = sim::FusedProgram::compile(c);
    EXPECT_EQ(fused.const_prefix_source_ops(), 2u);
    const lint::CliffordRegions regions =
        lint::analyze_clifford_regions(lint::view_of(c));
    EXPECT_LE(static_cast<std::size_t>(regions.clifford_prefix),
              fused.const_prefix_source_ops());
}

// ---------------------------------------------------------------------
// prune_to_lightcone: the scoring-path prune (slot-preserving).
// ---------------------------------------------------------------------

TEST(Prune, PreservesRegisterSlotsAndMeasuredDistribution)
{
    const Circuit c = dead_tail_circuit();
    std::size_t elided = 0;
    const Circuit pruned = lint::prune_to_lightcone(c, &elided);
    EXPECT_EQ(elided, 2u);
    EXPECT_EQ(pruned.num_qubits(), c.num_qubits());
    EXPECT_EQ(pruned.num_params(), c.num_params());
    EXPECT_EQ(pruned.measured(), c.measured());
    EXPECT_EQ(pruned.ops().size(), c.ops().size() - 2);

    elv::Rng rng(11);
    std::vector<double> params(static_cast<std::size_t>(c.num_params()));
    for (auto &p : params)
        p = rng.uniform(-M_PI, M_PI);
    const auto original = measured_distribution(c, params);
    const auto reduced = measured_distribution(pruned, params);
    ASSERT_EQ(original.size(), reduced.size());
    for (std::size_t i = 0; i < original.size(); ++i)
        EXPECT_NEAR(original[i], reduced[i], 1e-12);
}

TEST(Prune, CleanCircuitAndDegenerateConeAreUntouched)
{
    Circuit clean(2);
    clean.add_variational(GateKind::RX, {0});
    clean.add_gate(GateKind::CX, {0, 1});
    clean.set_measured({0, 1});
    std::size_t elided = 0;
    EXPECT_EQ(lint::prune_to_lightcone(clean, &elided).ops().size(), 2u);
    EXPECT_EQ(elided, 0u);

    // Degenerate: nothing touches the measured qubit. Pruning would
    // leave zero ops, which downstream compaction rejects — keep as-is.
    Circuit degenerate(2);
    degenerate.add_variational(GateKind::RX, {0});
    degenerate.set_measured({1});
    EXPECT_EQ(lint::prune_to_lightcone(degenerate, &elided).ops().size(),
              1u);
    EXPECT_EQ(elided, 0u);

    // No measurements: lightcone is undefined; unchanged.
    Circuit unmeasured(2);
    unmeasured.add_gate(GateKind::H, {0});
    EXPECT_EQ(lint::prune_to_lightcone(unmeasured).ops().size(), 1u);
}

// ---------------------------------------------------------------------
// elide_dead_structure: the autofix (dense renumbering, serializable).
// ---------------------------------------------------------------------

TEST(Elide, RenumbersDenselyAndRoundTrips)
{
    const Circuit c = dead_tail_circuit();
    const lint::FixResult fix = lint::elide_dead_structure(c);
    EXPECT_EQ(fix.ops_elided, 2u);
    EXPECT_EQ(fix.params_elided, 1u);
    EXPECT_EQ(fix.circuit.num_params(), 2);
    ASSERT_EQ(fix.param_map.size(), 3u);
    EXPECT_EQ(fix.param_map[0], 0);
    EXPECT_EQ(fix.param_map[1], 1);
    EXPECT_EQ(fix.param_map[2], -1);

    // Serializes and parses back (the scoring prune's slot holes
    // cannot do this — dense renumbering is what makes --fix safe).
    const Circuit reparsed = circ::from_text(circ::to_text(fix.circuit));
    EXPECT_EQ(reparsed.num_params(), 2);

    // Re-lints clean for all three dataflow rules.
    const lint::Report report = lint::lint_circuit(reparsed);
    EXPECT_FALSE(report.fired("dead-lightcone")) << report.to_string();
    EXPECT_FALSE(report.fired("dead-parameter")) << report.to_string();
    EXPECT_FALSE(report.has_errors()) << report.to_string();

    // Same measured distribution once parameters are re-mapped.
    elv::Rng rng(13);
    std::vector<double> full(static_cast<std::size_t>(c.num_params()));
    for (auto &p : full)
        p = rng.uniform(-M_PI, M_PI);
    std::vector<double> remapped(
        static_cast<std::size_t>(fix.circuit.num_params()));
    for (std::size_t s = 0; s < full.size(); ++s)
        if (fix.param_map[s] >= 0)
            remapped[static_cast<std::size_t>(fix.param_map[s])] = full[s];
    const auto original = measured_distribution(c, full);
    const auto fixed = measured_distribution(reparsed, remapped);
    ASSERT_EQ(original.size(), fixed.size());
    for (std::size_t i = 0; i < original.size(); ++i)
        EXPECT_NEAR(original[i], fixed[i], 1e-12);
}

TEST(Elide, IdentityOnCleanCircuit)
{
    Circuit clean(2);
    clean.add_variational(GateKind::RX, {0});
    clean.add_gate(GateKind::CX, {0, 1});
    clean.set_measured({0, 1});
    const lint::FixResult fix = lint::elide_dead_structure(clean);
    EXPECT_EQ(fix.ops_elided, 0u);
    EXPECT_EQ(fix.params_elided, 0u);
    EXPECT_EQ(fix.param_map, (std::vector<int>{0}));
    EXPECT_EQ(fix.circuit.ops().size(), 2u);
}

// ---------------------------------------------------------------------
// The three lint rules.
// ---------------------------------------------------------------------

TEST(DataflowRules, DeadLightconeAndDeadParameterFire)
{
    const lint::Report report =
        lint::lint_circuit(dead_tail_circuit());
    EXPECT_TRUE(report.fired("dead-lightcone")) << report.to_string();
    EXPECT_TRUE(report.fired("dead-parameter")) << report.to_string();
    EXPECT_FALSE(report.has_errors()) << report.to_string();
    for (const auto &d : report.diagnostics) {
        if (d.rule == "dead-lightcone") {
            EXPECT_EQ(d.op_index, 4);
        }
    }
}

TEST(DataflowRules, QuietOnFullyLiveCircuit)
{
    const Circuit c = circ::build_human_designed(
        4, 4, 12, 2, circ::EmbeddingScheme::Angle);
    const lint::Report report = lint::lint_circuit(c);
    EXPECT_FALSE(report.fired("dead-lightcone")) << report.to_string();
    EXPECT_FALSE(report.fired("dead-parameter")) << report.to_string();
}

TEST(DataflowRules, CliffordRegionNoteAnnotates)
{
    Circuit fully(2);
    fully.add_gate(GateKind::H, {0});
    fully.add_gate(GateKind::CX, {0, 1});
    fully.set_measured({0, 1});
    const lint::Report report = lint::lint_circuit(fully);
    EXPECT_TRUE(report.fired("clifford-region")) << report.to_string();
    bool saw_fully = false;
    for (const auto &d : report.diagnostics)
        if (d.rule == "clifford-region")
            saw_fully = d.message.find("stabilizer-simulable") !=
                        std::string::npos;
    EXPECT_TRUE(saw_fully) << report.to_string();
}

// ---------------------------------------------------------------------
// Ranking gauntlet: pruning is invisible to CNR/RepCap rankings.
// ---------------------------------------------------------------------

/**
 * Corpus of 6 circuits on a 5-qubit register: a live block on qubits
 * 0-3 of varying depth, plus planted dead structure on qubit 4.
 */
std::vector<Circuit>
dead_structure_corpus()
{
    std::vector<Circuit> corpus;
    elv::Rng rng(99);
    for (int k = 0; k < 6; ++k) {
        Circuit c(5);
        c.add_embedding(GateKind::RY, {0}, 0);
        c.add_embedding(GateKind::RY, {1}, 1);
        const GateKind rotations[] = {GateKind::RX, GateKind::RY,
                                      GateKind::RZ};
        for (int g = 0; g < 3 + k; ++g) {
            const int q = static_cast<int>(rng.uniform_index(4));
            c.add_variational(rotations[g % 3], {q});
            // Stay on the manila line coupling (0-1-2-3-4): pair each
            // qubit with its line neighbor so CNR needs no routing.
            if (g % 2 == 0)
                c.add_gate(GateKind::CX, {q, q == 3 ? 2 : q + 1});
        }
        // Planted dead structure: qubit 4 never couples to 0-3.
        c.add_variational(GateKind::RX, {4});
        c.add_gate(GateKind::H, {4});
        c.add_variational(GateKind::RZ, {4});
        c.set_measured({0, 1});
        corpus.push_back(std::move(c));
    }
    return corpus;
}

/** Descending-score index order with index tie-break (stable). */
std::vector<std::size_t>
ranking(const std::vector<double> &scores)
{
    std::vector<std::size_t> order(scores.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&scores](std::size_t a, std::size_t b) {
                         return scores[a] > scores[b];
                     });
    return order;
}

TEST(RankingGauntlet, CnrDensityIsInvariantUnderPruning)
{
    const dev::Device device = dev::make_device("ibmq_manila");
    const std::vector<Circuit> corpus = dead_structure_corpus();

    core::CnrOptions plain;
    plain.num_replicas = 4;
    core::CnrOptions pruning = plain;
    pruning.prune_dead_structure = true;

    std::vector<double> unpruned, pruned;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        // Fresh identically-seeded RNG per evaluation: the prune must
        // not shift the replica draws (it acts on the replica, after
        // construction), so both runs see identical Clifford replicas.
        elv::Rng r1(1000 + i), r2(1000 + i);
        unpruned.push_back(
            core::clifford_noise_resilience(corpus[i], device, r1, plain)
                .cnr);
        pruned.push_back(core::clifford_noise_resilience(corpus[i],
                                                         device, r2,
                                                         pruning)
                             .cnr);
    }
    for (std::size_t i = 0; i < corpus.size(); ++i)
        EXPECT_NEAR(unpruned[i], pruned[i], 1e-9)
            << "candidate " << i;
    EXPECT_EQ(ranking(unpruned), ranking(pruned));
}

TEST(RankingGauntlet, RepCapIsInvariantUnderPruning)
{
    // Tiny 2-class dataset with the 2 features the corpus embeds.
    qml::Dataset data;
    data.num_classes = 2;
    elv::Rng drng(7);
    for (int i = 0; i < 12; ++i) {
        const int label = i % 2;
        data.samples.push_back(
            {drng.uniform(0.0, 1.0) + label, drng.uniform(0.0, 1.0)});
        data.labels.push_back(label);
    }

    core::RepCapOptions plain;
    plain.samples_per_class = 3;
    plain.param_inits = 3;
    plain.num_bases = 2;
    core::RepCapOptions pruning = plain;
    pruning.prune_dead_structure = true;

    const std::vector<Circuit> corpus = dead_structure_corpus();
    std::vector<double> unpruned, pruned;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        // prune_to_lightcone preserves the declared parameter count,
        // so the theta_t draws stay aligned between the two runs.
        elv::Rng r1(2000 + i), r2(2000 + i);
        unpruned.push_back(core::representational_capacity(
                               corpus[i], data, r1, plain)
                               .repcap);
        pruned.push_back(core::representational_capacity(
                             corpus[i], data, r2, pruning)
                             .repcap);
    }
    for (std::size_t i = 0; i < corpus.size(); ++i)
        EXPECT_NEAR(unpruned[i], pruned[i], 1e-9)
            << "candidate " << i;
    EXPECT_EQ(ranking(unpruned), ranking(pruned));
}

TEST(RankingGauntlet, StabilizerCnrStaysDistributionSane)
{
    // The stabilizer backend re-samples shot noise per gate, so pruned
    // scores are only statistically identical — assert both land in
    // [0, 1] and within a loose shot-noise tolerance of each other.
    const dev::Device device = dev::make_device("ibmq_manila");
    const Circuit c = dead_structure_corpus()[0];
    core::CnrOptions options;
    options.backend = core::CnrBackend::Stabilizer;
    options.num_replicas = 4;
    options.shots = 4096;
    elv::Rng r1(42), r2(42);
    const double unpruned =
        core::clifford_noise_resilience(c, device, r1, options).cnr;
    options.prune_dead_structure = true;
    const double pruned =
        core::clifford_noise_resilience(c, device, r2, options).cnr;
    EXPECT_GE(pruned, 0.0);
    EXPECT_LE(pruned, 1.0);
    EXPECT_NEAR(unpruned, pruned, 0.1);
}

// ---------------------------------------------------------------------
// Trainer elision.
// ---------------------------------------------------------------------

TEST(TrainerPrune, LiveTrajectoriesAndLossMatchUnpruned)
{
    qml::Dataset data;
    data.num_classes = 2;
    elv::Rng drng(5);
    for (int i = 0; i < 16; ++i) {
        const int label = i % 2;
        data.samples.push_back({drng.uniform(0.0, 1.0) + 2.0 * label});
        data.labels.push_back(label);
    }

    const Circuit c = dead_tail_circuit();
    qml::TrainConfig config;
    config.epochs = 3;
    config.batch_size = 4;
    config.seed = 21;

    const qml::TrainResult plain = qml::train_circuit(c, data, config);
    config.prune_dead_structure = true;
    const qml::TrainResult pruned = qml::train_circuit(c, data, config);

    ASSERT_EQ(plain.params.size(), pruned.params.size());
    ASSERT_EQ(plain.loss_history.size(), pruned.loss_history.size());
    // Live slots (0, 1) followed identical trajectories; the dead slot
    // (2) has an identically-zero adjoint gradient, so element-wise
    // Adam leaves it at its init in BOTH runs — they agree everywhere.
    for (std::size_t s = 0; s < plain.params.size(); ++s)
        EXPECT_NEAR(plain.params[s], pruned.params[s], 1e-9)
            << "slot " << s;
    for (std::size_t e = 0; e < plain.loss_history.size(); ++e)
        EXPECT_NEAR(plain.loss_history[e], pruned.loss_history[e], 1e-9)
            << "epoch " << e;
    // Fewer executions of a smaller circuit, same result.
    EXPECT_EQ(plain.circuit_executions, pruned.circuit_executions);
}

TEST(TrainerPrune, CountsElisionMetrics)
{
    obs::Registry &registry = obs::Registry::global();
    registry.set_enabled(true);
    const obs::MetricsSnapshot before = registry.snapshot();
    auto counter_value = [](const obs::MetricsSnapshot &snap,
                            const std::string &name) -> std::uint64_t {
        for (const auto &c : snap.counters)
            if (c.name == name)
                return c.value;
        return 0;
    };

    qml::Dataset data;
    data.num_classes = 2;
    data.samples = {{0.1}, {2.2}, {0.3}, {2.4}};
    data.labels = {0, 1, 0, 1};
    qml::TrainConfig config;
    config.epochs = 1;
    config.batch_size = 2;
    config.prune_dead_structure = true;
    (void)qml::train_circuit(dead_tail_circuit(), data, config);

    const obs::MetricsSnapshot after = registry.snapshot();
    EXPECT_GT(counter_value(after, "lint.ops_elided"),
              counter_value(before, "lint.ops_elided"));
    EXPECT_GT(counter_value(after, "lint.params_elided"),
              counter_value(before, "lint.params_elided"));
    registry.set_enabled(false);
}

// ---------------------------------------------------------------------
// Config fingerprint.
// ---------------------------------------------------------------------

TEST(Fingerprint, PruneFlagIsFingerprintedWithHint)
{
    core::ElivagarConfig config;
    const std::uint64_t base = core::config_fingerprint(config);
    core::ElivagarConfig toggled = config;
    toggled.cnr.prune_dead_structure = true;
    toggled.repcap.prune_dead_structure = true;
    const std::uint64_t changed = core::config_fingerprint(toggled);
    EXPECT_NE(base, changed);
    const std::string hint =
        core::fingerprint_mismatch_hint(config, changed);
    EXPECT_NE(hint.find("pruning"), std::string::npos) << hint;
}

// ---------------------------------------------------------------------
// SARIF, JSON, and the baseline suppression file.
// ---------------------------------------------------------------------

std::vector<lint::ArtifactReport>
sample_reports()
{
    lint::Report report;
    report.add(lint::Severity::Warning, "dead-lightcone", 4,
               "ops outside the measurement lightcone");
    report.add(lint::Severity::Error, "qubit-bounds", 0, "out of range");
    lint::Report clean;
    clean.add(lint::Severity::Note, "clifford-region", -1,
              "const-Clifford region");
    return {{"a.txt", report}, {"b.txt", clean}};
}

TEST(Sarif, DocumentShape)
{
    const std::string doc = lint::to_sarif(sample_reports(), nullptr);
    EXPECT_NE(doc.find("\"version\": \"2.1.0\""), std::string::npos);
    EXPECT_NE(doc.find("sarif-2.1.0.json"), std::string::npos);
    EXPECT_NE(doc.find("\"name\": \"elvlint\""), std::string::npos);
    EXPECT_NE(doc.find("\"ruleId\": \"dead-lightcone\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"ruleId\": \"qubit-bounds\""),
              std::string::npos);
    // Op 4 of a native-text file sits on line 7 (header + qubits + 1).
    EXPECT_NE(doc.find("\"startLine\": 7"), std::string::npos);
    EXPECT_NE(doc.find("\"level\": \"error\""), std::string::npos);
    EXPECT_NE(doc.find("\"level\": \"note\""), std::string::npos);
    EXPECT_NE(doc.find("partialFingerprints"), std::string::npos);
    // Every catalog rule appears in the driver's rule table.
    for (const auto &rule : lint::rule_catalog())
        EXPECT_NE(doc.find("\"id\": \"" + rule.id + "\""),
                  std::string::npos)
            << rule.id;
}

TEST(Sarif, BaselineSuppressionRoundTrip)
{
    const auto reports = sample_reports();
    const std::string rendered = lint::Baseline::render(reports);
    const lint::Baseline baseline = lint::Baseline::parse(rendered);
    EXPECT_EQ(baseline.size(), 3u);
    for (const auto &entry : reports)
        for (const auto &d : entry.report.diagnostics)
            EXPECT_TRUE(baseline.contains(
                lint::diagnostic_fingerprint(entry.artifact, d)));

    // Full suppression zeroes the gate counts.
    const lint::FindingCounts counts =
        lint::count_findings(reports, &baseline);
    EXPECT_EQ(counts.errors, 0u);
    EXPECT_EQ(counts.warnings, 0u);
    EXPECT_EQ(counts.suppressed, 3u);

    // Without the baseline the counts are live.
    const lint::FindingCounts live =
        lint::count_findings(reports, nullptr);
    EXPECT_EQ(live.errors, 1u);
    EXPECT_EQ(live.warnings, 1u);
    EXPECT_EQ(live.notes, 1u);
    EXPECT_EQ(live.suppressed, 0u);

    // Suppressed findings carry the SARIF suppression object.
    const std::string doc = lint::to_sarif(reports, &baseline);
    EXPECT_NE(doc.find("\"suppressions\""), std::string::npos);
    EXPECT_NE(doc.find("\"kind\": \"external\""), std::string::npos);

    // Comments and blanks are ignored; unknown fingerprints miss.
    const lint::Baseline sparse =
        lint::Baseline::parse("# comment\n\nx|y|op0|beef\n");
    EXPECT_EQ(sparse.size(), 1u);
    EXPECT_TRUE(sparse.contains("x|y|op0|beef"));
    EXPECT_FALSE(sparse.contains("x|y|op1|beef"));
}

/** Both documents escape what an artifact name or message holds: a
 * quote, a backslash and a control character parse back intact. */
TEST(Sarif, DocumentsParseForAHostileArtifactName)
{
    const std::string name = "dir\\a \"b\"\x01.txt";
    lint::Report report;
    report.add(lint::Severity::Warning, "dead-lightcone", 2,
               "a \"quoted\"\tmessage");
    const std::vector<lint::ArtifactReport> reports = {{name, report}};
    const lint::Baseline baseline =
        lint::Baseline::parse(lint::Baseline::render(reports));

    obs::JsonValue sarif, json;
    std::string error;
    const std::string sarif_doc = lint::to_sarif(reports, &baseline);
    ASSERT_TRUE(obs::json_parse(sarif_doc, sarif, error))
        << error << "\n" << sarif_doc;
    const std::string json_doc = lint::to_json(reports, &baseline);
    ASSERT_TRUE(obs::json_parse(json_doc, json, error))
        << error << "\n" << json_doc;

    const obs::JsonValue &result =
        sarif.get("runs")->items.at(0).get("results")->items.at(0);
    EXPECT_EQ(result.get("locations")
                  ->items.at(0)
                  .get("physicalLocation")
                  ->get("artifactLocation")
                  ->get("uri")
                  ->as_string(),
              name);
    EXPECT_EQ(result.get("message")->get("text")->as_string(),
              "a \"quoted\"\tmessage");
    EXPECT_NE(result.get("suppressions"), nullptr);
    const obs::JsonValue &artifact = json.get("artifacts")->items.at(0);
    EXPECT_EQ(artifact.get("artifact")->as_string(), name);
    EXPECT_TRUE(
        artifact.get("diagnostics")->items.at(0).get("suppressed")->as_bool());
    EXPECT_EQ(json.get("suppressed")->as_number(), 1.0);
}

TEST(Sarif, JsonRenderingCarriesCounts)
{
    const std::string doc = lint::to_json(sample_reports(), nullptr);
    EXPECT_NE(doc.find("\"artifact\": \"a.txt\""), std::string::npos);
    EXPECT_NE(doc.find("\"errors\": 1"), std::string::npos);
    EXPECT_NE(doc.find("\"warnings\": 1"), std::string::npos);
    EXPECT_NE(doc.find("\"rule\": \"dead-lightcone\""),
              std::string::npos);
}

} // namespace
