/**
 * @file
 * Tests for the lint dataflow analyses (lightcone, parameter liveness,
 * const/Clifford regions), the `--fix` elision, and the SARIF/baseline
 * surface (including seeded mutants of a baseline file).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>

#include "circuit/builders.hpp"
#include "circuit/circuit.hpp"
#include "circuit/clifford_replica.hpp"
#include "circuit/serialize.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "core/run_spec.hpp"
#include "core/search.hpp"
#include "device/device.hpp"
#include "lint/dataflow.hpp"
#include "lint/lint.hpp"
#include "lint/sarif.hpp"
#include "noise/noise_model.hpp"
#include "obs/json.hpp"
#include "qml/synthetic.hpp"
#include "sim/fusion.hpp"
#include "sim/statevector.hpp"

#include "mutate.hpp"

namespace {

using namespace elv;
using circ::Circuit;
using circ::GateKind;

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

/** Measured distribution of `circuit` under `params` and features `x`,
 *  simulated on the touched qubits only. */
std::vector<double>
measured_distribution(const Circuit &circuit,
                      const std::vector<double> &params,
                      const std::vector<double> &x = {0.4})
{
    std::vector<int> kept;
    const Circuit small = circuit.compacted(kept);
    sim::StateVector psi(small.num_qubits());
    psi.run(small, params, x);
    return psi.probabilities(small.measured());
}

// ---------------------------------------------------------------------
// Lightcone analysis.
// ---------------------------------------------------------------------

/** The 64 seed-7 candidates elivagar_search scores for `benchmark` on
 *  `device`. */
std::vector<Circuit>
search_pool(const std::string &benchmark, const dev::Device &device)
{
    core::RunSpec spec;
    spec.benchmark = benchmark;
    spec.device = device.name;
    spec.candidates = 64;
    spec.seed = 7;
    const core::ElivagarConfig config =
        core::search_config(spec, qml::benchmark_spec(benchmark), 1, "");
    std::vector<Circuit> pool;
    for (int i = 0; i < spec.candidates; ++i)
        pool.push_back(core::generate_search_candidate(
            device, config, static_cast<std::size_t>(i)));
    return pool;
}

/** `circuit` without the ops `analysis` marks dead; slots keep their
 *  numbers, so one parameter vector binds both. */
Circuit
without_dead_ops(const Circuit &circuit,
                 const lint::LightconeAnalysis &analysis)
{
    Circuit live(circuit.num_qubits());
    for (std::size_t i = 0; i < circuit.ops().size(); ++i)
        if (analysis.live_ops[i])
            live.append_op(circuit.ops()[i]);
    live.declare_params(circuit.num_params());
    live.set_measured(circuit.measured());
    return live;
}

void
expect_same_distribution(const std::vector<double> &a,
                         const std::vector<double> &b,
                         const std::string &context)
{
    ASSERT_EQ(a.size(), b.size()) << context;
    for (std::size_t k = 0; k < a.size(); ++k)
        EXPECT_NEAR(a[k], b[k], 1e-12) << context << " outcome " << k;
}

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
    // cone. The RX on q2 sits after the embed, and nothing after it
    // routes q2 into the measurement, so it is dead: the cone only
    // reaches q2 at the embed, before the RX.
    EXPECT_TRUE(analysis.live_ops[0]);
    EXPECT_FALSE(analysis.live_ops[1]);
    for (char q : analysis.live_qubits)
        EXPECT_TRUE(q);
}

TEST(Lightcone, GateAfterTheLastCouplingIsDead)
{
    // The CX is qubit 3's last coupling to the measured qubit 2, so the
    // RY after it is traced out of every outcome.
    Circuit c(4);
    c.add_gate(GateKind::CX, {2, 3});
    c.add_variational(GateKind::RY, {3});
    c.set_measured({2});
    const lint::LightconeAnalysis analysis =
        lint::analyze_lightcone(lint::view_of(c));
    EXPECT_EQ(analysis.live_ops, (std::vector<char>{1, 0}));
    EXPECT_EQ(analysis.dead_ops(), (std::vector<int>{1}));
    EXPECT_EQ(analysis.dead_params(), (std::vector<int>{0}));
    EXPECT_TRUE(analysis.live_qubits[3]); // pulled in by the CX
}

/** Soundness on real search pools: removing every op the analysis
 *  marks dead leaves the measured distribution unchanged, noiseless
 *  and under the calibrated density-matrix noise model. */
TEST(Lightcone, ElidingDeadOpsKeepsEveryMeasuredDistribution)
{
    const std::pair<const char *, const char *> cells[] = {
        {"mnist-10", "ibm_guadalupe"}, {"moons", "ibm_lagos"}};
    std::size_t mnist10_dead = 0;
    for (const auto &[benchmark, device_name] : cells) {
        const dev::Device device = dev::make_device(device_name);
        const noise::NoisyDensitySimulator noisy(device);
        const std::vector<Circuit> pool = search_pool(benchmark, device);
        elv::Rng rng(31);
        for (std::size_t i = 0; i < pool.size(); ++i) {
            const Circuit &c = pool[i];
            const lint::LightconeAnalysis analysis =
                lint::analyze_lightcone(lint::view_of(c));
            const Circuit live = without_dead_ops(c, analysis);
            if (std::string(benchmark) == "mnist-10")
                mnist10_dead += analysis.dead_ops().size();
            for (int binding = 0; binding < 3; ++binding) {
                std::vector<double> params(
                    static_cast<std::size_t>(c.num_params()));
                for (double &p : params)
                    p = rng.uniform(-M_PI, M_PI);
                std::vector<double> x(static_cast<std::size_t>(
                    std::max(1, c.num_data_features())));
                for (double &v : x)
                    v = rng.uniform(0.0, M_PI);
                const std::string context =
                    std::string(benchmark) + " candidate " +
                    std::to_string(i) + " binding " +
                    std::to_string(binding);
                expect_same_distribution(
                    measured_distribution(c, params, x),
                    measured_distribution(live, params, x),
                    context + " (noiseless)");
                if (i < 8)
                    expect_same_distribution(
                        noisy.run_distribution(c, params, x),
                        noisy.run_distribution(live, params, x),
                        context + " (noisy)");
            }
        }
    }
    // The pool measures some qubits before their last gates.
    EXPECT_GT(mnist10_dead, 0u);
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
    const lint::CliffordRegions regions =
        lint::analyze_clifford_regions(lint::view_of(c));
    EXPECT_EQ(regions.clifford_prefix, 2);
    // The prefix fuses into fixed groups ahead of the first barrier.
    ASSERT_FALSE(fused.ops().empty());
    EXPECT_NE(fused.ops().front().kind, sim::FusedOp::Kind::Barrier);
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

    // Serializes and parses back (dense renumbering is what makes
    // --fix safe: slot holes would not round-trip).
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

/** A rewrite drops the trailing qubits it leaves unused, so the file
 *  `lint --fix` writes re-lints without a dead-code finding; a used
 *  qubit is never relabeled, so an unused one below it stays. */
TEST(Elide, TrailingQubitsLeftUnusedAreDropped)
{
    const Circuit tail = circ::from_text("elv-circuit 1\n"
                                         "qubits 3\n"
                                         "var RX 0\n"
                                         "gate CX 0 1\n"
                                         "var RZ 2\n"
                                         "gate H 2\n"
                                         "measure 0 1\n");
    const lint::FixResult fix = lint::elide_dead_structure(tail);
    EXPECT_EQ(fix.ops_elided, 2u);
    EXPECT_EQ(circ::to_text(fix.circuit), "elv-circuit 1\n"
                                          "qubits 2\n"
                                          "var RX 0\n"
                                          "gate CX 0 1\n"
                                          "measure 0 1\n");
    const lint::Report report =
        lint::lint_circuit(circ::from_text(circ::to_text(fix.circuit)));
    EXPECT_FALSE(report.fired("dead-code")) << report.to_string();
    EXPECT_EQ(report.count(lint::Severity::Warning), 0u)
        << report.to_string();
    EXPECT_FALSE(report.has_errors()) << report.to_string();

    const Circuit middle = circ::from_text("elv-circuit 1\n"
                                           "qubits 3\n"
                                           "var RX 0\n"
                                           "gate CX 0 2\n"
                                           "var RZ 1\n"
                                           "gate H 1\n"
                                           "measure 0 2\n");
    const lint::FixResult kept = lint::elide_dead_structure(middle);
    EXPECT_EQ(kept.ops_elided, 2u);
    EXPECT_EQ(kept.circuit.num_qubits(), 3);
    EXPECT_EQ(kept.circuit.measured(), (std::vector<int>{0, 2}));
    EXPECT_TRUE(lint::lint_circuit(kept.circuit).fired("dead-code"));
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

/** `std::ifstream` opens a directory and reads nothing from it, which
 * once made `--baseline DIR` an empty baseline instead of an error. */
TEST(Sarif, LoadingADirectoryIsAUsageError)
{
    EXPECT_THROW(lint::Baseline::load(::testing::TempDir()),
                 elv::UsageError);
    EXPECT_THROW(lint::Baseline::load(::testing::TempDir() +
                                      "elv_no_such_baseline"),
                 elv::UsageError);
}

/** A baseline file is untrusted input: whatever its bytes, every
 * finding is counted exactly once (suppressed or reported) and both
 * documents stay well-formed JSON. */
TEST(Sarif, SeededBaselineMutantsKeepCountsAndDocumentsWhole)
{
    std::vector<lint::ArtifactReport> reports = sample_reports();
    lint::Report hostile;
    hostile.add(lint::Severity::Warning, "dead-parameter", 1,
                "slot \"1\"\tunused");
    reports.push_back({"dir\\c \"d\".txt", hostile});
    std::size_t total = 0;
    for (const auto &entry : reports)
        total += entry.report.diagnostics.size();

    const std::string rendered = lint::Baseline::render(reports);
    std::vector<std::string> donors = elv::test::split_lines(rendered);
    donors.push_back("# comment");
    donors.push_back("a.txt|qubit-bounds|op0|");
    donors.push_back(std::string(300, '|'));
    std::mt19937_64 rng(25);
    for (int round = 0; round < 300; ++round) {
        const std::string text = elv::test::mutate(rendered, donors, rng);
        const lint::Baseline baseline = lint::Baseline::parse(text);
        const lint::FindingCounts counts =
            lint::count_findings(reports, &baseline);
        EXPECT_EQ(counts.errors + counts.warnings + counts.notes +
                      counts.suppressed,
                  total)
            << "round " << round;

        obs::JsonValue value;
        std::string error;
        EXPECT_TRUE(obs::json_parse(lint::to_sarif(reports, &baseline),
                                    value, error))
            << "round " << round << ": " << error;
        EXPECT_TRUE(obs::json_parse(lint::to_json(reports, &baseline),
                                    value, error))
            << "round " << round << ": " << error;
    }
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
