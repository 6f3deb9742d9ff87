/**
 * @file
 * Tests for elvlint: an adversarial corpus (one malformed artifact per
 * rule, asserting exactly the expected rule fires), clean-pass
 * assertions over every builder template, baseline generator, and
 * generated candidate, the fused-program and device passes, and the
 * pipeline pre-flight boundaries.
 */
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <string>

#include "baselines/simple.hpp"
#include "circuit/builders.hpp"
#include "circuit/circuit.hpp"
#include "circuit/clifford_replica.hpp"
#include "common/logging.hpp"
#include "compiler/compile.hpp"
#include "core/candidate_gen.hpp"
#include "device/device.hpp"
#include "lint/lint.hpp"
#include "lint/preflight.hpp"
#include "obs/metrics.hpp"
#include "sim/fusion.hpp"

namespace {

using namespace elv;
using circ::Circuit;
using circ::GateKind;
using circ::Op;
using circ::ParamRole;
using lint::CircuitView;
using lint::LintOptions;
using lint::Report;
using lint::Severity;

/** Rules an error-free report may still mention (warning severity). */
void
expect_no_errors(const Report &report, const std::string &context)
{
    EXPECT_FALSE(report.has_errors())
        << context << ":\n"
        << report.to_string();
}

/** Assert `rule` fired with Error severity and no other rule errored. */
void
expect_only_error(const Report &report, const std::string &rule)
{
    EXPECT_TRUE(report.fired(rule)) << report.to_string();
    for (const auto &d : report.diagnostics) {
        if (d.severity == Severity::Error) {
            EXPECT_EQ(d.rule, rule) << report.to_string();
        }
    }
}

// ---------------------------------------------------------------------
// Adversarial corpus: raw CircuitViews express IR the builder API
// refuses to construct; each case must trip exactly its rule.
// ---------------------------------------------------------------------

TEST(LintAdversarial, QubitBoundsOutOfRange)
{
    std::vector<Op> ops(1);
    ops[0].kind = GateKind::H;
    ops[0].qubits = {5, -1};
    const std::vector<int> measured = {0};
    const Report report =
        lint::lint_circuit(CircuitView{2, 0, ops, measured});
    expect_only_error(report, "qubit-bounds");
    EXPECT_EQ(report.diagnostics[0].op_index, 0);
}

TEST(LintAdversarial, QubitBoundsIdenticalOperands)
{
    std::vector<Op> ops(1);
    ops[0].kind = GateKind::CX;
    ops[0].qubits = {1, 1};
    const std::vector<int> measured = {0};
    expect_only_error(lint::lint_circuit(CircuitView{2, 0, ops, measured}),
                      "qubit-bounds");
}

TEST(LintAdversarial, QubitBoundsStraySecondOperand)
{
    std::vector<Op> ops(1);
    ops[0].kind = GateKind::H;
    ops[0].qubits = {0, 1}; // arity-1 gate with a second operand
    const std::vector<int> measured = {0};
    expect_only_error(lint::lint_circuit(CircuitView{2, 0, ops, measured}),
                      "qubit-bounds");
}

TEST(LintAdversarial, ParamBindingDanglingSymbol)
{
    // A parametric RX with no binding silently resolves to angle 0.
    std::vector<Op> ops(1);
    ops[0].kind = GateKind::RX;
    ops[0].qubits = {0, -1};
    ops[0].role = ParamRole::None;
    const std::vector<int> measured = {0};
    expect_only_error(lint::lint_circuit(CircuitView{1, 0, ops, measured}),
                      "param-binding");
}

TEST(LintAdversarial, ParamBindingDoubleBoundSlot)
{
    std::vector<Op> ops(2);
    for (auto &op : ops) {
        op.kind = GateKind::RY;
        op.qubits = {0, -1};
        op.role = ParamRole::Variational;
        op.param_index = 0; // both gates claim slot 0
    }
    const std::vector<int> measured = {0};
    expect_only_error(lint::lint_circuit(CircuitView{1, 1, ops, measured}),
                      "param-binding");
}

TEST(LintAdversarial, ParamBindingSlotBeyondDeclaredCount)
{
    std::vector<Op> ops(1);
    ops[0].kind = GateKind::RZ;
    ops[0].qubits = {0, -1};
    ops[0].role = ParamRole::Variational;
    ops[0].param_index = 7;
    const std::vector<int> measured = {0};
    expect_only_error(lint::lint_circuit(CircuitView{1, 1, ops, measured}),
                      "param-binding");
}

TEST(LintAdversarial, ParamBindingEmbeddingWithoutFeature)
{
    std::vector<Op> ops(1);
    ops[0].kind = GateKind::RX;
    ops[0].qubits = {0, -1};
    ops[0].role = ParamRole::Embedding;
    ops[0].data_index = -1; // no feature bound
    const std::vector<int> measured = {0};
    expect_only_error(lint::lint_circuit(CircuitView{1, 0, ops, measured}),
                      "param-binding");
}

TEST(LintAdversarial, EmbeddingOrderAmpEmbedNotFirst)
{
    std::vector<Op> ops(2);
    ops[0].kind = GateKind::H;
    ops[0].qubits = {0, -1};
    ops[1].kind = GateKind::AmpEmbed;
    ops[1].role = ParamRole::Embedding;
    ops[1].data_index = 0;
    const std::vector<int> measured = {0};
    const Report report =
        lint::lint_circuit(CircuitView{2, 0, ops, measured});
    expect_only_error(report, "embedding-order");
    EXPECT_EQ(report.diagnostics[0].op_index, 1);
}

TEST(LintAdversarial, EmbeddingOrderMixedWithGateEmbeddings)
{
    std::vector<Op> ops(2);
    ops[0].kind = GateKind::AmpEmbed;
    ops[0].role = ParamRole::Embedding;
    ops[0].data_index = 0;
    ops[1].kind = GateKind::RY;
    ops[1].qubits = {0, -1};
    ops[1].role = ParamRole::Embedding;
    ops[1].data_index = 1;
    const std::vector<int> measured = {0};
    expect_only_error(lint::lint_circuit(CircuitView{2, 0, ops, measured}),
                      "embedding-order");
}

TEST(LintAdversarial, EmbeddingOrderPrefixViolation)
{
    // Legal circuit (variational gate before an embedding), illegal
    // only under the opt-in prefix requirement.
    Circuit c(2);
    c.add_variational(GateKind::RX, {0});
    c.add_embedding(GateKind::RY, {1}, 0);
    c.set_measured({0, 1});
    expect_no_errors(lint::lint_circuit(c), "prefix not required");
    LintOptions options;
    options.require_embedding_prefix = true;
    expect_only_error(lint::lint_circuit(c, options), "embedding-order");
}

TEST(LintAdversarial, ConnectivityOffCouplingEdge)
{
    // ibm_lagos is the 7-qubit falcon "H": (0,2) is not an edge.
    const dev::Device device = dev::make_device("ibm_lagos");
    Circuit c(device.num_qubits());
    c.add_gate(GateKind::CX, {0, 2});
    c.set_measured({0});
    LintOptions options;
    options.device = &device;
    const Report report = lint::lint_circuit(c, options);
    EXPECT_TRUE(report.fired("connectivity")) << report.to_string();
    // The same circuit is structurally fine without a device.
    expect_no_errors(lint::lint_circuit(c), "no device context");
}

TEST(LintAdversarial, CliffordReplicaUnsnappedRotation)
{
    Circuit c(2);
    c.add_variational(GateKind::RX, {0});
    c.add_gate(GateKind::CX, {0, 1});
    c.set_measured({0, 1});
    expect_no_errors(lint::lint_circuit(c), "replica rules off");
    LintOptions options;
    options.expect_clifford_replica = true;
    expect_only_error(lint::lint_circuit(c, options), "clifford-replica");
}

TEST(LintAdversarial, MeasurementOutOfRangeAndDuplicate)
{
    std::vector<Op> ops(1);
    ops[0].kind = GateKind::H;
    ops[0].qubits = {0, -1};
    const std::vector<int> measured = {0, 0, 9};
    const Report report =
        lint::lint_circuit(CircuitView{2, 0, ops, measured});
    expect_only_error(report, "measurement");
    EXPECT_EQ(report.count(Severity::Error), 2u); // dup + out-of-range
}

TEST(LintAdversarial, MeasurementEmptyWarns)
{
    Circuit c(1);
    c.add_gate(GateKind::H, {0});
    const Report report = lint::lint_circuit(c);
    EXPECT_FALSE(report.has_errors());
    EXPECT_TRUE(report.fired("measurement"));
    EXPECT_EQ(report.count(Severity::Warning), 1u);
}

TEST(LintAdversarial, DeadCodeUnusedQubitWarns)
{
    Circuit c(3);
    c.add_gate(GateKind::H, {0});
    c.set_measured({0});
    const Report report = lint::lint_circuit(c);
    EXPECT_FALSE(report.has_errors());
    EXPECT_TRUE(report.fired("dead-code")) << report.to_string();
}

TEST(LintAdversarial, DeadCodeUntrainedParameterSlot)
{
    // Declared 2 slots, only slot 0 bound: slot 1 is optimizer noise.
    std::vector<Op> ops(1);
    ops[0].kind = GateKind::RX;
    ops[0].qubits = {0, -1};
    ops[0].role = ParamRole::Variational;
    ops[0].param_index = 0;
    const std::vector<int> measured = {0};
    const Report report =
        lint::lint_circuit(CircuitView{1, 2, ops, measured});
    EXPECT_FALSE(report.has_errors()) << report.to_string();
    EXPECT_TRUE(report.fired("dead-code")) << report.to_string();
}

// ---------------------------------------------------------------------
// Fused-program pass.
// ---------------------------------------------------------------------

TEST(LintProgram, CompiledProgramIsClean)
{
    Circuit c(3);
    circ::append_angle_embedding(c, 3);
    c.add_variational(GateKind::RX, {0});
    c.add_gate(GateKind::CX, {0, 1});
    c.add_gate(GateKind::H, {2});
    c.add_variational(GateKind::CRY, {1, 2});
    c.set_measured({0, 1, 2});
    const sim::FusedProgram program = sim::FusedProgram::compile(c);
    expect_no_errors(lint::lint_program(program, c), "fused program");
}

TEST(LintProgram, StaleCacheEntryDetected)
{
    // Lint a program against a circuit it was not compiled from —
    // the mismatch the rule exists to catch.
    Circuit compiled_from(2);
    compiled_from.add_gate(GateKind::H, {0});
    compiled_from.add_variational(GateKind::RX, {1});
    compiled_from.set_measured({0, 1});
    Circuit other(2);
    other.add_gate(GateKind::H, {0});
    other.add_gate(GateKind::X, {1});
    other.add_variational(GateKind::RX, {1});
    other.set_measured({0, 1});
    const sim::FusedProgram program =
        sim::FusedProgram::compile(compiled_from);
    const Report report = lint::lint_program(program, other);
    EXPECT_TRUE(report.has_errors()) << report.to_string();
    EXPECT_TRUE(report.fired("fusion-barrier")) << report.to_string();
}

TEST(LintProgram, RetargetedBarrierBindingDetected)
{
    // Same op count, but the source's embedding binds another feature:
    // every surviving barrier must match the source verbatim.
    Circuit compiled_from(1);
    compiled_from.add_embedding(GateKind::RY, {0}, 0);
    compiled_from.set_measured({0});
    Circuit other(1);
    other.add_embedding(GateKind::RY, {0}, 3);
    other.set_measured({0});
    const sim::FusedProgram program =
        sim::FusedProgram::compile(compiled_from);
    const Report report = lint::lint_program(program, other);
    EXPECT_TRUE(report.fired("fusion-barrier")) << report.to_string();
}

// ---------------------------------------------------------------------
// Device pass.
// ---------------------------------------------------------------------

TEST(LintDevice, CatalogDevicesAreClean)
{
    for (const auto &name : dev::device_catalog()) {
        const Report report = lint::lint_device(dev::make_device(name));
        expect_no_errors(report, name);
        EXPECT_EQ(report.count(Severity::Warning), 0u)
            << name << ":\n"
            << report.to_string();
    }
}

TEST(LintDevice, DisconnectedTopologyWarns)
{
    // Topology's constructor already rejects self-loops, out-of-range
    // endpoints, and duplicates, so the reachable topology finding is
    // connectivity of the graph itself: an island qubit no router can
    // reach. (The error branches stay as defense for future
    // deserialized topologies.)
    dev::Device device = dev::make_device("ibmq_manila");
    device.topology = dev::Topology(3, {{0, 1}}); // qubit 2 stranded
    device.t1_us.resize(3, 100.0);
    device.t2_us.resize(3, 100.0);
    device.readout_error.resize(3, 0.01);
    device.error_1q.resize(3, 0.001);
    device.error_2q = {0.01};
    const Report report = lint::lint_device(device);
    EXPECT_TRUE(report.fired("device-topology")) << report.to_string();
    EXPECT_GE(report.count(Severity::Warning), 1u) << report.to_string();
}

TEST(LintDevice, CalibrationOutOfRange)
{
    dev::Device device = dev::make_device("ibmq_manila");
    device.readout_error[0] = 1.5;              // probability > 1
    device.t1_us[1] = 0.0;                      // non-positive T1
    device.error_1q.pop_back();                 // wrong vector size
    const Report report = lint::lint_device(device);
    EXPECT_TRUE(report.fired("device-calibration")) << report.to_string();
    EXPECT_FALSE(report.fired("device-topology")) << report.to_string();
    EXPECT_GE(report.count(Severity::Error), 3u) << report.to_string();
}

// ---------------------------------------------------------------------
// Clean passes over everything the library builds.
// ---------------------------------------------------------------------

TEST(LintClean, BuilderTemplates)
{
    using circ::EmbeddingScheme;
    LintOptions prefix;
    prefix.require_embedding_prefix = true;
    expect_no_errors(
        lint::lint_circuit(circ::build_human_designed(
                               4, 4, 12, 2, EmbeddingScheme::Angle),
                           prefix),
        "human-designed/angle");
    expect_no_errors(
        lint::lint_circuit(circ::build_human_designed(
                               4, 4, 12, 2, EmbeddingScheme::IQP),
                           prefix),
        "human-designed/iqp");
    expect_no_errors(
        lint::lint_circuit(circ::build_human_designed(
                               4, 16, 12, 2, EmbeddingScheme::Amplitude),
                           prefix),
        "human-designed/amplitude");
    elv::Rng rng(11);
    expect_no_errors(
        lint::lint_circuit(circ::build_random_rxyz_cz(4, 4, 16, 2, rng),
                           prefix),
        "random-rxyz-cz");
}

TEST(LintClean, BaselineGenerators)
{
    base::BaselineShape shape;
    elv::Rng rng(5);
    for (const Circuit &c : base::random_baseline(shape, 4, rng))
        expect_no_errors(lint::lint_circuit(c), "random baseline");
    for (const Circuit &c : base::human_baseline(shape))
        expect_no_errors(lint::lint_circuit(c), "human baseline");
}

TEST(LintClean, GeneratedCandidatesOnEveryDevice)
{
    for (const auto &name : dev::device_catalog()) {
        const dev::Device device = dev::make_device(name);
        elv::Rng rng(23);
        core::CandidateConfig config;
        config.num_qubits = std::min(4, device.num_qubits());
        config.num_params = 10;
        config.num_embeds = 4;
        config.num_meas = 2;
        config.num_features = 4;
        LintOptions options;
        options.device = &device;
        for (int i = 0; i < 3; ++i) {
            const Circuit c =
                core::generate_candidate(device, config, rng);
            expect_no_errors(lint::lint_circuit(c, options),
                             name + "/candidate");
        }
    }
}

TEST(LintClean, CompiledCandidatesSatisfyConnectivityOnEveryDevice)
{
    // The acceptance bar for the post-SABRE pass: device-unaware
    // circuits routed through the compiler must come out with zero
    // connectivity violations on every bundled device.
    for (const auto &name : dev::device_catalog()) {
        const dev::Device device = dev::make_device(name);
        elv::Rng rng(29);
        core::CandidateConfig config;
        config.num_qubits = std::min(4, device.num_qubits());
        config.num_params = 8;
        config.num_embeds = 4;
        config.num_meas = 2;
        config.num_features = 4;
        LintOptions options;
        options.device = &device;
        for (int i = 0; i < 2; ++i) {
            const Circuit logical =
                core::generate_device_unaware(config, rng);
            const auto compiled =
                comp::compile_for_device(logical, device, 2, rng);
            const Report report =
                lint::lint_circuit(compiled.circuit, options);
            expect_no_errors(report, name + "/compiled");
            EXPECT_FALSE(report.fired("connectivity"))
                << name << ":\n"
                << report.to_string();
            const sim::FusedProgram fused =
                sim::FusedProgram::compile(compiled.circuit);
            expect_no_errors(
                lint::lint_program(fused, compiled.circuit, options),
                name + "/fused");
        }
    }
}

TEST(LintClean, CliffordReplicasPassReplicaRules)
{
    elv::Rng rng(17);
    Circuit c(3);
    circ::append_angle_embedding(c, 3);
    c.add_variational(GateKind::U3, {0});
    c.add_gate(GateKind::CX, {0, 1});
    c.add_variational(GateKind::CRY, {1, 2});
    c.set_measured({0, 1, 2});
    LintOptions options;
    options.expect_clifford_replica = true;
    for (int i = 0; i < 5; ++i) {
        const Circuit replica = circ::make_clifford_replica(c, rng);
        expect_no_errors(lint::lint_circuit(replica, options),
                         "clifford replica");
    }
}

// ---------------------------------------------------------------------
// Catalog and reporting plumbing.
// ---------------------------------------------------------------------

TEST(LintPlumbing, CatalogCoversEveryRule)
{
    const auto &catalog = lint::rule_catalog();
    const char *expected[] = {
        "qubit-bounds",   "param-binding",    "embedding-order",
        "connectivity",   "clifford-replica", "measurement",
        "dead-code",      "fusion-barrier",   "device-topology",
        "device-calibration", "dead-lightcone",
        "dead-parameter", "clifford-region"};
    for (const char *id : expected) {
        bool found = false;
        for (const auto &rule : catalog)
            if (rule.id == id)
                found = true;
        EXPECT_TRUE(found) << id;
    }
}

TEST(LintPlumbing, CatalogMatchesDesignDocRuleTable)
{
    // DESIGN.md section 10 documents every rule as a table row whose
    // first cell is the backticked kebab-case rule id; class-overview
    // tables use CamelCase names and metric tables use underscores, so
    // the charset filter isolates exactly the rule rows. The check is
    // bidirectional: an undocumented rule and a documented-but-removed
    // rule both fail.
    std::ifstream in(std::string(ELV_REPO_ROOT) + "/DESIGN.md");
    ASSERT_TRUE(in.good()) << "DESIGN.md not found under ELV_REPO_ROOT";
    std::set<std::string> documented;
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("| `", 0) != 0)
            continue;
        const std::size_t close = line.find('`', 3);
        if (close == std::string::npos)
            continue;
        const std::string id = line.substr(3, close - 3);
        if (id.empty() ||
            id.find_first_not_of(
                "abcdefghijklmnopqrstuvwxyz0123456789-") !=
                std::string::npos)
            continue;
        documented.insert(id);
    }
    std::set<std::string> implemented;
    for (const auto &rule : lint::rule_catalog())
        implemented.insert(rule.id);
    EXPECT_EQ(documented, implemented);
}

TEST(LintPlumbing, DiagnosticRendering)
{
    Report report;
    report.add(Severity::Error, "qubit-bounds", 3, "boom");
    report.add(Severity::Warning, "dead-code", -1, "meh");
    EXPECT_EQ(report.diagnostics[0].to_string(),
              "error[qubit-bounds] op 3: boom");
    EXPECT_EQ(report.diagnostics[1].to_string(),
              "warning[dead-code]: meh");
    EXPECT_TRUE(report.has_errors());
    EXPECT_EQ(report.count(Severity::Warning), 1u);
    Report other;
    other.add(Severity::Note, "x", -1, "y");
    report.merge(other);
    EXPECT_EQ(report.diagnostics.size(), 3u);
}

// ---------------------------------------------------------------------
// Pre-flight boundaries.
// ---------------------------------------------------------------------

/** A lagos circuit with a CX on the uncoupled pair (0, 2). */
Circuit
uncoupled_cx(const dev::Device &device)
{
    Circuit c(device.num_qubits());
    c.add_gate(GateKind::CX, {0, 2});
    c.set_measured({0});
    return c;
}

TEST(LintPreflight, FatalModeThrowsOnErrors)
{
    obs::Registry::global().set_enabled(true);
    obs::Registry::global().reset();

    const dev::Device device = dev::make_device("ibm_lagos");
    LintOptions options;
    options.device = &device;
    EXPECT_THROW(lint::preflight(uncoupled_cx(device),
                                 lint::Boundary::Executor, options),
                 elv::InternalError);

    Circuit good(device.num_qubits());
    good.add_gate(GateKind::CX, {0, 1});
    good.set_measured({0});
    EXPECT_NO_THROW(
        lint::preflight(good, lint::Boundary::Executor, options));

    const auto snapshot = obs::Registry::global().snapshot();
    obs::Registry::global().set_enabled(false);
    EXPECT_GE(snapshot.counter("lint.circuits_checked"), 2u);
    EXPECT_EQ(snapshot.counter("lint.violations"), 1u);
}

TEST(LintPreflight, ThrowsInEveryBuildType)
{
    // The default build is RelWithDebInfo (NDEBUG set): a violation at
    // the executor boundary still throws, carrying the report, instead
    // of letting the replica be scored.
    const dev::Device device = dev::make_device("ibm_lagos");
    LintOptions options;
    options.device = &device;
    try {
        lint::preflight(uncoupled_cx(device), lint::Boundary::Executor,
                        options);
        FAIL() << "preflight accepted an uncoupled CX";
    } catch (const elv::InternalError &error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("executor boundary"), std::string::npos)
            << what;
        EXPECT_NE(what.find("error["), std::string::npos) << what;
    }
}

TEST(LintPreflight, SearchPipelineRunsCleanUnderFatalPreflight)
{
    // Preflight throws on any violation, so generation + compilation
    // of real candidates must cross every boundary without one.
    const dev::Device device = dev::make_device("ibm_nairobi");
    elv::Rng rng(41);
    core::CandidateConfig config;
    config.num_qubits = 4;
    config.num_params = 8;
    config.num_embeds = 4;
    config.num_meas = 2;
    config.num_features = 4;
    for (int i = 0; i < 4; ++i)
        EXPECT_NO_THROW(core::generate_candidate(device, config, rng));
    const Circuit logical = core::generate_device_unaware(config, rng);
    EXPECT_NO_THROW(comp::compile_for_device(logical, device, 2, rng));
}

TEST(LintPreflight, BoundaryNames)
{
    EXPECT_STREQ(lint::boundary_name(lint::Boundary::CandidateGen),
                 "candidate-gen");
    EXPECT_STREQ(lint::boundary_name(lint::Boundary::CompilerOutput),
                 "compiler-output");
    EXPECT_STREQ(lint::boundary_name(lint::Boundary::Executor),
                 "executor");
}

} // namespace
