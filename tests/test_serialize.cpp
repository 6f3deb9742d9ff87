/**
 * @file
 * Serialization tests: native text round-trips every IR construct,
 * OpenQASM export carries bound angles and rejects amplitude
 * embeddings, malformed inputs (hand-written probes and seeded mutants
 * of a real candidate) produce usage errors, parsing is linear in the
 * op count, the single-line form the search journal stores
 * round-trips, and the expressibility
 * metric behaves (entangling ansatze beat trivial ones, cost accounting
 * is exact).
 */
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <random>
#include <sstream>

#include "circuit/builders.hpp"
#include "circuit/serialize.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "core/candidate_gen.hpp"
#include "core/expressibility.hpp"
#include "core/run_spec.hpp"
#include "core/search.hpp"
#include "device/device.hpp"
#include "mutate.hpp"
#include "qml/synthetic.hpp"
#include "sim/statevector.hpp"

namespace {

using namespace elv;
using namespace elv::circ;

Circuit
sample_circuit()
{
    Circuit c(4);
    c.add_gate(GateKind::H, {0});
    c.add_embedding(GateKind::RX, {1}, 0);
    c.add_variational(GateKind::U3, {2});
    c.add_gate(GateKind::CX, {0, 1});
    c.add_embedding(GateKind::RZ, {3}, 1, 2); // product embedding
    c.add_variational(GateKind::CRY, {2, 3});
    c.add_gate(GateKind::SWAP, {0, 3});
    c.set_measured({1, 3});
    return c;
}

TEST(TextFormat, RoundTripPreservesStructure)
{
    const Circuit original = sample_circuit();
    const Circuit restored = from_text(to_text(original));

    EXPECT_EQ(restored.num_qubits(), original.num_qubits());
    EXPECT_EQ(restored.num_params(), original.num_params());
    EXPECT_EQ(restored.measured(), original.measured());
    ASSERT_EQ(restored.ops().size(), original.ops().size());
    for (std::size_t i = 0; i < original.ops().size(); ++i) {
        EXPECT_EQ(restored.ops()[i].kind, original.ops()[i].kind);
        EXPECT_EQ(restored.ops()[i].role, original.ops()[i].role);
        EXPECT_EQ(restored.ops()[i].qubits, original.ops()[i].qubits);
        EXPECT_EQ(restored.ops()[i].data_index,
                  original.ops()[i].data_index);
        EXPECT_EQ(restored.ops()[i].data_index2,
                  original.ops()[i].data_index2);
    }
    // Idempotent: text of the restored circuit matches.
    EXPECT_EQ(to_text(restored), to_text(original));
}

TEST(TextFormat, RoundTripPreservesSemantics)
{
    Rng rng(5);
    const Circuit original = build_random_rxyz_cz(4, 3, 12, 2, rng);
    const Circuit restored = from_text(to_text(original));

    std::vector<double> params(12);
    for (auto &p : params)
        p = rng.uniform(-M_PI, M_PI);
    const std::vector<double> x = {0.3, -0.4, 0.9};

    sim::StateVector a(4), b(4);
    a.run(original, params, x);
    b.run(restored, params, x);
    EXPECT_NEAR(a.overlap(b), 1.0, 1e-12);
}

TEST(TextFormat, AmplitudeEmbeddingRoundTrips)
{
    Circuit c(3);
    c.add_amplitude_embedding();
    c.add_variational(GateKind::RY, {0});
    c.set_measured({0});
    const Circuit restored = from_text(to_text(c));
    EXPECT_TRUE(restored.has_amplitude_embedding());
    EXPECT_EQ(restored.num_params(), 1);
}

TEST(TextFormat, StreamOperatorMatchesToText)
{
    const Circuit c = sample_circuit();
    std::ostringstream oss;
    oss << c;
    EXPECT_EQ(oss.str(), to_text(c));
}

TEST(TextFormat, RejectsMalformedInput)
{
    EXPECT_THROW(from_text(""), elv::UsageError);
    EXPECT_THROW(from_text("elv-circuit 2\nqubits 2\nmeasure 0\n"),
                 elv::UsageError);
    EXPECT_THROW(from_text("elv-circuit 1\nqubits 0\nmeasure 0\n"),
                 elv::UsageError);
    EXPECT_THROW(
        from_text("elv-circuit 1\nqubits 2\ngate BOGUS 0\nmeasure 0\n"),
        elv::UsageError);
    EXPECT_THROW(
        from_text("elv-circuit 1\nqubits 2\nembed RX 0\nmeasure 0\n"),
        elv::UsageError);
    // Missing measure line.
    EXPECT_THROW(from_text("elv-circuit 1\nqubits 2\ngate H 0\n"),
                 elv::UsageError);
}

// Operands the text names are checked by the parser itself: each of
// these is a usage error naming the malformed text, never an internal
// invariant failure of the circuit it builds.
const std::string kTwoQubitHead = "elv-circuit 1\nqubits 2\n";

TEST(TextFormat, RejectsQubitOutOfRange)
{
    EXPECT_THROW(from_text(kTwoQubitHead + "gate H 5\nmeasure 0\n"),
                 UsageError);
}

TEST(TextFormat, RejectsTwoQubitGateOnOneQubit)
{
    EXPECT_THROW(from_text(kTwoQubitHead + "gate CX 0 0\nmeasure 0\n"),
                 UsageError);
}

TEST(TextFormat, RejectsRepeatedMeasuredQubit)
{
    EXPECT_THROW(from_text(kTwoQubitHead + "measure 0 0\n"), UsageError);
}

TEST(TextFormat, RejectsMeasuredQubitOutOfRange)
{
    EXPECT_THROW(from_text(kTwoQubitHead + "measure 7\n"), UsageError);
}

TEST(TextFormat, RejectsNegativeFeature)
{
    EXPECT_THROW(
        from_text(kTwoQubitHead + "embed RX 0 feat -3\nmeasure 0\n"),
        UsageError);
    EXPECT_THROW(
        from_text(kTwoQubitHead + "embed RX 0 feat 1*-1\nmeasure 0\n"),
        UsageError);
}

TEST(TextFormat, RejectsGateInTheWrongRole)
{
    for (const char *body :
         {"gate RX 0\n", "var H 0\n", "embed U3 0 feat 0\n"})
        EXPECT_THROW(from_text(kTwoQubitHead + body + "measure 0\n"),
                     UsageError)
            << body;
}

/** A token after a line's operands is malformed, never ignored: a
 * measure list that stopped at it would drop the qubits after it. */
TEST(TextFormat, RejectsTrailingTokens)
{
    for (const char *body :
         {"gate H 0 junk\nmeasure 0\n", "gate CX 0 1 0\nmeasure 0\n",
          "var RX 1 2\nmeasure 0\n", "embed RY 0 feat 0 1\nmeasure 0\n",
          "ampembed x\nmeasure 0\n", "measure 0 x 1\n", "measure 0 1x\n",
          "gate H 0x\nmeasure 0\n"})
        EXPECT_THROW(from_text(kTwoQubitHead + body), UsageError) << body;
    // Trailing whitespace is not a token.
    const Circuit c = from_text(kTwoQubitHead + "gate H 0 \nmeasure 0 1\t\n");
    EXPECT_EQ(c.measured(), (std::vector<int>{0, 1}));
}

TEST(TextFormat, RejectsWidthAboveTheCap)
{
    static_assert(kMaxTextQubits >= 127,
                  "the cap must admit the widest built-in device");
    EXPECT_EQ(from_text("elv-circuit 1\nqubits 127\nmeasure 126\n")
                  .num_qubits(),
              127);
    EXPECT_THROW(
        from_text("elv-circuit 1\nqubits 2000000000\nmeasure 0\n"),
        UsageError);
    EXPECT_THROW(
        from_text("elv-circuit 1\nqubits 99999999999\nmeasure 0\n"),
        UsageError);
}

TEST(TextFormat, ParsingIsLinearInVariationalOps)
{
    // Appending a variational op used to re-index every op before it.
    constexpr int kOps = 200000;
    std::string text = "elv-circuit 1\nqubits 2\n";
    for (int i = 0; i < kOps; ++i)
        text += i % 3 ? "var RX 0\n" : "var U3 1\n";
    text += "measure 0\n";
    const auto start = std::chrono::steady_clock::now();
    const Circuit c = from_text(text);
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    EXPECT_LT(seconds, 5.0);
    ASSERT_EQ(c.ops().size(), static_cast<std::size_t>(kOps));
    int running = 0;
    std::size_t first_mismatch = c.ops().size();
    for (std::size_t i = 0; i < c.ops().size(); ++i) {
        if (c.ops()[i].param_index != running &&
            first_mismatch == c.ops().size())
            first_mismatch = i;
        running += c.ops()[i].num_params();
    }
    EXPECT_EQ(first_mismatch, c.ops().size());
    EXPECT_EQ(c.num_params(), running);
}

/** Candidate `index` of a mnist-10 search on ibm_guadalupe, as the
 *  journal's `cand` records store it. */
Circuit
mnist10_candidate(std::size_t index)
{
    core::RunSpec spec;
    spec.benchmark = "mnist-10";
    spec.device = "ibm_guadalupe";
    const core::ElivagarConfig config = core::search_config(
        spec, qml::benchmark_spec(spec.benchmark), 1, "");
    return core::generate_search_candidate(dev::make_device(spec.device),
                                           config, index);
}

TEST(TextFormat, SeededMutantsParseOrThrowUsageError)
{
    std::vector<std::string> donors = {"gate CX 0 0", "measure 0 0",
                                       "embed RX 0 feat -3", "gate RX 1",
                                       "qubits 2000000000"};
    for (std::size_t i = 0; i < 4; ++i)
        for (const std::string &line :
             test::split_lines(to_text(mnist10_candidate(i))))
            donors.push_back(line);
    const Circuit candidate = mnist10_candidate(0);
    const std::string text = to_text(candidate);
    const std::string line = to_text_line(candidate);

    std::mt19937_64 rng(9);
    int parsed = 0, refused = 0;
    constexpr int kBudget = 4000;
    for (int n = 0; n < kBudget; ++n) {
        const bool as_line = n % 2 == 1;
        const std::string mutant =
            test::mutate(as_line ? line : text, donors, rng);
        try {
            const Circuit back =
                as_line ? from_text_line(mutant) : from_text(mutant);
            const std::string canonical = to_text(back);
            EXPECT_EQ(to_text(from_text(canonical)), canonical) << mutant;
            ++parsed;
        } catch (const UsageError &) {
            ++refused;
        } catch (const std::exception &e) {
            ADD_FAILURE() << "mutant " << n << " threw " << e.what()
                          << ":\n" << mutant;
        }
    }
    EXPECT_GT(parsed, 0);
    EXPECT_GT(refused, 0);
}

TEST(Qasm, EmitsBoundAngles)
{
    Circuit c(2);
    c.add_embedding(GateKind::RX, {0}, 0);
    c.add_variational(GateKind::RY, {1});
    c.add_gate(GateKind::CX, {0, 1});
    c.set_measured({1});

    const std::string qasm = to_qasm(c, {1.5}, {0.25});
    EXPECT_NE(qasm.find("OPENQASM 2.0;"), std::string::npos);
    EXPECT_NE(qasm.find("qreg q[2];"), std::string::npos);
    EXPECT_NE(qasm.find("rx(0.25) q[0];"), std::string::npos);
    EXPECT_NE(qasm.find("ry(1.5) q[1];"), std::string::npos);
    EXPECT_NE(qasm.find("cx q[0],q[1];"), std::string::npos);
    EXPECT_NE(qasm.find("measure q[1] -> c[0];"), std::string::npos);
}

TEST(Qasm, RejectsAmplitudeEmbedding)
{
    Circuit c(2);
    c.add_amplitude_embedding();
    c.set_measured({0});
    EXPECT_THROW(to_qasm(c, {}, {1.0}), elv::UsageError);
}

TEST(Expressibility, EntanglingAnsatzBeatsTrivial)
{
    // A single-rotation ansatz covers almost none of state space; a
    // multi-layer entangling ansatz approaches the Haar distribution,
    // so its KL divergence must be clearly smaller.
    Circuit trivial(3);
    trivial.add_variational(GateKind::RZ, {0});
    trivial.set_measured({0});

    Circuit rich(3);
    for (int layer = 0; layer < 4; ++layer) {
        for (int q = 0; q < 3; ++q) {
            rich.add_variational(GateKind::RY, {q});
            rich.add_variational(GateKind::RZ, {q});
        }
        rich.add_gate(GateKind::CX, {0, 1});
        rich.add_gate(GateKind::CX, {1, 2});
    }
    rich.set_measured({0});

    Rng r1(7), r2(7);
    core::ExpressibilityOptions options;
    options.num_pairs = 128;
    const auto kl_trivial =
        core::expressibility(trivial, r1, options);
    const auto kl_rich = core::expressibility(rich, r2, options);
    EXPECT_GT(kl_trivial.kl_divergence, 2.0 * kl_rich.kl_divergence);
    EXPECT_EQ(kl_rich.circuit_executions, 256u);
}

TEST(Expressibility, DeterministicGivenSeed)
{
    Rng rng(9);
    const Circuit c = build_random_rxyz_cz(3, 2, 9, 1, rng);
    Rng r1(3), r2(3);
    EXPECT_DOUBLE_EQ(core::expressibility(c, r1).kl_divergence,
                     core::expressibility(c, r2).kl_divergence);
}

// --- Single-line form (journal format) -----------------------------------

TEST(SerializeLine, RoundTripsGeneratedCandidates)
{
    const dev::Device device = dev::make_device("ibm_guadalupe");
    core::CandidateConfig config;
    config.num_qubits = 4;
    config.num_params = 12;
    config.num_embeds = 4;
    config.num_meas = 2;
    config.num_features = 4;
    Rng rng(17);
    for (int trial = 0; trial < 10; ++trial) {
        const circ::Circuit c =
            core::generate_candidate(device, config, rng);
        const std::string line = circ::to_text_line(c);
        EXPECT_EQ(line.find('\n'), std::string::npos);
        const circ::Circuit back = circ::from_text_line(line);
        EXPECT_EQ(circ::to_text(back), circ::to_text(c));
    }
}

TEST(SerializeLine, RejectsCorruptEscapes)
{
    EXPECT_THROW(circ::from_text_line("elv-circuit 1\\"), UsageError);
    EXPECT_THROW(circ::from_text_line("elv-circuit 1\\x"), UsageError);
}

} // namespace
