/**
 * @file
 * Lightcone-analysis cost -> BENCH_dataflow.json.
 *
 * Every `lint::preflight` runs the backward measurement-lightcone
 * fixpoint (the dead-lightcone and dead-parameter rules), so its cost
 * is paid at every pipeline boundary. This bench times one analysis
 * per circuit on an 8-qubit ring-device corpus whose dead fraction is
 * swept from 0% to ~60%. Timings are the best wall clock of a few
 * passes and are reported, never gated. `--small` shrinks the sweep
 * for smoke runs.
 */
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/table.hpp"
#include "harness.hpp"
#include "lint/dataflow.hpp"

namespace {

using namespace elv;

double
seconds_since(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/**
 * One corpus circuit on the oqc_lucy 8-qubit ring: a live block on
 * qubits 0-3 (measured {0,1}) plus `dead_layers` layers of provably
 * dead structure on qubits 4-7, which never couple back to the live
 * block (the ring edge 7-0 is deliberately unused).
 */
circ::Circuit
corpus_circuit(int dead_layers, int variant)
{
    circ::Circuit c(8);
    c.add_embedding(circ::GateKind::RY, {0}, 0);
    c.add_embedding(circ::GateKind::RY, {1}, 1);
    const circ::GateKind rotations[] = {circ::GateKind::RX,
                                        circ::GateKind::RY,
                                        circ::GateKind::RZ};
    for (int l = 0; l < 2 + variant % 2; ++l) {
        for (int q = 0; q < 4; ++q)
            c.add_variational(rotations[(l + q + variant) % 3], {q});
        for (int q = 0; q < 3; ++q)
            c.add_gate(circ::GateKind::CX, {q, q + 1});
    }
    for (int l = 0; l < dead_layers; ++l) {
        for (int q = 4; q < 8; ++q)
            c.add_variational(rotations[(l + q) % 3], {q});
        for (int q = 4; q < 7; ++q)
            c.add_gate(circ::GateKind::CX, {q, q + 1});
    }
    c.set_measured({0, 1});
    return c;
}

std::vector<circ::Circuit>
corpus(int dead_layers, int count)
{
    std::vector<circ::Circuit> circuits;
    for (int v = 0; v < count; ++v)
        circuits.push_back(corpus_circuit(dead_layers, v));
    return circuits;
}

/** Dead-op fraction of one corpus circuit, from the analysis itself. */
double
dead_fraction(const circ::Circuit &c)
{
    const lint::LightconeAnalysis analysis =
        lint::analyze_lightcone(lint::view_of(c));
    return static_cast<double>(analysis.dead_ops().size()) /
           static_cast<double>(c.ops().size());
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace elv;

    bool small = false;
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--small")
            small = true;

    // This bench exists to emit BENCH_dataflow.json; force --json on.
    std::vector<char *> args(argv, argv + argc);
    char force_json[] = "--json";
    args.push_back(force_json);
    bench::Reporter reporter("dataflow", static_cast<int>(args.size()),
                             args.data());
    reporter.set_seed(7);

    const int circuits = small ? 4 : 6;
    const int passes = small ? 2 : 3;
    const std::vector<int> dead_layer_sweep =
        small ? std::vector<int>{0, 2} : std::vector<int>{0, 1, 2, 4};

    // The analysis itself, as every preflight runs it.
    Table an("Lightcone analysis cost (backward fixpoint per circuit)");
    an.set_header({"dead layers", "ops", "dead frac", "analysis (us)"});
    for (const int layers : dead_layer_sweep) {
        const std::vector<circ::Circuit> cs = corpus(layers, circuits);
        const int reps = 2000;
        double best = 0.0;
        for (int pass = 0; pass < passes; ++pass) {
            const auto start = std::chrono::steady_clock::now();
            for (int r = 0; r < reps; ++r)
                for (const circ::Circuit &c : cs)
                    (void)lint::analyze_lightcone(lint::view_of(c));
            const double t = seconds_since(start) /
                             (reps * static_cast<double>(cs.size()));
            if (pass == 0 || t < best)
                best = t;
        }
        an.add_row({std::to_string(layers),
                    std::to_string(cs[0].ops().size()),
                    Table::fmt(dead_fraction(cs[0]), 2),
                    Table::fmt(1e6 * best, 2)});
    }
    reporter.add(an);

    return 0;
}
