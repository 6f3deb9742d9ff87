/**
 * @file
 * Dataflow-pruning benchmarks -> BENCH_dataflow.json.
 *
 * Measures what `prune_dead_structure` buys at candidate-evaluation
 * time, on an 8-qubit ring-device corpus whose dead fraction is swept
 * from 0% to ~60%:
 *
 *  - analysis cost: one backward lightcone fixpoint per circuit, in
 *    microseconds — the price paid per evaluation before any win;
 *  - CNR (density backend): replicas pruned post-construction, so the
 *    win is proportional to the dead-op fraction of the channel loop;
 *  - RepCap: the source circuit is pruned before compaction, so dead
 *    qubits drop out of the state vector entirely.
 *
 * The exit code reflects the *equivalence* checks alone (scores within
 * 1e-9 and identical candidate rankings with and without pruning — the
 * same invariant test_dataflow's gauntlet enforces). Timings are the
 * best wall clock of a few passes; speedups are reported, never gated.
 * `--small` shrinks the sweep for smoke runs.
 */
#include <chrono>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/cnr.hpp"
#include "core/repcap.hpp"
#include "device/device.hpp"
#include "harness.hpp"
#include "lint/dataflow.hpp"
#include "qml/dataset.hpp"

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

/** Dead-op fraction of one corpus circuit, from the analysis itself. */
double
dead_fraction(const circ::Circuit &c)
{
    const lint::LightconeAnalysis analysis =
        lint::analyze_lightcone(lint::view_of(c));
    return static_cast<double>(analysis.dead_ops().size()) /
           static_cast<double>(c.ops().size());
}

struct SweepTimes
{
    double unpruned_s = 0.0;
    double pruned_s = 0.0;
    double max_diff = 0.0;
    bool ranking_equal = true;
};

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

    bool ok = true;
    const int circuits = small ? 4 : 6;
    const int passes = small ? 2 : 3;
    const std::vector<int> dead_layer_sweep =
        small ? std::vector<int>{0, 2} : std::vector<int>{0, 1, 2, 4};

    // Part 0: the analysis itself — the per-evaluation overhead every
    // pruned call site pays before it saves anything.
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

    // Part 1: CNR on the density backend. Identically seeded fresh RNG
    // per candidate on both sides, so both evaluate the exact same
    // Clifford replicas (pruning acts on the replica after its
    // construction draws).
    const dev::Device device = dev::make_device("oqc_lucy");
    Table cnr("CNR density backend: unpruned vs prune_dead_structure");
    cnr.set_header({"dead layers", "dead frac", "unpruned (ms)",
                    "pruned (ms)", "speedup", "max |diff|",
                    "ranking equal"});
    for (const int layers : dead_layer_sweep) {
        const std::vector<circ::Circuit> cs = corpus(layers, circuits);
        core::CnrOptions plain;
        plain.num_replicas = small ? 2 : 4;
        core::CnrOptions pruning = plain;
        pruning.prune_dead_structure = true;

        SweepTimes t;
        std::vector<double> unpruned, pruned;
        for (int pass = 0; pass < passes; ++pass) {
            unpruned.clear();
            pruned.clear();
            auto start = std::chrono::steady_clock::now();
            for (std::size_t i = 0; i < cs.size(); ++i) {
                elv::Rng rng(1000 + i);
                unpruned.push_back(core::clifford_noise_resilience(
                                       cs[i], device, rng, plain)
                                       .cnr);
            }
            const double unpruned_t = seconds_since(start);

            start = std::chrono::steady_clock::now();
            for (std::size_t i = 0; i < cs.size(); ++i) {
                elv::Rng rng(1000 + i);
                pruned.push_back(core::clifford_noise_resilience(
                                     cs[i], device, rng, pruning)
                                     .cnr);
            }
            const double pruned_t = seconds_since(start);

            if (pass == 0 || unpruned_t < t.unpruned_s)
                t.unpruned_s = unpruned_t;
            if (pass == 0 || pruned_t < t.pruned_s)
                t.pruned_s = pruned_t;
        }
        for (std::size_t i = 0; i < unpruned.size(); ++i)
            t.max_diff = std::max(t.max_diff,
                                  std::abs(unpruned[i] - pruned[i]));
        t.ranking_equal = ranking(unpruned) == ranking(pruned);
        ok = ok && t.max_diff <= 1e-9 && t.ranking_equal;
        cnr.add_row({std::to_string(layers),
                     Table::fmt(dead_fraction(cs[0]), 2),
                     Table::fmt(1e3 * t.unpruned_s, 3),
                     Table::fmt(1e3 * t.pruned_s, 3),
                     Table::fmt(t.unpruned_s /
                                    std::max(1e-12, t.pruned_s),
                                2),
                     Table::fmt(t.max_diff, 12),
                     t.ranking_equal ? "yes" : "NO"});
    }
    reporter.add(cnr);

    // Part 2: RepCap. Pruning runs before compaction here, so at high
    // dead fractions the dead qubits leave the register entirely and
    // the state vector shrinks.
    qml::Dataset data;
    data.num_classes = 2;
    {
        elv::Rng drng(7);
        for (int i = 0; i < 12; ++i) {
            const int label = i % 2;
            data.samples.push_back(
                {drng.uniform(0.0, 1.0) + label,
                 drng.uniform(0.0, 1.0)});
            data.labels.push_back(label);
        }
    }
    Table rc("RepCap: unpruned vs prune_dead_structure");
    rc.set_header({"dead layers", "dead frac", "unpruned (ms)",
                   "pruned (ms)", "speedup", "max |diff|",
                   "ranking equal"});
    for (const int layers : dead_layer_sweep) {
        const std::vector<circ::Circuit> cs = corpus(layers, circuits);
        core::RepCapOptions plain;
        plain.samples_per_class = small ? 3 : 4;
        plain.param_inits = small ? 3 : 6;
        plain.num_bases = 2;
        core::RepCapOptions pruning = plain;
        pruning.prune_dead_structure = true;

        SweepTimes t;
        std::vector<double> unpruned, pruned;
        for (int pass = 0; pass < passes; ++pass) {
            unpruned.clear();
            pruned.clear();
            auto start = std::chrono::steady_clock::now();
            for (std::size_t i = 0; i < cs.size(); ++i) {
                elv::Rng rng(2000 + i);
                unpruned.push_back(core::representational_capacity(
                                       cs[i], data, rng, plain)
                                       .repcap);
            }
            const double unpruned_t = seconds_since(start);

            start = std::chrono::steady_clock::now();
            for (std::size_t i = 0; i < cs.size(); ++i) {
                elv::Rng rng(2000 + i);
                pruned.push_back(core::representational_capacity(
                                     cs[i], data, rng, pruning)
                                     .repcap);
            }
            const double pruned_t = seconds_since(start);

            if (pass == 0 || unpruned_t < t.unpruned_s)
                t.unpruned_s = unpruned_t;
            if (pass == 0 || pruned_t < t.pruned_s)
                t.pruned_s = pruned_t;
        }
        for (std::size_t i = 0; i < unpruned.size(); ++i)
            t.max_diff = std::max(t.max_diff,
                                  std::abs(unpruned[i] - pruned[i]));
        t.ranking_equal = ranking(unpruned) == ranking(pruned);
        ok = ok && t.max_diff <= 1e-9 && t.ranking_equal;
        rc.add_row({std::to_string(layers),
                    Table::fmt(dead_fraction(cs[0]), 2),
                    Table::fmt(1e3 * t.unpruned_s, 3),
                    Table::fmt(1e3 * t.pruned_s, 3),
                    Table::fmt(t.unpruned_s /
                                   std::max(1e-12, t.pruned_s),
                               2),
                    Table::fmt(t.max_diff, 12),
                    t.ranking_equal ? "yes" : "NO"});
    }
    reporter.add(rc);

    std::printf("pruned-vs-unpruned equivalence: %s\n",
                ok ? "ok" : "FAILED");
    return ok ? 0 : 1;
}
