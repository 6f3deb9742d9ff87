#include "core/candidate_gen.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "circuit/builders.hpp"
#include "common/logging.hpp"
#include "lint/preflight.hpp"

namespace elv::core {

using circ::Circuit;
using circ::GateKind;

namespace {

/** Edges of the device topology internal to a qubit subset. */
std::vector<std::pair<int, int>>
internal_edges(const dev::Device &device, const std::vector<int> &qubits)
{
    std::set<int> members(qubits.begin(), qubits.end());
    std::vector<std::pair<int, int>> edges;
    for (const auto &[a, b] : device.topology.edges())
        if (members.count(a) && members.count(b))
            edges.emplace_back(a, b);
    return edges;
}

/** Noise quality of a subgraph: higher is better (line 2 weights). */
double
subgraph_quality(const dev::Device &device, const std::vector<int> &qubits)
{
    const double t1_max =
        *std::max_element(device.t1_us.begin(), device.t1_us.end());
    double qubit_term = 0.0;
    for (int q : qubits) {
        const std::size_t idx = static_cast<std::size_t>(q);
        qubit_term += (1.0 - device.readout_error[idx]) *
                      (device.t1_us[idx] / t1_max);
    }
    qubit_term /= static_cast<double>(qubits.size());

    const auto edges = internal_edges(device, qubits);
    double edge_term = 1.0;
    if (!edges.empty()) {
        edge_term = 0.0;
        for (const auto &[a, b] : edges)
            edge_term += 1.0 - device.edge_error(a, b);
        edge_term /= static_cast<double>(edges.size());
    }
    return qubit_term * edge_term;
}

/** Per-qubit coherence weight for 1-qubit gate placement (line 7). */
double
qubit_weight(const dev::Device &device, int q, int existing_gates,
             bool noise_aware)
{
    if (!noise_aware)
        return 1.0;
    const std::size_t idx = static_cast<std::size_t>(q);
    const double coherence =
        device.t1_us[idx] * device.t2_us[idx] /
        (device.t1_us[idx] * device.t2_us[idx] + 1.0);
    // Mild spreading pressure: qubits already loaded with gates get a
    // lower weight so depth stays balanced across the subgraph.
    return (0.2 + coherence) /
           std::sqrt(1.0 + static_cast<double>(existing_gates));
}

/** Per-edge weight for 2-qubit gate placement (line 10). */
double
edge_weight(const dev::Device &device, const std::pair<int, int> &edge,
            int existing_gates, bool noise_aware)
{
    if (!noise_aware)
        return 1.0;
    const double fidelity =
        1.0 - device.edge_error(edge.first, edge.second);
    return std::pow(fidelity, 4.0) /
           std::sqrt(1.0 + static_cast<double>(existing_gates));
}

} // namespace

Circuit
generate_candidate(const dev::Device &device, const CandidateConfig &config,
                   elv::Rng &rng)
{
    ELV_REQUIRE(config.num_qubits >= 1 &&
                    config.num_qubits <= device.num_qubits(),
                "bad candidate qubit count");
    ELV_REQUIRE(config.num_meas >= 1 &&
                    config.num_meas <= config.num_qubits,
                "bad measurement count");

    // Line 1-2: sample a pool of connected subgraphs, pick one from the
    // noise-quality distribution.
    std::vector<std::vector<int>> pool;
    std::vector<double> weights;
    for (int s = 0; s < kSubgraphPool; ++s) {
        auto sub = dev::sample_connected_subgraph(device.topology,
                                                  config.num_qubits, rng);
        const double quality =
            config.noise_aware ? subgraph_quality(device, sub) : 1.0;
        pool.push_back(std::move(sub));
        // Sharpen the distribution so good subgraphs dominate without
        // collapsing to argmax.
        weights.push_back(std::pow(quality, 4.0));
    }
    const std::vector<int> subgraph = pool[rng.categorical(weights)];
    const auto edges = internal_edges(device, subgraph);

    // Line 3-4: build the op list. Circuits use physical qubit labels.
    Circuit c(device.num_qubits());

    // Optional fixed-embedding prefix (Fig. 10 ablations) on the
    // subgraph qubits.
    std::vector<int> fixed_embed_features;
    if (config.embedding != EmbeddingMode::Searched) {
        // Build the prefix on a logical register, then relocate it onto
        // the subgraph.
        Circuit prefix(config.num_qubits);
        if (config.embedding == EmbeddingMode::FixedAngle)
            circ::append_angle_embedding(prefix, config.num_features);
        else
            circ::append_iqp_embedding(prefix, config.num_features);
        std::vector<int> mapping(subgraph.begin(), subgraph.end());
        // IQP uses nearest-neighbour CX; those pairs may not be coupled
        // on the subgraph, so route chain gates along subgraph order —
        // subgraph qubits are connected but not necessarily a path. To
        // stay hardware-native we relocate 2-qubit prefix gates onto
        // actual internal edges round-robin.
        std::size_t edge_cursor = 0;
        for (const circ::Op &op : prefix.ops()) {
            circ::Op copy = op;
            if (op.num_qubits() == 2) {
                ELV_REQUIRE(!edges.empty(),
                            "IQP embedding needs a 2-qubit coupler");
                const auto &e = edges[edge_cursor % edges.size()];
                ++edge_cursor;
                copy.qubits[0] = e.first;
                copy.qubits[1] = e.second;
                c.append_op(copy);
            } else {
                copy.qubits[0] =
                    mapping[static_cast<std::size_t>(op.qubits[0])];
                c.append_op(copy);
            }
        }
    }

    // Sample the variational gate list.
    std::vector<int> gates_on_qubit(
        static_cast<std::size_t>(device.num_qubits()), 0);
    std::vector<int> gates_on_edge(edges.size(), 0);
    const GateKind rotations[3] = {GateKind::RX, GateKind::RY,
                                   GateKind::RZ};
    const int rotation_budget =
        config.num_params +
        (config.embedding == EmbeddingMode::Searched ? config.num_embeds
                                                     : 0);
    int placed_rotations = 0;
    std::vector<std::size_t> rotation_op_indices;
    while (placed_rotations < rotation_budget) {
        const bool place_2q =
            !edges.empty() && rng.uniform() < 0.35;
        if (place_2q) {
            std::vector<double> ew(edges.size());
            for (std::size_t e = 0; e < edges.size(); ++e)
                ew[e] = edge_weight(device, edges[e],
                                    gates_on_edge[e],
                                    config.noise_aware);
            const std::size_t pick = rng.categorical(ew);
            const GateKind kind =
                rng.bernoulli(0.5) ? GateKind::CX : GateKind::CZ;
            c.add_gate(kind, {edges[pick].first, edges[pick].second});
            ++gates_on_edge[pick];
            ++gates_on_qubit[static_cast<std::size_t>(
                edges[pick].first)];
            ++gates_on_qubit[static_cast<std::size_t>(
                edges[pick].second)];
        } else {
            std::vector<double> qw(subgraph.size());
            for (std::size_t i = 0; i < subgraph.size(); ++i)
                qw[i] = qubit_weight(
                    device, subgraph[i],
                    gates_on_qubit[static_cast<std::size_t>(subgraph[i])],
                    config.noise_aware);
            const int q = subgraph[rng.categorical(qw)];
            const GateKind kind = rotations[rng.uniform_index(3)];
            rotation_op_indices.push_back(
                c.add_variational(kind, {q}));
            ++gates_on_qubit[static_cast<std::size_t>(q)];
            ++placed_rotations;
        }
    }

    // Line 12-13: measurement qubits weighted by readout fidelity.
    {
        std::vector<int> remaining = subgraph;
        std::vector<int> measured;
        for (int m = 0; m < config.num_meas; ++m) {
            std::vector<double> mw(remaining.size());
            for (std::size_t i = 0; i < remaining.size(); ++i)
                mw[i] = config.noise_aware
                            ? 1.0 - device.readout_error
                                        [static_cast<std::size_t>(
                                            remaining[i])]
                            : 1.0;
            const std::size_t pick = rng.categorical(mw);
            measured.push_back(remaining[pick]);
            remaining.erase(remaining.begin() +
                            static_cast<std::ptrdiff_t>(pick));
        }
        std::sort(measured.begin(), measured.end());
        c.set_measured(measured);
    }

    // Line 14: designate random rotation gates as data embeddings.
    if (config.embedding == EmbeddingMode::Searched) {
        ELV_REQUIRE(config.num_embeds <=
                        static_cast<int>(rotation_op_indices.size()),
                    "more embeddings than rotation gates");
        rng.shuffle(rotation_op_indices);
        // Deal features cyclically from a shuffled deck so that every
        // feature appears when num_embeds >= num_features, while the
        // gate/feature pairing stays random.
        std::vector<int> features(
            static_cast<std::size_t>(config.num_features));
        for (int f = 0; f < config.num_features; ++f)
            features[static_cast<std::size_t>(f)] = f;
        rng.shuffle(features);
        for (int e = 0; e < config.num_embeds; ++e) {
            const int feature = features[static_cast<std::size_t>(
                e % config.num_features)];
            c.designate_embedding(rotation_op_indices
                                      [static_cast<std::size_t>(e)],
                                  feature);
        }
    }

    ELV_REQUIRE(c.num_params() == config.num_params,
                "parameter budget mismatch");

    // Pre-flight: a generated candidate is device-native by
    // construction; a lint violation here is a generator bug, not a
    // property of the sampled circuit.
    lint::LintOptions lint_options;
    lint_options.device = &device;
    lint::preflight(c, lint::Boundary::CandidateGen, lint_options);
    return c;
}

Circuit
generate_device_unaware(const CandidateConfig &config, elv::Rng &rng)
{
    // Same rotation/entangler budget as generate_candidate, but qubit
    // pairs are chosen uniformly over a fully-connected register.
    Circuit c(config.num_qubits);
    const GateKind rotations[3] = {GateKind::RX, GateKind::RY,
                                   GateKind::RZ};
    const int rotation_budget = config.num_params + config.num_embeds;
    int placed = 0;
    std::vector<std::size_t> rotation_op_indices;
    while (placed < rotation_budget) {
        if (config.num_qubits >= 2 && rng.uniform() < 0.35) {
            const int a = static_cast<int>(rng.uniform_index(
                static_cast<std::size_t>(config.num_qubits)));
            int b = static_cast<int>(rng.uniform_index(
                static_cast<std::size_t>(config.num_qubits - 1)));
            if (b >= a)
                ++b;
            c.add_gate(rng.bernoulli(0.5) ? GateKind::CX : GateKind::CZ,
                       {a, b});
        } else {
            const int q = static_cast<int>(rng.uniform_index(
                static_cast<std::size_t>(config.num_qubits)));
            rotation_op_indices.push_back(c.add_variational(
                rotations[rng.uniform_index(3)], {q}));
            ++placed;
        }
    }
    std::vector<int> meas(static_cast<std::size_t>(config.num_meas));
    for (int m = 0; m < config.num_meas; ++m)
        meas[static_cast<std::size_t>(m)] = m;
    c.set_measured(meas);

    rng.shuffle(rotation_op_indices);
    std::vector<int> features(
        static_cast<std::size_t>(config.num_features));
    for (int f = 0; f < config.num_features; ++f)
        features[static_cast<std::size_t>(f)] = f;
    rng.shuffle(features);
    for (int e = 0; e < config.num_embeds; ++e)
        c.designate_embedding(
            rotation_op_indices[static_cast<std::size_t>(e)],
            features[static_cast<std::size_t>(e % config.num_features)]);
    // Device-unaware circuits assume full connectivity: structural
    // lint only (they are SABRE-routed before touching a device).
    lint::preflight(c, lint::Boundary::CandidateGen);
    return c;
}

} // namespace elv::core
