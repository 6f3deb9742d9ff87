#include "compiler/sabre.hpp"

#include <algorithm>
#include <limits>

#include "common/logging.hpp"

namespace elv::comp {

using circ::Circuit;
using circ::GateKind;
using circ::Op;
using circ::ParamRole;

namespace {

/** Size cap of the lookahead extended set. */
constexpr int kExtendedSetSize = 20;
/** Weight of the extended set in the heuristic. */
constexpr double kExtendedSetWeight = 0.5;
/** Per-use decay added to a qubit's decay factor. */
constexpr double kDecayIncrement = 0.001;
/** Rounds between decay resets. */
constexpr int kDecayResetInterval = 5;

/** Per-qubit program order used to find ready ops cheaply. */
struct OpSchedule
{
    /** op_lists[q] = indices of ops touching qubit q, in order. */
    std::vector<std::vector<std::size_t>> op_lists;
    /** heads[q] = position of the next unexecuted op in op_lists[q]. */
    std::vector<std::size_t> heads;

    explicit OpSchedule(const Circuit &c)
        : op_lists(static_cast<std::size_t>(c.num_qubits())),
          heads(static_cast<std::size_t>(c.num_qubits()), 0)
    {
        const auto &ops = c.ops();
        for (std::size_t i = 0; i < ops.size(); ++i) {
            ELV_REQUIRE(ops[i].kind != GateKind::AmpEmbed,
                        "cannot route amplitude-embedding circuits");
            op_lists[static_cast<std::size_t>(ops[i].qubits[0])]
                .push_back(i);
            if (ops[i].num_qubits() == 2)
                op_lists[static_cast<std::size_t>(ops[i].qubits[1])]
                    .push_back(i);
        }
    }

    bool
    is_ready(const Op &op, std::size_t index) const
    {
        for (std::size_t k = 0;
             k < static_cast<std::size_t>(op.num_qubits()); ++k) {
            const auto &list =
                op_lists[static_cast<std::size_t>(op.qubits[k])];
            const std::size_t head =
                heads[static_cast<std::size_t>(op.qubits[k])];
            if (head >= list.size() || list[head] != index)
                return false;
        }
        return true;
    }

    void
    advance(const Op &op)
    {
        for (std::size_t k = 0;
             k < static_cast<std::size_t>(op.num_qubits()); ++k)
            ++heads[static_cast<std::size_t>(op.qubits[k])];
    }
};

/**
 * Copy one logical op into the physical circuit under `mapping`,
 * preserving its parameter slot (routing may reorder commuting gates, so
 * slots must stay aligned with the logical circuit's parameter vector).
 */
void
emit_mapped(Circuit &out, const Op &op, const std::vector<int> &mapping)
{
    out.append_op(op, mapping);
}

struct PassResult
{
    Circuit circuit;
    std::vector<int> final_mapping;
    int swaps = 0;
};

/**
 * One routing pass. When `emit` is false only the final mapping is
 * tracked (used by the reverse refinement passes).
 */
PassResult
route_pass(const Circuit &logical, const dev::Topology &topo,
           const std::vector<int> &distances,
           std::vector<int> initial_mapping, elv::Rng &rng)
{
    const std::size_t n_phys = static_cast<std::size_t>(topo.num_qubits());
    const auto dist = [&distances, n_phys](int a, int b) {
        return distances[static_cast<std::size_t>(a) * n_phys +
                         static_cast<std::size_t>(b)];
    };

    std::vector<int> mapping = std::move(initial_mapping);
    std::vector<int> inverse(n_phys, -1);
    for (std::size_t lq = 0; lq < mapping.size(); ++lq)
        inverse[static_cast<std::size_t>(mapping[lq])] =
            static_cast<int>(lq);

    PassResult result{Circuit(topo.num_qubits()), {}, 0};
    OpSchedule sched(logical);
    const auto &ops = logical.ops();
    std::vector<bool> done(ops.size(), false);
    std::size_t remaining = ops.size();
    std::vector<double> decay(n_phys, 1.0);
    int rounds_since_reset = 0;

    while (remaining > 0) {
        // Execute everything executable.
        bool progressed = true;
        while (progressed) {
            progressed = false;
            for (std::size_t i = 0; i < ops.size(); ++i) {
                if (done[i] || !sched.is_ready(ops[i], i))
                    continue;
                const Op &op = ops[i];
                const bool executable =
                    op.num_qubits() == 1 ||
                    dist(mapping[static_cast<std::size_t>(op.qubits[0])],
                         mapping[static_cast<std::size_t>(
                             op.qubits[1])]) == 1;
                if (!executable)
                    continue;
                emit_mapped(result.circuit, op, mapping);
                sched.advance(op);
                done[i] = true;
                --remaining;
                progressed = true;
            }
        }
        if (remaining == 0)
            break;

        // Front layer: ready but blocked 2-qubit ops.
        std::vector<std::size_t> front;
        for (std::size_t i = 0; i < ops.size(); ++i)
            if (!done[i] && sched.is_ready(ops[i], i))
                front.push_back(i);
        ELV_REQUIRE(!front.empty(), "router wedged with work remaining");

        // Extended set: the next 2-qubit ops in program order.
        std::vector<std::size_t> extended;
        for (std::size_t i = 0;
             i < ops.size() &&
             static_cast<int>(extended.size()) < kExtendedSetSize;
             ++i) {
            if (!done[i] && ops[i].num_qubits() == 2 &&
                std::find(front.begin(), front.end(), i) == front.end())
                extended.push_back(i);
        }

        // Candidate SWAPs: edges touching any front physical qubit.
        std::vector<std::pair<int, int>> candidates;
        for (std::size_t fi : front) {
            for (std::size_t k = 0; k < 2; ++k) {
                const int pq = mapping[static_cast<std::size_t>(
                    ops[fi].qubits[k])];
                for (int nb : topo.neighbors(pq))
                    candidates.emplace_back(std::min(pq, nb),
                                            std::max(pq, nb));
            }
        }
        std::sort(candidates.begin(), candidates.end());
        candidates.erase(
            std::unique(candidates.begin(), candidates.end()),
            candidates.end());
        ELV_REQUIRE(!candidates.empty(), "no candidate swaps");

        auto score_with = [&](const std::pair<int, int> &swap_edge) {
            // Build the trial mapping lazily via the two changed slots.
            auto mapped = [&](int lq) {
                int pq = mapping[static_cast<std::size_t>(lq)];
                if (pq == swap_edge.first)
                    return swap_edge.second;
                if (pq == swap_edge.second)
                    return swap_edge.first;
                return pq;
            };
            double front_cost = 0.0;
            for (std::size_t fi : front)
                front_cost += dist(mapped(ops[fi].qubits[0]),
                                   mapped(ops[fi].qubits[1]));
            front_cost /= static_cast<double>(front.size());
            double ext_cost = 0.0;
            if (!extended.empty()) {
                for (std::size_t ei : extended)
                    ext_cost += dist(mapped(ops[ei].qubits[0]),
                                     mapped(ops[ei].qubits[1]));
                ext_cost *= kExtendedSetWeight /
                            static_cast<double>(extended.size());
            }
            const double decay_factor = std::max(
                decay[static_cast<std::size_t>(swap_edge.first)],
                decay[static_cast<std::size_t>(swap_edge.second)]);
            return decay_factor * (front_cost + ext_cost);
        };

        double best = std::numeric_limits<double>::infinity();
        std::pair<int, int> best_edge = candidates.front();
        for (const auto &edge : candidates) {
            const double s = score_with(edge);
            if (s < best - 1e-12 ||
                (std::abs(s - best) <= 1e-12 && rng.bernoulli(0.5))) {
                best = s;
                best_edge = edge;
            }
        }

        // Apply the SWAP.
        result.circuit.add_gate(GateKind::SWAP,
                                {best_edge.first, best_edge.second});
        ++result.swaps;
        const int la = inverse[static_cast<std::size_t>(best_edge.first)];
        const int lb = inverse[static_cast<std::size_t>(best_edge.second)];
        if (la >= 0)
            mapping[static_cast<std::size_t>(la)] = best_edge.second;
        if (lb >= 0)
            mapping[static_cast<std::size_t>(lb)] = best_edge.first;
        std::swap(inverse[static_cast<std::size_t>(best_edge.first)],
                  inverse[static_cast<std::size_t>(best_edge.second)]);
        decay[static_cast<std::size_t>(best_edge.first)] +=
            kDecayIncrement;
        decay[static_cast<std::size_t>(best_edge.second)] +=
            kDecayIncrement;
        if (++rounds_since_reset >= kDecayResetInterval) {
            std::fill(decay.begin(), decay.end(), 1.0);
            rounds_since_reset = 0;
        }
    }

    result.final_mapping = std::move(mapping);
    return result;
}

/** Structurally reverse a circuit (routing cares only about operands). */
Circuit
reversed(const Circuit &c)
{
    Circuit out(c.num_qubits());
    const auto &ops = c.ops();
    for (std::size_t i = ops.size(); i-- > 0;) {
        const Op &op = ops[i];
        std::vector<int> qubits = {op.qubits[0]};
        if (op.num_qubits() == 2)
            qubits.push_back(op.qubits[1]);
        if (op.role == ParamRole::Variational)
            out.add_variational(op.kind, qubits);
        else if (op.role == ParamRole::Embedding)
            out.add_embedding(op.kind, qubits, op.data_index,
                              op.data_index2);
        else
            out.add_gate(op.kind, qubits);
    }
    return out;
}

} // namespace

RouteResult
sabre_route(const Circuit &logical, const dev::Topology &topology,
            elv::Rng &rng, const SabreOptions &options)
{
    ELV_REQUIRE(logical.num_qubits() <= topology.num_qubits(),
                "circuit needs more qubits than the device has");
    const auto distances = topology.all_pairs_distances();
    for (int d : distances)
        if (d < 0)
            elv::fatal("SABRE requires a connected device topology");

    const std::size_t n_logical =
        static_cast<std::size_t>(logical.num_qubits());
    const Circuit backward = reversed(logical);

    RouteResult best;
    best.swaps_inserted = std::numeric_limits<int>::max();

    const int trials = std::max(1, options.trials);
    for (int trial = 0; trial < trials; ++trial) {
        // Random injective initial mapping over a *connected* region:
        // scattering logical qubits across a large device would force
        // routing through long SWAP chains before refinement can help.
        std::vector<int> mapping(n_logical);
        auto region = dev::sample_connected_subgraph(
            topology, static_cast<int>(n_logical), rng);
        rng.shuffle(region);
        for (std::size_t i = 0; i < n_logical; ++i)
            mapping[i] = region[i];

        // Bidirectional refinement: each backward pass turns the final
        // mapping of the forward pass into a better initial mapping.
        for (int round = 0; round < options.refinement_rounds; ++round) {
            PassResult fwd =
                route_pass(logical, topology, distances, mapping, rng);
            PassResult bwd = route_pass(backward, topology, distances,
                                        fwd.final_mapping, rng);
            mapping = bwd.final_mapping;
        }

        PassResult final_pass =
            route_pass(logical, topology, distances, mapping, rng);
        if (final_pass.swaps < best.swaps_inserted) {
            best.circuit = final_pass.circuit;
            best.initial_mapping = mapping;
            best.final_mapping = final_pass.final_mapping;
            best.swaps_inserted = final_pass.swaps;
        }
    }

    // Relocate measurements through the final mapping.
    std::vector<int> measured;
    measured.reserve(logical.measured().size());
    for (int lq : logical.measured())
        measured.push_back(
            best.final_mapping[static_cast<std::size_t>(lq)]);
    best.circuit.set_measured(std::move(measured));
    return best;
}

} // namespace elv::comp
