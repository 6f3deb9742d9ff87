#include "baselines/quantumnas.hpp"

#include <algorithm>
#include <queue>

#include "common/logging.hpp"
#include "noise/noise_model.hpp"
#include "qml/classifier.hpp"

namespace elv::base {

using circ::Circuit;
using circ::GateKind;
using circ::Op;

circ::Circuit
route_with_fixed_mapping(const Circuit &logical,
                         const dev::Topology &topology,
                         const std::vector<int> &mapping)
{
    ELV_REQUIRE(static_cast<int>(mapping.size()) >= logical.num_qubits(),
                "mapping too short");
    // current[lq] = physical qubit currently holding logical qubit lq.
    std::vector<int> current(mapping.begin(),
                             mapping.begin() + logical.num_qubits());
    std::vector<int> holder(static_cast<std::size_t>(
                                topology.num_qubits()),
                            -1);
    for (std::size_t lq = 0; lq < current.size(); ++lq)
        holder[static_cast<std::size_t>(current[lq])] =
            static_cast<int>(lq);

    Circuit out(topology.num_qubits());

    auto shortest_path = [&topology](int from, int to) {
        std::vector<int> parent(
            static_cast<std::size_t>(topology.num_qubits()), -1);
        std::queue<int> frontier;
        frontier.push(from);
        parent[static_cast<std::size_t>(from)] = from;
        while (!frontier.empty()) {
            const int q = frontier.front();
            frontier.pop();
            if (q == to)
                break;
            for (int nb : topology.neighbors(q)) {
                if (parent[static_cast<std::size_t>(nb)] < 0) {
                    parent[static_cast<std::size_t>(nb)] = q;
                    frontier.push(nb);
                }
            }
        }
        std::vector<int> path;
        for (int q = to; q != from;
             q = parent[static_cast<std::size_t>(q)])
            path.push_back(q);
        path.push_back(from);
        std::reverse(path.begin(), path.end());
        return path;
    };

    auto apply_swap = [&](int pa, int pb) {
        out.add_gate(GateKind::SWAP, {pa, pb});
        const int la = holder[static_cast<std::size_t>(pa)];
        const int lb = holder[static_cast<std::size_t>(pb)];
        if (la >= 0)
            current[static_cast<std::size_t>(la)] = pb;
        if (lb >= 0)
            current[static_cast<std::size_t>(lb)] = pa;
        std::swap(holder[static_cast<std::size_t>(pa)],
                  holder[static_cast<std::size_t>(pb)]);
    };

    for (const Op &op : logical.ops()) {
        if (op.num_qubits() == 2) {
            int pa = current[static_cast<std::size_t>(op.qubits[0])];
            const int pb = current[static_cast<std::size_t>(op.qubits[1])];
            if (!topology.has_edge(pa, pb)) {
                // Walk qubit a along the shortest path until adjacent.
                const auto path = shortest_path(pa, pb);
                for (std::size_t step = 0; step + 2 < path.size(); ++step)
                    apply_swap(path[step], path[step + 1]);
                pa = current[static_cast<std::size_t>(op.qubits[0])];
                ELV_REQUIRE(topology.has_edge(pa, pb),
                            "SWAP chain failed to make operands adjacent");
            }
        }
        out.append_op(op, current);
    }

    std::vector<int> measured;
    for (int lq : logical.measured())
        measured.push_back(current[static_cast<std::size_t>(lq)]);
    out.set_measured(measured);
    return out;
}

namespace {

/** Genomes drawn per tournament selection. */
constexpr int kTournament = 3;
/**
 * Genomes whose routed circuit spreads over more physical qubits than
 * this get zero fitness without evaluation: long SWAP chains are
 * hardware-inefficient (the very pathology Table 5 measures), and
 * bounding the footprint also bounds the noisy-simulation cost of
 * fitness evaluation on large devices.
 */
constexpr int kMaxTouchedQubits = 10;

/** A genome: subcircuit configuration plus qubit mapping. */
struct Genome
{
    SuperConfig config;
    std::vector<int> mapping;
    double fitness = -1.0;
};

std::vector<int>
random_mapping(int logical, const dev::Topology &topology, elv::Rng &rng)
{
    // Place the register on a connected region (scattered placements on
    // large devices would need impractically long SWAP chains).
    auto region =
        dev::sample_connected_subgraph(topology, logical, rng);
    rng.shuffle(region);
    return region;
}

void
mutate_mapping(std::vector<int> &mapping, const dev::Topology &topology,
               elv::Rng &rng)
{
    if (rng.bernoulli(0.5) && mapping.size() >= 2) {
        // Swap two logical assignments.
        const std::size_t a = rng.uniform_index(mapping.size());
        const std::size_t b = rng.uniform_index(mapping.size());
        std::swap(mapping[a], mapping[b]);
    } else {
        // Move one logical qubit to an unused physical qubit adjacent
        // to the occupied region (keeps the placement local).
        std::vector<std::uint8_t> used(
            static_cast<std::size_t>(topology.num_qubits()), 0);
        for (int p : mapping)
            used[static_cast<std::size_t>(p)] = 1;
        std::vector<int> frontier;
        for (int p : mapping)
            for (int nb : topology.neighbors(p))
                if (!used[static_cast<std::size_t>(nb)])
                    frontier.push_back(nb);
        if (!frontier.empty())
            mapping[rng.uniform_index(mapping.size())] =
                frontier[rng.uniform_index(frontier.size())];
    }
}

} // namespace

QuantumNasResult
quantumnas_search(const SuperCircuit &super,
                  const std::vector<double> &shared_params,
                  const dev::Device &device, const qml::Dataset &valid,
                  const QuantumNasConfig &config)
{
    ELV_REQUIRE(config.population >= 2 && config.generations >= 1,
                "bad evolutionary settings");
    valid.check();
    elv::Rng rng(config.seed ^ 0x714e4153ULL);

    const noise::NoisyDensitySimulator noisy(device);
    QuantumNasResult result;

    // Fitness evaluation subset (fixed across the search for fairness).
    qml::Dataset subset = valid;
    {
        elv::Rng sub_rng(config.seed ^ 0xabcdULL);
        shuffle_dataset(subset, sub_rng);
        subset = qml::take(subset, static_cast<std::size_t>(
                                       config.valid_samples));
    }

    auto evaluate = [&](Genome &genome) {
        std::vector<int> slot_map;
        const Circuit logical = super.instantiate(genome.config, slot_map);
        const Circuit physical = route_with_fixed_mapping(
            logical, device.topology, genome.mapping);
        if (static_cast<int>(physical.touched_qubits().size()) >
            kMaxTouchedQubits) {
            genome.fitness = 0.0;
            return;
        }
        const auto params =
            super.inherited_params(genome.config, shared_params);
        const auto eval = qml::evaluate(
            physical, params, subset,
            [&noisy](const Circuit &c, const std::vector<double> &p,
                     const std::vector<double> &x) {
                return noisy.run_distribution(c, p, x);
            });
        result.search_executions += subset.size();
        genome.fitness = eval.accuracy;
    };

    // Initial population.
    std::vector<Genome> population;
    for (int i = 0; i < config.population; ++i) {
        Genome genome;
        genome.config = super.random_config(config.target_params, rng);
        genome.mapping = random_mapping(super.num_qubits(),
                                        device.topology, rng);
        evaluate(genome);
        population.push_back(std::move(genome));
    }

    auto tournament_pick = [&](void) -> const Genome & {
        const Genome *best = nullptr;
        for (int t = 0; t < kTournament; ++t) {
            const Genome &g =
                population[rng.uniform_index(population.size())];
            if (!best || g.fitness > best->fitness)
                best = &g;
        }
        return *best;
    };

    for (int gen = 0; gen < config.generations; ++gen) {
        std::vector<Genome> next;
        // Elitism: carry the best genome over unchanged.
        const auto best_it = std::max_element(
            population.begin(), population.end(),
            [](const Genome &a, const Genome &b) {
                return a.fitness < b.fitness;
            });
        next.push_back(*best_it);

        while (static_cast<int>(next.size()) < config.population) {
            const Genome &pa = tournament_pick();
            const Genome &pb = tournament_pick();
            Genome child;
            child.config = super.crossover(pa.config, pb.config,
                                           config.target_params, rng);
            child.mapping =
                rng.bernoulli(0.5) ? pa.mapping : pb.mapping;
            super.mutate_config(child.config, rng);
            mutate_mapping(child.mapping, device.topology, rng);
            evaluate(child);
            next.push_back(std::move(child));
        }
        population = std::move(next);
    }

    const auto best_it = std::max_element(
        population.begin(), population.end(),
        [](const Genome &a, const Genome &b) {
            return a.fitness < b.fitness;
        });
    result.best_config = best_it->config;
    result.best_mapping = best_it->mapping;
    result.best_fitness = best_it->fitness;
    std::vector<int> slot_map;
    const Circuit logical =
        super.instantiate(best_it->config, slot_map);
    result.best_physical = route_with_fixed_mapping(
        logical, device.topology, best_it->mapping);
    result.inherited_params =
        super.inherited_params(best_it->config, shared_params);
    return result;
}

} // namespace elv::base
