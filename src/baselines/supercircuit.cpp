#include "baselines/supercircuit.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.hpp"
#include "qml/optimizer.hpp"
#include "sim/gradients.hpp"
#include "sim/observable.hpp"

namespace elv::base {

using circ::Circuit;
using circ::GateKind;

int
SuperConfig::active_params() const
{
    int n = 0;
    for (std::uint8_t f : rotation_active)
        n += f;
    return n;
}

SuperCircuit::SuperCircuit(int num_qubits, int num_layers,
                           int num_features, int num_meas,
                           bool cry_embedding)
    : num_qubits_(num_qubits), num_layers_(num_layers),
      num_features_(num_features), num_meas_(num_meas),
      cry_embedding_(cry_embedding)
{
    ELV_REQUIRE(num_qubits >= 2 && num_layers >= 1, "bad SuperCircuit");
    ELV_REQUIRE(num_meas >= 1 && num_meas <= num_qubits,
                "bad measurement count");
}

int
SuperCircuit::num_slots() const
{
    return num_layers_ * num_qubits_ * 3;
}

SuperConfig
SuperCircuit::random_config(int target_params, elv::Rng &rng) const
{
    ELV_REQUIRE(target_params >= 1 && target_params <= num_slots(),
                "bad target parameter count");
    SuperConfig config;
    config.rotation_active.assign(
        static_cast<std::size_t>(num_slots()), 0);
    for (std::size_t slot : rng.choose(
             static_cast<std::size_t>(num_slots()),
             static_cast<std::size_t>(target_params)))
        config.rotation_active[slot] = 1;

    const int ent_slots = num_layers_ * num_qubits_;
    const int ent_target =
        std::min(ent_slots, std::max(1, target_params / 2));
    config.entangler_active.assign(static_cast<std::size_t>(ent_slots),
                                   0);
    for (std::size_t slot :
         rng.choose(static_cast<std::size_t>(ent_slots),
                    static_cast<std::size_t>(ent_target)))
        config.entangler_active[slot] = 1;
    return config;
}

void
SuperCircuit::mutate_config(SuperConfig &config, elv::Rng &rng) const
{
    // Move a uniformly chosen active rotation to an inactive slot, and
    // similarly shuffle one entangler, keeping the budgets constant.
    auto move_bit = [&rng](std::vector<std::uint8_t> &bits) {
        std::vector<std::size_t> on, off;
        for (std::size_t i = 0; i < bits.size(); ++i)
            (bits[i] ? on : off).push_back(i);
        if (on.empty() || off.empty())
            return;
        bits[on[rng.uniform_index(on.size())]] = 0;
        bits[off[rng.uniform_index(off.size())]] = 1;
    };
    move_bit(config.rotation_active);
    if (rng.bernoulli(0.5))
        move_bit(config.entangler_active);
}

SuperConfig
SuperCircuit::crossover(const SuperConfig &a, const SuperConfig &b,
                        int target_params, elv::Rng &rng) const
{
    SuperConfig child;
    child.rotation_active.resize(a.rotation_active.size());
    child.entangler_active.resize(a.entangler_active.size());
    for (std::size_t i = 0; i < child.rotation_active.size(); ++i)
        child.rotation_active[i] = rng.bernoulli(0.5)
                                       ? a.rotation_active[i]
                                       : b.rotation_active[i];
    for (std::size_t i = 0; i < child.entangler_active.size(); ++i)
        child.entangler_active[i] = rng.bernoulli(0.5)
                                        ? a.entangler_active[i]
                                        : b.entangler_active[i];

    // Repair the rotation budget to exactly target_params.
    auto repair = [&rng](std::vector<std::uint8_t> &bits, int target) {
        std::vector<std::size_t> on, off;
        for (std::size_t i = 0; i < bits.size(); ++i)
            (bits[i] ? on : off).push_back(i);
        while (static_cast<int>(on.size()) > target) {
            const std::size_t pick = rng.uniform_index(on.size());
            bits[on[pick]] = 0;
            on.erase(on.begin() + static_cast<std::ptrdiff_t>(pick));
        }
        while (static_cast<int>(on.size()) < target && !off.empty()) {
            const std::size_t pick = rng.uniform_index(off.size());
            bits[off[pick]] = 1;
            on.push_back(off[pick]);
            off.erase(off.begin() + static_cast<std::ptrdiff_t>(pick));
        }
    };
    repair(child.rotation_active, target_params);
    const int ent_target = std::min(
        static_cast<int>(child.entangler_active.size()),
        std::max(1, target_params / 2));
    repair(child.entangler_active, ent_target);
    return child;
}

Circuit
SuperCircuit::instantiate(const SuperConfig &config,
                          std::vector<int> &slot_map) const
{
    ELV_REQUIRE(config.rotation_active.size() ==
                        static_cast<std::size_t>(num_slots()) &&
                    config.entangler_active.size() ==
                        static_cast<std::size_t>(num_layers_ *
                                                 num_qubits_),
                "configuration shape mismatch");
    slot_map.clear();
    Circuit c(num_qubits_);

    // Fixed data embedding prefix.
    for (int f = 0; f < num_features_; ++f)
        c.add_embedding(GateKind::RX, {f % num_qubits_}, f);
    if (cry_embedding_) {
        // QuantumSupernet-style deep embedding: chains of entangling
        // CRY gates carrying the features again.
        for (int rep = 0; rep < 2; ++rep)
            for (int q = 0; q + 1 < num_qubits_; ++q)
                c.add_embedding(GateKind::CRY, {q, q + 1},
                                (q + rep) % num_features_);
    }

    const GateKind rotations[3] = {GateKind::RX, GateKind::RY,
                                   GateKind::RZ};
    for (int layer = 0; layer < num_layers_; ++layer) {
        for (int q = 0; q < num_qubits_; ++q) {
            for (int r = 0; r < 3; ++r) {
                const int slot = (layer * num_qubits_ + q) * 3 + r;
                if (!config.rotation_active[static_cast<std::size_t>(
                        slot)])
                    continue;
                c.add_variational(rotations[r], {q});
                slot_map.push_back(slot);
            }
        }
        for (int q = 0; q < num_qubits_; ++q) {
            const int slot = layer * num_qubits_ + q;
            if (!config.entangler_active[static_cast<std::size_t>(slot)])
                continue;
            c.add_gate(GateKind::CZ, {q, (q + 1) % num_qubits_});
        }
    }

    std::vector<int> meas(static_cast<std::size_t>(num_meas_));
    for (int m = 0; m < num_meas_; ++m)
        meas[static_cast<std::size_t>(m)] = m;
    c.set_measured(meas);
    return c;
}

std::vector<double>
SuperCircuit::inherited_params(const SuperConfig &config,
                               const std::vector<double> &shared) const
{
    ELV_REQUIRE(shared.size() == static_cast<std::size_t>(num_slots()),
                "shared store size mismatch");
    std::vector<int> slot_map;
    instantiate(config, slot_map);
    std::vector<double> params;
    params.reserve(slot_map.size());
    for (int slot : slot_map)
        params.push_back(shared[static_cast<std::size_t>(slot)]);
    return params;
}

SuperTrainResult
train_supercircuit(const SuperCircuit &super, const qml::Dataset &data,
                   int target_params, const qml::TrainConfig &config)
{
    data.check();
    elv::Rng rng(config.seed ^ 0x5570657243ULL);

    SuperTrainResult result;
    result.shared_params.resize(
        static_cast<std::size_t>(super.num_slots()));
    for (auto &p : result.shared_params)
        p = rng.uniform(-M_PI, M_PI);

    qml::Adam optimizer(result.shared_params.size(),
                        config.learning_rate);

    std::vector<std::size_t> order(data.samples.size());
    std::iota(order.begin(), order.end(), std::size_t{0});

    for (int epoch = 0; epoch < config.epochs; ++epoch) {
        rng.shuffle(order);
        std::size_t cursor = 0;
        while (cursor < order.size()) {
            const std::size_t batch_end =
                std::min(order.size(),
                         cursor +
                             static_cast<std::size_t>(config.batch_size));

            // Weight sharing: one random subcircuit per batch.
            const SuperConfig sub =
                super.random_config(target_params, rng);
            std::vector<int> slot_map;
            const Circuit circuit = super.instantiate(sub, slot_map);
            const sim::FusedProgram program =
                sim::FusedProgram::compile(circuit);
            std::vector<double> params(slot_map.size());
            for (std::size_t i = 0; i < slot_map.size(); ++i)
                params[i] = result.shared_params[static_cast<std::size_t>(
                    slot_map[i])];

            const auto projectors = sim::class_projectors(
                circuit.measured(), data.num_classes);
            std::vector<double> shared_grad(result.shared_params.size(),
                                            0.0);
            std::vector<std::uint8_t> active_mask(
                result.shared_params.size(), 0);
            for (int slot : slot_map)
                active_mask[static_cast<std::size_t>(slot)] = 1;

            for (std::size_t bi = cursor; bi < batch_end; ++bi) {
                const std::size_t idx = order[bi];
                const std::vector<sim::DiagonalObservable> obs = {
                    projectors[static_cast<std::size_t>(
                        data.labels[idx])]};
                sim::GradientResult g;
                if (config.backend == qml::GradientBackend::Adjoint)
                    g = sim::adjoint_gradient(program, params,
                                              data.samples[idx], obs);
                else
                    g = sim::parameter_shift_gradient(
                        program, params, data.samples[idx], obs);
                result.circuit_executions += g.circuit_executions;

                const double p_y = std::max(g.values[0], 1e-10);
                const double coeff =
                    -1.0 /
                    (p_y * static_cast<double>(batch_end - cursor));
                for (std::size_t pi = 0; pi < params.size(); ++pi)
                    shared_grad[static_cast<std::size_t>(slot_map[pi])] +=
                        coeff * g.jacobian[0][pi];
            }

            optimizer.step_masked(result.shared_params, shared_grad,
                                  active_mask);
            cursor = batch_end;
        }
    }
    return result;
}

} // namespace elv::base
