/**
 * @file
 * SuperCircuit substrate shared by the QuantumNAS and QuantumSupernet
 * baselines (Sec. 2.3).
 *
 * A SuperCircuit is an over-parameterized layered circuit with a shared
 * parameter store: every possible gate slot (RX/RY/RZ per qubit per
 * layer, plus a CZ ring) owns one persistent parameter. A *configuration*
 * activates a subset of slots, yielding a subcircuit. Training samples a
 * random configuration per batch and updates the shared store, so any
 * subcircuit's performance can later be estimated with inherited
 * parameters — the classical weight-sharing NAS recipe the paper
 * identifies as the SuperCircuit bottleneck.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "qml/dataset.hpp"
#include "qml/trainer.hpp"

namespace elv::base {

/** Which gate slots of the SuperCircuit are active. */
struct SuperConfig
{
    /** One flag per rotation slot (layer-major, qubit-major, RX/RY/RZ). */
    std::vector<std::uint8_t> rotation_active;
    /** One flag per CZ-ring slot (layer-major, ring position). */
    std::vector<std::uint8_t> entangler_active;

    /** Number of active rotation slots (trainable parameters). */
    int active_params() const;
};

/** Layered RXYZ + CZ SuperCircuit with a fixed angle embedding. */
class SuperCircuit
{
  public:
    /**
     * @param num_qubits logical register size
     * @param num_layers rotation + entangler layers
     * @param num_features input dimensionality (angle-embedded prefix)
     * @param num_meas measured qubits
     * @param cry_embedding when true, the embedding prefix additionally
     *        uses layers of entangling CRY gates (the QuantumSupernet
     *        style embedding discussed in Sec. 9.2)
     */
    SuperCircuit(int num_qubits, int num_layers, int num_features,
                 int num_meas, bool cry_embedding = false);

    int num_qubits() const { return num_qubits_; }
    int num_layers() const { return num_layers_; }
    /** Total rotation slots (size of the shared parameter store). */
    int num_slots() const;

    /** Sample a configuration with approximately `target_params` active
     * rotations and a proportional number of entanglers. */
    SuperConfig random_config(int target_params, elv::Rng &rng) const;

    /** Mutate a configuration in place (flip a few slot bits while
     * keeping the active-parameter count). */
    void mutate_config(SuperConfig &config, elv::Rng &rng) const;

    /** Uniform crossover of two configurations (same active count kept
     * approximately by repair). */
    SuperConfig crossover(const SuperConfig &a, const SuperConfig &b,
                          int target_params, elv::Rng &rng) const;

    /**
     * Instantiate the subcircuit selected by `config`. Circuit parameter
     * slot i corresponds to shared-store slot `slot_map[i]`.
     */
    circ::Circuit instantiate(const SuperConfig &config,
                              std::vector<int> &slot_map) const;

    /** Gather the inherited parameters of a configuration. */
    std::vector<double> inherited_params(
        const SuperConfig &config,
        const std::vector<double> &shared) const;

  private:
    int num_qubits_;
    int num_layers_;
    int num_features_;
    int num_meas_;
    bool cry_embedding_;
};

/** SuperCircuit training output. */
struct SuperTrainResult
{
    /** Shared parameter store after training. */
    std::vector<double> shared_params;
    /** Circuit executions consumed: one per sample per epoch. */
    std::uint64_t circuit_executions = 0;
};

/**
 * Train the shared parameter store by sampling one random configuration
 * per mini-batch (weight-sharing training).
 */
SuperTrainResult train_supercircuit(const SuperCircuit &super,
                                    const qml::Dataset &data,
                                    int target_params,
                                    const qml::TrainConfig &config);

} // namespace elv::base
