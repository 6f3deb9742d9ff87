/**
 * @file
 * Classification head shared by all methods: class logits are the
 * probability masses of outcome groups over the measured qubits (the
 * TorchQuantum convention), so every circuit with >= log2(classes)
 * measured qubits is a classifier with no extra parameters.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "circuit/circuit.hpp"
#include "qml/dataset.hpp"

namespace elv::qml {

/**
 * Distribution provider: returns the outcome distribution over the
 * circuit's measured qubits for one input sample. Lets the same
 * prediction code run against the noiseless state-vector backend, the
 * noisy density-matrix backend, or sampled hardware-style shots.
 */
using DistributionFn = std::function<std::vector<double>(
    const circ::Circuit &, const std::vector<double> &params,
    const std::vector<double> &x)>;

/**
 * Noiseless state-vector distribution provider. Compiles the circuit on
 * every call; the noiseless evaluate() below compiles once for all rows.
 */
DistributionFn statevector_distribution();

/**
 * Wrap a distribution provider with finite-shot sampling: each call
 * draws `shots` outcomes from the inner distribution and returns the
 * empirical histogram. This is how hardware estimates probabilities,
 * and it is what turns noise-shrunk class margins into accuracy loss
 * (stochastic Pauli noise alone preserves the argmax).
 */
DistributionFn with_shot_noise(DistributionFn inner, int shots,
                               std::uint64_t seed);

/** Class probabilities from an outcome distribution (sums to 1). */
std::vector<double> class_probabilities_from(
    const std::vector<double> &outcome_probs, int num_classes);

/** Class probabilities of a sample (noiseless). */
std::vector<double> class_probabilities(const circ::Circuit &circuit,
                                         const std::vector<double> &params,
                                         const std::vector<double> &x,
                                         int num_classes);

/** argmax class. */
int predict_class(const std::vector<double> &class_probs);

/** Cross-entropy -log p_label with clamping. */
double cross_entropy(const std::vector<double> &class_probs, int label);

/** Mean loss and accuracy of a circuit over a dataset. */
struct EvalResult
{
    double loss = 0.0;
    double accuracy = 0.0;
};

/** Evaluate with an arbitrary distribution provider. */
EvalResult evaluate(const circ::Circuit &circuit,
                    const std::vector<double> &params, const Dataset &data,
                    const DistributionFn &dist_fn);

/** Evaluate noiselessly (statevector_distribution()'s arithmetic). */
EvalResult evaluate(const circ::Circuit &circuit,
                    const std::vector<double> &params,
                    const Dataset &data);

} // namespace elv::qml
