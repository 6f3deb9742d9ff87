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
 *
 * Contract with evaluate(): each row gets exactly one call, and calls
 * may run concurrently, on any thread and in no fixed order. A provider
 * must therefore be thread-safe, and its result for a row must not
 * depend on which calls came before it. statevector_distribution() and
 * noise::NoisyDensitySimulator::run_distribution meet it, and so does
 * with_shot_noise() over a provider that does.
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
 * (stochastic Pauli noise alone preserves the argmax). Each call seeds
 * its own stream from `seed` and the bits of `params` and `x`, so a
 * histogram is a function of the call's inputs, whatever ran before.
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

/**
 * Evaluate with an arbitrary distribution provider. The rows run on a
 * par::ThreadPool of `threads` workers (<= 0 = one per CPU in the
 * affinity mask; never more than one per row), each writing its class
 * probabilities to its own slot; loss and accuracy are then reduced
 * serially in row order, so the result is bit-identical at every
 * thread count.
 */
EvalResult evaluate(const circ::Circuit &circuit,
                    const std::vector<double> &params, const Dataset &data,
                    const DistributionFn &dist_fn, int threads = 0);

/** Evaluate noiselessly (statevector_distribution()'s arithmetic). */
EvalResult evaluate(const circ::Circuit &circuit,
                    const std::vector<double> &params,
                    const Dataset &data, int threads = 0);

} // namespace elv::qml
