/**
 * @file
 * Gradient-based circuit training (Sec. 7.3 methodology: Adam,
 * cross-entropy on outcome-group class probabilities, mini-batches)
 * with adjoint differentiation ("backpropagation on a classical
 * simulator", Table 4 'C'): one execution per sample per step,
 * independent of parameter count. Hardware training (Table 4 'Q') is
 * modelled in closed form by parameter_shift_execution_count_dataset.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "qml/classifier.hpp"
#include "qml/dataset.hpp"

namespace elv::qml {

/** Training hyperparameters (paper defaults scaled by the caller). */
struct TrainConfig
{
    int epochs = 30;
    int batch_size = 32;
    std::uint64_t seed = 0;
    /**
     * Worker threads for batched gradient evaluation: each sample of a
     * mini-batch is an independent pool task, and the loss/gradient
     * reduction runs serially in sample-index order afterwards, so the
     * result is bit-identical for every thread count. 1 (default) =
     * inline serial execution, <= 0 = all hardware threads.
     */
    int threads = 1;
};

/** Trained parameters plus bookkeeping. */
struct TrainResult
{
    std::vector<double> params;
    /** Mean training loss per epoch. */
    std::vector<double> loss_history;
    /** Circuit executions consumed: one per sample per epoch. */
    std::uint64_t circuit_executions = 0;
};

/**
 * Train the variational parameters of `circuit` on `data`. The circuit
 * must measure enough qubits for data.num_classes outcome groups.
 */
TrainResult train_circuit(const circ::Circuit &circuit,
                          const Dataset &data, const TrainConfig &config);

/**
 * Closed-form circuit-execution count for training on quantum hardware
 * via the parameter-shift rule: `epochs` passes over a dataset of
 * `num_samples`, at (1 + 2 * params) executions per sample. Used by the
 * Table 4 'Q' speedup model. Every sample is visited exactly once per
 * epoch however the batch boundaries fall, so the batch size does not
 * enter the count.
 */
std::uint64_t parameter_shift_execution_count_dataset(int num_params,
                                                      int epochs,
                                                      int num_samples);

} // namespace elv::qml
