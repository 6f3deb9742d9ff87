/**
 * @file
 * Gradient-based circuit training (Sec. 7.3 methodology: Adam,
 * cross-entropy on outcome-group class probabilities, mini-batches),
 * with the two gradient backends of the paper's cost analysis:
 *
 *  - Adjoint ("backpropagation on a classical simulator", Table 4 'C'):
 *    one execution per sample per step, independent of parameter count.
 *  - ParameterShift ("training on quantum hardware", Table 4 'Q'):
 *    1 + 2P executions per sample per step — the linear-in-parameters
 *    scaling that dominates SuperCircuit-based QCS cost.
 *
 * Every simulated circuit execution is tallied so the Table 4 speedups
 * are measured rather than estimated.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "qml/classifier.hpp"
#include "qml/dataset.hpp"

namespace elv::qml {

/** How gradients are computed. */
enum class GradientBackend { Adjoint, ParameterShift };

/** Training hyperparameters (paper defaults scaled by the caller). */
struct TrainConfig
{
    int epochs = 30;
    int batch_size = 32;
    double learning_rate = 0.01;
    GradientBackend backend = GradientBackend::Adjoint;
    std::uint64_t seed = 0;
    /** Cap on batches per epoch (0 = use every batch). */
    int max_batches_per_epoch = 0;
    /**
     * Worker threads for batched gradient evaluation: each sample of a
     * mini-batch is an independent pool task, and the loss/gradient
     * reduction runs serially in sample-index order afterwards, so the
     * result is bit-identical for every thread count. 1 (default) =
     * inline serial execution, <= 0 = all hardware threads. The
     * distribution-provider path always runs serially (providers may
     * carry shared mutable state, e.g. a shot-noise RNG stream).
     */
    int threads = 1;
    /**
     * Optional distribution provider the training loop differentiates
     * *through* with the parameter-shift rule — set it to a noisy
     * backend to train against device noise (the noise-injection
     * training of QuantumNAT/RoQNN, and how training on real hardware
     * works). Requires backend == ParameterShift; CRY gates are not
     * supported on this path (their 4-term rule is, but keeping the
     * provider interface simple is worth the restriction).
     */
    DistributionFn distribution;
    /**
     * Elide dead structure (lint/dataflow.hpp) before training: ops
     * outside the measurement lightcone are removed and their
     * now-unbound parameter slots dropped from the optimized vector —
     * they receive zero gradient signal, so optimizing them is pure
     * waste. The returned params are still sized to the ORIGINAL
     * circuit: dead slots hold their initialization draws, exactly
     * what element-wise Adam leaves them at when their gradient is
     * identically zero. Initial draws and the epoch shuffles consume
     * the same RNG stream either way (inits are drawn full-size, then
     * scattered into the reduced vector), so live-slot trajectories
     * and the loss history match the unpruned run. Fingerprinted.
     */
    bool prune_dead_structure = false;
};

/** Trained parameters plus bookkeeping. */
struct TrainResult
{
    std::vector<double> params;
    /** Mean training loss per epoch. */
    std::vector<double> loss_history;
    /** Circuit executions consumed (backend-dependent accounting). */
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
 * via the parameter-shift rule: steps * batch * (1 + 2 * params). Used
 * by the Table 4 'Q' speedup model for runs too large to simulate.
 */
std::uint64_t parameter_shift_execution_count(int num_params, int epochs,
                                              int batches_per_epoch,
                                              int batch_size);

/**
 * Parameter-shift execution count for `epochs` passes over a dataset
 * of `num_samples` (optionally capped at `max_batches` batches of
 * `batch_size` per epoch; 0 = no cap). The batched scheduler visits
 * every sample exactly once per epoch regardless of how batch
 * boundaries fall — a partial final batch contributes its true size —
 * and fanning samples across simulator threads never changes what a
 * quantum device would have to execute. The steps x batch_size
 * overload above over-counts whenever batch_size does not divide the
 * per-epoch sample count.
 */
std::uint64_t parameter_shift_execution_count_dataset(int num_params,
                                                      int epochs,
                                                      int num_samples,
                                                      int batch_size,
                                                      int max_batches = 0);

} // namespace elv::qml
