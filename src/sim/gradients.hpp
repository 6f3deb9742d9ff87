/**
 * @file
 * Gradients of observable expectations with respect to variational
 * parameters by adjoint differentiation: the "backpropagation on
 * classical simulators" regime (Table 4, 'C' columns). One forward pass
 * plus one reverse sweep per observable, independent of the parameter
 * count. (The hardware regime, Table 4 'Q', is modelled in closed form
 * by qml::parameter_shift_execution_count_dataset.)
 *
 * Each takes a FusedProgram compiled once by the caller, which replays
 * it for every sample and step; the reverse sweep walks the ops of the
 * circuit the program was compiled from.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "sim/fusion.hpp"
#include "sim/observable.hpp"

namespace elv::sim {

/** Expectations and their Jacobian for a set of observables. */
struct GradientResult
{
    /** Expectation value per observable. */
    std::vector<double> values;
    /** jacobian[o][p] = d values[o] / d params[p]. */
    std::vector<std::vector<double>> jacobian;
    /**
     * When embedding gradients were requested:
     * embedding_jacobian[o][e] = d values[o] / d angle(embedding op e),
     * where e indexes embedding ops in circuit order (the same order as
     * Circuit::embedding_op_indices()). Used by classical-preprocessing
     * frameworks (QTN-VQC) that backpropagate into their feature maps.
     */
    std::vector<std::vector<double>> embedding_jacobian;
    /** Number of (noiseless) circuit executions this computation cost. */
    std::uint64_t circuit_executions = 0;
};

/** Evaluate expectations only (one circuit execution). */
std::vector<double> expectations(const FusedProgram &program,
                                 const std::vector<double> &params,
                                 const std::vector<double> &x,
                                 const std::vector<DiagonalObservable> &obs);

/**
 * Adjoint differentiation. Requires a unitary circuit (an amplitude
 * embedding is allowed only as the first op). With
 * `with_embedding_grads`, also fills GradientResult::embedding_jacobian
 * (derivatives with respect to each embedding gate's resolved angle;
 * product embeddings are rejected in that mode).
 */
GradientResult adjoint_gradient(const FusedProgram &program,
                                const std::vector<double> &params,
                                const std::vector<double> &x,
                                const std::vector<DiagonalObservable> &obs,
                                bool with_embedding_grads = false);

} // namespace elv::sim
