/**
 * @file
 * Gradients of observable expectations with respect to variational
 * parameters, via two backends mirroring the paper's two cost regimes:
 *
 *  - adjoint differentiation: the "backpropagation on classical
 *    simulators" regime (Table 4, 'C' columns). One forward pass plus one
 *    reverse sweep per observable, independent of the parameter count.
 *  - parameter-shift: the "gradients on quantum hardware" regime
 *    (Table 4, 'Q' columns). Two circuit executions per 1-qubit rotation
 *    parameter (four for controlled rotations), which is exactly the
 *    linear-in-parameters scaling the paper identifies as the
 *    SuperCircuit bottleneck.
 *
 * Each takes a FusedProgram compiled once by the caller, which replays
 * it for every sample, step and shift; the adjoint reverse sweep and the
 * shift loop walk the ops of the circuit the program was compiled from.
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

/**
 * Parameter-shift differentiation: exact two-term rule for single-qubit
 * rotations and U3 slots, four-term rule for CRY.
 */
GradientResult parameter_shift_gradient(
    const FusedProgram &program, const std::vector<double> &params,
    const std::vector<double> &x,
    const std::vector<DiagonalObservable> &obs);

} // namespace elv::sim
