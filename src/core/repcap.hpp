/**
 * @file
 * Representational capacity (RepCap) — the paper's training-free circuit
 * performance predictor (Sec. 6, Eqs. 3-6, Algorithm 2).
 *
 * RepCap measures intra-class similarity and inter-class separation of
 * the quantum states a circuit produces: d_c samples per class are
 * embedded under n_p random parameter vectors; pairwise state
 * similarities are estimated with a randomized-measurement protocol
 * (random U3 bases appended to the measured qubits, similarity =
 * 1 - TVD of the outcome distributions); and the resulting similarity
 * matrix R_C is compared against the ideal block matrix R_ref:
 *
 *   RepCap(C) = 1 - ||R_C - R_ref||_F^2 / (d_c * n_c)^2.
 */
#pragma once

#include <cstdint>

#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "qml/dataset.hpp"

namespace elv::core {

/** RepCap evaluation options (paper defaults: d_c = 16, n_p = 32). */
struct RepCapOptions
{
    /** Samples drawn from each class. */
    int samples_per_class = 16;
    /** Random parameter initializations averaged over. */
    int param_inits = 32;
    /** Random measurement bases per state pair (n_bases in Eq. 6). */
    int num_bases = 4;
};

/** RepCap value plus cost accounting. */
struct RepCapResult
{
    double repcap = 0.0;
    /**
     * Circuit executions consumed, counted as in the paper's cost model
     * (Sec. 6.1): one execution per (sample, parameter-init) pair, i.e.
     * n_c * d_c * n_p; randomized bases reuse the prepared state.
     */
    std::uint64_t circuit_executions = 0;
};

/**
 * Compute RepCap of a circuit on (a subsample of) `data` using noiseless
 * simulation, as the paper does (RepCap is deliberately noise-agnostic;
 * noise robustness is CNR's job).
 */
RepCapResult representational_capacity(const circ::Circuit &circuit,
                                       const qml::Dataset &data,
                                       elv::Rng &rng,
                                       const RepCapOptions &options = {});

} // namespace elv::core
