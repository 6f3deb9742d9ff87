/**
 * @file
 * Circuit expressibility (Sim, Johnson & Aspuru-Guzik, 2019) — the
 * established circuit-quality metric the paper's related work (Sec. 10.1)
 * notes is "unsuitable for QCS due to high cost". Implemented here as an
 * ablation: the predictor-comparison bench contrasts its predictive
 * power and execution cost against RepCap.
 *
 * Expressibility is the KL divergence between (a) the fidelity
 * distribution of output states for random parameter pairs and (b) the
 * Haar-random fidelity distribution P(F) = (N-1)(1-F)^(N-2). Lower
 * divergence = the ansatz covers state space more uniformly.
 */
#pragma once

#include <cstdint>

#include "circuit/circuit.hpp"
#include "common/rng.hpp"

namespace elv::core {

/** Expressibility estimation options. */
struct ExpressibilityOptions
{
    /** Random parameter pairs sampled. */
    int num_pairs = 64;
};

/** Expressibility value plus cost accounting. */
struct ExpressibilityResult
{
    /** KL(empirical fidelities || Haar); lower = more expressive. */
    double kl_divergence = 0.0;
    /** Circuit executions consumed (two per sampled pair). */
    std::uint64_t circuit_executions = 0;
};

/**
 * Estimate expressibility of the circuit's variational ansatz. Data
 * embeddings are bound to zeros (the metric characterizes the trainable
 * part, independent of any dataset).
 */
ExpressibilityResult expressibility(const circ::Circuit &circuit,
                                    elv::Rng &rng,
                                    const ExpressibilityOptions &options =
                                        {});

} // namespace elv::core
