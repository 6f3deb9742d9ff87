/**
 * @file
 * Clifford Noise Resilience (CNR) — the paper's fidelity predictor
 * (Sec. 5, Eqs. 1-2).
 *
 * CNR(C) is the mean fidelity of M Clifford replicas of C, where the
 * fidelity of a replica is 1 - TVD between its noisy and noiseless
 * output distributions. Because replicas are Clifford, the noiseless
 * side is efficiently computable (stabilizer simulation) and the noisy
 * side costs M device executions — constant in the dataset size, which
 * is what makes early rejection cheap compared to validation-set
 * performance evaluation.
 *
 * Replica executions are routed through the exec layer: by default a
 * plain executor matching `CnrOptions::backend`, or — when the caller
 * supplies one — a resilient executor with retry/backoff and a
 * degradation ladder, in which case the result records whether any
 * replica was serviced by a fallback backend.
 */
#pragma once

#include <cstdint>

#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "device/device.hpp"
#include "exec/executor.hpp"

namespace elv::core {

/** Which backend plays the role of the noisy device. */
enum class CnrBackend {
    /** Exact density-matrix noisy simulation (small circuits). */
    Density,
    /** Stochastic-Pauli stabilizer sampling (scales to any size). */
    Stabilizer,
};

/** The exec-layer backend corresponding to a CnrBackend. */
exec::BackendKind cnr_backend_kind(CnrBackend backend);

/** CNR evaluation options (paper defaults: 16-32 replicas). */
struct CnrOptions
{
    int num_replicas = 16;
    CnrBackend backend = CnrBackend::Density;
    /** Shots per replica for the stabilizer backend. */
    int shots = 2048;
    /** Multiplies device error rates (ablation knob). */
    double noise_scale = 1.0;
    /**
     * Route executions through this executor instead of building a
     * plain one from `backend` (non-owning; e.g. a ResilientExecutor
     * with fault injection / degradation). Null = plain execution.
     */
    exec::Executor *executor = nullptr;
    /**
     * Elide ops outside the measurement lightcone from each replica
     * before executing it (lint/dataflow.hpp). The replica is pruned
     * AFTER construction — make_clifford_replica draws from the RNG
     * per parametric gate, so pruning the source circuit first would
     * shift every subsequent stream. Dead ops are traced out of the
     * measured marginal, so the density backend's fidelity is
     * mathematically unchanged (bit-identical candidate *rankings*;
     * scores differ only in floating-point reassociation) while the
     * per-replica simulation cost drops with the dead-op count. The
     * stabilizer backend additionally samples per-gate Pauli noise, so
     * its shot noise re-randomizes — distributions stay statistically
     * identical. Fingerprinted: toggling it invalidates checkpoints.
     */
    bool prune_dead_structure = false;
};

/** CNR value plus cost accounting. */
struct CnrResult
{
    double cnr = 0.0;
    /** Device-style circuit executions consumed (= replicas). */
    std::uint64_t circuit_executions = 0;
    /** True when any replica was serviced by a fallback backend. */
    bool degraded = false;
    /** Retries spent across all replica executions. */
    std::uint64_t retries = 0;
};

/**
 * Compute CNR for a hardware-native circuit (qubit labels are physical
 * device qubits).
 */
CnrResult clifford_noise_resilience(const circ::Circuit &circuit,
                                    const dev::Device &device,
                                    elv::Rng &rng,
                                    const CnrOptions &options = {});

} // namespace elv::core
