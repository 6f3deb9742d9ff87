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
 * Each replica runs on the backend `CnrOptions::backend` names: one
 * noise::NoisyDensitySimulator per call (exact, up to
 * sim::DensityMatrix::kMaxQubits touched qubits), or stabilizer
 * sampling with calibration-driven Pauli noise (any width). Every
 * replica is linted at the executor boundary first.
 */
#pragma once

#include <cstdint>

#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "device/device.hpp"

namespace elv::core {

/** Which backend plays the role of the noisy device. */
enum class CnrBackend {
    /** Exact density-matrix noisy simulation (at most
     *  sim::DensityMatrix::kMaxQubits touched qubits). */
    Density,
    /** Stochastic-Pauli stabilizer sampling (scales to any size). */
    Stabilizer,
};

/** CNR evaluation options (paper defaults: 16-32 replicas). */
struct CnrOptions
{
    int num_replicas = 16;
    CnrBackend backend = CnrBackend::Density;
    /** Shots per replica for the stabilizer backend. */
    int shots = 2048;
    /** Multiplies device error rates (ablation knob). */
    double noise_scale = 1.0;
};

/** CNR value plus cost accounting. */
struct CnrResult
{
    double cnr = 0.0;
    /** Device-style circuit executions consumed (= replicas). */
    std::uint64_t circuit_executions = 0;
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
