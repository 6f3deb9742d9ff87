/**
 * @file
 * Topology- and noise-aware candidate circuit generation — Algorithm 1
 * of the paper (Sec. 4).
 *
 * Candidates are generated directly on a connected subgraph of the
 * target device, so every 2-qubit gate acts on a coupled pair and the
 * qubit mapping comes for free (no circuit-mapping co-search). Subgraph,
 * gate-placement and measurement choices are sampled from probability
 * distributions weighted by calibration data (readout error, T1/T2,
 * 2-qubit gate fidelity) rather than argmax-selected, to keep candidate
 * diversity (following the classical NAS practice the paper cites).
 */
#pragma once

#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "device/device.hpp"

namespace elv::core {

/** How a candidate's data embedding is chosen (Sec. 9.3 / Fig. 10). */
enum class EmbeddingMode {
    /** Random designation of rotation gates (the Elivagar default). */
    Searched,
    /** Fixed angle-embedding prefix (RX per qubit, re-uploaded). */
    FixedAngle,
    /** Fixed IQP-embedding prefix. */
    FixedIQP,
};

/** Circuit-shape configuration (Theta_conf in Algorithm 1). */
struct CandidateConfig
{
    /** Subgraph size (qubits used by the circuit). */
    int num_qubits = 4;
    /** Variational parameter budget. */
    int num_params = 20;
    /** Number of data-embedding gates. */
    int num_embeds = 4;
    /** Measured qubit count. */
    int num_meas = 1;
    /** Input feature dimensionality. */
    int num_features = 4;
    /** Embedding strategy. */
    EmbeddingMode embedding = EmbeddingMode::Searched;
    /**
     * When false, generation ignores calibration data (uniform
     * subgraph/gate/measurement choices) — the "device-aware but
     * noise-unaware" ablation arm of Fig. 9. Topology-awareness is
     * always kept (that is what makes the circuit executable).
     */
    bool noise_aware = true;
};

/** Candidate subgraphs drawn before the weighted pick (line 1). */
inline constexpr int kSubgraphPool = 8;

/**
 * Generate one device-native candidate circuit (qubit labels are
 * physical device qubits; 2-qubit gates act only on coupled pairs).
 * The circuit measures `num_meas` qubits and embeds `num_features`
 * input dimensions.
 */
circ::Circuit generate_candidate(const dev::Device &device,
                                 const CandidateConfig &config,
                                 elv::Rng &rng);

/**
 * Generate a device-unaware random circuit with the same gate budget
 * (fully-connected assumption), for the Table 5 comparison: such
 * circuits must be SABRE-routed before execution.
 */
circ::Circuit generate_device_unaware(const CandidateConfig &config,
                                      elv::Rng &rng);

} // namespace elv::core
