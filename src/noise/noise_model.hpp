/**
 * @file
 * Device-driven noisy execution.
 *
 * NoisyDensitySimulator runs a circuit whose qubit labels are *physical*
 * device qubits: each gate is followed by depolarizing noise (strength
 * from the calibration gate error) and thermal relaxation (T1/T2 over
 * the gate duration), and the final outcome distribution is passed
 * through the per-qubit readout confusion. Internally the circuit is
 * compacted to its touched qubits so that small circuits on 127-qubit
 * devices stay cheap — exactly the setting of Elivagar's subgraph
 * circuits.
 *
 * DevicePauliNoise provides the same calibration-driven noise as a
 * stochastic Pauli hook for the stabilizer backend (scalable CNR).
 */
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "circuit/circuit.hpp"
#include "device/device.hpp"
#include "noise/channels.hpp"
#include "noise/superop.hpp"
#include "sim/density_matrix.hpp"
#include "stabilizer/tableau.hpp"

namespace elv::noise {

/**
 * Apply per-qubit symmetric readout confusion to an outcome
 * distribution. `flip_probs[i]` is the flip probability of the qubit
 * that produced bit i of the outcome index.
 */
std::vector<double> apply_readout_confusion(
    const std::vector<double> &probs,
    const std::vector<double> &flip_probs);

/**
 * Exact noisy executor over the density-matrix backend. A circuit that
 * touches more than sim::DensityMatrix::kMaxQubits qubits is refused
 * with fatal() before anything is allocated for it.
 */
class NoisyDensitySimulator
{
  public:
    /**
     * @param device calibration source
     * @param noise_scale multiplies every error rate (1 = calibrated,
     *        0 = noiseless); used by ablations
     */
    explicit NoisyDensitySimulator(const dev::Device &device,
                                   double noise_scale = 1.0);

    /**
     * Run `circuit` (qubits = physical device qubits; 2-qubit gates must
     * act on coupled pairs) and return the outcome distribution over its
     * measured qubits, including readout error.
     */
    std::vector<double> run_distribution(const circ::Circuit &circuit,
                                         const std::vector<double> &params =
                                             {},
                                         const std::vector<double> &x = {})
        const;

    /**
     * Fidelity proxy used throughout the paper: 1 - TVD between the
     * noisy and the noiseless outcome distributions of `circuit`.
     * Compiles straight against the superoperator table and bypasses
     * the program cache: CNR replicas are one-shot circuits, so caching
     * their programs would only churn it.
     */
    double fidelity(const circ::Circuit &circuit,
                    const std::vector<double> &params = {},
                    const std::vector<double> &x = {}) const;

    const dev::Device &device() const { return device_; }

  private:
    /** Replay `program` and read out its measured qubits. */
    std::vector<double> distribution(const NoisyProgram &program,
                                     const circ::Circuit &local,
                                     const std::vector<int> &kept,
                                     const std::vector<double> &params,
                                     const std::vector<double> &x) const;

    /** Cached compiled program for `circuit` (compiling on miss). */
    std::shared_ptr<const NoisyProgram>
    program_for(const circ::Circuit &circuit, const circ::Circuit &local,
                const std::vector<int> &kept) const;

    const dev::Device &device_;
    double scale_;
    /** Gate+noise superoperators shared by every compile. */
    mutable SuperopTable table_;
    /**
     * Bounded program cache for run_distribution, which replays one
     * circuit per test sample. Keyed by the exact serialization of the
     * *original* (pre-compaction) circuit — physical qubit labels
     * determine the noise — plus the raw calibration values of the
     * qubits it touches and the couplers among them, so a drifted
     * calibration misses instead of replaying a stale program. Cleared
     * wholesale at capacity. qml::evaluate calls run_distribution from
     * every pool runner at once: the key is built outside the lock, a
     * miss compiles under it (the other runners wait for that one
     * compile, then hit), and the programs are shared read-only.
     */
    mutable std::mutex cache_mutex_;
    mutable std::unordered_map<std::string,
                               std::shared_ptr<const NoisyProgram>>
        cache_;
};

/** Calibration-driven stochastic Pauli noise for stabilizer shots. */
class DevicePauliNoise : public stab::PauliNoiseHook
{
  public:
    /**
     * @param device calibration source
     * @param local_to_physical physical qubit behind each circuit qubit
     * @param noise_scale multiplies every error rate
     */
    DevicePauliNoise(const dev::Device &device,
                     std::vector<int> local_to_physical,
                     double noise_scale = 1.0);

    void after_op(stab::Tableau &tab, const circ::Op &op,
                  elv::Rng &rng) const override;

    double readout_flip_probability(int local_qubit) const override;

  private:
    void inject(stab::Tableau &tab, int local_qubit,
                const PauliProbs &probs, elv::Rng &rng) const;

    const dev::Device &device_;
    std::vector<int> map_;
    double scale_;
};

} // namespace elv::noise
