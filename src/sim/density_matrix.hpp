/**
 * @file
 * Dense density-matrix simulator.
 *
 * Represents rho as a 2n-qubit state vector (row index = qubits 0..n-1,
 * column index = qubits n..2n-1), so unitary and Kraus maps reuse the
 * state-vector kernels: U rho U^dag applies U on the row qubit and
 * conj(U) on the matching column qubit. Exact noisy simulation for
 * circuits of up to ~10 qubits — which covers every circuit in this
 * reproduction, because Elivagar circuits live on small connected device
 * subgraphs.
 */
#pragma once

#include <vector>

#include "circuit/circuit.hpp"
#include "sim/statevector.hpp"

namespace elv::sim {

/** A mixed quantum state over a fixed qubit register. */
class DensityMatrix
{
  public:
    /** Widest register: 4^12 amplitudes, 256 MiB. */
    static constexpr int kMaxQubits = 12;

    /** Construct in |0...0><0...0| over 1..kMaxQubits qubits. */
    explicit DensityMatrix(int num_qubits);

    /** Reset to |0...0><0...0|. */
    void reset();

    int num_qubits() const { return num_qubits_; }

    /** rho(r, c) element access. */
    Amp element(std::size_t row, std::size_t col) const;

    /** Set to the pure state |psi><psi|. */
    void set_pure(const StateVector &psi);

    /** Apply a 1-qubit unitary. */
    void apply_1q(const Mat2 &u, int q);

    /** Apply a 2-qubit unitary (basis |q0 q1>). */
    void apply_2q(const Mat4 &u, int q0, int q1);

    /** Apply a 1-qubit Kraus channel: rho -> sum_k K rho K^dag. */
    void apply_kraus_1q(const std::vector<Mat2> &kraus, int q);

    /** Apply a 2-qubit Kraus channel. */
    void apply_kraus_2q(const std::vector<Mat4> &kraus, int q0, int q1);

    /** @name Superoperator channel application @{
     *
     * Single-pass channel kernels: the precomputed superoperator
     * matrix S[2a+b][2a'+b'] = sum_k K[a][a'] conj(K[b][b']) acts on
     * the (row, column) qubit pair of the vectorized rho through the
     * gathered apply_2q/apply_4q machinery. One pass over the 4^n
     * amplitudes regardless of the Kraus-set size, vs. one full copy
     * plus two passes per operator on the Kraus route. Build the
     * matrices with noise::kraus_superop_1q/2q.
     */

    /** Apply a 1-qubit channel superoperator (basis |r_q c_q>). */
    void apply_superop_1q(const Mat4 &s, int q);

    /** Apply a 2-qubit channel superoperator (basis |r0 r1 c0 c1>). */
    void apply_superop_2q(const Mat16 &s, int q0, int q1);

    /** @} */

    /** @name Closed-form channel fast paths @{
     *
     * Semantically identical to the Kraus forms but a single pass over
     * rho (the generic Kraus route copies the full state per operator);
     * these dominate noisy-simulation time for the bench harnesses.
     */

    /** Depolarizing on one qubit: rho -> (1-p) rho + p sum_P P rho P /3. */
    void apply_depolarizing_1q(double p, int q);

    /** Depolarizing on a qubit pair (15 Pauli terms). */
    void apply_depolarizing_2q(double p, int q0, int q1);

    /**
     * Thermal relaxation: amplitude damping with probability `gamma`
     * composed with pure dephasing `lambda` on qubit q.
     */
    void apply_thermal_relaxation(double gamma, double lambda, int q);

    /** @} */

    /**
     * Apply one IR op with resolved parameters (no noise). CX/CZ/SWAP
     * take the state-vector permutation kernels (they are real
     * matrices, so the conjugate column half reuses the same kernel)
     * and diagonal 1-qubit gates the diagonal one with conjugated
     * entries: every gate hits rho twice, so the win is compound.
     */
    void apply_op(const circ::Op &op, const std::vector<double> &params,
                  const std::vector<double> &x);

    /** Run a circuit noiselessly from |0...0>. */
    void run(const circ::Circuit &circuit,
             const std::vector<double> &params = {},
             const std::vector<double> &x = {});

    /** Trace (should stay 1 under trace-preserving maps). */
    double trace() const;

    /** Purity Tr(rho^2). */
    double purity() const;

    /**
     * Marginal outcome distribution over `qubits` (LSB-first order).
     * Throws on an out-of-range or repeated qubit (see OutcomeIndex).
     */
    std::vector<double> probabilities(const std::vector<int> &qubits) const;

  private:
    int num_qubits_;
    /** 2n-qubit vectorized representation of rho. */
    StateVector vec_;
    /**
     * Reusable scratch for the generic Kraus path, sized on first use;
     * avoids allocating 2 x 4^n amplitudes per channel application.
     */
    AmpVector kraus_original_;
    AmpVector kraus_acc_;
};

} // namespace elv::sim
