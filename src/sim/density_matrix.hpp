/**
 * @file
 * Dense density-matrix simulator.
 *
 * Represents rho as a 2n-qubit state vector (row index = qubits 0..n-1,
 * column index = qubits n..2n-1), so unitaries and channel
 * superoperators reuse the state-vector kernels: U rho U^dag applies U
 * on the row qubit and conj(U) on the matching column qubit, and a
 * channel is one gathered pass over a (row, column) qubit pair. Exact
 * noisy simulation for circuits of up to kMaxQubits = 12 qubits — which
 * covers every circuit in this reproduction, because Elivagar circuits
 * live on small connected device subgraphs.
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

    /** @name Superoperator channel application @{
     *
     * Single-pass channel kernels: the precomputed superoperator
     * matrix S[2a+b][2a'+b'] = sum_k K[a][a'] conj(K[b][b']) acts on
     * the (row, column) qubit pair of the vectorized rho through the
     * gathered apply_2q/apply_4q machinery: one pass over the 4^n
     * amplitudes regardless of the Kraus-set size. Build the matrices
     * with noise::kraus_superop_1q/2q.
     */

    /** Apply a 1-qubit channel superoperator (basis |r_q c_q>). */
    void apply_superop_1q(const Mat4 &s, int q);

    /** Apply a 2-qubit channel superoperator (basis |r0 r1 c0 c1>). */
    void apply_superop_2q(const Mat16 &s, int q0, int q1);

    /** @} */

    /**
     * Apply one IR op with resolved parameters (no noise): the gate
     * matrix goes through StateVector::apply_gate on the row qubits and
     * its conjugate on the column qubits, so rho takes the same
     * permutation, diagonal and dense kernels a state vector does.
     */
    void apply_op(const circ::Op &op, const std::vector<double> &params,
                  const std::vector<double> &x);

    /** Run a circuit noiselessly from |0...0>. */
    void run(const circ::Circuit &circuit,
             const std::vector<double> &params = {},
             const std::vector<double> &x = {});

    /** Trace (should stay 1 under trace-preserving maps). */
    double trace() const;

    /**
     * Marginal outcome distribution over `qubits` (LSB-first order).
     * Throws on an out-of-range or repeated qubit (see OutcomeIndex).
     */
    std::vector<double> probabilities(const std::vector<int> &qubits) const;

  private:
    int num_qubits_;
    /** 2n-qubit vectorized representation of rho. */
    StateVector vec_;
};

} // namespace elv::sim
