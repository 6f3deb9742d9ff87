/**
 * @file
 * Diagonal observables over a measured-qubit subset.
 *
 * Classification heads in this library are diagonal observables: Pauli-Z
 * expectations and outcome-group projectors (class logits are probability
 * masses of groups of computational-basis outcomes, the TorchQuantum
 * convention). Diagonal observables keep both the adjoint and the
 * parameter-shift differentiation paths simple and exact.
 */
#pragma once

#include <vector>

#include "sim/statevector.hpp"

namespace elv::sim {

/** O = sum_k w_k |k><k| over the outcomes of an ordered qubit subset. */
class DiagonalObservable
{
  public:
    /**
     * @param qubits   measured qubits; bit i of the outcome index is the
     *                 readout of qubits[i]
     * @param weights  one weight per outcome (size 2^qubits.size())
     */
    DiagonalObservable(std::vector<int> qubits,
                       std::vector<double> weights);

    const std::vector<int> &qubits() const { return qubits_; }
    const std::vector<double> &weights() const { return weights_; }

    /** <psi|O|psi>. */
    double expectation(const StateVector &psi) const;

    /** Expectation given a precomputed outcome distribution. */
    double expectation(const std::vector<double> &outcome_probs) const;

    /**
     * psi <- O psi (entrywise reweighting of amplitudes). Throws when a
     * qubit is outside psi's register or repeated (see OutcomeIndex),
     * as expectation(psi) does.
     */
    void apply_to(StateVector &psi) const;

    /** Z on a single qubit (weights +1 / -1). */
    static DiagonalObservable pauli_z(int qubit);

    /**
     * Projector onto outcomes assigned to `group` under round-robin
     * assignment outcome -> outcome % num_groups (the class-logit head).
     */
    static DiagonalObservable outcome_group(const std::vector<int> &qubits,
                                            int num_groups, int group);

  private:
    std::vector<int> qubits_;
    std::vector<double> weights_;
};

/**
 * Build the class-logit heads for a circuit: one outcome-group projector
 * per class over the circuit's measured qubits.
 */
std::vector<DiagonalObservable> class_projectors(
    const std::vector<int> &measured_qubits, int num_classes);

} // namespace elv::sim
