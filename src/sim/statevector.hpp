/**
 * @file
 * Dense state-vector simulator.
 *
 * Qubit q corresponds to bit q of the basis-state index (qubit 0 is the
 * least significant bit). Used for all noiseless evaluation: training,
 * RepCap, ideal Clifford-replica outputs and ground-truth checks.
 *
 * The inner loops dispatch to the vectorized kernels in
 * sim/vec_complex.hpp; all kernel tiers are bit-identical, so results
 * never depend on the host CPU or on ELV_FORCE_KERNEL.
 */
#pragma once

#include <complex>
#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/aligned.hpp"
#include "common/rng.hpp"
#include "sim/unitaries.hpp"

namespace elv::sim {

/** Aligned amplitude storage (64-byte base for the vector kernels). */
using AmpVector = std::vector<Amp, AlignedAllocator<Amp>>;

/**
 * Outcome indexing over an ordered list of measured qubits: bit b of a
 * basis state's outcome is its bit qubits[b]. Every probabilities()
 * and DiagonalObservable builds its outcome indices through this, so
 * the operand checks live here: construction rejects a qubit outside
 * [0, num_qubits), a repeated qubit, and more than 20 qubits.
 */
class OutcomeIndex
{
  public:
    OutcomeIndex(const std::vector<int> &qubits, int num_qubits);

    /** Number of outcomes, 2^qubits. */
    std::size_t outcomes() const { return std::size_t{1} << masks_.size(); }

    /** Outcome of basis state `index`. */
    std::size_t operator()(std::size_t index) const
    {
        std::size_t outcome = 0;
        for (std::size_t b = 0; b < masks_.size(); ++b)
            if (index & masks_[b])
                outcome |= std::size_t{1} << b;
        return outcome;
    }

  private:
    std::vector<std::size_t> masks_;
};

/** A pure quantum state over a fixed qubit register. */
class StateVector
{
  public:
    /** Construct in |0...0>. Practical limit is ~24 qubits. */
    explicit StateVector(int num_qubits);

    /** Reset to |0...0>. */
    void reset();

    int num_qubits() const { return num_qubits_; }
    std::size_t dim() const { return amps_.size(); }

    /** Raw amplitude access (basis-state index). */
    Amp amp(std::size_t index) const { return amps_[index]; }
    AmpVector &amps() { return amps_; }
    const AmpVector &amps() const { return amps_; }

    /** Apply a 1-qubit unitary to qubit q. */
    void apply_1q(const Mat2 &u, int q);

    /** Apply a 2-qubit unitary (basis |q0 q1>, see unitaries.hpp). */
    void apply_2q(const Mat4 &u, int q0, int q1);

    /**
     * Apply a 4-qubit matrix in the basis |q0 q1 q2 q3>, local index
     * = 8*bit(q0) + 4*bit(q1) + 2*bit(q2) + bit(q3). Used to apply
     * two-qubit channel superoperators to the (row, column) qubit
     * pairs of a vectorized density matrix in one pass.
     */
    void apply_4q(const Mat16 &u, int q0, int q1, int q2, int q3);

    /** @name Specialized gate kernels @{
     *
     * Permutation/phase/diagonal fast paths apply_gate takes in place
     * of the dense kernels: CX/CZ/SWAP touch no matrix at all and
     * diagonal 1-qubit gates (RZ/S/Sdg/Z) cost two multiplies per
     * amplitude pair. On finite states they match the dense matmul
     * path except, at most, in the sign of an exact zero.
     */

    /** CX with control `control`, target `target`. */
    void apply_cx(int control, int target);

    /** CZ on the pair (symmetric). */
    void apply_cz(int q0, int q1);

    /** SWAP of two qubits. */
    void apply_swap(int q0, int q1);

    /** Diagonal 1-qubit gate diag(d0, d1) on qubit q. */
    void apply_diag_1q(Amp d0, Amp d1, int q);

    /** @} */

    /** Apply one IR operation with resolved parameters. */
    void apply_op(const circ::Op &op, const std::vector<double> &params,
                  const std::vector<double> &x);

    /**
     * Apply an already-resolved gate matrix of kind `kind`. This is the
     * one place the kernel choice is made: the diagonal fast path for
     * diagonal 1-qubit kinds, the permutation kernels for CX/CZ/SWAP
     * (which never read `u`), else the dense kernels. apply_op and the
     * fused replays route every gate through these, so a caller that
     * resolves matrices ahead of time runs the exact same kernels.
     */
    void apply_gate(circ::GateKind kind, const Mat2 &u, int q);
    void apply_gate(circ::GateKind kind, const Mat4 &u, int q0, int q1);

    /**
     * Run a circuit from |0...0>: resets, then applies every op.
     * `params` are the variational parameters, `x` the input sample.
     */
    void run(const circ::Circuit &circuit,
             const std::vector<double> &params = {},
             const std::vector<double> &x = {});

    /**
     * Set the state to the amplitude embedding of `x`: the vector is
     * zero-padded to the state dimension and normalized (an all-zero
     * input maps to |0...0>).
     */
    void set_amplitude_embedding(const std::vector<double> &x);

    /** <Z_q> expectation. */
    double expect_z(int q) const;

    /** Squared norm (should stay 1 under unitary evolution). */
    double norm() const;

    /** |<other|this>|^2 overlap with another state of equal size. */
    double overlap(const StateVector &other) const;

    /**
     * Marginal outcome distribution over `qubits`: entry k is the
     * probability that qubits[i] reads bit i of k (LSB first). Throws
     * on an out-of-range or repeated qubit (see OutcomeIndex).
     */
    std::vector<double> probabilities(const std::vector<int> &qubits) const;

    /** Full 2^n outcome distribution. */
    std::vector<double> probabilities_full() const;

    /** Sample one outcome over `qubits` from the Born distribution. */
    std::size_t sample(const std::vector<int> &qubits, elv::Rng &rng) const;

    /**
     * Sample one outcome from a precomputed distribution. Shot loops
     * must compute probabilities() once and call this per shot; the
     * qubit-list overload recomputes the full marginal every call,
     * which is quadratic in shots x dim.
     */
    static std::size_t sample_from(const std::vector<double> &probs,
                                   elv::Rng &rng);

  private:
    int num_qubits_;
    AmpVector amps_;
};

} // namespace elv::sim
