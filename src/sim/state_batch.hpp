/**
 * @file
 * Lane-batched state vectors: B states ("lanes") of one register that
 * take the same gates, as RepCap's samples do under one parameter draw.
 *
 * The amplitudes live in split real and imaginary planes, amplitude k
 * of lane b at k * B + b, so a gate runs down the lanes of each
 * amplitude row in vector registers (sim/vec_batch.hpp). Every lane
 * does the scalar tier's exact multiply/add sequence, and every kernel
 * choice (diagonal, permutation, dense) is the one StateVector makes
 * for the same gate kind: a lane is bit-identical to the StateVector
 * the same gates produce, under every kernel tier.
 */
#pragma once

#include <cstddef>
#include <vector>

#include "circuit/gate.hpp"
#include "common/aligned.hpp"
#include "sim/statevector.hpp"
#include "sim/unitaries.hpp"

namespace elv::sim {

/**
 * Per-lane values in lane-major planes: value k of lane b at
 * data[k * stride + b]. For a gate matrix, k runs over its
 * coefficients in Mat2/Mat4 memory order (real, then imaginary part of
 * each entry, row by row); for an amplitude-embedding input, over its
 * features.
 */
struct LanePlanes
{
    const double *data = nullptr;
    std::size_t stride = 0;
};

/** B state vectors of one register in lane-major split planes. */
class StateBatch
{
  public:
    /** `lanes` states of `num_qubits` qubits, each in |0...0>. */
    StateBatch(int num_qubits, std::size_t lanes);

    /** Reset every lane to |0...0>. */
    void reset();

    int num_qubits() const { return num_qubits_; }
    std::size_t dim() const { return std::size_t{1} << num_qubits_; }
    std::size_t lanes() const { return lanes_; }

    /** Amplitude `index` of lane `lane`. */
    Amp amp(std::size_t lane, std::size_t index) const
    {
        return {re_[index * lanes_ + lane], im_[index * lanes_ + lane]};
    }

    /** A copy of one lane. */
    StateVector lane(std::size_t lane) const;

    /** The same gate on every lane (see StateVector::apply_gate). */
    void apply_gate(circ::GateKind kind, const Mat2 &u, int q);
    void apply_gate(circ::GateKind kind, const Mat4 &u, int q0, int q1);

    /** Lane b takes its own matrix of kind `kind` from `u`. */
    void apply_gate(circ::GateKind kind, LanePlanes u, int q);
    void apply_gate(circ::GateKind kind, LanePlanes u, int q0, int q1);

    /** Dense 1-qubit unitary on every lane. */
    void apply_1q(const Mat2 &u, int q);

    /** Dense 2-qubit unitary on every lane (basis |q0 q1>). */
    void apply_2q(const Mat4 &u, int q0, int q1);

    /** @name Permutations: lane rows swapped or negated, exactly. @{ */
    void apply_cx(int control, int target);
    void apply_cz(int q0, int q1);
    void apply_swap(int q0, int q1);
    /** @} */

    /**
     * StateVector::set_amplitude_embedding on every lane: `x` holds
     * `features` values per lane, zero-padded where a lane's input is
     * shorter.
     */
    void set_amplitude_embedding(LanePlanes x, std::size_t features);

    /**
     * StateVector::probabilities(qubits) of every lane, outcome-major:
     * outcome k of lane b goes to out[k * out_stride + b].
     */
    void probabilities(const std::vector<int> &qubits, double *out,
                       std::size_t out_stride) const;

  private:
    void check_qubit(int q) const;
    void check_pair(int q0, int q1) const;
    /** vec::permute_rows over the groups of the qubit masks m0, m1. */
    void permute(std::size_t m0, std::size_t m1, std::size_t a,
                 std::size_t b);

    int num_qubits_;
    std::size_t lanes_;
    std::vector<double, AlignedAllocator<double>> re_;
    std::vector<double, AlignedAllocator<double>> im_;
};

} // namespace elv::sim
