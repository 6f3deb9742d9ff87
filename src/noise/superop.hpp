/**
 * @file
 * Channel superoperators and the compiled noisy program.
 *
 * A channel rho -> sum_k K rho K^dag acting on the vectorized density
 * matrix (rho as a 2n-qubit state vector, row qubits 0..n-1, column
 * qubits n..2n-1) is a *linear* map on the amplitudes: a 4x4 matrix on
 * the (row, column) pair of one qubit, or a 16x16 matrix on the two
 * pairs of a qubit pair. Precomputing that matrix turns a Kraus set of
 * any size into a single gathered pass over the 4^n amplitudes —
 * DensityMatrix::apply_superop_1q/2q — instead of one full-state copy
 * plus two kernel passes per Kraus operator.
 *
 * Because a gate unitary is itself a (single-Kraus) channel, the gate
 * and its trailing calibration noise compose into one superoperator,
 * and adjacent fixed gates keep composing: NoisyProgram is the noisy
 * analogue of sim::FusedProgram, fusing in superoperator space with
 * parametric gates as barriers. Device noise depends only on the
 * physical qubit and gate arity — never on rotation angles — so even a
 * parametric gate contributes a fusable noise superoperator right
 * after its barrier entry.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "device/device.hpp"
#include "sim/density_matrix.hpp"
#include "sim/unitaries.hpp"

namespace elv::noise {

/** Superoperator of a 1-qubit Kraus channel in the |r c> pair basis:
 *  S[2a+b][2a'+b'] = sum_k K[a][a'] conj(K[b][b']). */
sim::Mat4 kraus_superop_1q(const std::vector<sim::Mat2> &kraus);

/** Superoperator of a 2-qubit Kraus channel in the |r0 r1 c0 c1>
 *  basis (matching DensityMatrix::apply_superop_2q). */
sim::Mat16 kraus_superop_2q(const std::vector<sim::Mat4> &kraus);

/** Superoperator of the unitary channel rho -> U rho U^dag. */
sim::Mat4 unitary_superop_1q(const sim::Mat2 &u);
sim::Mat16 unitary_superop_2q(const sim::Mat4 &u);

/**
 * Embed a 1-qubit superoperator into the 2-qubit superoperator basis:
 * slot 0 acts on the (r0, c0) pair, slot 1 on (r1, c1).
 */
sim::Mat16 expand_superop_1q(const sim::Mat4 &s, int slot);

/** Reorder a 2-qubit superoperator between |r0 r1 c0 c1> and
 *  |r1 r0 c1 c0> (operand swap). */
sim::Mat16 swap_superop_pair(const sim::Mat16 &s);

/**
 * A circuit compiled for noisy density-matrix execution: every fixed
 * gate is combined with its calibration noise into one superoperator
 * and adjacent superoperators are fused greedily (same pass structure
 * and barrier rules as sim::FusedProgram). Compiled once per circuit;
 * replaying it performs no per-run allocation or channel construction.
 */
class NoisyProgram
{
  public:
    /**
     * Compile `local` (an already-compacted circuit) against the
     * device calibration. `kept[q]` is the physical qubit behind local
     * qubit q; `scale` multiplies every error rate (0 = noiseless).
     * Replicates NoisyDensitySimulator's per-gate channel schedule:
     * depolarizing then thermal relaxation after 1-qubit gates,
     * depolarizing (twice for CRY) then both thermal relaxations after
     * 2-qubit gates.
     */
    static NoisyProgram compile(const circ::Circuit &local,
                                const std::vector<int> &kept,
                                const dev::Device &device, double scale);

    /** Replay on `rho` from |0...0><0...0|. */
    void run(sim::DensityMatrix &rho, const std::vector<double> &params = {},
             const std::vector<double> &x = {}) const;

    /** Gate/channel applications eliminated by fusion. */
    std::uint64_t ops_merged() const { return ops_merged_; }

    /** Entries in the compiled stream. */
    std::size_t size() const { return entries_.size(); }

    int num_qubits() const { return num_qubits_; }

  private:
    struct Entry
    {
        enum class Kind {
            Super1,  ///< Mat4 superoperator on qubit q0
            Super2,  ///< Mat16 superoperator on (q0, q1)
            Barrier, ///< parametric / amplitude-embedding IR op
        };

        Kind kind = Kind::Barrier;
        sim::Mat4 s4{};
        sim::Mat16 s16{};
        int q0 = -1;
        int q1 = -1;
        circ::Op op{};
    };

    std::vector<Entry> entries_;
    std::uint64_t ops_merged_ = 0;
    int num_qubits_ = 1;
};

} // namespace elv::noise
