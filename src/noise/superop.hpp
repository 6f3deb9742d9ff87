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
 * after its barrier entry. SuperopTable builds each such per-gate
 * superoperator once; compiling a circuit is then lookups plus the
 * fusion merges. A 1-qubit channel folds into an open 2-qubit entry in
 * place (absorb_superop_1q), without building its 16x16 embedding.
 */
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <unordered_map>
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

/**
 * m = expand_superop_1q(s, slot) * m, in place and bit-identical to
 * that product: `s` acts on two bits of m's row index, so this is the
 * 4x4 kernel over m's 256 coefficients. Each m[i][j] sums the same four
 * terms in the same order as the 16x16 product, which skips the other
 * twelve because their coefficients are exact zeros.
 */
void absorb_superop_1q(sim::Mat16 &m, const sim::Mat4 &s, int slot);

/** Reorder a 2-qubit superoperator between |r0 r1 c0 c1> and
 *  |r1 r0 c1 c0> (operand swap). */
sim::Mat16 swap_superop_pair(const sim::Mat16 &s);

/**
 * Per-gate superoperators, built once and looked up thereafter. An
 * entry is one gate's unitary superoperator (fixed gates) composed
 * with its calibration noise (scale > 0): depolarizing then thermal
 * relaxation after 1-qubit gates; depolarizing (twice for CRY, which
 * lowers to two CX) then both thermal relaxations after 2-qubit gates.
 *
 * The key is (gate kind, arity, fixed angles, the post-scale
 * calibration values the noise reads: gate error, T1, T2, duration of
 * the physical qubit or of both ends of the ordered edge), compared
 * bit for bit — never a qubit index. Equal keys therefore build equal
 * matrices, and a drifted calibration is a new key, so an entry can
 * never outlive the calibration it was built from. Filled lazily,
 * thread-safe, cleared wholesale at capacity.
 */
class SuperopTable
{
  public:
    /**
     * Superoperator of 1-qubit `op` on physical qubit `pq`: its gate
     * when `fixed`, then its noise when `scale` > 0 (at least one must
     * apply).
     */
    sim::Mat4 gate_1q(const circ::Op &op, bool fixed, int pq,
                      const dev::Device &device, double scale);

    /**
     * Superoperator of 2-qubit `op` on the ordered physical pair
     * (pa, pb), basis |r_a r_b c_a c_b>. Fatal when the pair is not
     * coupled and noise applies, whether or not the entry is cached.
     */
    sim::Mat16 gate_2q(const circ::Op &op, bool fixed, int pa, int pb,
                       const dev::Device &device, double scale);

    /** Entries currently held (1- and 2-qubit). */
    std::size_t size() const;

  private:
    /** Header word (kind, arity, fixed, noisy), 3 angles, 6 values. */
    using Key = std::array<std::uint64_t, 10>;

    struct KeyHash
    {
        std::size_t operator()(const Key &key) const;
    };

    template <typename Mat, typename Build>
    Mat lookup(std::unordered_map<Key, Mat, KeyHash> &map, const Key &key,
               Build &&build);

    static constexpr std::size_t kCapacity = 1024;

    mutable std::mutex mutex_;
    std::unordered_map<Key, sim::Mat4, KeyHash> one_;
    std::unordered_map<Key, sim::Mat16, KeyHash> two_;
};

/**
 * A circuit compiled for noisy density-matrix execution: every gate's
 * SuperopTable entry, fused greedily with its neighbours (same pass
 * structure and barrier rules as sim::FusedProgram). Replaying it
 * performs no per-run allocation or channel construction.
 */
class NoisyProgram
{
  public:
    /**
     * Compile `local` (an already-compacted circuit) against the
     * device calibration, looking every gate's superoperator up in
     * `table`. `kept[q]` is the physical qubit behind local qubit q;
     * `scale` multiplies every error rate (0 = noiseless).
     */
    static NoisyProgram compile(const circ::Circuit &local,
                                const std::vector<int> &kept,
                                const dev::Device &device, double scale,
                                SuperopTable &table);

    /** compile() against a fresh table of its own. */
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
