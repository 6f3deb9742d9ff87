/**
 * @file
 * Gate-fusion pass over the circuit IR.
 *
 * A FusedProgram is a compiled op stream where runs of adjacent fixed
 * 1-qubit gates on the same qubit are collapsed into one Mat2, and
 * fixed 1-qubit gates adjacent to a fixed 2-qubit gate are absorbed
 * into its Mat4. Parametric gates (variational or embedding) and the
 * amplitude-embedding pseudo-op are fusion *barriers*: their angles
 * depend on runtime (params, x) values, so they are kept as IR ops and
 * nothing fuses across them on the qubits they touch. A fused program
 * therefore replays bit-identically-shaped arithmetic per gate group
 * while executing far fewer state-vector passes on Clifford-heavy
 * circuits (CNR replicas are all-fixed and fuse maximally).
 *
 * A fixed CX, CZ or SWAP that nothing fused into stays a Permutation
 * entry and replays as the permutation it is, exactly, through the
 * same kernels StateVector::run uses for it. FusedProgram::run matches
 * StateVector::run up to floating-point reassociation within each
 * dense fused group (~1e-15 per amplitude), and exactly everywhere
 * else.
 *
 * Both replays, run(StateVector) and run(StateBatch), apply the same
 * entries through the same kernel choices, and a batch lane does the
 * scalar tier's exact arithmetic: every lane of a batch run is
 * bit-identical to the scalar run of its sample.
 *
 * Compile once per circuit and hold the program: a caller that runs one
 * circuit many times (training, gradients, evaluation, RepCap) compiles
 * before its loop and replays the program for each (params, x). The
 * program keeps a copy of its source circuit, so code that also walks
 * the source ops (the adjoint reverse sweep, parameter shift) reads
 * them from the program it runs and cannot pair it with another circuit.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "sim/state_batch.hpp"
#include "sim/statevector.hpp"
#include "sim/unitaries.hpp"

namespace elv::sim {

/** One entry of a compiled fused op stream. */
struct FusedOp
{
    enum class Kind {
        One,         ///< dense Mat2 on q0 (one or more fused fixed gates)
        Two,         ///< dense Mat4 on (q0, q1), basis |q0 q1>
        Permutation, ///< a lone fixed CX/CZ/SWAP on (q0, q1); m4 is its
                     ///< matrix, but it replays as a permutation
        Barrier,     ///< parametric / amplitude-embedding IR op, kept as-is
    };

    Kind kind = Kind::Barrier;
    Mat2 m2{};
    Mat4 m4{};
    int q0 = -1;
    int q1 = -1;
    /** The original IR op (Barrier and Permutation entries only). */
    circ::Op op{};
    /**
     * Parametric barriers: index among the program's barriers of the
     * same role and arity, i.e. into ResolvedBarriers::one or ::two.
     */
    int slot = -1;
};

/**
 * The gate matrices of a program's parametric barriers of one role
 * (variational or embedding), resolved for one binding of their
 * angles, in stream order: `one` for the 1-qubit barriers, `two` for
 * the 2-qubit ones. Resolving once and replaying many times skips the
 * per-run angle lookup and sin/cos/exp of every barrier.
 */
struct ResolvedBarriers
{
    std::vector<Mat2> one;
    std::vector<Mat4> two;
};

/**
 * The embedding barriers' matrices of many samples, lane-major for a
 * StateBatch replay: lane b holds what resolve(Embedding, {}, xs[b])
 * gives sample b. Coefficient k (Mat2/Mat4 memory order) of 1-qubit
 * slot s for lane b is one[(8 s + k) lanes + b], of 2-qubit slot s
 * two[(32 s + k) lanes + b]. If the program embeds amplitudes, feature
 * f of lane b is amp[f lanes + b], zero-padded to `features`.
 */
struct LaneBarriers
{
    std::size_t lanes = 0;
    std::vector<double> one;
    std::vector<double> two;
    std::vector<double> amp;
    std::size_t features = 0;
};

/** A circuit compiled through the gate-fusion pass. */
class FusedProgram
{
  public:
    /** Compile `circuit` into a fused op stream. */
    static FusedProgram compile(const circ::Circuit &circuit);

    /**
     * Run from |0...0>: resets `psi`, then applies the fused stream.
     * Equivalent to StateVector::run on the source circuit within
     * floating-point reassociation of each fused group.
     */
    void run(StateVector &psi, const std::vector<double> &params = {},
             const std::vector<double> &x = {}) const;

    /**
     * The matrices of every barrier with `role` (Variational or
     * Embedding) for this (params, x). Variational matrices read only
     * `params` and embedding matrices only `x`, so each side can be
     * resolved once and reused across every binding of the other.
     */
    ResolvedBarriers resolve(circ::ParamRole role,
                             const std::vector<double> &params,
                             const std::vector<double> &x) const;

    /**
     * run() with every parametric barrier's matrix taken from
     * `variational` / `embedding` (from resolve()) instead of being
     * rebuilt, applied through the same kernels. `x` feeds an
     * amplitude-embedding barrier. The state is bit-identical to
     * run(psi, params, x) for the binding both sides were resolved for.
     */
    void run(StateVector &psi, const ResolvedBarriers &variational,
             const ResolvedBarriers &embedding,
             const std::vector<double> &x) const;

    /** The embedding matrices (and inputs) of every sample in `xs`. */
    LaneBarriers resolve_embedding(
        const std::vector<std::vector<double>> &xs) const;

    /**
     * Batched run(): lane b of `batch` replays sample first + b of
     * `embedding` with the shared `variational` matrices. Every lane
     * is bit-identical to run(psi, variational, <that sample's
     * ResolvedBarriers>, <its x>), under every kernel tier.
     */
    void run(StateBatch &batch, const ResolvedBarriers &variational,
             const LaneBarriers &embedding, std::size_t first) const;

    const std::vector<FusedOp> &ops() const { return ops_; }

    /** The circuit this program was compiled from. */
    const circ::Circuit &source() const { return source_; }

    /** Source-circuit ops eliminated by fusion. */
    std::uint64_t ops_merged() const { return ops_merged_; }

    /** Source-circuit op count before fusion. */
    std::size_t source_ops() const { return source_.ops().size(); }

    int num_qubits() const { return source_.num_qubits(); }

  private:
    /** Reset `psi` and apply the stream; `barrier` applies Barrier
     *  entries. */
    template <typename ApplyBarrier>
    void replay(StateVector &psi, ApplyBarrier &&barrier) const;

    circ::Circuit source_;
    std::vector<FusedOp> ops_;
    std::uint64_t ops_merged_ = 0;
};

} // namespace elv::sim
