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
 * FusedProgram::run matches StateVector::run up to floating-point
 * reassociation within each fused group (~1e-15 per amplitude).
 *
 * The process-wide FusionCache memoizes compiled programs by the exact
 * serialized circuit text, so CNR replicas, RepCap re-executions and
 * parameter-shift loops compile once per distinct circuit.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "circuit/circuit.hpp"
#include "sim/statevector.hpp"
#include "sim/unitaries.hpp"

namespace elv::sim {

/** One entry of a compiled fused op stream. */
struct FusedOp
{
    enum class Kind {
        One,     ///< dense Mat2 on q0 (one or more fused fixed gates)
        Two,     ///< dense Mat4 on (q0, q1), basis |q0 q1>
        Barrier, ///< parametric / amplitude-embedding IR op, kept as-is
    };

    Kind kind = Kind::Barrier;
    Mat2 m2{};
    Mat4 m4{};
    int q0 = -1;
    int q1 = -1;
    /** The original IR op (Barrier entries only). */
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

    const std::vector<FusedOp> &ops() const { return ops_; }

    /** Source-circuit ops eliminated by fusion. */
    std::uint64_t ops_merged() const { return ops_merged_; }

    /** Source-circuit op count before fusion. */
    std::size_t source_ops() const { return source_ops_; }

    /**
     * Leading source ops whose matrices resolved fully at compile time
     * (everything before the first fusion barrier): the state they
     * produce is identical for every (params, x), so a cached prefix
     * state could replace re-executing them on each run. This is the
     * compiled-level counterpart of the lint dataflow pass's
     * const/Clifford region inference (lint/dataflow.hpp) — the
     * dataflow Clifford prefix is always <= this count, since fixed
     * Clifford gates are a subset of fixed gates.
     */
    std::size_t const_prefix_source_ops() const
    {
        return const_prefix_source_ops_;
    }

    int num_qubits() const { return num_qubits_; }

  private:
    /** Reset `psi` and apply the stream; `barrier` applies Barrier
     *  entries. */
    template <typename ApplyBarrier>
    void replay(StateVector &psi, ApplyBarrier &&barrier) const;

    std::vector<FusedOp> ops_;
    std::uint64_t ops_merged_ = 0;
    std::size_t source_ops_ = 0;
    std::size_t const_prefix_source_ops_ = 0;
    int num_qubits_ = 1;
};

/**
 * Process-wide cache of compiled FusedPrograms keyed by the exact
 * circuit serialization (collision-free). Bounded: the cache is
 * cleared wholesale when it reaches capacity, which keeps the common
 * access pattern (a handful of hot circuits re-run thousands of times)
 * fully cached without ever growing unboundedly across a search.
 */
class FusionCache
{
  public:
    static FusionCache &global();

    /** The compiled program for `circuit`, compiling on first use. */
    std::shared_ptr<const FusedProgram> get(const circ::Circuit &circuit);

    /** Entries currently cached (for tests). */
    std::size_t size() const;

    /** Drop every cached program. */
    void clear();

  private:
    static constexpr std::size_t kCapacity = 256;

    mutable std::mutex mutex_;
    std::unordered_map<std::string, std::shared_ptr<const FusedProgram>>
        programs_;
};

/**
 * Run `circuit` on `psi` through the fusion cache. Drop-in replacement
 * for StateVector::run on hot paths that re-execute the same circuit
 * many times (training, RepCap, CNR ideal outputs).
 */
void fused_run(StateVector &psi, const circ::Circuit &circuit,
               const std::vector<double> &params = {},
               const std::vector<double> &x = {});

} // namespace elv::sim
