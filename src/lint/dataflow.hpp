/**
 * @file
 * elvlint dataflow engine — fixed-point analyses over circuit IR.
 *
 * PR 5's rules are per-op syntactic checks; this module adds the
 * semantic layer: a small fixed-point dataflow framework over
 * `CircuitView` (forward and backward transfer over the op stream,
 * qubit- and parameter-indexed boolean abstract domains) plus the
 * three analyses the search pipeline consumes:
 *
 *  - **measurement lightcone** — backward reachability from the
 *    measured qubits through entangling gates. An op whose operands
 *    all lie outside the lightcone at its position is traced out of
 *    the measured marginal: any trace-preserving channel (unitary or
 *    noise) on qubits the cone never couples back in commutes with the
 *    partial trace, so eliding such ops leaves every measured outcome
 *    distribution mathematically unchanged (noiseless AND per-gate
 *    noisy execution — this codebase attaches noise channels to a
 *    gate's own operands; see noise/noise_model.hpp).
 *
 *  - **parameter liveness** — variational slots bound only by
 *    out-of-cone rotations. Dead params inflate the training dimension
 *    (and the 1 + 2P parameter-shift execution bill) for exactly zero
 *    gradient signal.
 *
 *  - **const/Clifford region inference** — maximal prefixes/suffixes
 *    that are Clifford-only or parameter-free, the annotation the
 *    stabilizer fast path and prefix-state caching key off
 *    (sim::FusedProgram::const_prefix_source_ops carries the same
 *    region at the compiled level).
 *
 * On top of the analyses sits one rewrite, `elide_dead_structure`
 * (the `lint --fix` autofix): it drops dead ops AND dead params,
 * renumbering the survivors densely so the result serializes through
 * the native text format. The search pipeline does not rewrite
 * candidates; the lint rules only report the dead structure.
 *
 * Views may describe arbitrarily malformed IR (the adversarial lint
 * corpus does); every analysis here ignores out-of-range qubit and
 * parameter indices rather than crashing — bounds violations are
 * qubit-bounds/param-binding findings, not dataflow's problem.
 */
#pragma once

#include <cstddef>
#include <vector>

#include "circuit/circuit.hpp"
#include "lint/lint.hpp"

namespace elv::lint {

/** Sweep direction of a dataflow pass. */
enum class Direction {
    Forward,  ///< op 0 first
    Backward, ///< last op first
};

/**
 * Boolean abstract state over the two index spaces circuit dataflow
 * cares about: one flag per qubit and one per declared parameter slot.
 * The lattice is pointwise OR (monotone transfers only set flags).
 */
struct AbstractState
{
    std::vector<char> qubit;
    std::vector<char> param;

    /** State sized to a view, all flags clear. */
    static AbstractState bottom(const CircuitView &view);

    /** Pointwise OR of `other` into this; true when anything changed. */
    bool join(const AbstractState &other);

    bool operator==(const AbstractState &other) const = default;

    /** Set qubit flag `q` if it indexes the domain (garbage-tolerant). */
    void mark_qubit(int q);
    /** Set param flags [slot, slot+count) clipped to the domain. */
    void mark_params(int slot, int count);
    /** Qubit flag, false for out-of-range indices. */
    bool qubit_set(int q) const;
};

/** Convergence bookkeeping of a fixed-point run. */
struct FixpointStats
{
    /** Sweeps executed, including the final no-change sweep. */
    int sweeps = 0;
    /** True when the sweep cap was hit before stabilizing. */
    bool capped = false;
};

/**
 * Run `transfer` over the op stream in `direction` until neither the
 * state nor the per-op marks change (straight-line circuits converge
 * in two sweeps: one to compute, one to confirm; the loop exists so
 * transfers whose effect depends on their own earlier marks — and
 * future analyses over richer domains — stay correct). The transfer
 * sees the running state and returns whether the op is "marked"
 * (analysis-specific: live, in-region, ...); marks land in `marks`,
 * one char per op. Capped at ops+2 sweeps; `stats` reports both.
 */
template <typename TransferFn>
FixpointStats run_to_fixpoint(const CircuitView &view, Direction direction,
                              AbstractState &state, TransferFn &&transfer,
                              std::vector<char> &marks)
{
    marks.assign(view.ops.size(), 0);
    FixpointStats stats;
    const int cap = static_cast<int>(view.ops.size()) + 2;
    for (;;) {
        ++stats.sweeps;
        bool changed = false;
        const std::size_t n = view.ops.size();
        for (std::size_t step = 0; step < n; ++step) {
            const std::size_t i =
                direction == Direction::Forward ? step : n - 1 - step;
            const char mark =
                transfer(view.ops[i], static_cast<int>(i), state) ? 1 : 0;
            if (marks[i] != mark) {
                marks[i] = mark;
                changed = true;
            }
        }
        if (!changed)
            break;
        if (stats.sweeps >= cap) {
            stats.capped = true;
            break;
        }
    }
    return stats;
}

/** Lightcone + parameter-liveness result (one backward pass). */
struct LightconeAnalysis
{
    /** Per op: does it influence any measured qubit? */
    std::vector<char> live_ops;
    /** Per qubit: inside the backward lightcone at some point? */
    std::vector<char> live_qubits;
    /** Per declared slot: bound by at least one live variational op? */
    std::vector<char> live_params;
    /** True when the view measures nothing (everything reads dead;
     *  the measurement rule owns that finding, consumers should treat
     *  the cone as unusable). */
    bool no_measurements = false;

    /** Indices of dead ops, increasing. */
    std::vector<int> dead_ops() const;
    /** Dead declared slots, increasing (bound-by-dead-ops only; slots
     *  bound by nothing at all are dead-code's finding, but they are
     *  reported here too since pruning must handle both). */
    std::vector<int> dead_params() const;
};

/**
 * Backward reachability from the measured qubits. An op is live iff it
 * touches a cone qubit at its position; a live multi-qubit op pulls
 * all its operands into the cone (entanglement can carry influence),
 * and AmpEmbed touches every qubit. Parameter liveness falls out of
 * the same pass: a slot is live iff a live variational op binds it.
 */
LightconeAnalysis analyze_lightcone(const CircuitView &view);

/** Const/Clifford region inference result. */
struct CliffordRegions
{
    /** Leading ops that are fixed Clifford gates (no role, no params):
     *  exactly replayable on the stabilizer fast path. */
    int clifford_prefix = 0;
    /** Trailing ops that are fixed Clifford gates. */
    int clifford_suffix = 0;
    /** Leading ops free of variational parameters (fixed or embedding):
     *  constant across training steps for a fixed sample, so a cached
     *  prefix state amortizes across parameter initializations. */
    int param_free_prefix = 0;
    /** Whole circuit is fixed Clifford (replicas always are). */
    bool fully_clifford = false;
    /** Whole circuit carries no variational parameters. */
    bool param_free = false;
};

/** Two forward/backward region sweeps over the same framework. */
CliffordRegions analyze_clifford_regions(const CircuitView &view);

/**
 * Autofix rewrite: drop dead ops AND the parameter slots that die with
 * them, renumbering surviving slots densely in op order — the form the
 * native text serialization can round-trip. Measured marginals are
 * preserved exactly (see the lightcone argument above); the parameter
 * vector shrinks, with `param_map[old_slot]` giving the new slot or -1
 * when elided. Unchanged circuits come back verbatim with an identity
 * map.
 */
struct FixResult
{
    circ::Circuit circuit;
    /** old slot -> new slot, -1 when the slot was elided. */
    std::vector<int> param_map;
    std::size_t ops_elided = 0;
    std::size_t params_elided = 0;
};

FixResult elide_dead_structure(const circ::Circuit &circuit);

} // namespace elv::lint
