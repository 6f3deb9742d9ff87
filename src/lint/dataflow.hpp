/**
 * @file
 * elvlint dataflow analyses over circuit IR, and the `lint --fix`
 * rewrite built on them.
 *
 * The per-op rules in rules.cpp check shape; these analyses read what
 * a circuit computes:
 *
 *  - **measurement lightcone** — one backward pass from the measured
 *    qubits through entangling gates. An op whose operands all lie
 *    outside the cone at its position acts on its qubits after their
 *    last coupling to the measured ones, so it is traced out of the
 *    measured marginal: any trace-preserving channel (unitary or
 *    noise) on qubits the cone never couples back in commutes with the
 *    partial trace, so eliding such ops leaves every measured outcome
 *    distribution mathematically unchanged (noiseless AND per-gate
 *    noisy execution — this codebase attaches noise channels to a
 *    gate's own operands; see noise/noise_model.hpp).
 *
 *  - **parameter liveness** — variational slots bound only by
 *    out-of-cone rotations. Dead params inflate the training dimension
 *    for exactly zero gradient signal.
 *
 *  - **const/Clifford regions** — maximal prefixes/suffixes that are
 *    Clifford-only or parameter-free, the annotation the
 *    `clifford-region` note reports.
 *
 * The `dead-lightcone` and `dead-parameter` rules report the first two;
 * `elide_dead_structure` (the `lint --fix` autofix) drops dead ops AND
 * dead params, renumbering the survivors densely so the result
 * serializes through the native text format. The search pipeline does
 * not rewrite candidates.
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

/** Lightcone + parameter-liveness result (one backward pass). */
struct LightconeAnalysis
{
    /** Per op: does it influence any measured qubit? */
    std::vector<char> live_ops;
    /** Per qubit: did it enter the cone at some position? */
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
     *  reported here too since the autofix must handle both). */
    std::vector<int> dead_params() const;
};

/**
 * One backward pass from the measured qubits with a per-qubit cone. An
 * op is live iff it touches the cone at its own position; a live op
 * pulls all its operands into the cone (entanglement can carry
 * influence), and a live AmpEmbed pulls in every qubit. Parameter
 * liveness falls out of the same pass: a slot is live iff a live
 * variational op binds it.
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
     *  constant across training steps for a fixed sample. */
    int param_free_prefix = 0;
    /** Whole circuit is fixed Clifford (replicas always are). */
    bool fully_clifford = false;
    /** Whole circuit carries no variational parameters. */
    bool param_free = false;
};

/** A forward scan for the prefixes and a backward one for the suffix. */
CliffordRegions analyze_clifford_regions(const CircuitView &view);

/**
 * Autofix rewrite: drop dead ops AND the parameter slots that die with
 * them, renumbering surviving slots densely in op order — the form the
 * native text serialization can round-trip. Measured marginals are
 * preserved exactly (see the lightcone argument above); the parameter
 * vector shrinks, with `param_map[old_slot]` giving the new slot or -1
 * when elided. A rewrite also drops the trailing qubits no kept op
 * touches and no measurement reads; it never renumbers a used qubit,
 * so device-native labels stay valid and an unused qubit below a used
 * one keeps its label. Unchanged circuits come back verbatim with an
 * identity map.
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
