/**
 * @file
 * elvlint — IR-level static verification for circuits, compiled
 * programs, and device models.
 *
 * The search pipeline generates, compiles, fuses, and executes
 * thousands of candidate circuits per run; each stage assumes
 * invariants of its inputs (qubit bounds, exactly-once parameter
 * bindings, coupling-map feasibility, fusion-barrier preservation)
 * that, when violated, surface only as a silently wrong fidelity
 * number. elvlint makes those invariants checkable: a set of
 * diagnostic passes over the three core data structures —
 * `circ::Circuit` IR, `sim::FusedProgram` compiled streams, and
 * `dev::Device` models — each emitting structured diagnostics
 * (severity, rule id, offending op index, human message) instead of
 * aborting, so callers can reject, count, or report.
 *
 * lint_circuit runs one fixed table of circuit rules (rules.cpp), and
 * lint_program and lint_device are the program and device rules.
 * `preflight.hpp` wires lint_circuit into the pipeline boundaries;
 * `elivagar_cli lint` exposes all three on the command line.
 *
 * Rule catalog (see rule_catalog()):
 *   qubit-bounds      E  qubit indices in range, arity slots consistent
 *   param-binding     E  every parameter slot bound exactly once,
 *                        no dangling parametric gates or stale metadata
 *   embedding-order   E  amplitude embedding only at op 0 and alone;
 *                        with require_embedding_prefix, data embeddings
 *                        precede all variational gates
 *   connectivity      E  every 2-qubit gate on a device coupling edge
 *                        (needs LintOptions::device; post-SABRE check)
 *   clifford-replica  E  replicas are pure Clifford: all rotation
 *                        angles snapped to pi/2 multiples and lowered
 *                        (needs LintOptions::expect_clifford_replica)
 *   measurement       E  measured set in range, duplicate-free;
 *                        warns when nothing is measured (the IR is
 *                        measure-terminal, so "gate after measure" is
 *                        unrepresentable and guarded at the set level)
 *   dead-code         W  unused qubits, never-trained parameter slots
 *   dead-lightcone    W  ops outside the backward measurement
 *                        lightcone — traced out of every measured
 *                        marginal (dataflow.hpp; `lint --fix` elides)
 *   dead-parameter    W  parameter slots bound only by out-of-cone
 *                        rotations (zero gradient signal)
 *   clifford-region   N  const/Clifford prefix/suffix regions,
 *                        annotated for the stabilizer fast path
 *   fusion-barrier    E  fused programs keep every parametric/embedding
 *                        barrier of their source circuit, in order,
 *                        with matching bindings (lint_program)
 *   device-topology   E  coupling edges valid, no self-loops or
 *                        duplicates; warns on disconnected graphs
 *   device-calibration E calibration vectors sized to the topology,
 *                        error rates in [0, 1], coherence times and
 *                        durations positive and finite (lint_device)
 */
#pragma once

#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "device/device.hpp"
#include "sim/fusion.hpp"

namespace elv::lint {

/** How bad a diagnostic is. Errors make a report "dirty". */
enum class Severity {
    Note,    ///< stylistic or informational
    Warning, ///< suspicious but executable (dead code, empty measure)
    Error,   ///< the artifact violates a pipeline invariant
};

/** Printable severity name ("note" / "warning" / "error"). */
const char *severity_name(Severity severity);

/** One finding of one rule. */
struct Diagnostic
{
    Severity severity = Severity::Error;
    /** Rule id from the catalog, e.g. "qubit-bounds". */
    std::string rule;
    /** Offending op index (fused-stream index for program rules);
     *  -1 when the finding concerns the artifact as a whole. */
    int op_index = -1;
    std::string message;

    /** One-line rendering: `error[qubit-bounds] op 3: ...`. */
    std::string to_string() const;
};

/** Everything the passes found about one artifact. */
struct Report
{
    std::vector<Diagnostic> diagnostics;

    /** True when any diagnostic has Error severity. */
    bool has_errors() const;

    /** Diagnostics of the given severity. */
    std::size_t count(Severity severity) const;

    /** True when rule `rule` produced at least one diagnostic. */
    bool fired(const std::string &rule) const;

    /** Append a diagnostic. */
    void add(Severity severity, std::string rule, int op_index,
             std::string message);

    /** Append every diagnostic of `other`. */
    void merge(const Report &other);

    /** Multi-line rendering, one diagnostic per line. */
    std::string to_string() const;
};

/**
 * A borrowed view of circuit IR. Lint rules read views rather than
 * `circ::Circuit` so malformed IR — which the Circuit builder API
 * rejects at construction — can still be expressed and linted (the
 * adversarial test corpus builds raw views). The referenced vectors
 * must outlive the view.
 */
struct CircuitView
{
    int num_qubits = 0;
    /** Declared trainable parameter count. */
    int num_params = 0;
    const std::vector<circ::Op> &ops;
    const std::vector<int> &measured;
};

/** View of a well-formed circuit (borrows; `circuit` must outlive). */
CircuitView view_of(const circ::Circuit &circuit);

/** Context a lint run is given. All fields optional. */
struct LintOptions
{
    /** Target device; enables the connectivity rule. */
    const dev::Device *device = nullptr;
    /** The circuit claims to be a Clifford replica. */
    bool expect_clifford_replica = false;
    /** Data embeddings must precede all variational gates (fixed-
     *  embedding templates; searched candidates interleave by design). */
    bool require_embedding_prefix = false;
};

/** Static description of a rule (for listings and docs). */
struct RuleInfo
{
    std::string id;
    /** Severity of this rule's typical findings. */
    Severity severity = Severity::Error;
    std::string summary;
};

/** All built-in rules: the circuit rules in run order, then the
 *  program and device rules. */
const std::vector<RuleInfo> &rule_catalog();

/** Run every circuit rule over a circuit. Safe to call concurrently
 *  (the pipeline boundaries lint from pool workers). */
Report lint_circuit(const circ::Circuit &circuit,
                    const LintOptions &options = {});

/** Run every circuit rule over a raw IR view. */
Report lint_circuit(const CircuitView &view,
                    const LintOptions &options = {});

/**
 * Lint a compiled fused program against the circuit it claims to have
 * been compiled from (the "fusion-barrier" rule): every parametric/
 * embedding source op must survive as a Barrier entry, in order, with
 * identical bindings — the precondition for replaying one program for
 * fresh (params, x) values — and the fused group accounting must cover
 * exactly the fixed source ops. Detects a program paired with another
 * circuit, dropped barriers, and regions fused across a barrier. The
 * rule reads no option; callers may pass the ones they lint circuits
 * with.
 */
Report lint_program(const sim::FusedProgram &program,
                    const circ::Circuit &source,
                    const LintOptions &options = {});

/**
 * Lint a device model ("device-topology" + "device-calibration"):
 * diagnostic-emitting counterpart of Device::validate(), usable on
 * untrusted models without aborting.
 */
Report lint_device(const dev::Device &device);

} // namespace elv::lint
