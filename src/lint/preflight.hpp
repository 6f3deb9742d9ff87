/**
 * @file
 * Pre-flight lint checks at the pipeline boundaries.
 *
 * Candidate generation, the compiler, and the executors each hand a
 * circuit to the next stage assuming its invariants hold. preflight()
 * is the cheap (O(ops)) check at those hand-offs: it lints the
 * circuit and, on any error diagnostic, throws InternalError carrying
 * the full diagnostic text, in every build. A malformed circuit
 * crossing a boundary is a bug in the producing stage, so it must
 * never be scored into a ranking or a journal.
 *
 * Observability (when metrics collection is on):
 *   lint.circuits_checked  circuits linted at any boundary
 *   lint.violations        error-severity diagnostics found
 */
#pragma once

#include "circuit/circuit.hpp"
#include "lint/lint.hpp"

namespace elv::lint {

/** Which pipeline hand-off a preflight check guards. */
enum class Boundary {
    CandidateGen,   ///< generator output entering the search
    CompilerOutput, ///< compile_for_device result
    Executor,       ///< circuit entering an execution backend
    Training,       ///< circuit entering the gradient trainer
};

/** Printable boundary name ("candidate-gen", ...). */
const char *boundary_name(Boundary boundary);

/**
 * Lint `circuit` at a boundary; throws InternalError when the report
 * holds an error diagnostic. See the file comment for the counters.
 */
void preflight(const circ::Circuit &circuit, Boundary boundary,
               const LintOptions &options = {});

} // namespace elv::lint
