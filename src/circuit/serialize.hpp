/**
 * @file
 * Circuit serialization: OpenQASM 2.0 export (for interoperability with
 * the wider toolchain — Qiskit et al. can load the emitted files) and a
 * native text round-trip format that preserves the IR's variational/
 * embedding metadata, which QASM cannot express.
 */
#pragma once

#include <iosfwd>
#include <string>

#include "circuit/circuit.hpp"

namespace elv::circ {

/**
 * Emit OpenQASM 2.0. Parametric gates need bound values, so `params`
 * and `x` must cover the circuit's parameter/feature counts. Amplitude
 * embeddings cannot be expressed and are rejected.
 */
std::string to_qasm(const Circuit &circuit,
                    const std::vector<double> &params,
                    const std::vector<double> &x);

/**
 * Native text format, line-oriented and diff-friendly:
 *
 *   elv-circuit 1
 *   qubits 4
 *   gate H 0
 *   var RX 2            # variational, slot assigned in order
 *   embed RY 1 feat 0   # embedding of feature 0
 *   embed RZ 3 feat 0*1 # product embedding
 *   gate CX 0 1
 *   measure 0 2
 *
 * Round-trips every IR construct except pinned parameter slots
 * (deserialized circuits are re-indexed in op order, which matches any
 * circuit built through the public builders).
 */
std::string to_text(const Circuit &circuit);

/** Widest circuit from_text accepts; at least the widest built-in
 * device (the 127-qubit Eagle). */
inline constexpr int kMaxTextQubits = 1024;

/** Highest feature index from_text accepts in an `embed` line, so a
 * circuit's feature count (highest index + 1) cannot overflow. */
inline constexpr int kMaxTextFeature = 1 << 20;

/**
 * Parse the native text format; throws UsageError on malformed input:
 * a bad header or directive, a qubit count outside
 * [1, kMaxTextQubits], a qubit operand out of range, a 2-qubit gate on
 * one qubit, a gate in the wrong role (`gate RX`, `var H`, `embed U3`),
 * a feature index outside [0, kMaxTextFeature], a measured qubit out
 * of range or listed twice, or a token left after a line's operands.
 * Text from outside the program (journal records, `elivagar_cli lint`
 * files) goes through here.
 */
Circuit from_text(const std::string &text);

/**
 * Native text format flattened onto a single line (newlines escaped as
 * "\n", backslashes as "\\"), for embedding circuits in line-oriented
 * journals such as the search checkpoint.
 */
std::string to_text_line(const Circuit &circuit);

/** Parse the single-line escaped form produced by to_text_line. */
Circuit from_text_line(const std::string &line);

/** Convenience: stream a circuit as native text. */
std::ostream &operator<<(std::ostream &os, const Circuit &circuit);

} // namespace elv::circ
