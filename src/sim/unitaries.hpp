/**
 * @file
 * Dense gate unitaries and their parameter derivatives.
 *
 * Conventions: 2-qubit matrices are written in the basis |q0 q1> where q0
 * is the first listed qubit of the op (the control for CX/CRY), i.e.
 * local index = 2 * bit(q0) + bit(q1).
 */
#pragma once

#include <array>
#include <complex>

#include "circuit/gate.hpp"

namespace elv::sim {

using Amp = std::complex<double>;
using Mat2 = std::array<std::array<Amp, 2>, 2>;
using Mat4 = std::array<std::array<Amp, 4>, 4>;
/**
 * 16x16 dense matrix over a 4-qubit local basis; used for two-qubit
 * channel superoperators acting on (row, column) qubit pairs of a
 * vectorized density matrix.
 */
using Mat16 = std::array<std::array<Amp, 16>, 16>;

/** Unitary of a 1-qubit gate given its (up to 3) resolved angles. */
Mat2 gate_matrix_1q(circ::GateKind kind,
                    const std::array<double, 3> &angles);

/** Unitary of a 2-qubit gate given its resolved angles. */
Mat4 gate_matrix_2q(circ::GateKind kind,
                    const std::array<double, 3> &angles);

/** dU/d(angle[slot]) for a parametric 1-qubit gate. */
Mat2 gate_matrix_1q_deriv(circ::GateKind kind,
                          const std::array<double, 3> &angles, int slot);

/** dU/d(angle[slot]) for a parametric 2-qubit gate (CRY). */
Mat4 gate_matrix_2q_deriv(circ::GateKind kind,
                          const std::array<double, 3> &angles, int slot);

/** Conjugate transpose. */
Mat2 dagger(const Mat2 &m);
Mat4 dagger(const Mat4 &m);

/** Entrywise complex conjugate. */
Mat2 conjugate(const Mat2 &m);
Mat4 conjugate(const Mat4 &m);

/** Matrix product a * b. */
Mat2 matmul(const Mat2 &a, const Mat2 &b);
Mat4 matmul(const Mat4 &a, const Mat4 &b);
Mat16 matmul(const Mat16 &a, const Mat16 &b);

/** The 2x2 identity. */
Mat2 identity2();

/**
 * Embed a 1-qubit matrix into the 2-qubit basis |q0 q1>: slot 0 puts
 * `u` on q0 (kron(u, I)), slot 1 on q1 (kron(I, u)). Used by the
 * fusion pass to absorb 1-qubit gates into neighboring 2-qubit ops.
 */
Mat4 embed_1q_in_2q(const Mat2 &u, int slot);

/**
 * Reorder a 2-qubit matrix between the |q0 q1> and |q1 q0> bases
 * (conjugation by SWAP). Lets the fusion pass compose gates written
 * with opposite operand orders on the same qubit pair.
 */
Mat4 swap_qubit_order(const Mat4 &u);

} // namespace elv::sim
