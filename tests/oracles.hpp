/**
 * @file
 * Reference implementations the production paths are checked against.
 * Neither runs in a search, a training run or an evaluation:
 *
 *  - parameter_shift_gradient: the hardware-style gradient (two shifted
 *    executions per rotation slot, four per CRY slot), the oracle for
 *    sim::adjoint_gradient.
 *  - KrausRho: a density matrix whose channels are applied as the Kraus
 *    loop rho -> sum_k K rho K^dag, one full-state copy and two kernel
 *    passes per operator, the oracle for the superoperator kernels and
 *    the compiled noisy programs.
 *  - dense_apply_4q: the 16x16 kernel with every coefficient multiplied,
 *    zeros included, the oracle for sim::vec::apply_4q, which sums only
 *    the nonzeros.
 *  - scalar_1q, scalar_diag_1q, scalar_2q and scalar_matmul16: the
 *    std::complex loops whose arithmetic every tier of the other
 *    sim::vec kernels reproduces bit for bit.
 */
#pragma once

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/logging.hpp"
#include "sim/density_matrix.hpp"
#include "sim/fusion.hpp"
#include "sim/gradients.hpp"
#include "sim/observable.hpp"
#include "sim/statevector.hpp"
#include "sim/unitaries.hpp"
#include "sim/vec_complex.hpp"

namespace elv::test {

/**
 * Parameter-shift differentiation: exact two-term rule for single-qubit
 * rotations and U3 slots, four-term rule for CRY.
 */
inline sim::GradientResult
parameter_shift_gradient(const sim::FusedProgram &program,
                         const std::vector<double> &params,
                         const std::vector<double> &x,
                         const std::vector<sim::DiagonalObservable> &obs)
{
    const circ::Circuit &circuit = program.source();
    sim::GradientResult result;
    result.values = sim::expectations(program, params, x, obs);
    result.circuit_executions = 1;
    result.jacobian.assign(
        obs.size(),
        std::vector<double>(static_cast<std::size_t>(circuit.num_params()),
                            0.0));

    auto eval_shifted = [&](std::size_t pi, double shift) {
        std::vector<double> shifted = params;
        shifted[pi] += shift;
        ++result.circuit_executions;
        return sim::expectations(program, shifted, x, obs);
    };

    for (const circ::Op &op : circuit.ops()) {
        if (op.role != circ::ParamRole::Variational)
            continue;
        for (int slot = 0; slot < op.num_params(); ++slot) {
            const std::size_t pi =
                static_cast<std::size_t>(op.param_index + slot);
            if (op.kind == circ::GateKind::CRY) {
                // Four-term rule for generators with eigenvalues
                // {0, +-1/2}: frequencies {1/2, 1}.
                const double c1 = (std::sqrt(2.0) + 1.0) /
                                  (4.0 * std::sqrt(2.0));
                const double c2 = (std::sqrt(2.0) - 1.0) /
                                  (4.0 * std::sqrt(2.0));
                const auto p1 = eval_shifted(pi, M_PI / 2);
                const auto m1 = eval_shifted(pi, -M_PI / 2);
                const auto p2 = eval_shifted(pi, 3 * M_PI / 2);
                const auto m2 = eval_shifted(pi, -3 * M_PI / 2);
                for (std::size_t oi = 0; oi < obs.size(); ++oi)
                    result.jacobian[oi][pi] =
                        c1 * (p1[oi] - m1[oi]) - c2 * (p2[oi] - m2[oi]);
            } else {
                // Exact two-term rule for rotations with generator
                // eigenvalues +-1/2.
                const auto plus = eval_shifted(pi, M_PI / 2);
                const auto minus = eval_shifted(pi, -M_PI / 2);
                for (std::size_t oi = 0; oi < obs.size(); ++oi)
                    result.jacobian[oi][pi] =
                        0.5 * (plus[oi] - minus[oi]);
            }
        }
    }
    return result;
}

/**
 * amps <- u amps on the qubits of masks m0..m3 (local basis
 * |q0 q1 q2 q3>, the layout of sim::vec::apply_4q), as a dense 16x16
 * matvec per group: every accumulator starts from zero and sums all 16
 * columns in order.
 */
inline void
dense_apply_4q(std::complex<double> *amps, std::size_t dim, std::size_t m0,
               std::size_t m1, std::size_t m2, std::size_t m3,
               const std::complex<double> *u)
{
    std::size_t sorted[4] = {m0, m1, m2, m3};
    std::sort(sorted, sorted + 4);
    std::size_t offset[16];
    for (std::size_t k = 0; k < 16; ++k)
        offset[k] = ((k & 8) ? m0 : 0) | ((k & 4) ? m1 : 0) |
                    ((k & 2) ? m2 : 0) | ((k & 1) ? m3 : 0);
    for (std::size_t g = 0; g < dim >> 4; ++g) {
        std::size_t i = g;
        for (int a = 0; a < 4; ++a)
            i = sim::vec::insert_zero_bit(i, sorted[a]);
        std::complex<double> in[16];
        for (std::size_t k = 0; k < 16; ++k)
            in[k] = amps[i | offset[k]];
        for (std::size_t r = 0; r < 16; ++r) {
            std::complex<double> acc(0);
            for (std::size_t c = 0; c < 16; ++c)
                acc += u[16 * r + c] * in[c];
            amps[i | offset[r]] = acc;
        }
    }
}

inline void
scalar_1q(std::complex<double> *amps, std::size_t dim, std::size_t stride,
          const std::complex<double> *u, std::size_t base_begin,
          std::size_t base_end)
{
    (void)dim;
    for (std::size_t base = base_begin; base < base_end;
         base += 2 * stride) {
        for (std::size_t off = 0; off < stride; ++off) {
            const std::size_t i0 = base + off;
            const std::size_t i1 = i0 + stride;
            const std::complex<double> a0 = amps[i0];
            const std::complex<double> a1 = amps[i1];
            amps[i0] = u[0] * a0 + u[1] * a1;
            amps[i1] = u[2] * a0 + u[3] * a1;
        }
    }
}

inline void
scalar_diag_1q(std::complex<double> *amps, std::size_t stride,
               std::complex<double> d0, std::complex<double> d1,
               std::size_t base_begin, std::size_t base_end)
{
    for (std::size_t base = base_begin; base < base_end;
         base += 2 * stride) {
        for (std::size_t off = 0; off < stride; ++off) {
            amps[base + off] *= d0;
            amps[base + off + stride] *= d1;
        }
    }
}

inline void
scalar_2q(std::complex<double> *amps, std::size_t m0, std::size_t m1,
          std::size_t lo, std::size_t hi, const std::complex<double> *u,
          std::size_t g_begin, std::size_t g_end)
{
    for (std::size_t g = g_begin; g < g_end; ++g) {
        const std::size_t i = sim::vec::insert_zero_bit(
            sim::vec::insert_zero_bit(g, lo), hi);
        // Local basis |q0 q1>: index = 2 * bit(q0) + bit(q1).
        const std::size_t idx[4] = {i, i | m1, i | m0, i | m0 | m1};
        std::complex<double> in[4];
        for (std::size_t k = 0; k < 4; ++k)
            in[k] = amps[idx[k]];
        for (std::size_t r = 0; r < 4; ++r) {
            std::complex<double> acc(0);
            for (std::size_t c = 0; c < 4; ++c)
                acc += u[4 * r + c] * in[c];
            amps[idx[r]] = acc;
        }
    }
}

/** out += a * b over row-major 16x16 matrices, skipping zero a[i][k]
 *  (superoperators are sparse); each out[i][j] sums in k order. */
inline void
scalar_matmul16(const std::complex<double> *a, const std::complex<double> *b,
                std::complex<double> *out)
{
    for (std::size_t i = 0; i < 16; ++i)
        for (std::size_t k = 0; k < 16; ++k) {
            const std::complex<double> aik = a[16 * i + k];
            if (aik == std::complex<double>(0))
                continue;
            for (std::size_t j = 0; j < 16; ++j)
                out[16 * i + j] += aik * b[16 * k + j];
        }
}

/**
 * rho as a 2n-qubit state vector (row qubits 0..n-1, column qubits
 * n..2n-1, the layout of sim::DensityMatrix) with gates applied as
 * U rho U^dag and channels as the Kraus loop.
 */
class KrausRho
{
  public:
    /** |0...0><0...0| over `num_qubits` qubits. */
    explicit KrausRho(int num_qubits)
        : num_qubits_(num_qubits), vec_(2 * num_qubits)
    {
    }

    /** A copy of `rho`, loaded element by element. */
    explicit KrausRho(const sim::DensityMatrix &rho)
        : KrausRho(rho.num_qubits())
    {
        const std::size_t dim = std::size_t{1} << num_qubits_;
        for (std::size_t c = 0; c < dim; ++c)
            for (std::size_t r = 0; r < dim; ++r)
                vec_.amps()[r | (c << num_qubits_)] = rho.element(r, c);
    }

    int num_qubits() const { return num_qubits_; }

    sim::Amp element(std::size_t row, std::size_t col) const
    {
        return vec_.amp(row | (col << num_qubits_));
    }

    void apply_1q(const sim::Mat2 &u, int q)
    {
        vec_.apply_1q(u, q);
        vec_.apply_1q(sim::conjugate(u), q + num_qubits_);
    }

    void apply_2q(const sim::Mat4 &u, int q0, int q1)
    {
        vec_.apply_2q(u, q0, q1);
        vec_.apply_2q(sim::conjugate(u), q0 + num_qubits_,
                      q1 + num_qubits_);
    }

    /** One IR op through its dense gate matrix; an amplitude embedding
     *  replaces rho with the embedded pure state. */
    void apply_op(const circ::Op &op, const std::vector<double> &params,
                  const std::vector<double> &x)
    {
        if (op.kind == circ::GateKind::AmpEmbed) {
            sim::StateVector psi(num_qubits_);
            psi.set_amplitude_embedding(x);
            sim::DensityMatrix pure(num_qubits_);
            pure.set_pure(psi);
            *this = KrausRho(pure);
            return;
        }
        const auto angles = circ::op_angles(op, params, x);
        if (op.num_qubits() == 1)
            apply_1q(sim::gate_matrix_1q(op.kind, angles), op.qubits[0]);
        else
            apply_2q(sim::gate_matrix_2q(op.kind, angles), op.qubits[0],
                     op.qubits[1]);
    }

    /** rho -> sum_k K rho K^dag on qubit q. */
    void apply_kraus_1q(const std::vector<sim::Mat2> &kraus, int q)
    {
        ELV_REQUIRE(!kraus.empty(), "empty Kraus set");
        auto &state = vec_.amps();
        kraus_original_ = state;
        kraus_acc_.assign(state.size(), sim::Amp(0));
        for (const sim::Mat2 &k : kraus) {
            std::copy(kraus_original_.begin(), kraus_original_.end(),
                      state.begin());
            apply_1q(k, q);
            for (std::size_t i = 0; i < state.size(); ++i)
                kraus_acc_[i] += state[i];
        }
        std::swap(state, kraus_acc_);
    }

    /** rho -> sum_k K rho K^dag on the pair (q0, q1). */
    void apply_kraus_2q(const std::vector<sim::Mat4> &kraus, int q0, int q1)
    {
        ELV_REQUIRE(!kraus.empty(), "empty Kraus set");
        auto &state = vec_.amps();
        kraus_original_ = state;
        kraus_acc_.assign(state.size(), sim::Amp(0));
        for (const sim::Mat4 &k : kraus) {
            std::copy(kraus_original_.begin(), kraus_original_.end(),
                      state.begin());
            apply_2q(k, q0, q1);
            for (std::size_t i = 0; i < state.size(); ++i)
                kraus_acc_[i] += state[i];
        }
        std::swap(state, kraus_acc_);
    }

    /** Marginal outcome distribution over `qubits` (LSB-first). */
    std::vector<double> probabilities(const std::vector<int> &qubits) const
    {
        const sim::OutcomeIndex outcome(qubits, num_qubits_);
        std::vector<double> probs(outcome.outcomes(), 0.0);
        const std::size_t dim = std::size_t{1} << num_qubits_;
        for (std::size_t i = 0; i < dim; ++i)
            probs[outcome(i)] += element(i, i).real();
        return probs;
    }

  private:
    int num_qubits_;
    sim::StateVector vec_;
    /** Kraus-loop scratch: the state before the channel and the sum. */
    sim::AmpVector kraus_original_;
    sim::AmpVector kraus_acc_;
};

} // namespace elv::test
