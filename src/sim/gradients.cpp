#include "sim/gradients.hpp"

#include "common/logging.hpp"

namespace elv::sim {

namespace {

/** Apply U_op^dagger for a fixed-angle op. */
void
apply_op_dagger(StateVector &psi, const circ::Op &op,
                const std::array<double, 3> &angles)
{
    if (op.num_qubits() == 1)
        psi.apply_1q(dagger(gate_matrix_1q(op.kind, angles)), op.qubits[0]);
    else
        psi.apply_2q(dagger(gate_matrix_2q(op.kind, angles)), op.qubits[0],
                     op.qubits[1]);
}

/** 2 * Re(<lhs| M |rhs>) where M is the derivative matrix of the op. */
double
deriv_overlap(const StateVector &lhs, const StateVector &rhs,
              const circ::Op &op, const std::array<double, 3> &angles,
              int slot)
{
    StateVector mu = rhs;
    if (op.num_qubits() == 1)
        mu.apply_1q(gate_matrix_1q_deriv(op.kind, angles, slot),
                    op.qubits[0]);
    else
        mu.apply_2q(gate_matrix_2q_deriv(op.kind, angles, slot),
                    op.qubits[0], op.qubits[1]);
    Amp acc(0);
    for (std::size_t i = 0; i < mu.dim(); ++i)
        acc += std::conj(lhs.amp(i)) * mu.amp(i);
    return 2.0 * acc.real();
}

} // namespace

std::vector<double>
expectations(const FusedProgram &program, const std::vector<double> &params,
             const std::vector<double> &x,
             const std::vector<DiagonalObservable> &obs)
{
    StateVector psi(program.num_qubits());
    program.run(psi, params, x);
    std::vector<double> values;
    values.reserve(obs.size());
    // All observables share the measured-qubit distribution; evaluate it
    // once when they use identical qubit sets.
    for (const auto &o : obs)
        values.push_back(o.expectation(psi));
    return values;
}

GradientResult
adjoint_gradient(const FusedProgram &program,
                 const std::vector<double> &params,
                 const std::vector<double> &x,
                 const std::vector<DiagonalObservable> &obs,
                 bool with_embedding_grads)
{
    const circ::Circuit &circuit = program.source();
    const auto &ops = circuit.ops();
    for (std::size_t i = 0; i < ops.size(); ++i) {
        if (ops[i].kind == circ::GateKind::AmpEmbed)
            ELV_REQUIRE(i == 0, "amplitude embedding must be the first op "
                                "for adjoint differentiation");
    }

    // Map op index -> position in embedding_op_indices() order.
    std::vector<int> embed_position(ops.size(), -1);
    std::size_t num_embeds = 0;
    if (with_embedding_grads) {
        for (std::size_t i = 0; i < ops.size(); ++i) {
            if (ops[i].role != circ::ParamRole::Embedding)
                continue;
            ELV_REQUIRE(ops[i].kind != circ::GateKind::AmpEmbed,
                        "amplitude embeddings have no angle gradient");
            ELV_REQUIRE(ops[i].data_index2 < 0,
                        "product embeddings unsupported for embedding "
                        "gradients");
            embed_position[i] = static_cast<int>(num_embeds++);
        }
    }

    GradientResult result;
    result.values.resize(obs.size());
    result.jacobian.assign(obs.size(),
                           std::vector<double>(
                               static_cast<std::size_t>(
                                   circuit.num_params()),
                               0.0));
    if (with_embedding_grads)
        result.embedding_jacobian.assign(
            obs.size(), std::vector<double>(num_embeds, 0.0));
    result.circuit_executions = 1;

    StateVector forward(circuit.num_qubits());
    // Fused forward pass; the reverse sweep stays op-by-op because it
    // needs per-op derivative insertions.
    program.run(forward, params, x);

    for (std::size_t oi = 0; oi < obs.size(); ++oi) {
        result.values[oi] = obs[oi].expectation(forward);

        StateVector psi = forward;
        StateVector lambda = forward;
        obs[oi].apply_to(lambda);

        for (std::size_t k = ops.size(); k-- > 0;) {
            const circ::Op &op = ops[k];
            if (op.kind == circ::GateKind::AmpEmbed)
                break; // state preparation: nothing differentiable before
            const auto angles = circ::op_angles(op, params, x);
            apply_op_dagger(psi, op, angles);
            if (op.role == circ::ParamRole::Variational) {
                for (int slot = 0; slot < op.num_params(); ++slot) {
                    result.jacobian[oi][static_cast<std::size_t>(
                        op.param_index + slot)] =
                        deriv_overlap(lambda, psi, op, angles, slot);
                }
            } else if (with_embedding_grads &&
                       op.role == circ::ParamRole::Embedding) {
                result.embedding_jacobian[oi][static_cast<std::size_t>(
                    embed_position[k])] =
                    deriv_overlap(lambda, psi, op, angles, 0);
            }
            apply_op_dagger(lambda, op, angles);
        }
    }
    return result;
}

} // namespace elv::sim
