#include "sim/density_matrix.hpp"

#include "common/logging.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace elv::sim {

namespace {

/** `num_qubits`, checked before the 2n-qubit vector is allocated. */
int
checked_width(int num_qubits)
{
    ELV_REQUIRE(num_qubits >= 1 && num_qubits <= DensityMatrix::kMaxQubits,
                "density matrix limited to 1.." << DensityMatrix::kMaxQubits
                                                << " qubits");
    return num_qubits;
}

} // namespace

DensityMatrix::DensityMatrix(int num_qubits)
    : num_qubits_(checked_width(num_qubits)), vec_(2 * num_qubits_)
{
}

void
DensityMatrix::reset()
{
    vec_.reset();
}

Amp
DensityMatrix::element(std::size_t row, std::size_t col) const
{
    const std::size_t n = static_cast<std::size_t>(num_qubits_);
    return vec_.amp(row | (col << n));
}

void
DensityMatrix::set_pure(const StateVector &psi)
{
    ELV_REQUIRE(psi.num_qubits() == num_qubits_,
                "pure-state qubit count mismatch");
    auto &data = vec_.amps();
    const std::size_t dim = psi.dim();
    for (std::size_t c = 0; c < dim; ++c)
        for (std::size_t r = 0; r < dim; ++r)
            data[r | (c << num_qubits_)] =
                psi.amp(r) * std::conj(psi.amp(c));
}

void
DensityMatrix::apply_superop_1q(const Mat4 &s, int q)
{
    ELV_REQUIRE(q >= 0 && q < num_qubits_, "qubit out of range");
    ELV_METRIC_COUNT("sim.superop_applies");
    vec_.apply_2q(s, q, q + num_qubits_);
}

void
DensityMatrix::apply_superop_2q(const Mat16 &s, int q0, int q1)
{
    ELV_REQUIRE(q0 >= 0 && q0 < num_qubits_ && q1 >= 0 &&
                    q1 < num_qubits_ && q0 != q1,
                "bad 2-qubit operands");
    ELV_METRIC_COUNT("sim.superop_applies");
    vec_.apply_4q(s, q0, q1, q0 + num_qubits_, q1 + num_qubits_);
}

void
DensityMatrix::apply_op(const circ::Op &op,
                        const std::vector<double> &params,
                        const std::vector<double> &x)
{
    if (op.kind == circ::GateKind::AmpEmbed) {
        StateVector psi(num_qubits_);
        psi.set_amplitude_embedding(x);
        set_pure(psi);
        return;
    }
    // U rho U^dag: U on the row qubits, conj(U) on the column qubits,
    // through StateVector::apply_gate's one kernel choice.
    const int n = num_qubits_;
    const auto angles = circ::op_angles(op, params, x);
    if (op.num_qubits() == 1) {
        const Mat2 u = gate_matrix_1q(op.kind, angles);
        vec_.apply_gate(op.kind, u, op.qubits[0]);
        vec_.apply_gate(op.kind, conjugate(u), op.qubits[0] + n);
    } else {
        const Mat4 u = gate_matrix_2q(op.kind, angles);
        vec_.apply_gate(op.kind, u, op.qubits[0], op.qubits[1]);
        vec_.apply_gate(op.kind, conjugate(u), op.qubits[0] + n,
                        op.qubits[1] + n);
    }
}

void
DensityMatrix::run(const circ::Circuit &circuit,
                   const std::vector<double> &params,
                   const std::vector<double> &x)
{
    ELV_REQUIRE(circuit.num_qubits() == num_qubits_,
                "circuit/state qubit count mismatch");
    // Coarse-granularity span: one per circuit run, never per gate.
    ELV_TRACE_SCOPE("dm.run", "sim");
    reset();
    for (const circ::Op &op : circuit.ops())
        apply_op(op, params, x);
}

double
DensityMatrix::trace() const
{
    double t = 0.0;
    const std::size_t dim = std::size_t{1} << num_qubits_;
    for (std::size_t i = 0; i < dim; ++i)
        t += element(i, i).real();
    return t;
}

std::vector<double>
DensityMatrix::probabilities(const std::vector<int> &qubits) const
{
    const OutcomeIndex outcome(qubits, num_qubits_);
    std::vector<double> probs(outcome.outcomes(), 0.0);
    const std::size_t dim = std::size_t{1} << num_qubits_;
    for (std::size_t i = 0; i < dim; ++i)
        probs[outcome(i)] += element(i, i).real();
    return probs;
}

} // namespace elv::sim
