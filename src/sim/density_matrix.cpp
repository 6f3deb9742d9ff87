#include "sim/density_matrix.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace elv::sim {

DensityMatrix::DensityMatrix(int num_qubits)
    : num_qubits_(num_qubits), vec_(2 * num_qubits)
{
    ELV_REQUIRE(num_qubits >= 1 && num_qubits <= 13,
                "density matrix limited to 1..13 qubits");
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
DensityMatrix::apply_1q(const Mat2 &u, int q)
{
    vec_.apply_1q(u, q);
    vec_.apply_1q(conjugate(u), q + num_qubits_);
}

void
DensityMatrix::apply_2q(const Mat4 &u, int q0, int q1)
{
    vec_.apply_2q(u, q0, q1);
    vec_.apply_2q(conjugate(u), q0 + num_qubits_, q1 + num_qubits_);
}

void
DensityMatrix::apply_kraus_1q(const std::vector<Mat2> &kraus, int q)
{
    ELV_REQUIRE(!kraus.empty(), "empty Kraus set");
    // Member scratch, sized on first use: copying into it and the
    // final swap recycle both buffers, so repeated channel
    // applications allocate nothing.
    auto &state = vec_.amps();
    kraus_original_ = state;
    kraus_acc_.assign(state.size(), Amp(0));
    for (const Mat2 &k : kraus) {
        std::copy(kraus_original_.begin(), kraus_original_.end(),
                  state.begin());
        apply_1q(k, q);
        for (std::size_t i = 0; i < state.size(); ++i)
            kraus_acc_[i] += state[i];
    }
    std::swap(state, kraus_acc_);
}

void
DensityMatrix::apply_kraus_2q(const std::vector<Mat4> &kraus, int q0,
                              int q1)
{
    ELV_REQUIRE(!kraus.empty(), "empty Kraus set");
    auto &state = vec_.amps();
    kraus_original_ = state;
    kraus_acc_.assign(state.size(), Amp(0));
    for (const Mat4 &k : kraus) {
        std::copy(kraus_original_.begin(), kraus_original_.end(),
                  state.begin());
        apply_2q(k, q0, q1);
        for (std::size_t i = 0; i < state.size(); ++i)
            kraus_acc_[i] += state[i];
    }
    std::swap(state, kraus_acc_);
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
DensityMatrix::apply_depolarizing_1q(double p, int q)
{
    ELV_REQUIRE(p >= 0.0 && p <= 1.0, "bad depolarizing probability");
    const double lambda = 4.0 * p / 3.0;
    const double keep = 1.0 - lambda;
    const double half = 0.5;
    const std::size_t dim = std::size_t{1} << num_qubits_;
    const std::size_t m = std::size_t{1} << q;
    auto &data = vec_.amps();
    for (std::size_t c = 0; c < dim; ++c) {
        for (std::size_t r = 0; r < dim; ++r) {
            const bool br = r & m, bc = c & m;
            const std::size_t idx = r | (c << num_qubits_);
            if (br != bc) {
                data[idx] *= keep;
            } else if (!br) {
                // Handle the (0,0)/(1,1) pair once, at the 0 slot.
                const std::size_t idx1 = (r | m) | ((c | m) <<
                                                    num_qubits_);
                const Amp mix = half * (data[idx] + data[idx1]);
                data[idx] = keep * data[idx] + lambda * mix;
                data[idx1] = keep * data[idx1] + lambda * mix;
            }
        }
    }
}

void
DensityMatrix::apply_depolarizing_2q(double p, int q0, int q1)
{
    ELV_REQUIRE(p >= 0.0 && p <= 1.0, "bad depolarizing probability");
    ELV_REQUIRE(q0 != q1, "depolarizing on equal qubits");
    const double lambda = 16.0 * p / 15.0;
    const double keep = 1.0 - lambda;
    const std::size_t dim = std::size_t{1} << num_qubits_;
    const std::size_t m0 = std::size_t{1} << q0;
    const std::size_t m1 = std::size_t{1} << q1;
    const std::size_t both = m0 | m1;
    auto &data = vec_.amps();
    for (std::size_t c = 0; c < dim; ++c) {
        for (std::size_t r = 0; r < dim; ++r) {
            const bool same = ((r ^ c) & both) == 0;
            const std::size_t idx = r | (c << num_qubits_);
            if (!same) {
                data[idx] *= keep;
            } else if ((r & both) == 0) {
                // Average the four matched diagonal-in-subspace slots.
                const std::size_t rows[4] = {r, r | m1, r | m0, r | both};
                Amp mix(0);
                std::size_t idxs[4];
                for (int k = 0; k < 4; ++k) {
                    const std::size_t cc =
                        (c & ~both) | (rows[k] & both);
                    idxs[k] = rows[k] | (cc << num_qubits_);
                    mix += data[idxs[k]];
                }
                mix *= 0.25;
                for (auto i : idxs)
                    data[i] = keep * data[i] + lambda * mix;
            }
        }
    }
}

void
DensityMatrix::apply_thermal_relaxation(double gamma, double lambda, int q)
{
    ELV_REQUIRE(gamma >= 0.0 && gamma <= 1.0 && lambda >= 0.0 &&
                    lambda <= 1.0,
                "bad relaxation parameters");
    const double keep = 1.0 - gamma;
    const double gain = gamma;
    const double coherence = std::sqrt((1.0 - gamma) * (1.0 - lambda));
    const std::size_t dim = std::size_t{1} << num_qubits_;
    const std::size_t m = std::size_t{1} << q;
    auto &data = vec_.amps();
    for (std::size_t c = 0; c < dim; ++c) {
        for (std::size_t r = 0; r < dim; ++r) {
            const bool br = r & m, bc = c & m;
            const std::size_t idx = r | (c << num_qubits_);
            if (br != bc) {
                data[idx] *= coherence;
            } else if (!br) {
                const std::size_t idx1 =
                    (r | m) | ((c | m) << num_qubits_);
                // (0,0) gains the decayed (1,1) population; then (1,1)
                // shrinks. Ordering matters: read old (1,1) first.
                data[idx] += gain * data[idx1];
                data[idx1] *= keep;
            }
        }
    }
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
    const int n = num_qubits_;
    switch (op.kind) {
      case circ::GateKind::CX:
        vec_.apply_cx(op.qubits[0], op.qubits[1]);
        vec_.apply_cx(op.qubits[0] + n, op.qubits[1] + n);
        return;
      case circ::GateKind::CZ:
        vec_.apply_cz(op.qubits[0], op.qubits[1]);
        vec_.apply_cz(op.qubits[0] + n, op.qubits[1] + n);
        return;
      case circ::GateKind::SWAP:
        vec_.apply_swap(op.qubits[0], op.qubits[1]);
        vec_.apply_swap(op.qubits[0] + n, op.qubits[1] + n);
        return;
      default:
        break;
    }
    if (circ::gate_is_diagonal_1q(op.kind)) {
        const auto angles = circ::op_angles(op, params, x);
        const Mat2 u = gate_matrix_1q(op.kind, angles);
        vec_.apply_diag_1q(u[0][0], u[1][1], op.qubits[0]);
        vec_.apply_diag_1q(std::conj(u[0][0]), std::conj(u[1][1]),
                           op.qubits[0] + n);
        return;
    }
    const auto angles = circ::op_angles(op, params, x);
    if (op.num_qubits() == 1)
        apply_1q(gate_matrix_1q(op.kind, angles), op.qubits[0]);
    else
        apply_2q(gate_matrix_2q(op.kind, angles), op.qubits[0],
                 op.qubits[1]);
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

double
DensityMatrix::purity() const
{
    // Tr(rho^2) = sum_{r,c} |rho(r,c)|^2 for Hermitian rho.
    double p = 0.0;
    for (const Amp &a : vec_.amps()) {
        const double re = a.real();
        const double im = a.imag();
        p += re * re + im * im;
    }
    return p;
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
