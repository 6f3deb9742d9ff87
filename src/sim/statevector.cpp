#include "sim/statevector.hpp"

#include <cmath>

#include "common/logging.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/kernel_obs.hpp"
#include "sim/vec_complex.hpp"

namespace elv::sim {

using vec::insert_zero_bit;

OutcomeIndex::OutcomeIndex(const std::vector<int> &qubits, int num_qubits)
{
    ELV_REQUIRE(qubits.size() <= 20, "too many measured qubits");
    masks_.reserve(qubits.size());
    std::size_t seen = 0;
    for (const int q : qubits) {
        ELV_REQUIRE(q >= 0 && q < num_qubits,
                    "measured qubit " << q << " out of range");
        const std::size_t mask = std::size_t{1} << q;
        ELV_REQUIRE(!(seen & mask), "measured qubit " << q << " repeated");
        seen |= mask;
        masks_.push_back(mask);
    }
}

StateVector::StateVector(int num_qubits)
    : num_qubits_(num_qubits)
{
    ELV_REQUIRE(num_qubits >= 1 && num_qubits <= 26,
                "state vector limited to 1..26 qubits");
    amps_.assign(std::size_t{1} << num_qubits, Amp(0));
    amps_[0] = Amp(1);
}

void
StateVector::reset()
{
    std::fill(amps_.begin(), amps_.end(), Amp(0));
    amps_[0] = Amp(1);
}

void
StateVector::apply_1q(const Mat2 &u, int q)
{
    ELV_REQUIRE(q >= 0 && q < num_qubits_, "qubit out of range");
    const std::size_t stride = std::size_t{1} << q;
    vec::apply_1q(amps_.data(), amps_.size(), stride, u[0].data());
}

void
StateVector::apply_2q(const Mat4 &u, int q0, int q1)
{
    ELV_REQUIRE(q0 >= 0 && q0 < num_qubits_ && q1 >= 0 &&
                    q1 < num_qubits_ && q0 != q1,
                "bad 2-qubit operands");
    const std::size_t m0 = std::size_t{1} << q0;
    const std::size_t m1 = std::size_t{1} << q1;
    vec::apply_2q(amps_.data(), amps_.size(), m0, m1, u[0].data());
}

void
StateVector::apply_4q(const Mat16 &u, int q0, int q1, int q2, int q3)
{
    const int qs[4] = {q0, q1, q2, q3};
    for (int a = 0; a < 4; ++a) {
        ELV_REQUIRE(qs[a] >= 0 && qs[a] < num_qubits_,
                    "qubit out of range");
        for (int b = a + 1; b < 4; ++b)
            ELV_REQUIRE(qs[a] != qs[b], "duplicate 4-qubit operand");
    }
    const std::size_t m0 = std::size_t{1} << q0;
    const std::size_t m1 = std::size_t{1} << q1;
    const std::size_t m2 = std::size_t{1} << q2;
    const std::size_t m3 = std::size_t{1} << q3;
    vec::apply_4q(amps_.data(), amps_.size(), m0, m1, m2, m3,
                  u[0].data());
}

void
StateVector::apply_cx(int control, int target)
{
    ELV_REQUIRE(control >= 0 && control < num_qubits_ && target >= 0 &&
                    target < num_qubits_ && control != target,
                "bad 2-qubit operands");
    const std::size_t mc = std::size_t{1} << control;
    const std::size_t mt = std::size_t{1} << target;
    const std::size_t lo = mc < mt ? mc : mt;
    const std::size_t hi = mc < mt ? mt : mc;
    const std::size_t groups = amps_.size() >> 2;
    for (std::size_t g = 0; g < groups; ++g) {
        const std::size_t i =
            insert_zero_bit(insert_zero_bit(g, lo), hi);
        std::swap(amps_[i | mc], amps_[i | mc | mt]);
    }
}

void
StateVector::apply_cz(int q0, int q1)
{
    ELV_REQUIRE(q0 >= 0 && q0 < num_qubits_ && q1 >= 0 &&
                    q1 < num_qubits_ && q0 != q1,
                "bad 2-qubit operands");
    const std::size_t m0 = std::size_t{1} << q0;
    const std::size_t m1 = std::size_t{1} << q1;
    const std::size_t lo = m0 < m1 ? m0 : m1;
    const std::size_t hi = m0 < m1 ? m1 : m0;
    const std::size_t groups = amps_.size() >> 2;
    for (std::size_t g = 0; g < groups; ++g) {
        const std::size_t i =
            insert_zero_bit(insert_zero_bit(g, lo), hi) | m0 | m1;
        amps_[i] = -amps_[i];
    }
}

void
StateVector::apply_swap(int q0, int q1)
{
    ELV_REQUIRE(q0 >= 0 && q0 < num_qubits_ && q1 >= 0 &&
                    q1 < num_qubits_ && q0 != q1,
                "bad 2-qubit operands");
    const std::size_t m0 = std::size_t{1} << q0;
    const std::size_t m1 = std::size_t{1} << q1;
    const std::size_t lo = m0 < m1 ? m0 : m1;
    const std::size_t hi = m0 < m1 ? m1 : m0;
    const std::size_t groups = amps_.size() >> 2;
    for (std::size_t g = 0; g < groups; ++g) {
        const std::size_t i =
            insert_zero_bit(insert_zero_bit(g, lo), hi);
        std::swap(amps_[i | m0], amps_[i | m1]);
    }
}

void
StateVector::apply_diag_1q(Amp d0, Amp d1, int q)
{
    ELV_REQUIRE(q >= 0 && q < num_qubits_, "qubit out of range");
    const std::size_t stride = std::size_t{1} << q;
    vec::apply_diag_1q(amps_.data(), amps_.size(), stride, d0, d1);
}

void
StateVector::apply_op(const circ::Op &op, const std::vector<double> &params,
                      const std::vector<double> &x)
{
    if (op.kind == circ::GateKind::AmpEmbed) {
        set_amplitude_embedding(x);
        return;
    }
    const auto angles = circ::op_angles(op, params, x);
    if (op.num_qubits() == 1)
        apply_gate(op.kind, gate_matrix_1q(op.kind, angles), op.qubits[0]);
    else
        apply_gate(op.kind, gate_matrix_2q(op.kind, angles), op.qubits[0],
                   op.qubits[1]);
}

void
StateVector::apply_gate(circ::GateKind kind, const Mat2 &u, int q)
{
    // Kernel-mix counters (the --metrics "which dispatch path ran"
    // tally). Each site is a relaxed flag load when metrics are off, so
    // the dispatch stays kernel-bound either way.
    if (circ::gate_is_diagonal_1q(kind)) {
        // The diagonal comes from the same matrix as the dense path,
        // so the fast path can never drift from it.
        ELV_METRIC_COUNT("sim.kernel.diag1q");
        apply_diag_1q(u[0][0], u[1][1], q);
        return;
    }
    ELV_METRIC_COUNT("sim.kernel.dense1q");
    apply_1q(u, q);
}

void
StateVector::apply_gate(circ::GateKind kind, const Mat4 &u, int q0, int q1)
{
    // Permutation/phase gates: no matrix, no multiplies.
    switch (kind) {
      case circ::GateKind::CX:
        ELV_METRIC_COUNT("sim.kernel.cx");
        apply_cx(q0, q1);
        return;
      case circ::GateKind::CZ:
        ELV_METRIC_COUNT("sim.kernel.cz");
        apply_cz(q0, q1);
        return;
      case circ::GateKind::SWAP:
        ELV_METRIC_COUNT("sim.kernel.swap");
        apply_swap(q0, q1);
        return;
      default:
        break;
    }
    ELV_METRIC_COUNT("sim.kernel.dense2q");
    apply_2q(u, q0, q1);
}

void
StateVector::run(const circ::Circuit &circuit,
                 const std::vector<double> &params,
                 const std::vector<double> &x)
{
    ELV_REQUIRE(circuit.num_qubits() == num_qubits_,
                "circuit/state qubit count mismatch");
    // Coarse-granularity span: one per circuit run, never per gate.
    ELV_TRACE_SCOPE("sv.run", "sim");
    ELV_METRIC_COUNT("sim.sv.runs");
    note_kernel_dispatch();
    reset();
    for (const circ::Op &op : circuit.ops())
        apply_op(op, params, x);
}

void
StateVector::set_amplitude_embedding(const std::vector<double> &x)
{
    ELV_REQUIRE(x.size() <= amps_.size(),
                "amplitude embedding input larger than state");
    double ss = 0.0;
    for (double v : x)
        ss += v * v;
    std::fill(amps_.begin(), amps_.end(), Amp(0));
    if (ss <= 0.0) {
        amps_[0] = Amp(1);
        return;
    }
    const double inv = 1.0 / std::sqrt(ss);
    for (std::size_t i = 0; i < x.size(); ++i)
        amps_[i] = Amp(x[i] * inv);
}

double
StateVector::expect_z(int q) const
{
    ELV_REQUIRE(q >= 0 && q < num_qubits_, "qubit out of range");
    const std::size_t mask = std::size_t{1} << q;
    double e = 0.0;
    for (std::size_t i = 0; i < amps_.size(); ++i) {
        const double re = amps_[i].real();
        const double im = amps_[i].imag();
        const double p = re * re + im * im;
        e += (i & mask) ? -p : p;
    }
    return e;
}

double
StateVector::norm() const
{
    double s = 0.0;
    for (const Amp &a : amps_) {
        const double re = a.real();
        const double im = a.imag();
        s += re * re + im * im;
    }
    return s;
}

double
StateVector::overlap(const StateVector &other) const
{
    ELV_REQUIRE(other.amps_.size() == amps_.size(),
                "overlap dimension mismatch");
    std::complex<double> acc(0);
    for (std::size_t i = 0; i < amps_.size(); ++i)
        acc += std::conj(other.amps_[i]) * amps_[i];
    return std::norm(acc);
}

std::vector<double>
StateVector::probabilities(const std::vector<int> &qubits) const
{
    const OutcomeIndex outcome(qubits, num_qubits_);
    std::vector<double> probs(outcome.outcomes(), 0.0);
    for (std::size_t i = 0; i < amps_.size(); ++i) {
        const double re = amps_[i].real();
        const double im = amps_[i].imag();
        const double p = re * re + im * im;
        if (p == 0.0)
            continue;
        probs[outcome(i)] += p;
    }
    return probs;
}

std::size_t
StateVector::sample(const std::vector<int> &qubits, elv::Rng &rng) const
{
    return sample_from(probabilities(qubits), rng);
}

std::size_t
StateVector::sample_from(const std::vector<double> &probs, elv::Rng &rng)
{
    ELV_REQUIRE(!probs.empty(), "cannot sample an empty distribution");
    ELV_METRIC_COUNT("sim.shots");
    double x = rng.uniform();
    for (std::size_t k = 0; k < probs.size(); ++k) {
        x -= probs[k];
        if (x < 0.0)
            return k;
    }
    return probs.size() - 1;
}

} // namespace elv::sim
