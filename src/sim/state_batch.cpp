#include "sim/state_batch.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "obs/metrics.hpp"
#include "sim/vec_batch.hpp"

namespace elv::sim {

namespace {

/** A Mat2/Mat4 as its interleaved (re, im) coefficients. */
template <typename Mat>
const double *
coefficients(const Mat &u)
{
    return reinterpret_cast<const double *>(u[0].data());
}

} // namespace

StateBatch::StateBatch(int num_qubits, std::size_t lanes)
    : num_qubits_(num_qubits), lanes_(lanes)
{
    ELV_REQUIRE(num_qubits >= 1 && num_qubits <= 26,
                "state batch limited to 1..26 qubits");
    ELV_REQUIRE(lanes >= 1, "state batch needs at least one lane");
    re_.resize(dim() * lanes_);
    im_.resize(dim() * lanes_);
    reset();
}

void
StateBatch::reset()
{
    std::fill(re_.begin(), re_.end(), 0.0);
    std::fill(im_.begin(), im_.end(), 0.0);
    std::fill(re_.begin(), re_.begin() + static_cast<std::ptrdiff_t>(lanes_),
              1.0);
}

StateVector
StateBatch::lane(std::size_t lane) const
{
    ELV_REQUIRE(lane < lanes_, "lane out of range");
    StateVector psi(num_qubits_);
    for (std::size_t k = 0; k < dim(); ++k)
        psi.amps()[k] = amp(lane, k);
    return psi;
}

void
StateBatch::check_qubit(int q) const
{
    ELV_REQUIRE(q >= 0 && q < num_qubits_, "qubit out of range");
}

void
StateBatch::check_pair(int q0, int q1) const
{
    ELV_REQUIRE(q0 >= 0 && q0 < num_qubits_ && q1 >= 0 &&
                    q1 < num_qubits_ && q0 != q1,
                "bad 2-qubit operands");
}

void
StateBatch::apply_gate(circ::GateKind kind, const Mat2 &u, int q)
{
    if (circ::gate_is_diagonal_1q(kind)) {
        check_qubit(q);
        ELV_METRIC_COUNT_N("sim.kernel.diag1q", lanes_);
        vec::dispatch<vec::Diagonal1q<false>>(re_.data(), im_.data(), lanes_,
                                              dim(), std::size_t{1} << q,
                                              coefficients(u), std::size_t{0});
        return;
    }
    ELV_METRIC_COUNT_N("sim.kernel.dense1q", lanes_);
    apply_1q(u, q);
}

void
StateBatch::apply_gate(circ::GateKind kind, LanePlanes u, int q)
{
    check_qubit(q);
    const std::size_t stride = std::size_t{1} << q;
    if (circ::gate_is_diagonal_1q(kind)) {
        ELV_METRIC_COUNT_N("sim.kernel.diag1q", lanes_);
        vec::dispatch<vec::Diagonal1q<true>>(re_.data(), im_.data(), lanes_,
                                             dim(), stride, u.data, u.stride);
        return;
    }
    ELV_METRIC_COUNT_N("sim.kernel.dense1q", lanes_);
    vec::dispatch<vec::Dense1q<true>>(re_.data(), im_.data(), lanes_, dim(),
                                      stride, u.data, u.stride);
}

void
StateBatch::apply_gate(circ::GateKind kind, const Mat4 &u, int q0, int q1)
{
    switch (kind) {
      case circ::GateKind::CX:
        ELV_METRIC_COUNT_N("sim.kernel.cx", lanes_);
        apply_cx(q0, q1);
        return;
      case circ::GateKind::CZ:
        ELV_METRIC_COUNT_N("sim.kernel.cz", lanes_);
        apply_cz(q0, q1);
        return;
      case circ::GateKind::SWAP:
        ELV_METRIC_COUNT_N("sim.kernel.swap", lanes_);
        apply_swap(q0, q1);
        return;
      default:
        break;
    }
    ELV_METRIC_COUNT_N("sim.kernel.dense2q", lanes_);
    apply_2q(u, q0, q1);
}

void
StateBatch::apply_gate(circ::GateKind kind, LanePlanes u, int q0, int q1)
{
    // Only parametric gates take per-lane matrices, and no permutation
    // kind is parametric: this is always the dense kernel.
    ELV_REQUIRE(kind != circ::GateKind::CX && kind != circ::GateKind::CZ &&
                    kind != circ::GateKind::SWAP,
                "permutation gates take no per-lane matrix");
    check_pair(q0, q1);
    ELV_METRIC_COUNT_N("sim.kernel.dense2q", lanes_);
    vec::dispatch<vec::Dense2q<true>>(re_.data(), im_.data(), lanes_, dim(),
                                      std::size_t{1} << q0,
                                      std::size_t{1} << q1, u.data, u.stride);
}

void
StateBatch::apply_1q(const Mat2 &u, int q)
{
    check_qubit(q);
    vec::dispatch<vec::Dense1q<false>>(re_.data(), im_.data(), lanes_, dim(),
                                       std::size_t{1} << q, coefficients(u),
                                       std::size_t{0});
}

void
StateBatch::apply_2q(const Mat4 &u, int q0, int q1)
{
    check_pair(q0, q1);
    vec::dispatch<vec::Dense2q<false>>(re_.data(), im_.data(), lanes_, dim(),
                                       std::size_t{1} << q0,
                                       std::size_t{1} << q1, coefficients(u),
                                       std::size_t{0});
}

void
StateBatch::permute(std::size_t m0, std::size_t m1, std::size_t a,
                    std::size_t b)
{
    vec::dispatch<vec::Permute>(re_.data(), im_.data(), lanes_, dim(),
                                m0 < m1 ? m0 : m1, m0 < m1 ? m1 : m0, a, b);
}

void
StateBatch::apply_cx(int control, int target)
{
    // Rows with the control set swap their target bit.
    check_pair(control, target);
    const std::size_t mc = std::size_t{1} << control;
    const std::size_t mt = std::size_t{1} << target;
    permute(mc, mt, mc, mc | mt);
}

void
StateBatch::apply_cz(int q0, int q1)
{
    // Rows with both bits set change sign.
    check_pair(q0, q1);
    const std::size_t m0 = std::size_t{1} << q0;
    const std::size_t m1 = std::size_t{1} << q1;
    permute(m0, m1, m0 | m1, m0 | m1);
}

void
StateBatch::apply_swap(int q0, int q1)
{
    check_pair(q0, q1);
    const std::size_t m0 = std::size_t{1} << q0;
    const std::size_t m1 = std::size_t{1} << q1;
    permute(m0, m1, m0, m1);
}

void
StateBatch::set_amplitude_embedding(LanePlanes x, std::size_t features)
{
    ELV_REQUIRE(features <= dim(),
                "amplitude embedding input larger than state");
    std::fill(re_.begin(), re_.end(), 0.0);
    std::fill(im_.begin(), im_.end(), 0.0);
    vec::dispatch<vec::AmpEmbed>(re_.data(), im_.data(), lanes_, x.data,
                                 x.stride, features);
}

void
StateBatch::probabilities(const std::vector<int> &qubits, double *out,
                          std::size_t out_stride) const
{
    const OutcomeIndex outcome(qubits, num_qubits_);
    std::vector<std::size_t> row_outcome(dim());
    for (std::size_t k = 0; k < dim(); ++k)
        row_outcome[k] = outcome(k);
    for (std::size_t o = 0; o < outcome.outcomes(); ++o)
        std::fill(out + o * out_stride, out + o * out_stride + lanes_, 0.0);
    vec::dispatch<vec::Probabilities>(re_.data(), im_.data(), lanes_, dim(),
                                      row_outcome.data(), out, out_stride);
}

} // namespace elv::sim
