#include "sim/unitaries.hpp"

#include <cmath>

#include "common/logging.hpp"
#include "sim/vec_complex.hpp"

namespace elv::sim {

namespace {

constexpr Amp kI = Amp(0.0, 1.0);

Mat2
rx(double t)
{
    const double c = std::cos(t / 2), s = std::sin(t / 2);
    return {{{Amp(c), -kI * s}, {-kI * s, Amp(c)}}};
}

Mat2
ry(double t)
{
    const double c = std::cos(t / 2), s = std::sin(t / 2);
    return {{{Amp(c), Amp(-s)}, {Amp(s), Amp(c)}}};
}

Mat2
rz(double t)
{
    return {{{std::exp(-kI * (t / 2)), Amp(0)},
             {Amp(0), std::exp(kI * (t / 2))}}};
}

Mat2
u3(double t, double p, double l)
{
    const double c = std::cos(t / 2), s = std::sin(t / 2);
    return {{{Amp(c), -std::exp(kI * l) * s},
             {std::exp(kI * p) * s, std::exp(kI * (p + l)) * c}}};
}

} // namespace

Mat2
gate_matrix_1q(circ::GateKind kind, const std::array<double, 3> &a)
{
    using circ::GateKind;
    constexpr double kSqrtHalf = 0.70710678118654752440;
    switch (kind) {
      case GateKind::RX: return rx(a[0]);
      case GateKind::RY: return ry(a[0]);
      case GateKind::RZ: return rz(a[0]);
      case GateKind::U3: return u3(a[0], a[1], a[2]);
      case GateKind::H:
        return {{{Amp(kSqrtHalf), Amp(kSqrtHalf)},
                 {Amp(kSqrtHalf), Amp(-kSqrtHalf)}}};
      case GateKind::S:
        return {{{Amp(1), Amp(0)}, {Amp(0), kI}}};
      case GateKind::Sdg:
        return {{{Amp(1), Amp(0)}, {Amp(0), -kI}}};
      case GateKind::X:
        return {{{Amp(0), Amp(1)}, {Amp(1), Amp(0)}}};
      case GateKind::Y:
        return {{{Amp(0), -kI}, {kI, Amp(0)}}};
      case GateKind::Z:
        return {{{Amp(1), Amp(0)}, {Amp(0), Amp(-1)}}};
      default:
        ELV_REQUIRE(false, "not a 1-qubit gate");
    }
    return identity2();
}

Mat4
gate_matrix_2q(circ::GateKind kind, const std::array<double, 3> &a)
{
    using circ::GateKind;
    Mat4 m = {};
    switch (kind) {
      case GateKind::CX:
        m[0][0] = m[1][1] = m[2][3] = m[3][2] = Amp(1);
        return m;
      case GateKind::CZ:
        m[0][0] = m[1][1] = m[2][2] = Amp(1);
        m[3][3] = Amp(-1);
        return m;
      case GateKind::SWAP:
        m[0][0] = m[1][2] = m[2][1] = m[3][3] = Amp(1);
        return m;
      case GateKind::CRY: {
        const double c = std::cos(a[0] / 2), s = std::sin(a[0] / 2);
        m[0][0] = m[1][1] = Amp(1);
        m[2][2] = Amp(c);
        m[2][3] = Amp(-s);
        m[3][2] = Amp(s);
        m[3][3] = Amp(c);
        return m;
      }
      default:
        ELV_REQUIRE(false, "not a 2-qubit gate");
    }
    return m;
}

Mat2
gate_matrix_1q_deriv(circ::GateKind kind, const std::array<double, 3> &a,
                     int slot)
{
    using circ::GateKind;
    const double t = a[0], p = a[1], l = a[2];
    switch (kind) {
      case GateKind::RX: {
        ELV_REQUIRE(slot == 0, "RX has one parameter");
        const double c = std::cos(t / 2), s = std::sin(t / 2);
        return {{{Amp(-s / 2), -kI * (c / 2)},
                 {-kI * (c / 2), Amp(-s / 2)}}};
      }
      case GateKind::RY: {
        ELV_REQUIRE(slot == 0, "RY has one parameter");
        const double c = std::cos(t / 2), s = std::sin(t / 2);
        return {{{Amp(-s / 2), Amp(-c / 2)}, {Amp(c / 2), Amp(-s / 2)}}};
      }
      case GateKind::RZ: {
        ELV_REQUIRE(slot == 0, "RZ has one parameter");
        return {{{-kI * 0.5 * std::exp(-kI * (t / 2)), Amp(0)},
                 {Amp(0), kI * 0.5 * std::exp(kI * (t / 2))}}};
      }
      case GateKind::U3: {
        const double c = std::cos(t / 2), s = std::sin(t / 2);
        if (slot == 0) {
            return {{{Amp(-s / 2), -std::exp(kI * l) * (c / 2)},
                     {std::exp(kI * p) * (c / 2),
                      -std::exp(kI * (p + l)) * (s / 2)}}};
        }
        if (slot == 1) {
            return {{{Amp(0), Amp(0)},
                     {kI * std::exp(kI * p) * s,
                      kI * std::exp(kI * (p + l)) * c}}};
        }
        ELV_REQUIRE(slot == 2, "U3 has three parameters");
        return {{{Amp(0), -kI * std::exp(kI * l) * s},
                 {Amp(0), kI * std::exp(kI * (p + l)) * c}}};
      }
      default:
        ELV_REQUIRE(false, "gate has no parameters");
    }
    return identity2();
}

Mat4
gate_matrix_2q_deriv(circ::GateKind kind, const std::array<double, 3> &a,
                     int slot)
{
    ELV_REQUIRE(kind == circ::GateKind::CRY && slot == 0,
                "only CRY among 2-qubit gates is parametric");
    const double c = std::cos(a[0] / 2), s = std::sin(a[0] / 2);
    Mat4 m = {};
    m[2][2] = Amp(-s / 2);
    m[2][3] = Amp(-c / 2);
    m[3][2] = Amp(c / 2);
    m[3][3] = Amp(-s / 2);
    return m;
}

Mat2
dagger(const Mat2 &m)
{
    Mat2 out;
    for (std::size_t i = 0; i < 2; ++i)
        for (std::size_t j = 0; j < 2; ++j)
            out[i][j] = std::conj(m[j][i]);
    return out;
}

Mat4
dagger(const Mat4 &m)
{
    Mat4 out;
    for (std::size_t i = 0; i < 4; ++i)
        for (std::size_t j = 0; j < 4; ++j)
            out[i][j] = std::conj(m[j][i]);
    return out;
}

Mat2
conjugate(const Mat2 &m)
{
    Mat2 out;
    for (std::size_t i = 0; i < 2; ++i)
        for (std::size_t j = 0; j < 2; ++j)
            out[i][j] = std::conj(m[i][j]);
    return out;
}

Mat4
conjugate(const Mat4 &m)
{
    Mat4 out;
    for (std::size_t i = 0; i < 4; ++i)
        for (std::size_t j = 0; j < 4; ++j)
            out[i][j] = std::conj(m[i][j]);
    return out;
}

Mat2
matmul(const Mat2 &a, const Mat2 &b)
{
    Mat2 out = {};
    for (std::size_t i = 0; i < 2; ++i)
        for (std::size_t k = 0; k < 2; ++k)
            for (std::size_t j = 0; j < 2; ++j)
                out[i][j] += a[i][k] * b[k][j];
    return out;
}

Mat4
matmul(const Mat4 &a, const Mat4 &b)
{
    Mat4 out = {};
    for (std::size_t i = 0; i < 4; ++i)
        for (std::size_t k = 0; k < 4; ++k)
            for (std::size_t j = 0; j < 4; ++j)
                out[i][j] += a[i][k] * b[k][j];
    return out;
}

Mat2
identity2()
{
    Mat2 m = {};
    m[0][0] = m[1][1] = Amp(1);
    return m;
}

Mat16
matmul(const Mat16 &a, const Mat16 &b)
{
    // Composing noisy superoperators is most of NoisyProgram::compile,
    // so this product has SIMD tiers (bit-identical, like every kernel).
    Mat16 out = {};
    vec::matmul16(a[0].data(), b[0].data(), out[0].data());
    return out;
}

Mat4
embed_1q_in_2q(const Mat2 &u, int slot)
{
    ELV_REQUIRE(slot == 0 || slot == 1, "bad embedding slot");
    Mat4 out = {};
    // Local index = 2 * bit(q0) + bit(q1).
    for (std::size_t a = 0; a < 2; ++a)
        for (std::size_t b = 0; b < 2; ++b)
            for (std::size_t c = 0; c < 2; ++c)
                for (std::size_t d = 0; d < 2; ++d) {
                    const Amp v = slot == 0
                                      ? (b == d ? u[a][c] : Amp(0))
                                      : (a == c ? u[b][d] : Amp(0));
                    out[2 * a + b][2 * c + d] = v;
                }
    return out;
}

Mat4
swap_qubit_order(const Mat4 &u)
{
    // Index map 2*b0 + b1 -> 2*b1 + b0 swaps rows/cols 1 and 2.
    auto p = [](std::size_t i) { return ((i & 1) << 1) | (i >> 1); };
    Mat4 out;
    for (std::size_t i = 0; i < 4; ++i)
        for (std::size_t j = 0; j < 4; ++j)
            out[p(i)][p(j)] = u[i][j];
    return out;
}

} // namespace elv::sim
