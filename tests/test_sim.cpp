/**
 * @file
 * Tests for the simulators: gate unitarity, canonical states, observable
 * expectations, agreement of adjoint gradients with the parameter-shift
 * oracle and finite differences, density-matrix vs state-vector
 * consistency, channel trace preservation, and Clifford-replica lowering
 * correctness.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <type_traits>

#include "circuit/builders.hpp"
#include "circuit/clifford_replica.hpp"
#include "common/aligned.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/statistics.hpp"
#include "device/device.hpp"
#include "noise/channels.hpp"
#include "noise/superop.hpp"
#include "sim/cpu_features.hpp"
#include "sim/density_matrix.hpp"
#include "sim/gradients.hpp"
#include "sim/observable.hpp"
#include "sim/statevector.hpp"

#include "oracles.hpp"

namespace {

using namespace elv;
using namespace elv::circ;
using namespace elv::sim;
using elv::test::parameter_shift_gradient;

bool
is_unitary2(const Mat2 &u)
{
    const Mat2 p = matmul(u, dagger(u));
    for (int i = 0; i < 2; ++i)
        for (int j = 0; j < 2; ++j)
            if (std::abs(p[i][j] - (i == j ? Amp(1) : Amp(0))) > 1e-12)
                return false;
    return true;
}

bool
is_unitary4(const Mat4 &u)
{
    const Mat4 p = matmul(u, dagger(u));
    for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 4; ++j)
            if (std::abs(p[i][j] - (i == j ? Amp(1) : Amp(0))) > 1e-12)
                return false;
    return true;
}

TEST(Unitaries, AllGatesAreUnitary)
{
    const std::array<double, 3> angles = {0.7, -1.3, 2.1};
    for (GateKind kind : {GateKind::RX, GateKind::RY, GateKind::RZ,
                          GateKind::U3, GateKind::H, GateKind::S,
                          GateKind::Sdg, GateKind::X, GateKind::Y,
                          GateKind::Z})
        EXPECT_TRUE(is_unitary2(gate_matrix_1q(kind, angles)))
            << gate_name(kind);
    for (GateKind kind : {GateKind::CX, GateKind::CZ, GateKind::SWAP,
                          GateKind::CRY})
        EXPECT_TRUE(is_unitary4(gate_matrix_2q(kind, angles)))
            << gate_name(kind);
}

TEST(Unitaries, DerivativesMatchFiniteDifference)
{
    const double eps = 1e-6;
    const std::array<double, 3> a = {0.4, 1.1, -0.8};
    for (GateKind kind : {GateKind::RX, GateKind::RY, GateKind::RZ,
                          GateKind::U3}) {
        const int np = gate_num_params(kind);
        for (int slot = 0; slot < np; ++slot) {
            auto ap = a, am = a;
            ap[slot] += eps;
            am[slot] -= eps;
            const Mat2 up = gate_matrix_1q(kind, ap);
            const Mat2 um = gate_matrix_1q(kind, am);
            const Mat2 d = gate_matrix_1q_deriv(kind, a, slot);
            for (int i = 0; i < 2; ++i)
                for (int j = 0; j < 2; ++j)
                    EXPECT_NEAR(std::abs(d[i][j] -
                                         (up[i][j] - um[i][j]) /
                                             (2 * eps)),
                                0.0, 1e-7)
                        << gate_name(kind) << " slot " << slot;
        }
    }
    // CRY derivative.
    auto ap = a, am = a;
    ap[0] += eps;
    am[0] -= eps;
    const Mat4 up = gate_matrix_2q(GateKind::CRY, ap);
    const Mat4 um = gate_matrix_2q(GateKind::CRY, am);
    const Mat4 d = gate_matrix_2q_deriv(GateKind::CRY, a, 0);
    for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 4; ++j)
            EXPECT_NEAR(std::abs(d[i][j] - (up[i][j] - um[i][j]) /
                                               (2 * eps)),
                        0.0, 1e-7);
}

TEST(StateVector, BellState)
{
    Circuit c(2);
    c.add_gate(GateKind::H, {0});
    c.add_gate(GateKind::CX, {0, 1});
    StateVector psi(2);
    psi.run(c);
    EXPECT_NEAR(std::abs(psi.amp(0)), 1 / std::sqrt(2.0), 1e-12);
    EXPECT_NEAR(std::abs(psi.amp(3)), 1 / std::sqrt(2.0), 1e-12);
    EXPECT_NEAR(std::abs(psi.amp(1)), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(psi.amp(2)), 0.0, 1e-12);
    EXPECT_NEAR(psi.norm(), 1.0, 1e-12);
}

TEST(StateVector, CxControlTargetOrder)
{
    // CX with control q0=1: X|0> on qubit 0 -> |..1>, then CX(0 -> 1).
    Circuit c(2);
    c.add_gate(GateKind::X, {0});
    c.add_gate(GateKind::CX, {0, 1});
    StateVector psi(2);
    psi.run(c);
    // Expect |11> = index 3 (bit0 = qubit0, bit1 = qubit1).
    EXPECT_NEAR(std::abs(psi.amp(3)), 1.0, 1e-12);

    // Control in |0> leaves target alone.
    Circuit c2(2);
    c2.add_gate(GateKind::CX, {0, 1});
    psi.run(c2);
    EXPECT_NEAR(std::abs(psi.amp(0)), 1.0, 1e-12);
}

TEST(StateVector, RotationExpectations)
{
    // RX(theta) on |0>: <Z> = cos(theta).
    for (double theta : {0.0, 0.3, 1.2, M_PI / 2, 2.5}) {
        Circuit c(1);
        c.add_variational(GateKind::RX, {0});
        StateVector psi(1);
        psi.run(c, {theta});
        EXPECT_NEAR(psi.expect_z(0), std::cos(theta), 1e-12);
    }
}

TEST(StateVector, SwapMovesAmplitude)
{
    Circuit c(2);
    c.add_gate(GateKind::X, {0});
    c.add_gate(GateKind::SWAP, {0, 1});
    StateVector psi(2);
    psi.run(c);
    EXPECT_NEAR(std::abs(psi.amp(2)), 1.0, 1e-12); // |q1=1, q0=0>
}

TEST(StateVector, AmplitudeEmbeddingNormalizes)
{
    StateVector psi(2);
    psi.set_amplitude_embedding({3.0, 0.0, 4.0});
    EXPECT_NEAR(std::abs(psi.amp(0)), 0.6, 1e-12);
    EXPECT_NEAR(std::abs(psi.amp(2)), 0.8, 1e-12);
    EXPECT_NEAR(psi.norm(), 1.0, 1e-12);
}

TEST(StateVector, MarginalProbabilities)
{
    Circuit c(3);
    c.add_gate(GateKind::H, {0});
    c.add_gate(GateKind::CX, {0, 2});
    StateVector psi(3);
    psi.run(c);
    const auto p = psi.probabilities({0, 2});
    ASSERT_EQ(p.size(), 4u);
    EXPECT_NEAR(p[0], 0.5, 1e-12); // 00
    EXPECT_NEAR(p[3], 0.5, 1e-12); // 11
    const auto pz = psi.probabilities({1});
    EXPECT_NEAR(pz[0], 1.0, 1e-12);
}

TEST(StateVector, SamplingMatchesBornRule)
{
    Circuit c(1);
    c.add_variational(GateKind::RY, {0});
    StateVector psi(1);
    psi.run(c, {2.0 * std::acos(std::sqrt(0.3))}); // P(0) = 0.3
    Rng rng(99);
    int zeros = 0;
    for (int i = 0; i < 20000; ++i)
        zeros += psi.sample({0}, rng) == 0;
    EXPECT_NEAR(zeros / 20000.0, 0.3, 0.02);
}

TEST(Observable, PauliZAndGroups)
{
    StateVector psi(2);
    Circuit c(2);
    c.add_gate(GateKind::X, {1});
    psi.run(c);
    EXPECT_DOUBLE_EQ(DiagonalObservable::pauli_z(0).expectation(psi), 1.0);
    EXPECT_DOUBLE_EQ(DiagonalObservable::pauli_z(1).expectation(psi), -1.0);

    const auto projs = class_projectors({0, 1}, 2);
    // State |q1 q0> = |10> -> outcome 2 -> group 0.
    EXPECT_DOUBLE_EQ(projs[0].expectation(psi), 1.0);
    EXPECT_DOUBLE_EQ(projs[1].expectation(psi), 0.0);
}

TEST(Observable, MeasuredQubitsAreRangeAndRepeatChecked)
{
    // Every outcome index goes through OutcomeIndex: a qubit outside
    // the register or listed twice is an error, never a silent
    // outcome (or an undefined shift for 64 and up).
    StateVector psi(3);
    DensityMatrix rho(3);
    for (const std::vector<int> &bad :
         {std::vector<int>{3}, std::vector<int>{0, 0}, std::vector<int>{64},
          std::vector<int>{-1}, std::vector<int>{2, 1, 2}}) {
        EXPECT_THROW(psi.probabilities(bad), InternalError) << bad[0];
        EXPECT_THROW(rho.probabilities(bad), InternalError) << bad[0];
        const DiagonalObservable obs(
            bad, std::vector<double>(std::size_t{1} << bad.size(), 1.0));
        EXPECT_THROW(obs.expectation(psi), InternalError) << bad[0];
        EXPECT_THROW(obs.apply_to(psi), InternalError) << bad[0];
    }
    EXPECT_THROW(DiagonalObservable::pauli_z(7).expectation(psi),
                 InternalError);
    EXPECT_EQ(psi.probabilities({2, 0}), (std::vector<double>{1, 0, 0, 0}));
    EXPECT_EQ(rho.probabilities({1}), (std::vector<double>{1, 0}));
}

TEST(Observable, GroupProjectorsPartitionUnity)
{
    Rng rng(17);
    Circuit c = build_random_rxyz_cz(3, 3, 9, 3, rng);
    std::vector<double> params(9), x = {0.2, -1.0, 0.7};
    for (auto &p : params)
        p = rng.uniform(-M_PI, M_PI);
    const auto projs = class_projectors(c.measured(), 3);
    const auto vals =
        expectations(FusedProgram::compile(c), params, x, projs);
    double total = 0.0;
    for (double v : vals) {
        EXPECT_GE(v, -1e-12);
        total += v;
    }
    EXPECT_NEAR(total, 1.0, 1e-10);
}

class GradientAgreement : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(GradientAgreement, AdjointMatchesShiftAndFiniteDifference)
{
    Rng rng(GetParam());
    Circuit c(3);
    append_angle_embedding(c, 3);
    c.add_variational(GateKind::U3, {0});
    c.add_gate(GateKind::CX, {0, 1});
    c.add_variational(GateKind::RY, {1});
    c.add_variational(GateKind::CRY, {1, 2});
    c.add_gate(GateKind::CZ, {0, 2});
    c.add_variational(GateKind::RZ, {2});
    c.add_variational(GateKind::RX, {0});
    c.set_measured({0, 2});

    std::vector<double> params(static_cast<std::size_t>(c.num_params()));
    for (auto &p : params)
        p = rng.uniform(-M_PI, M_PI);
    const std::vector<double> x = {rng.uniform(-1, 1), rng.uniform(-1, 1),
                                   rng.uniform(-1, 1)};

    const auto obs = class_projectors(c.measured(), 2);
    const FusedProgram program = FusedProgram::compile(c);
    const auto adj = adjoint_gradient(program, params, x, obs);
    const auto shift = parameter_shift_gradient(program, params, x, obs);

    ASSERT_EQ(adj.values.size(), shift.values.size());
    for (std::size_t oi = 0; oi < obs.size(); ++oi) {
        EXPECT_NEAR(adj.values[oi], shift.values[oi], 1e-10);
        for (std::size_t pi = 0; pi < params.size(); ++pi)
            EXPECT_NEAR(adj.jacobian[oi][pi], shift.jacobian[oi][pi],
                        1e-9)
                << "obs " << oi << " param " << pi;
    }

    // Finite differences as independent ground truth.
    const double eps = 1e-6;
    for (std::size_t pi = 0; pi < params.size(); ++pi) {
        auto pp = params, pm = params;
        pp[pi] += eps;
        pm[pi] -= eps;
        const auto vp = expectations(program, pp, x, obs);
        const auto vm = expectations(program, pm, x, obs);
        for (std::size_t oi = 0; oi < obs.size(); ++oi)
            EXPECT_NEAR(adj.jacobian[oi][pi],
                        (vp[oi] - vm[oi]) / (2 * eps), 1e-6);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GradientAgreement,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(Gradients, ParameterShiftCountsExecutions)
{
    Circuit c(2);
    c.add_variational(GateKind::RX, {0});
    c.add_variational(GateKind::RY, {1});
    c.set_measured({0});
    const auto obs = class_projectors(c.measured(), 2);
    const FusedProgram program = FusedProgram::compile(c);
    const auto res = parameter_shift_gradient(program, {0.1, 0.2}, {}, obs);
    // 1 base + 2 shifts per parameter.
    EXPECT_EQ(res.circuit_executions, 5u);

    const auto adj = adjoint_gradient(program, {0.1, 0.2}, {}, obs);
    EXPECT_EQ(adj.circuit_executions, 1u);
}

/** Tr(rho^2) = sum_{r,c} |rho(r,c)|^2 for Hermitian rho. */
double
purity(const DensityMatrix &rho)
{
    const std::size_t dim = std::size_t{1} << rho.num_qubits();
    double p = 0.0;
    for (std::size_t r = 0; r < dim; ++r)
        for (std::size_t c = 0; c < dim; ++c)
            p += std::norm(rho.element(r, c));
    return p;
}

TEST(DensityMatrix, MatchesStateVectorNoiseless)
{
    Rng rng(23);
    Circuit c = build_random_rxyz_cz(4, 4, 12, 2, rng);
    std::vector<double> params(12);
    for (auto &p : params)
        p = rng.uniform(-M_PI, M_PI);
    const std::vector<double> x = {0.1, -0.5, 0.8, 1.4};

    StateVector psi(4);
    psi.run(c, params, x);
    DensityMatrix rho(4);
    rho.run(c, params, x);

    EXPECT_NEAR(rho.trace(), 1.0, 1e-10);
    EXPECT_NEAR(purity(rho), 1.0, 1e-10);
    const auto pv = psi.probabilities(c.measured());
    const auto pd = rho.probabilities(c.measured());
    ASSERT_EQ(pv.size(), pd.size());
    for (std::size_t i = 0; i < pv.size(); ++i)
        EXPECT_NEAR(pv[i], pd[i], 1e-10);
}

TEST(DensityMatrix, DepolarizingKrausIsTracePreserving)
{
    const double p = 0.1;
    const double s = std::sqrt(p / 3.0);
    const std::array<double, 3> no_angles = {0, 0, 0};
    std::vector<Mat2> kraus;
    Mat2 k0 = identity2();
    k0[0][0] *= std::sqrt(1 - p);
    k0[1][1] *= std::sqrt(1 - p);
    kraus.push_back(k0);
    for (GateKind pk : {GateKind::X, GateKind::Y, GateKind::Z}) {
        Mat2 k = gate_matrix_1q(pk, no_angles);
        for (auto &row : k)
            for (auto &e : row)
                e *= s;
        kraus.push_back(k);
    }

    DensityMatrix rho(2);
    Circuit c(2);
    c.add_gate(GateKind::H, {0});
    c.add_gate(GateKind::CX, {0, 1});
    rho.run(c);
    rho.apply_superop_1q(noise::kraus_superop_1q(kraus), 0);
    EXPECT_NEAR(rho.trace(), 1.0, 1e-10);
    EXPECT_LT(purity(rho), 1.0);
}

TEST(DensityMatrix, AmplitudeEmbeddingAsPureState)
{
    DensityMatrix rho(2);
    Circuit c(2);
    c.add_amplitude_embedding();
    rho.run(c, {}, {1.0, 1.0, 1.0, 1.0});
    EXPECT_NEAR(rho.trace(), 1.0, 1e-12);
    const auto p = rho.probabilities({0, 1});
    for (double v : p)
        EXPECT_NEAR(v, 0.25, 1e-12);
}

TEST(CliffordLowering, NearestReplicaMatchesSnappedRotations)
{
    // Build a circuit with rotation angles already at Clifford values;
    // its Nearest-mode replica must produce the identical distribution.
    Rng rng(31);
    for (int trial = 0; trial < 10; ++trial) {
        Circuit c(3);
        c.add_variational(GateKind::RX, {0});
        c.add_variational(GateKind::RY, {1});
        c.add_variational(GateKind::RZ, {2});
        c.add_gate(GateKind::CX, {0, 1});
        c.add_variational(GateKind::U3, {2});
        c.add_gate(GateKind::CZ, {1, 2});
        c.add_variational(GateKind::CRY, {0, 2});
        c.set_measured({0, 1, 2});

        std::vector<double> params(
            static_cast<std::size_t>(c.num_params()));
        for (std::size_t i = 0; i < params.size(); ++i)
            params[i] = (M_PI / 2.0) *
                        static_cast<double>(rng.uniform_index(4));
        // CRY angle must be a multiple of pi to stay Clifford.
        params.back() = M_PI * static_cast<double>(rng.uniform_index(2));

        const Circuit replica = make_clifford_replica(
            c, rng, ReplicaMode::Nearest, params, {});
        ASSERT_TRUE(is_clifford_circuit(replica));

        StateVector direct(3), lowered(3);
        direct.run(c, params, {});
        lowered.run(replica);
        const auto p1 = direct.probabilities(c.measured());
        const auto p2 = lowered.probabilities(replica.measured());
        for (std::size_t i = 0; i < p1.size(); ++i)
            EXPECT_NEAR(p1[i], p2[i], 1e-10) << "trial " << trial;
    }
}

TEST(CliffordLowering, RandomReplicaDistributionIsValid)
{
    Rng rng(37);
    Circuit c(4);
    append_angle_embedding(c, 4);
    c.add_variational(GateKind::RY, {1});
    c.add_gate(GateKind::CX, {1, 2});
    c.add_variational(GateKind::U3, {3});
    c.set_measured({1, 2, 3});
    for (int i = 0; i < 5; ++i) {
        const Circuit replica = make_clifford_replica(c, rng);
        StateVector psi(4);
        psi.run(replica);
        const auto p = psi.probabilities(replica.measured());
        double total = 0.0;
        for (double v : p)
            total += v;
        EXPECT_NEAR(total, 1.0, 1e-10);
    }
}

/** Gate-identity property sweep: algebraic identities the gate set must
 * satisfy, checked as full-state equalities on random inputs. */
class GateIdentities : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    /** Random 2-qubit state prepared by a random circuit. */
    StateVector
    random_state(Rng &rng) const
    {
        StateVector psi(2);
        Circuit prep = build_random_rxyz_cz(2, 2, 6, 1, rng);
        std::vector<double> params(6);
        for (auto &p : params)
            p = rng.uniform(-M_PI, M_PI);
        psi.run(prep, params, {0.3, -0.8});
        return psi;
    }

    static void
    expect_equal(const StateVector &a, const StateVector &b)
    {
        EXPECT_NEAR(a.overlap(b), 1.0, 1e-10);
    }
};

TEST_P(GateIdentities, HzhIsX)
{
    Rng rng(GetParam());
    StateVector a = random_state(rng);
    StateVector b = a;
    const std::array<double, 3> no_angles = {0, 0, 0};
    a.apply_1q(gate_matrix_1q(GateKind::H, no_angles), 0);
    a.apply_1q(gate_matrix_1q(GateKind::Z, no_angles), 0);
    a.apply_1q(gate_matrix_1q(GateKind::H, no_angles), 0);
    b.apply_1q(gate_matrix_1q(GateKind::X, no_angles), 0);
    expect_equal(a, b);
}

TEST_P(GateIdentities, SSquaredIsZ)
{
    Rng rng(GetParam() + 50);
    StateVector a = random_state(rng);
    StateVector b = a;
    const std::array<double, 3> no_angles = {0, 0, 0};
    a.apply_1q(gate_matrix_1q(GateKind::S, no_angles), 1);
    a.apply_1q(gate_matrix_1q(GateKind::S, no_angles), 1);
    b.apply_1q(gate_matrix_1q(GateKind::Z, no_angles), 1);
    expect_equal(a, b);
}

TEST_P(GateIdentities, CzIsSymmetric)
{
    Rng rng(GetParam() + 100);
    StateVector a = random_state(rng);
    StateVector b = a;
    const std::array<double, 3> no_angles = {0, 0, 0};
    a.apply_2q(gate_matrix_2q(GateKind::CZ, no_angles), 0, 1);
    b.apply_2q(gate_matrix_2q(GateKind::CZ, no_angles), 1, 0);
    expect_equal(a, b);
}

TEST_P(GateIdentities, SwapIsThreeCx)
{
    Rng rng(GetParam() + 150);
    StateVector a = random_state(rng);
    StateVector b = a;
    const std::array<double, 3> no_angles = {0, 0, 0};
    a.apply_2q(gate_matrix_2q(GateKind::SWAP, no_angles), 0, 1);
    b.apply_2q(gate_matrix_2q(GateKind::CX, no_angles), 0, 1);
    b.apply_2q(gate_matrix_2q(GateKind::CX, no_angles), 1, 0);
    b.apply_2q(gate_matrix_2q(GateKind::CX, no_angles), 0, 1);
    expect_equal(a, b);
}

TEST_P(GateIdentities, RotationsComposeAdditively)
{
    Rng rng(GetParam() + 200);
    const double t1 = rng.uniform(-M_PI, M_PI);
    const double t2 = rng.uniform(-M_PI, M_PI);
    for (GateKind kind : {GateKind::RX, GateKind::RY, GateKind::RZ}) {
        StateVector a = random_state(rng);
        StateVector b = a;
        a.apply_1q(gate_matrix_1q(kind, {t1, 0, 0}), 0);
        a.apply_1q(gate_matrix_1q(kind, {t2, 0, 0}), 0);
        b.apply_1q(gate_matrix_1q(kind, {t1 + t2, 0, 0}), 0);
        expect_equal(a, b);
    }
}

TEST_P(GateIdentities, UnitaryEvolutionPreservesNorm)
{
    Rng rng(GetParam() + 250);
    Circuit c = build_random_rxyz_cz(4, 3, 20, 2, rng);
    std::vector<double> params(20);
    for (auto &p : params)
        p = rng.uniform(-M_PI, M_PI);
    StateVector psi(4);
    psi.run(c, params, {0.1, 0.2, -0.3});
    EXPECT_NEAR(psi.norm(), 1.0, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GateIdentities,
                         ::testing::Values(1, 2, 3, 4));

// ---------------------------------------------------------------------------
// Aligned amplitude storage.

static_assert(std::is_same_v<AmpVector::allocator_type,
                             AlignedAllocator<std::complex<double>>>,
              "state storage must use the over-aligned allocator");
static_assert(
    std::is_same_v<
        AlignedAllocator<std::complex<double>>::rebind<double>::other,
        AlignedAllocator<double, 64>>,
    "rebinding must preserve the 64-byte alignment");
static_assert(std::is_same_v<AlignedAllocator<double, 64>::value_type,
                             double>,
              "allocator value_type mismatch");

bool
is_64_byte_aligned(const void *p)
{
    return reinterpret_cast<std::uintptr_t>(p) % 64 == 0;
}

TEST(AlignedStorage, AmplitudesStartOn64ByteBoundary)
{
    for (int n = 1; n <= 10; ++n) {
        StateVector psi(n);
        EXPECT_TRUE(is_64_byte_aligned(psi.amps().data())) << n;
    }
    // Copies allocate fresh storage; alignment must survive.
    StateVector a(6);
    StateVector b = a;
    EXPECT_TRUE(is_64_byte_aligned(b.amps().data()));
}

TEST(AlignedStorage, AllocatorRoundsOddSizesUp)
{
    AlignedAllocator<double> alloc;
    for (std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{7},
                          std::size_t{129}}) {
        double *p = alloc.allocate(n);
        EXPECT_TRUE(is_64_byte_aligned(p)) << n;
        alloc.deallocate(p, n);
    }
    EXPECT_TRUE(alloc == AlignedAllocator<double>{});
    EXPECT_FALSE(alloc != AlignedAllocator<double>{});
}

// ---------------------------------------------------------------------------
// Kernel-tier dispatch: override API and cross-tier bit-identity.

/** Restores the process-wide dispatch state on scope exit. */
struct TierGuard
{
    ~TierGuard() { clear_forced_tier(); }
};

TEST(KernelDispatch, TierNamesRoundTrip)
{
    for (KernelTier tier :
         {KernelTier::Baseline, KernelTier::AVX2, KernelTier::AVX512}) {
        const auto parsed = kernel_tier_from_name(kernel_tier_name(tier));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, tier);
    }
    EXPECT_FALSE(kernel_tier_from_name("sse").has_value());
    EXPECT_FALSE(kernel_tier_from_name("").has_value());
    EXPECT_FALSE(kernel_tier_from_name("AVX2 ").has_value());
}

TEST(KernelDispatch, ForcedTierClampsToSupported)
{
    TierGuard guard;
    const KernelTier best = best_supported_tier();

    set_forced_tier(KernelTier::Baseline);
    EXPECT_EQ(active_tier(), KernelTier::Baseline);

    // Requesting more than the CPU has clamps instead of crashing.
    set_forced_tier(KernelTier::AVX512);
    EXPECT_LE(static_cast<int>(active_tier()), static_cast<int>(best));

    clear_forced_tier();
    EXPECT_LE(static_cast<int>(active_tier()), static_cast<int>(best));
}

/** Deterministic dense matrix for kernel equivalence (need not be unitary —
 *  bit-identity must hold for any finite inputs). */
template <typename Mat>
Mat
random_matrix(Rng &rng)
{
    Mat m;
    for (auto &row : m)
        for (auto &e : row)
            e = Amp(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    return m;
}

/**
 * Run a gate sequence covering every vectorized kernel (generic 1q/2q/4q,
 * CX/CZ/SWAP permutation paths, the diagonal fast path) under a forced
 * tier and return the final amplitudes.
 */
AmpVector
run_kernel_gauntlet(int num_qubits, KernelTier tier, unsigned seed)
{
    set_forced_tier(tier);
    Rng rng(seed);
    Circuit c = build_random_rxyz_cz(num_qubits, num_qubits,
                                     3 * num_qubits, 2, rng);
    std::vector<double> params(static_cast<std::size_t>(3 * num_qubits));
    for (auto &p : params)
        p = rng.uniform(-M_PI, M_PI);
    std::vector<double> x(static_cast<std::size_t>(num_qubits));
    for (auto &v : x)
        v = rng.uniform(-1.0, 1.0);

    StateVector psi(num_qubits);
    psi.run(c, params, x);
    psi.apply_cx(0, num_qubits - 1);
    psi.apply_cz(num_qubits - 1, 0);
    if (num_qubits >= 3)
        psi.apply_swap(1, num_qubits - 1);
    psi.apply_diag_1q(Amp(0.6, -0.8), Amp(std::cos(0.3), std::sin(0.3)),
                      num_qubits / 2);
    psi.apply_1q(random_matrix<Mat2>(rng), 0);
    psi.apply_2q(random_matrix<Mat4>(rng), num_qubits - 1, 0);
    if (num_qubits >= 4)
        psi.apply_4q(random_matrix<Mat16>(rng), 0, 1, num_qubits - 2,
                     num_qubits - 1);
    return psi.amps();
}

void
expect_bit_identical(const AmpVector &a, const AmpVector &b)
{
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(Amp)), 0);
}

TEST(KernelDispatch, StateVectorTiersBitIdentical)
{
    TierGuard guard;
    const int best = static_cast<int>(best_supported_tier());
    for (int n : {2, 3, 5, 8}) {
        const auto scalar =
            run_kernel_gauntlet(n, KernelTier::Baseline, 77u + n);
        for (int t = 1; t <= best; ++t) {
            const auto vec = run_kernel_gauntlet(
                n, static_cast<KernelTier>(t), 77u + n);
            expect_bit_identical(scalar, vec);
        }
    }
}

/** Density-matrix pipeline (gates, the channels of noisy replay as
 *  superoperators, arbitrary superops) under one tier. */
DensityMatrix
run_channel_gauntlet(KernelTier tier, unsigned seed)
{
    set_forced_tier(tier);
    const int n = 3;
    Rng rng(seed);
    Circuit c = build_random_rxyz_cz(n, n, 3 * n, 2, rng);
    std::vector<double> params(static_cast<std::size_t>(3 * n));
    for (auto &p : params)
        p = rng.uniform(-M_PI, M_PI);

    DensityMatrix rho(n);
    rho.run(c, params, {0.2, -0.4, 0.9});
    rho.apply_superop_1q(
        noise::kraus_superop_1q(noise::depolarizing_1q_kraus(0.05)), 0);
    rho.apply_superop_2q(
        noise::kraus_superop_2q(noise::depolarizing_2q_kraus(0.02)), 1, 2);
    // Thermal relaxation: amplitude damping, then pure dephasing.
    rho.apply_superop_1q(
        noise::kraus_superop_1q(noise::amplitude_damping_kraus(0.03)), 1);
    rho.apply_superop_1q(
        noise::kraus_superop_1q(noise::phase_damping_kraus(0.01)), 1);
    rho.apply_superop_1q(random_matrix<Mat4>(rng), 2);
    rho.apply_superop_2q(random_matrix<Mat16>(rng), 0, 2);
    return rho;
}

TEST(KernelDispatch, DensityMatrixTiersBitIdentical)
{
    TierGuard guard;
    const int best = static_cast<int>(best_supported_tier());
    const DensityMatrix scalar =
        run_channel_gauntlet(KernelTier::Baseline, 5u);
    const std::size_t dim = std::size_t{1} << scalar.num_qubits();
    for (int t = 1; t <= best; ++t) {
        const DensityMatrix vec =
            run_channel_gauntlet(static_cast<KernelTier>(t), 5u);
        for (std::size_t r = 0; r < dim; ++r)
            for (std::size_t col = 0; col < dim; ++col) {
                const std::complex<double> a = scalar.element(r, col);
                const std::complex<double> b = vec.element(r, col);
                ASSERT_EQ(std::memcmp(&a, &b, sizeof a), 0)
                    << "tier " << t << " rho(" << r << ", " << col << ")";
            }
    }
}

/** rho's 2n-qubit vectorized form, read element by element. */
AmpVector
vectorized(const DensityMatrix &rho)
{
    const int n = rho.num_qubits();
    const std::size_t dim = std::size_t{1} << n;
    AmpVector v(dim * dim);
    for (std::size_t c = 0; c < dim; ++c)
        for (std::size_t r = 0; r < dim; ++r)
            v[r | (c << n)] = rho.element(r, c);
    return v;
}

TEST(KernelDispatch, SparseSuperopMatchesDenseOracle)
{
    // apply_superop_2q sums only a superoperator's nonzero coefficients.
    // On a finite rho that must give the dense product's bits, at every
    // tier, for any zero pattern and any operand placement.
    TierGuard guard;
    Rng rng(31);
    const dev::Device device = dev::make_device("ibm_lagos");
    noise::SuperopTable table;
    Op cx;
    cx.kind = GateKind::CX;
    cx.qubits = {0, 1};
    Op cz = cx;
    cz.kind = GateKind::CZ;
    Op cry = cx;
    cry.kind = GateKind::CRY;
    cry.role = ParamRole::Variational;
    cry.param_index = 0;

    std::vector<Mat16> mats;
    mats.push_back(table.gate_2q(cx, true, 0, 1, device, 1.0));
    mats.push_back(table.gate_2q(cz, true, 1, 3, device, 1.0));
    mats.push_back(table.gate_2q(cry, false, 3, 5, device, 1.0));
    Mat16 structural = random_matrix<Mat16>(rng);
    for (std::size_t i = 0; i < 16; ++i)
        for (std::size_t k = 0; k < 16; ++k)
            if ((7 * i + k) % 3 != 0)
                structural[i][k] = Amp(0);
    mats.push_back(structural);
    Mat16 zero_row = random_matrix<Mat16>(rng);
    zero_row[5] = {};
    mats.push_back(zero_row);
    mats.push_back(random_matrix<Mat16>(rng));
    // Signed zeros are skipped; a coefficient with one nonzero part is not.
    Mat16 signed_zeros = random_matrix<Mat16>(rng);
    for (std::size_t i = 0; i < 16; ++i) {
        signed_zeros[i][i] = Amp(-0.0, 0.0);
        signed_zeros[i][(i + 3) % 16] = Amp(0.0, -0.0);
        signed_zeros[i][(i + 7) % 16] = Amp(-0.0, -0.0);
        signed_zeros[i][(i + 11) % 16] = Amp(-0.0, 0.5);
    }
    mats.push_back(signed_zeros);

    // Lowest operand mask 1, 2 and >= 4. At 2 qubits the state is one
    // group, so the vector tiers run only their scalar tails.
    const int placements[][3] = {{2, 0, 1}, {2, 1, 0}, {3, 0, 2},
                                 {3, 2, 1}, {6, 1, 4}, {6, 5, 0},
                                 {6, 2, 4}, {6, 5, 3}};
    const int best = static_cast<int>(best_supported_tier());
    for (const auto &p : placements) {
        const int n = p[0], q0 = p[1], q1 = p[2];
        // A pure state with (-0, -0) entries puts -0 parts into rho.
        StateVector psi(n);
        for (std::size_t k = 0; k < psi.dim(); ++k)
            psi.amps()[k] = k % 3 == 1 ? Amp(-0.0, -0.0)
                                       : Amp(rng.uniform(0.1, 1.0),
                                             rng.uniform(0.1, 1.0));
        DensityMatrix start(n);
        start.set_pure(psi);
        const AmpVector before = vectorized(start);
        ASSERT_TRUE(std::any_of(before.begin(), before.end(),
                                [](Amp a) {
                                    return a.real() == 0.0 &&
                                           std::signbit(a.real());
                                }));
        const std::size_t m0 = std::size_t{1} << q0;
        const std::size_t m1 = std::size_t{1} << q1;
        for (std::size_t m = 0; m < mats.size(); ++m) {
            AmpVector want = before;
            test::dense_apply_4q(want.data(), want.size(), m0, m1, m0 << n,
                                 m1 << n, mats[m][0].data());
            for (int t = 0; t <= best; ++t) {
                set_forced_tier(static_cast<KernelTier>(t));
                DensityMatrix rho = start;
                rho.apply_superop_2q(mats[m], q0, q1);
                const AmpVector got = vectorized(rho);
                EXPECT_EQ(std::memcmp(want.data(), got.data(),
                                      want.size() * sizeof(Amp)),
                          0)
                    << "tier " << t << ", " << n << " qubits, (" << q0
                    << ", " << q1 << "), matrix " << m;
            }
        }
    }
}

/** A coefficient drawn from [-1, 1]^2, or with probability 1/3 one
 *  with a +-0 part (both parts +-0 in half of those). */
Amp
signed_zero_mix(Rng &rng)
{
    const double re = rng.uniform(-1.0, 1.0);
    const double im = rng.uniform(-1.0, 1.0);
    switch (rng.uniform_index(12)) {
      case 0: return Amp(-0.0, 0.0);
      case 1: return Amp(0.0, -0.0);
      case 2: return Amp(-0.0, -0.0);
      case 3: return Amp(0.0, 0.0);
      case 4: return Amp(-0.0, im);
      case 5: return Amp(re, -0.0);
      default: return Amp(re, im);
    }
}

std::vector<Amp>
signed_zero_mix(Rng &rng, std::size_t n)
{
    std::vector<Amp> v(n);
    for (Amp &a : v)
        a = signed_zero_mix(rng);
    return v;
}

TEST(KernelDispatch, KernelsMatchScalarOracles)
{
    // Every tier is compiled from the same kernel source as the
    // baseline, so each kernel is checked against the std::complex loops
    // of oracles.hpp: every register size it admits up to 8 qubits,
    // lowest operand mask 1, 2, 4 and >= 8, coefficients and states with
    // +-0 parts.
    TierGuard guard;
    Rng rng(53);
    const int best = static_cast<int>(best_supported_tier());
    auto expect_tiers = [&](const std::vector<Amp> &start,
                            const std::vector<Amp> &want, auto &&kernel,
                            const std::string &what) {
        for (int t = 0; t <= best; ++t) {
            set_forced_tier(static_cast<KernelTier>(t));
            std::vector<Amp> got = start;
            kernel(got.data());
            EXPECT_EQ(std::memcmp(want.data(), got.data(),
                                  want.size() * sizeof(Amp)),
                      0)
                << what << ", tier " << kernel_tier_name(
                                            static_cast<KernelTier>(t));
        }
    };
    for (int n = 1; n <= 8; ++n) {
        const std::size_t dim = std::size_t{1} << n;
        const std::string reg = std::to_string(n) + " qubits";
        // Lowest operand qubit 0, 1, 2 and 3 (mask >= 8), where it fits.
        for (int q = 0; q < std::min(n, 4); ++q) {
            const std::size_t m = std::size_t{1} << q;
            const std::vector<Amp> start = signed_zero_mix(rng, dim);
            const std::vector<Amp> u = signed_zero_mix(rng, 4);
            std::vector<Amp> want = start;
            test::scalar_1q(want.data(), dim, m, u.data(), 0, dim);
            expect_tiers(start, want,
                         [&](Amp *a) { vec::apply_1q(a, dim, m, u.data()); },
                         "1q on q" + std::to_string(q) + ", " + reg);
            want = start;
            test::scalar_diag_1q(want.data(), m, u[0], u[3], 0, dim);
            expect_tiers(start, want,
                         [&](Amp *a) {
                             vec::apply_diag_1q(a, dim, m, u[0], u[3]);
                         },
                         "diag on q" + std::to_string(q) + ", " + reg);
        }
        // 2q: the low operand in either slot, the high one adjacent or
        // at the top of the register.
        for (int lo = 0; lo < std::min(n - 1, 4); ++lo) {
            for (int hi : std::set<int>{lo + 1, n - 1}) {
                const std::vector<Amp> start = signed_zero_mix(rng, dim);
                const std::vector<Amp> u = signed_zero_mix(rng, 16);
                for (const auto &[q0, q1] :
                     {std::pair{lo, hi}, std::pair{hi, lo}}) {
                    const std::size_t m0 = std::size_t{1} << q0;
                    const std::size_t m1 = std::size_t{1} << q1;
                    std::vector<Amp> want = start;
                    test::scalar_2q(want.data(), m0, m1, std::min(m0, m1),
                                    std::max(m0, m1), u.data(), 0, dim >> 2);
                    expect_tiers(start, want,
                                 [&](Amp *a) {
                                     vec::apply_2q(a, dim, m0, m1, u.data());
                                 },
                                 "2q on (" + std::to_string(q0) + ", " +
                                     std::to_string(q1) + "), " + reg);
                }
            }
        }
        // 4q: the low operand first or last in the local basis, the
        // others above it.
        for (int lo = 0; lo < std::min(n - 3, 4); ++lo) {
            const std::vector<Amp> start = signed_zero_mix(rng, dim);
            const std::vector<Amp> u = signed_zero_mix(rng, 256);
            for (const std::array<int, 4> &qs :
                 {std::array{lo, n - 1, lo + 1, n - 2},
                  std::array{n - 2, lo + 1, n - 1, lo}}) {
                const std::size_t m[4] = {
                    std::size_t{1} << qs[0], std::size_t{1} << qs[1],
                    std::size_t{1} << qs[2], std::size_t{1} << qs[3]};
                std::vector<Amp> want = start;
                test::dense_apply_4q(want.data(), dim, m[0], m[1], m[2],
                                     m[3], u.data());
                expect_tiers(start, want,
                             [&](Amp *a) {
                                 vec::apply_4q(a, dim, m[0], m[1], m[2], m[3],
                                               u.data());
                             },
                             "4q with low qubit " + std::to_string(lo) +
                                 ", " + reg);
            }
        }
    }
    // The 16x16 product, accumulated onto an `out` with +-0 parts.
    for (int round = 0; round < 4; ++round) {
        const std::vector<Amp> a = signed_zero_mix(rng, 256);
        const std::vector<Amp> b = signed_zero_mix(rng, 256);
        const std::vector<Amp> start = signed_zero_mix(rng, 256);
        std::vector<Amp> want = start;
        test::scalar_matmul16(a.data(), b.data(), want.data());
        expect_tiers(start, want,
                     [&](Amp *out) { vec::matmul16(a.data(), b.data(), out); },
                     "matmul16 round " + std::to_string(round));
    }
}

TEST(KernelDispatch, Mat16ProductTiersBitIdentical)
{
    // Superoperator composition: a sparse left operand (whose zero
    // entries every tier skips) and a dense one, against the textbook
    // product.
    TierGuard guard;
    Rng rng(9);
    Mat16 sparse = random_matrix<Mat16>(rng);
    const Mat16 dense = random_matrix<Mat16>(rng);
    for (std::size_t i = 0; i < 16; ++i)
        for (std::size_t k = 0; k < 16; ++k)
            if ((i + k) % 3 == 0)
                sparse[i][k] = Amp(0);
    for (const Mat16 &left : {sparse, dense}) {
        Mat16 want = {};
        for (std::size_t i = 0; i < 16; ++i)
            for (std::size_t k = 0; k < 16; ++k)
                if (left[i][k] != Amp(0))
                    for (std::size_t j = 0; j < 16; ++j)
                        want[i][j] += left[i][k] * dense[k][j];
        for (int t = 0; t <= static_cast<int>(best_supported_tier()); ++t) {
            set_forced_tier(static_cast<KernelTier>(t));
            const Mat16 got = matmul(left, dense);
            EXPECT_EQ(std::memcmp(&want, &got, sizeof got), 0)
                << "tier " << t;
        }
    }
}

} // namespace
