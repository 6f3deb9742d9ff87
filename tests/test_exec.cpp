/**
 * @file
 * Execution-layer tests: distribution validation guardrails, retry
 * policy arithmetic, device calibration validation, seeded fault
 * injection, and the ResilientExecutor's retry/degradation/determinism
 * contract. Also covers the single-line circuit serialization used by
 * the search journal.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "circuit/serialize.hpp"
#include "common/logging.hpp"
#include "common/retry.hpp"
#include "common/rng.hpp"
#include "common/validate.hpp"
#include "core/candidate_gen.hpp"
#include "exec/executor.hpp"
#include "exec/fault_injector.hpp"
#include "exec/resilient.hpp"

namespace {

using namespace elv;
using namespace elv::exec;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/** A 3-qubit Clifford circuit every backend supports. */
circ::Circuit
clifford_circuit()
{
    circ::Circuit c(3);
    c.add_gate(circ::GateKind::H, {0});
    c.add_gate(circ::GateKind::CX, {0, 1});
    c.add_gate(circ::GateKind::S, {1});
    c.add_gate(circ::GateKind::CX, {1, 2});
    c.set_measured({0, 1, 2});
    return c;
}

/** A parameterized circuit only the density/noiseless rungs support. */
circ::Circuit
variational_circuit()
{
    circ::Circuit c(2);
    c.add_variational(circ::GateKind::RY, {0});
    c.add_gate(circ::GateKind::CX, {0, 1});
    c.add_variational(circ::GateKind::RZ, {1});
    c.set_measured({0, 1});
    return c;
}

// ---------------------------------------------------------------------
// validate_distribution
// ---------------------------------------------------------------------

TEST(ValidateDistribution, AcceptsExactDistribution)
{
    std::vector<double> probs = {0.25, 0.25, 0.5};
    EXPECT_TRUE(is_valid_distribution(probs));
    EXPECT_NO_THROW(validate_distribution(
        probs, DistributionPolicy::Throw, "test"));
}

TEST(ValidateDistribution, RejectsNaNAndInf)
{
    for (const double poison : {kNaN, kInf, -kInf}) {
        std::vector<double> probs = {0.5, poison, 0.5};
        EXPECT_FALSE(is_valid_distribution(probs));
        EXPECT_THROW(validate_distribution(
                         probs, DistributionPolicy::Renormalize, "test"),
                     DistributionError);
    }
}

TEST(ValidateDistribution, RejectsNegativeMass)
{
    std::vector<double> probs = {0.6, -0.2, 0.6};
    EXPECT_THROW(validate_distribution(
                     probs, DistributionPolicy::Renormalize, "test"),
                 DistributionError);
}

TEST(ValidateDistribution, RejectsEmptyAndZeroMass)
{
    std::vector<double> empty;
    EXPECT_THROW(validate_distribution(
                     empty, DistributionPolicy::Renormalize, "test"),
                 DistributionError);
    std::vector<double> zeros = {0.0, 0.0};
    EXPECT_THROW(validate_distribution(
                     zeros, DistributionPolicy::Renormalize, "test"),
                 DistributionError);
}

TEST(ValidateDistribution, RenormalizeRepairsDriftThrowDoesNot)
{
    std::vector<double> drifted = {0.3, 0.3, 0.3}; // sums to 0.9
    std::vector<double> copy = drifted;
    EXPECT_THROW(validate_distribution(copy, DistributionPolicy::Throw,
                                       "test"),
                 DistributionError);
    validate_distribution(drifted, DistributionPolicy::Renormalize,
                          "test");
    double sum = 0.0;
    for (double p : drifted)
        sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(ValidateDistribution, ClipsTinyNegativesUnderRenormalize)
{
    std::vector<double> probs = {0.5, -1e-12, 0.5};
    validate_distribution(probs, DistributionPolicy::Renormalize,
                          "test");
    EXPECT_GE(probs[1], 0.0);
    EXPECT_TRUE(is_valid_distribution(probs, 1e-9));
}

TEST(ValidateDistribution, ErrorNamesTheProducer)
{
    std::vector<double> probs = {kNaN};
    try {
        validate_distribution(probs, DistributionPolicy::Throw,
                              "unit-test producer");
        FAIL() << "expected DistributionError";
    } catch (const DistributionError &e) {
        EXPECT_NE(std::string(e.what()).find("unit-test producer"),
                  std::string::npos);
    }
}

// ---------------------------------------------------------------------
// RetryPolicy
// ---------------------------------------------------------------------

TEST(RetryPolicy, BackoffGrowsExponentiallyWithoutJitter)
{
    RetryPolicy policy;
    policy.initial_backoff_ms = 100.0;
    policy.backoff_multiplier = 2.0;
    policy.max_backoff_ms = 550.0;
    policy.jitter = 0.0;
    Rng rng(7);
    EXPECT_DOUBLE_EQ(policy.backoff_delay_ms(0, rng), 100.0);
    EXPECT_DOUBLE_EQ(policy.backoff_delay_ms(1, rng), 200.0);
    EXPECT_DOUBLE_EQ(policy.backoff_delay_ms(2, rng), 400.0);
    // Capped by max_backoff_ms from here on.
    EXPECT_DOUBLE_EQ(policy.backoff_delay_ms(3, rng), 550.0);
    EXPECT_DOUBLE_EQ(policy.backoff_delay_ms(9, rng), 550.0);
}

TEST(RetryPolicy, JitterStaysWithinBand)
{
    RetryPolicy policy;
    policy.initial_backoff_ms = 100.0;
    policy.jitter = 0.25;
    Rng rng(11);
    for (int i = 0; i < 200; ++i) {
        const double d = policy.backoff_delay_ms(0, rng);
        EXPECT_GE(d, 75.0);
        EXPECT_LE(d, 125.0);
    }
}

TEST(RetryPolicy, FullJitterStaysWithinBoundedWindow)
{
    RetryPolicy policy;
    policy.initial_backoff_ms = 100.0;
    policy.jitter = 0.25;
    policy.full_jitter = true;
    Rng rng(11);
    // Bounded full jitter draws from [nominal * (1 - j), nominal]: it
    // only ever shortens the delay, never stretches past the nominal.
    bool below_nominal = false;
    for (int i = 0; i < 200; ++i) {
        const double d = policy.backoff_delay_ms(0, rng);
        EXPECT_GE(d, 75.0);
        EXPECT_LE(d, 100.0);
        below_nominal |= d < 99.0;
    }
    EXPECT_TRUE(below_nominal);
}

TEST(RetryPolicy, ClassicFullJitterSpansDownToZero)
{
    RetryPolicy policy;
    policy.initial_backoff_ms = 100.0;
    policy.jitter = 1.0; // classic full jitter: [0, nominal]
    policy.full_jitter = true;
    Rng rng(13);
    double lo = 1e300, hi = 0.0;
    for (int i = 0; i < 500; ++i) {
        const double d = policy.backoff_delay_ms(0, rng);
        EXPECT_GE(d, 0.0);
        EXPECT_LE(d, 100.0);
        lo = std::min(lo, d);
        hi = std::max(hi, d);
    }
    // The window is actually exercised, not collapsed.
    EXPECT_LT(lo, 20.0);
    EXPECT_GT(hi, 80.0);
}

TEST(RetryPolicy, FullJitterDeterministicGivenSeed)
{
    RetryPolicy policy;
    policy.full_jitter = true;
    Rng a(42), b(42);
    for (int i = 0; i < 32; ++i)
        EXPECT_DOUBLE_EQ(policy.backoff_delay_ms(i % 5, a),
                         policy.backoff_delay_ms(i % 5, b));
}

TEST(RetryPolicy, DeterministicGivenSeed)
{
    RetryPolicy policy;
    Rng a(42), b(42);
    for (int i = 0; i < 32; ++i)
        EXPECT_DOUBLE_EQ(policy.backoff_delay_ms(i % 5, a),
                         policy.backoff_delay_ms(i % 5, b));
}

TEST(RetryPolicy, RejectsNonsense)
{
    RetryPolicy policy;
    policy.max_attempts = 0;
    EXPECT_THROW(policy.check(), UsageError);
    policy = RetryPolicy{};
    policy.jitter = 1.5;
    EXPECT_THROW(policy.check(), UsageError);
    policy = RetryPolicy{};
    policy.backoff_multiplier = 0.5;
    EXPECT_THROW(policy.check(), UsageError);
}

// ---------------------------------------------------------------------
// Device calibration validation
// ---------------------------------------------------------------------

TEST(DeviceValidate, CatalogDevicesAreValid)
{
    for (const std::string &name : dev::device_catalog())
        EXPECT_NO_THROW(dev::make_device(name).validate()) << name;
}

TEST(DeviceValidate, RejectsTruncatedCalibration)
{
    dev::Device device = dev::make_device("ibm_lagos");
    device.readout_error.pop_back();
    EXPECT_THROW(device.validate(), UsageError);
}

TEST(DeviceValidate, RejectsOutOfRangeRates)
{
    dev::Device device = dev::make_device("ibm_lagos");
    device.error_1q[0] = 1.5;
    EXPECT_THROW(device.validate(), UsageError);

    device = dev::make_device("ibm_lagos");
    device.error_2q[0] = -0.1;
    EXPECT_THROW(device.validate(), UsageError);

    device = dev::make_device("ibm_lagos");
    device.t1_us[0] = 0.0;
    EXPECT_THROW(device.validate(), UsageError);

    device = dev::make_device("ibm_lagos");
    device.t2_us[0] = kNaN;
    EXPECT_THROW(device.validate(), UsageError);

    device = dev::make_device("ibm_lagos");
    device.duration_2q_ns = -1.0;
    EXPECT_THROW(device.validate(), UsageError);
}

// ---------------------------------------------------------------------
// Plain executors
// ---------------------------------------------------------------------

TEST(Executors, DensityComputesFidelityInBounds)
{
    const dev::Device device = dev::make_device("ibm_lagos");
    DensityExecutor executor(device);
    Rng rng(3);
    const circ::Circuit c = clifford_circuit();
    ASSERT_TRUE(executor.supports(c));
    const double f = executor.replica_fidelity(c, rng);
    EXPECT_GT(f, 0.0);
    EXPECT_LE(f, 1.0);
    EXPECT_EQ(executor.executions(), 1u);
}

TEST(Executors, StabilizerSupportsOnlyClifford)
{
    const dev::Device device = dev::make_device("ibm_lagos");
    StabilizerExecutor executor(device, 512);
    EXPECT_TRUE(executor.supports(clifford_circuit()));
    EXPECT_FALSE(executor.supports(variational_circuit()));
}

TEST(Executors, NoiselessFidelityIsOne)
{
    NoiselessExecutor executor;
    Rng rng(5);
    EXPECT_DOUBLE_EQ(executor.replica_fidelity(clifford_circuit(), rng),
                     1.0);
}

TEST(Executors, NoisyExecutorsRejectCorruptDevice)
{
    dev::Device device = dev::make_device("ibm_lagos");
    device.readout_error[0] = 2.0;
    EXPECT_THROW(StabilizerExecutor(device, 512), UsageError);
}

// ---------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------

TEST(FaultInjector, TransientRateOneAlwaysThrows)
{
    const dev::Device device = dev::make_device("ibm_lagos");
    FaultConfig faults;
    faults.transient_rate = 1.0;
    FaultInjector injector(std::make_unique<NoiselessExecutor>(), faults);
    Rng rng(1);
    const circ::Circuit c = clifford_circuit();
    for (int i = 0; i < 5; ++i)
        EXPECT_THROW(injector.replica_fidelity(c, rng), BackendError);
    EXPECT_EQ(injector.injected().transient, 5u);
    EXPECT_EQ(injector.executions(), 0u);
}

TEST(FaultInjector, TimeoutCarriesQueueWait)
{
    FaultConfig faults;
    faults.timeout_rate = 1.0;
    faults.queue_wait_ms = 1234.0;
    FaultInjector injector(std::make_unique<NoiselessExecutor>(), faults);
    Rng rng(1);
    try {
        injector.replica_fidelity(clifford_circuit(), rng);
        FAIL() << "expected QueueTimeout";
    } catch (const QueueTimeout &e) {
        EXPECT_DOUBLE_EQ(e.waited_ms(), 1234.0);
    }
    EXPECT_EQ(injector.injected().timeouts, 1u);
}

TEST(FaultInjector, GarbagePoisonsFidelity)
{
    FaultConfig faults;
    faults.garbage_rate = 1.0;
    FaultInjector injector(std::make_unique<NoiselessExecutor>(), faults);
    Rng rng(1);
    EXPECT_TRUE(std::isnan(
        injector.replica_fidelity(clifford_circuit(), rng)));
    EXPECT_EQ(injector.injected().garbage, 1u);
}

TEST(FaultInjector, CrashFiresAfterNExecutions)
{
    FaultConfig faults;
    faults.crash_after = 3;
    FaultInjector injector(std::make_unique<NoiselessExecutor>(), faults);
    Rng rng(1);
    const circ::Circuit c = clifford_circuit();
    for (int i = 0; i < 3; ++i)
        EXPECT_NO_THROW(injector.replica_fidelity(c, rng));
    EXPECT_THROW(injector.replica_fidelity(c, rng), CrashError);
    EXPECT_EQ(injector.injected().crashes, 1u);
}

TEST(FaultInjector, DriftPerturbsOnlyTheTargetSnapshot)
{
    const dev::Device original = dev::make_device("ibm_lagos");
    dev::Device snapshot = original;
    FaultConfig faults;
    faults.drift_rate = 1.0;
    FaultInjector injector(std::make_unique<NoiselessExecutor>(), faults,
                           &snapshot);
    Rng rng(1);
    injector.replica_fidelity(clifford_circuit(), rng);
    EXPECT_EQ(injector.injected().drifts, 1u);
    EXPECT_NE(snapshot.readout_error, original.readout_error);
    // The drifted snapshot must still be a valid calibration.
    EXPECT_NO_THROW(snapshot.validate());
}

TEST(FaultInjector, SeededStreamIsDeterministic)
{
    FaultConfig faults;
    faults.transient_rate = 0.3;
    faults.garbage_rate = 0.2;
    faults.seed = 99;
    const circ::Circuit c = clifford_circuit();

    auto run = [&]() {
        FaultInjector injector(std::make_unique<NoiselessExecutor>(),
                               faults);
        Rng rng(1);
        std::vector<int> outcomes;
        for (int i = 0; i < 50; ++i) {
            try {
                const double f = injector.replica_fidelity(c, rng);
                outcomes.push_back(std::isnan(f) ? 2 : 0);
            } catch (const BackendError &) {
                outcomes.push_back(1);
            }
        }
        return outcomes;
    };
    EXPECT_EQ(run(), run());
}

TEST(FaultInjector, RespectsBackendTarget)
{
    FaultConfig faults;
    faults.transient_rate = 1.0;
    faults.target = FaultTarget::Density;
    // Wrapping a noiseless executor: config targets density only, so the
    // injector is a pass-through.
    FaultInjector injector(std::make_unique<NoiselessExecutor>(), faults);
    Rng rng(1);
    EXPECT_NO_THROW(injector.replica_fidelity(clifford_circuit(), rng));
    EXPECT_EQ(injector.injected().total(), 0u);
}

TEST(FaultInjector, RejectsBadRates)
{
    FaultConfig faults;
    faults.transient_rate = 1.5;
    EXPECT_THROW(
        FaultInjector(std::make_unique<NoiselessExecutor>(), faults),
        UsageError);
}

// ---------------------------------------------------------------------
// ResilientExecutor
// ---------------------------------------------------------------------

TEST(ResilientExecutor, FaultFreeCallIsNotDegraded)
{
    const dev::Device device = dev::make_device("ibm_lagos");
    ResilientExecutor executor(device, BackendKind::Density, 512, 1.0);
    Rng rng(2);
    const double f = executor.replica_fidelity(clifford_circuit(), rng);
    EXPECT_GT(f, 0.0);
    EXPECT_LE(f, 1.0);
    ASSERT_NE(executor.last_report(), nullptr);
    EXPECT_FALSE(executor.last_report()->degraded);
    EXPECT_EQ(executor.last_report()->rung, 0);
    EXPECT_EQ(executor.counters().calls, 1u);
    EXPECT_EQ(executor.counters().attempts, 1u);
    EXPECT_EQ(executor.counters().failures, 0u);
}

TEST(ResilientExecutor, RetriedCallMatchesFaultFreeValue)
{
    // The stabilizer backend consumes the computation RNG; retries must
    // replay the same draws so surviving a fault changes nothing.
    const dev::Device device = dev::make_device("ibm_lagos");
    const circ::Circuit c = clifford_circuit();

    ResilientExecutor clean(device, BackendKind::Stabilizer, 512, 1.0);
    Rng clean_rng(77);
    const double clean_f = clean.replica_fidelity(c, clean_rng);

    FaultConfig faults;
    faults.transient_rate = 0.4;
    RetryPolicy policy;
    policy.max_attempts = 20; // never exhaust the rung in this test
    ResilientExecutor faulty(device, BackendKind::Stabilizer, 512, 1.0,
                             policy, faults);
    Rng faulty_rng(77);
    const double faulty_f = faulty.replica_fidelity(c, faulty_rng);

    EXPECT_DOUBLE_EQ(clean_f, faulty_f);
    // And the computation stream advanced identically.
    EXPECT_DOUBLE_EQ(clean.replica_fidelity(c, clean_rng),
                     faulty.replica_fidelity(c, faulty_rng));
}

TEST(ResilientExecutor, AlwaysFailingPrimaryDegradesExactly)
{
    const dev::Device device = dev::make_device("ibm_lagos");
    FaultConfig faults;
    faults.transient_rate = 1.0;
    faults.target = FaultTarget::Density;
    RetryPolicy policy;
    policy.max_attempts = 3;
    ResilientExecutor executor(device, BackendKind::Density, 512, 1.0,
                               policy, faults);
    Rng rng(4);
    const circ::Circuit c = clifford_circuit();

    const int calls = 5;
    for (int i = 0; i < calls; ++i) {
        const double f = executor.replica_fidelity(c, rng);
        EXPECT_TRUE(std::isfinite(f));
        ASSERT_NE(executor.last_report(), nullptr);
        EXPECT_TRUE(executor.last_report()->degraded);
        EXPECT_EQ(executor.last_report()->backend,
                  BackendKind::Stabilizer);
    }
    const RetryCounters &counters = executor.counters();
    EXPECT_EQ(counters.calls, 5u);
    // 3 failed density attempts + 1 stabilizer success per call.
    EXPECT_EQ(counters.attempts, 20u);
    EXPECT_EQ(counters.failures, 15u);
    EXPECT_EQ(counters.retries, 10u);
    EXPECT_EQ(counters.rungs_exhausted, 5u);
    EXPECT_EQ(counters.degraded_calls, 5u);
    EXPECT_EQ(executor.injected().transient, 15u);
    EXPECT_GT(counters.backoff_wait_ms, 0.0);
    EXPECT_DOUBLE_EQ(executor.elapsed_ms(), counters.backoff_wait_ms);
}

TEST(ResilientExecutor, GarbageResultsAreRetriedAsInvalid)
{
    const dev::Device device = dev::make_device("ibm_lagos");
    FaultConfig faults;
    faults.garbage_rate = 1.0;
    faults.target = FaultTarget::Density;
    RetryPolicy policy;
    policy.max_attempts = 2;
    ResilientExecutor executor(device, BackendKind::Density, 512, 1.0,
                               policy, faults);
    Rng rng(6);
    const double f = executor.replica_fidelity(clifford_circuit(), rng);
    EXPECT_TRUE(std::isfinite(f));
    EXPECT_EQ(executor.counters().invalid_results, 2u);
    EXPECT_TRUE(executor.last_report()->degraded);
}

TEST(ResilientExecutor, AllRungsFailingThrowsBackendError)
{
    const dev::Device device = dev::make_device("ibm_lagos");
    FaultConfig faults;
    faults.transient_rate = 1.0; // every rung
    RetryPolicy policy;
    policy.max_attempts = 2;
    ResilientExecutor executor(device, BackendKind::Density, 512, 1.0,
                               policy, faults);
    Rng rng(8);
    EXPECT_THROW(executor.replica_fidelity(clifford_circuit(), rng),
                 BackendError);
    EXPECT_EQ(executor.counters().rungs_exhausted, 3u);
}

TEST(ResilientExecutor, QueueTimeoutsBurnTheCallDeadline)
{
    const dev::Device device = dev::make_device("ibm_lagos");
    FaultConfig faults;
    faults.timeout_rate = 1.0;
    faults.queue_wait_ms = 30000.0;
    faults.target = FaultTarget::Density;
    RetryPolicy policy;
    policy.max_attempts = 10;
    policy.call_deadline_ms = 50000.0; // hit after two timeouts
    ResilientExecutor executor(device, BackendKind::Density, 512, 1.0,
                               policy, faults);
    Rng rng(9);
    const double f = executor.replica_fidelity(clifford_circuit(), rng);
    EXPECT_TRUE(std::isfinite(f));
    EXPECT_TRUE(executor.last_report()->degraded);
    // Two 30 s queue waits exceeded the 50 s deadline; the rung was
    // abandoned without spending all 10 attempts.
    EXPECT_EQ(executor.injected().timeouts, 2u);
    EXPECT_DOUBLE_EQ(executor.counters().queue_wait_ms, 60000.0);
}

TEST(ResilientExecutor, SpentBudgetSkipsRetries)
{
    const dev::Device device = dev::make_device("ibm_lagos");
    FaultConfig faults;
    faults.transient_rate = 1.0;
    faults.target = FaultTarget::Density;
    RetryPolicy policy;
    policy.max_attempts = 4;
    policy.total_budget_ms = 150.0;
    ResilientExecutor executor(device, BackendKind::Density, 512, 1.0,
                               policy, faults);
    Rng rng(10);
    const circ::Circuit c = clifford_circuit();

    // First call retries normally and pushes the clock past the budget.
    executor.replica_fidelity(c, rng);
    const std::uint64_t attempts_after_first =
        executor.counters().attempts;
    EXPECT_GT(executor.elapsed_ms(), policy.total_budget_ms);

    // Later calls degrade after a single density attempt.
    executor.replica_fidelity(c, rng);
    EXPECT_EQ(executor.counters().attempts, attempts_after_first + 2);
}

TEST(ResilientExecutor, UnsupportedPrimaryIsSkippedNotDegraded)
{
    // A variational circuit cannot run on the stabilizer rung; with
    // Stabilizer as primary the noiseless rung services it, but that is
    // a capability skip, not a degradation event. (Distributions, not
    // replica fidelity: a parametric circuit is never a valid replica.)
    const dev::Device device = dev::make_device("ibm_lagos");
    ResilientExecutor executor(device, BackendKind::Stabilizer, 512, 1.0);
    Rng rng(11);
    const circ::Circuit c = variational_circuit();
    ASSERT_TRUE(executor.supports(c));
    const std::vector<double> params(
        static_cast<std::size_t>(c.num_params()), 0.4);
    executor.run_distribution(c, params, {}, rng);
    EXPECT_FALSE(executor.last_report()->degraded);
    EXPECT_EQ(executor.last_report()->backend, BackendKind::Noiseless);
    EXPECT_EQ(executor.counters().degraded_calls, 0u);
}

TEST(ResilientExecutor, CalibrationDriftReachesTheDensityBackend)
{
    // Every call drifts the executor's calibration snapshot. A repeated
    // circuit must be simulated against the drifted gate errors, not
    // replay a program compiled before the drift (only readout, which
    // is read live, used to get through).
    const dev::Device device = dev::make_device("ibm_lagos");
    FaultConfig faults;
    faults.drift_rate = 1.0;
    faults.drift_sigma = 1.0;
    faults.seed = 5;
    ResilientExecutor executor(device, BackendKind::Density, 512, 1.0,
                               RetryPolicy{}, faults);
    Rng rng(13);
    const circ::Circuit c = variational_circuit();
    const std::vector<double> params = {0.7, -1.1};
    for (int call = 0; call < 3; ++call) {
        const auto got = executor.run_distribution(c, params, {}, rng);
        ASSERT_EQ(executor.last_report()->backend, BackendKind::Density);
        const noise::NoisyDensitySimulator fresh(executor.device());
        const auto want = fresh.run_distribution(c, params);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i)
            EXPECT_NEAR(got[i], want[i], 1e-12) << "call " << call;
    }
    EXPECT_EQ(executor.injected().drifts, 3u);
}

TEST(ResilientExecutor, DistributionPathValidatesAndRetries)
{
    const dev::Device device = dev::make_device("ibm_lagos");
    FaultConfig faults;
    faults.garbage_rate = 0.5;
    faults.seed = 21;
    RetryPolicy policy;
    policy.max_attempts = 8;
    ResilientExecutor executor(device, BackendKind::Density, 512, 1.0,
                               policy, faults);
    Rng rng(12);
    const circ::Circuit c = variational_circuit();
    const std::vector<double> params(
        static_cast<std::size_t>(c.num_params()), 0.3);
    for (int i = 0; i < 10; ++i) {
        auto probs = executor.run_distribution(c, params, {}, rng);
        EXPECT_TRUE(is_valid_distribution(probs, 1e-9));
    }
}

// ---------------------------------------------------------------------
// Single-line circuit serialization (journal format)
// ---------------------------------------------------------------------

TEST(SerializeLine, RoundTripsGeneratedCandidates)
{
    const dev::Device device = dev::make_device("ibm_guadalupe");
    core::CandidateConfig config;
    config.num_qubits = 4;
    config.num_params = 12;
    config.num_embeds = 4;
    config.num_meas = 2;
    config.num_features = 4;
    Rng rng(17);
    for (int trial = 0; trial < 10; ++trial) {
        const circ::Circuit c =
            core::generate_candidate(device, config, rng);
        const std::string line = circ::to_text_line(c);
        EXPECT_EQ(line.find('\n'), std::string::npos);
        const circ::Circuit back = circ::from_text_line(line);
        EXPECT_EQ(circ::to_text(back), circ::to_text(c));
    }
}

TEST(SerializeLine, RejectsCorruptEscapes)
{
    EXPECT_THROW(circ::from_text_line("elv-circuit 1\\"), UsageError);
    EXPECT_THROW(circ::from_text_line("elv-circuit 1\\x"), UsageError);
}

} // namespace
