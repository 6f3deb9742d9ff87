#include "exec/resilient.hpp"

#include <cmath>

#include "common/logging.hpp"
#include "common/validate.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

/** Backoff-delay histogram edges (simulated milliseconds); read only
 *  by metric macros, which -DELV_OBS=OFF compiles out. */
[[maybe_unused]] const std::vector<double> &
backoff_edges()
{
    static const std::vector<double> edges{10.0,    50.0,    100.0,
                                           500.0,   1000.0,  5000.0,
                                           10000.0, 30000.0, 60000.0};
    return edges;
}

} // namespace

namespace elv::exec {

namespace {

/** Independent fault-stream seed per ladder rung. */
std::uint64_t
rung_seed(std::uint64_t base, int rung)
{
    return base ^ (static_cast<std::uint64_t>(rung + 1) *
                   std::uint64_t{0x9e3779b97f4a7c15});
}

std::unique_ptr<Executor>
make_backend(const dev::Device &device, BackendKind kind, int shots,
             double noise_scale)
{
    switch (kind) {
      case BackendKind::Density:
        return std::make_unique<DensityExecutor>(device, noise_scale);
      case BackendKind::Stabilizer:
        return std::make_unique<StabilizerExecutor>(device, shots,
                                                    noise_scale);
      case BackendKind::Noiseless:
        return std::make_unique<NoiselessExecutor>();
    }
    elv::fatal("unknown backend kind");
}

} // namespace

ResilientExecutor::ResilientExecutor(const dev::Device &device,
                                     BackendKind primary, int shots,
                                     double noise_scale,
                                     const RetryPolicy &policy,
                                     const FaultConfig &faults,
                                     std::uint64_t seed)
    : device_(device), policy_(policy),
      jitter_rng_(seed ^ 0x7265747279ULL)
{
    policy_.check();

    std::vector<BackendKind> kinds;
    switch (primary) {
      case BackendKind::Density:
        kinds = {BackendKind::Density, BackendKind::Stabilizer,
                 BackendKind::Noiseless};
        break;
      case BackendKind::Stabilizer:
        kinds = {BackendKind::Stabilizer, BackendKind::Noiseless};
        break;
      case BackendKind::Noiseless:
        kinds = {BackendKind::Noiseless};
        break;
    }

    for (std::size_t r = 0; r < kinds.size(); ++r) {
        auto backend =
            make_backend(device_, kinds[r], shots, noise_scale);
        if (faults.any() && faults.applies_to(kinds[r])) {
            FaultConfig rung_faults = faults;
            rung_faults.seed =
                rung_seed(faults.seed ^ seed, static_cast<int>(r));
            backend = std::make_unique<FaultInjector>(
                std::move(backend), rung_faults,
                faults.drift_rate > 0.0 ? &device_ : nullptr);
        }
        ladder_.push_back(std::move(backend));
    }
}

BackendKind
ResilientExecutor::kind() const
{
    return ladder_.front()->kind();
}

bool
ResilientExecutor::supports(const circ::Circuit &circuit) const
{
    for (const auto &rung : ladder_)
        if (rung->supports(circuit))
            return true;
    return false;
}

BackendKind
ResilientExecutor::rung_kind(int rung) const
{
    ELV_REQUIRE(rung >= 0 && rung < num_rungs(), "rung out of range");
    return ladder_[static_cast<std::size_t>(rung)]->kind();
}

FaultCounters
ResilientExecutor::injected() const
{
    FaultCounters total;
    for (const auto &rung : ladder_)
        if (const auto *injector =
                dynamic_cast<const FaultInjector *>(rung.get()))
            total += injector->injected();
    return total;
}

template <typename Value, typename Attempt>
Value
ResilientExecutor::call(const circ::Circuit &circuit, Attempt &&attempt)
{
    ELV_TRACE_SCOPE("exec.call", "exec");
    ++counters_.calls;
    ELV_METRIC_COUNT("exec.calls");
    report_ = CallReport{};
    int first_supported = -1;
    std::string last_error = "no backend supports this circuit";

    for (int r = 0; r < num_rungs(); ++r) {
        Executor &rung = *ladder_[static_cast<std::size_t>(r)];
        if (!rung.supports(circuit))
            continue;
        if (first_supported < 0)
            first_supported = r;

        // Once the per-run budget is spent, stop waiting: a single
        // attempt per rung, degrading instead of retrying.
        const bool budget_spent = policy_.total_budget_ms > 0.0 &&
                                  clock_ms_ >= policy_.total_budget_ms;
        const int attempts_allowed =
            budget_spent ? 1 : policy_.max_attempts;
        double call_wait_ms = 0.0;

        for (int a = 0; a < attempts_allowed; ++a) {
            ++counters_.attempts;
            ELV_METRIC_COUNT("exec.attempts");
            try {
                Value value = attempt(rung);
                report_.backend = rung.kind();
                report_.rung = r;
                report_.degraded = r != first_supported;
                if (report_.degraded) {
                    ++counters_.degraded_calls;
                    ELV_METRIC_COUNT("exec.degraded_calls");
                }
                ++executions_;
                return value;
            } catch (const QueueTimeout &e) {
                ++counters_.failures;
                ELV_METRIC_COUNT("exec.failures");
                clock_ms_ += e.waited_ms();
                counters_.queue_wait_ms += e.waited_ms();
                call_wait_ms += e.waited_ms();
                last_error = e.what();
            } catch (const BackendError &e) {
                ++counters_.failures;
                ELV_METRIC_COUNT("exec.failures");
                last_error = e.what();
            } catch (const elv::DistributionError &e) {
                ++counters_.failures;
                ++counters_.invalid_results;
                ELV_METRIC_COUNT("exec.failures");
                ELV_METRIC_COUNT("exec.invalid_results");
                last_error = e.what();
            }
            // CrashError (and genuine bugs) propagate: a dead process
            // cannot retry; the checkpoint journal is the safety net.

            if (a + 1 >= attempts_allowed)
                break;
            if (policy_.call_deadline_ms > 0.0 &&
                call_wait_ms >= policy_.call_deadline_ms)
                break; // per-call deadline: degrade instead of waiting
            const double delay = policy_.backoff_delay_ms(a, jitter_rng_);
            clock_ms_ += delay;
            call_wait_ms += delay;
            counters_.backoff_wait_ms += delay;
            ++counters_.retries;
            ++report_.retries;
            ELV_METRIC_COUNT("exec.retries");
            ELV_METRIC_OBSERVE("exec.backoff_ms", backoff_edges(), delay);
        }
        ++counters_.rungs_exhausted;
        ELV_METRIC_COUNT("exec.rungs_exhausted");
    }
    throw BackendError("all execution backends exhausted; last error: " +
                       last_error);
}

double
ResilientExecutor::replica_fidelity(const circ::Circuit &replica,
                                    elv::Rng &rng)
{
    return call<double>(replica, [&](Executor &rung) {
        // Snapshot the computation stream so a retry replays the exact
        // draws of the failed attempt; commit only on success.
        elv::Rng attempt_rng = rng;
        const double f = rung.replica_fidelity(replica, attempt_rng);
        if (!std::isfinite(f) || f < -1e-9 || f > 1.0 + 1e-9)
            throw elv::DistributionError(
                "replica fidelity outside [0, 1]");
        rng = attempt_rng;
        return f;
    });
}

std::vector<double>
ResilientExecutor::run_distribution(const circ::Circuit &circuit,
                                    const std::vector<double> &params,
                                    const std::vector<double> &x,
                                    elv::Rng &rng)
{
    return call<std::vector<double>>(circuit, [&](Executor &rung) {
        elv::Rng attempt_rng = rng;
        auto probs = rung.run_distribution(circuit, params, x,
                                           attempt_rng);
        elv::validate_distribution(probs, elv::DistributionPolicy::Throw,
                                   "resilient executor");
        rng = attempt_rng;
        return probs;
    });
}

} // namespace elv::exec
