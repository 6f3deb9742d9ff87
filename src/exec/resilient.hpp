/**
 * @file
 * Retry, backoff and graceful degradation on top of the Executor
 * abstraction.
 *
 * A ResilientExecutor owns a degradation ladder of backends — for the
 * CNR path Density -> Stabilizer -> Noiseless — and services each call
 * by retrying the current rung with exponential backoff + jitter (all
 * waits accumulate on a simulated clock, never a real sleep), then
 * falling to the next rung once the rung's attempts or its per-call
 * deadline are exhausted. Calls serviced by a fallback rung are flagged
 * `degraded` so downstream scores stay auditable. Every result is
 * validated (finite fidelity in [0, 1]; distributions via
 * validate_distribution), and an invalid result counts as a retryable
 * failure — which is exactly how injected NaN faults are absorbed.
 *
 * Determinism: the computation RNG handed into a call is snapshotted
 * before every attempt and only committed on success, so a retried call
 * consumes the same draws as an undisturbed one. With faults injected
 * from their own stream, a run that survives via retries is
 * value-identical to the fault-free run.
 */
#pragma once

#include <memory>
#include <vector>

#include "common/retry.hpp"
#include "exec/fault_injector.hpp"

namespace elv::exec {

class ResilientExecutor : public Executor
{
  public:
    /**
     * Build the standard degradation ladder below `primary`
     * (Density -> Stabilizer -> Noiseless, truncated to start at
     * `primary`) over a private copy of `device`. When `faults` has any
     * active mode, each matching rung is wrapped in a FaultInjector and
     * drift events perturb the private calibration copy.
     *
     * @param shots shots per stabilizer execution
     * @param noise_scale multiplies calibration error rates
     * @param seed jitter stream seed (also mixed into fault streams)
     */
    ResilientExecutor(const dev::Device &device, BackendKind primary,
                      int shots, double noise_scale,
                      const RetryPolicy &policy = {},
                      const FaultConfig &faults = {},
                      std::uint64_t seed = 0);

    BackendKind kind() const override;
    bool supports(const circ::Circuit &circuit) const override;
    double replica_fidelity(const circ::Circuit &replica,
                            elv::Rng &rng) override;
    std::vector<double> run_distribution(const circ::Circuit &circuit,
                                         const std::vector<double> &params,
                                         const std::vector<double> &x,
                                         elv::Rng &rng) override;
    const CallReport *last_report() const override { return &report_; }

    /** Retry/degradation tallies since construction. */
    const RetryCounters &counters() const { return counters_; }

    /** Faults injected across all rungs. */
    FaultCounters injected() const;

    /** Simulated wall clock consumed by queue waits and backoffs. */
    double elapsed_ms() const { return clock_ms_; }

    int num_rungs() const { return static_cast<int>(ladder_.size()); }
    BackendKind rung_kind(int rung) const;

    /** The private calibration snapshot (drift perturbs this copy). */
    const dev::Device &device() const { return device_; }

  private:
    template <typename Value, typename Attempt>
    Value call(const circ::Circuit &circuit, Attempt &&attempt);

    /** Owned snapshot so drift never corrupts the caller's Device. */
    dev::Device device_;
    std::vector<std::unique_ptr<Executor>> ladder_;
    RetryPolicy policy_;
    elv::Rng jitter_rng_;
    RetryCounters counters_;
    CallReport report_;
    double clock_ms_ = 0.0;
};

} // namespace elv::exec
