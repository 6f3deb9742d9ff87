/**
 * @file
 * The execution layer's backend abstraction.
 *
 * Elivagar's pipeline (CNR replicas, RepCap, noisy training) is built
 * around repeated circuit executions on a NISQ backend. On real cloud
 * devices those executions fail transiently, time out in queues, and
 * drift between calibration snapshots, so every execution path in this
 * tree is routed through an `Executor`: a narrow interface offering the
 * two primitives the pipeline consumes — Clifford-replica fidelity (the
 * CNR inner loop) and outcome distributions (classification / CNR / raw
 * sampling). Concrete executors wrap the density-matrix, stabilizer and
 * noiseless state-vector backends; decorators add fault injection
 * (fault_injector.hpp) and retry/degradation (resilient.hpp).
 */
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "device/device.hpp"
#include "noise/noise_model.hpp"

namespace elv::exec {

/** Which simulation backend services a request. */
enum class BackendKind {
    /** Exact density-matrix noisy simulation (small circuits). */
    Density,
    /** Stochastic-Pauli stabilizer sampling (Clifford circuits only). */
    Stabilizer,
    /** Noiseless state-vector simulation (last-resort fallback). */
    Noiseless,
};

/** Human-readable backend name. */
const char *backend_name(BackendKind kind);

/** Transient backend failure; the resilient layer retries these. */
class BackendError : public std::runtime_error
{
  public:
    explicit BackendError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** A job exceeded its queue deadline; carries the simulated wait. */
class QueueTimeout : public BackendError
{
  public:
    QueueTimeout(const std::string &what, double waited_ms)
        : BackendError(what), waited_ms_(waited_ms)
    {
    }

    /** Simulated milliseconds lost waiting before the timeout fired. */
    double waited_ms() const { return waited_ms_; }

  private:
    double waited_ms_;
};

/**
 * Non-retryable process death (injected by FaultInjector to test
 * crash-safe checkpointing). Propagates through the resilient layer
 * and out of the search, like a real kill would.
 */
class CrashError : public std::runtime_error
{
  public:
    explicit CrashError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** Diagnostics for the last logical call of a resilient executor. */
struct CallReport
{
    /** Backend that finally serviced the call. */
    BackendKind backend = BackendKind::Density;
    /** Ladder rung that serviced the call (0 = primary). */
    int rung = 0;
    /** True when a fallback rung serviced the call after failures. */
    bool degraded = false;
    /** Retries spent across all rungs of the call. */
    int retries = 0;
};

/** Uniform entry point for circuit execution. */
class Executor
{
  public:
    virtual ~Executor() = default;

    /** Backend this executor (or its primary rung) represents. */
    virtual BackendKind kind() const = 0;

    /** True when this backend can service the given circuit at all. */
    virtual bool supports(const circ::Circuit &circuit) const;

    /**
     * Fidelity proxy of one Clifford replica: 1 - TVD between the noisy
     * and noiseless output distributions (paper Eq. 1). `rng` feeds
     * stochastic backends; deterministic backends ignore it.
     */
    virtual double replica_fidelity(const circ::Circuit &replica,
                                    elv::Rng &rng) = 0;

    /**
     * Outcome distribution over the circuit's measured qubits for bound
     * parameters/input.
     */
    virtual std::vector<double> run_distribution(
        const circ::Circuit &circuit, const std::vector<double> &params,
        const std::vector<double> &x, elv::Rng &rng) = 0;

    /** Requests serviced successfully by this executor. */
    std::uint64_t executions() const { return executions_; }

    /** Per-call diagnostics; null for plain (non-resilient) executors. */
    virtual const CallReport *last_report() const { return nullptr; }

  protected:
    std::uint64_t executions_ = 0;
};

/** Exact noisy execution via the density-matrix backend. */
class DensityExecutor : public Executor
{
  public:
    /** Circuits touching more qubits than this are unsupported. */
    static constexpr int kMaxQubits = 12;

    explicit DensityExecutor(const dev::Device &device,
                             double noise_scale = 1.0);

    BackendKind kind() const override { return BackendKind::Density; }
    bool supports(const circ::Circuit &circuit) const override;
    double replica_fidelity(const circ::Circuit &replica,
                            elv::Rng &rng) override;
    std::vector<double> run_distribution(const circ::Circuit &circuit,
                                         const std::vector<double> &params,
                                         const std::vector<double> &x,
                                         elv::Rng &rng) override;

  private:
    noise::NoisyDensitySimulator sim_;
};

/** Stochastic-Pauli sampling via the stabilizer backend (Clifford only). */
class StabilizerExecutor : public Executor
{
  public:
    StabilizerExecutor(const dev::Device &device, int shots,
                       double noise_scale = 1.0);

    BackendKind kind() const override { return BackendKind::Stabilizer; }
    bool supports(const circ::Circuit &circuit) const override;
    double replica_fidelity(const circ::Circuit &replica,
                            elv::Rng &rng) override;
    std::vector<double> run_distribution(const circ::Circuit &circuit,
                                         const std::vector<double> &params,
                                         const std::vector<double> &x,
                                         elv::Rng &rng) override;

  private:
    const dev::Device &device_;
    int shots_;
    double scale_;
};

/**
 * Noiseless state-vector execution — the last rung of the degradation
 * ladder. Replica fidelity is exactly 1 (no noise, zero TVD), which is
 * why results serviced here must be flagged as degraded: they carry no
 * noise-resilience signal.
 */
class NoiselessExecutor : public Executor
{
  public:
    BackendKind kind() const override { return BackendKind::Noiseless; }
    double replica_fidelity(const circ::Circuit &replica,
                            elv::Rng &rng) override;
    std::vector<double> run_distribution(const circ::Circuit &circuit,
                                         const std::vector<double> &params,
                                         const std::vector<double> &x,
                                         elv::Rng &rng) override;
};

} // namespace elv::exec
