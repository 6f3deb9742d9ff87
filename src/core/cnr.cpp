#include "core/cnr.hpp"

#include <memory>

#include "circuit/clifford_replica.hpp"
#include "common/logging.hpp"
#include "lint/dataflow.hpp"
#include "obs/metrics.hpp"

namespace elv::core {

exec::BackendKind
cnr_backend_kind(CnrBackend backend)
{
    return backend == CnrBackend::Density ? exec::BackendKind::Density
                                          : exec::BackendKind::Stabilizer;
}

CnrResult
clifford_noise_resilience(const circ::Circuit &circuit,
                          const dev::Device &device, elv::Rng &rng,
                          const CnrOptions &options)
{
    ELV_REQUIRE(options.num_replicas >= 1, "need at least one replica");
    CnrResult result;

    // Route every replica execution through the exec layer: the
    // caller's executor when provided (resilient, fault-injected, ...),
    // otherwise a plain backend matching the configured CnrBackend.
    std::unique_ptr<exec::Executor> owned;
    exec::Executor *executor = options.executor;
    if (!executor) {
        if (options.backend == CnrBackend::Density)
            owned = std::make_unique<exec::DensityExecutor>(
                device, options.noise_scale);
        else
            owned = std::make_unique<exec::StabilizerExecutor>(
                device, options.shots, options.noise_scale);
        executor = owned.get();
    }

    double fidelity_sum = 0.0;
    for (int m = 0; m < options.num_replicas; ++m) {
        circ::Circuit replica = circ::make_clifford_replica(circuit, rng);
        if (options.prune_dead_structure) {
            // Prune the REPLICA, not the source: replica construction
            // draws from `rng` per parametric gate, so eliding source
            // ops first would shift the stream and change every
            // replica after the first dead gate.
            std::size_t elided = 0;
            replica = lint::prune_to_lightcone(replica, &elided);
            if (elided > 0)
                ELV_METRIC_COUNT_N("lint.ops_elided",
                                   static_cast<std::uint64_t>(elided));
        }
        fidelity_sum += executor->replica_fidelity(replica, rng);
        ++result.circuit_executions;
        if (const exec::CallReport *report = executor->last_report()) {
            result.degraded |= report->degraded;
            result.retries +=
                static_cast<std::uint64_t>(report->retries);
        }
    }

    result.cnr = fidelity_sum / options.num_replicas;
    return result;
}

} // namespace elv::core
