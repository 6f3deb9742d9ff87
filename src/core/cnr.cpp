#include "core/cnr.hpp"

#include <optional>

#include "circuit/clifford_replica.hpp"
#include "common/logging.hpp"
#include "common/statistics.hpp"
#include "common/validate.hpp"
#include "lint/preflight.hpp"
#include "noise/noise_model.hpp"
#include "stabilizer/tableau.hpp"

namespace elv::core {

namespace {

/**
 * Replica fidelity on the stabilizer backend: noiseless stabilizer
 * sampling against sampling with stochastic Pauli noise, each from its
 * own split of `rng` (ideal first, then noisy).
 */
double
stabilizer_replica_fidelity(const circ::Circuit &replica,
                            const dev::Device &device,
                            const CnrOptions &options, elv::Rng &rng)
{
    std::vector<int> kept;
    const circ::Circuit local = replica.compacted(kept);
    elv::Rng ideal_rng = rng.split();
    auto ideal = stab::sample_distribution(local, options.shots, ideal_rng);
    const noise::DevicePauliNoise hook(device, kept, options.noise_scale);
    elv::Rng noisy_rng = rng.split();
    auto noisy =
        stab::sample_distribution(local, options.shots, noisy_rng, &hook);
    elv::validate_distribution(ideal, elv::DistributionPolicy::Renormalize,
                               "stabilizer CNR backend (ideal)");
    elv::validate_distribution(noisy, elv::DistributionPolicy::Renormalize,
                               "stabilizer CNR backend (noisy)");
    return 1.0 - elv::total_variation_distance(ideal, noisy);
}

} // namespace

CnrResult
clifford_noise_resilience(const circ::Circuit &circuit,
                          const dev::Device &device, elv::Rng &rng,
                          const CnrOptions &options)
{
    ELV_REQUIRE(options.num_replicas >= 1, "need at least one replica");
    CnrResult result;

    // One density simulator (and so one superoperator table) per call.
    std::optional<noise::NoisyDensitySimulator> density;
    if (options.backend == CnrBackend::Density) {
        density.emplace(device, options.noise_scale);
    } else {
        if (options.shots < 1)
            elv::fatal("the stabilizer CNR backend needs at least one "
                       "shot");
        device.validate();
    }

    // Executor-boundary pre-flight: every replica is linted against the
    // device and the Clifford-replica rules, because a parametric gate
    // slipping through reads as a silently wrong fidelity, not a crash.
    lint::LintOptions lint_options;
    lint_options.device = &device;
    lint_options.expect_clifford_replica = true;

    double fidelity_sum = 0.0;
    for (int m = 0; m < options.num_replicas; ++m) {
        const circ::Circuit replica =
            circ::make_clifford_replica(circuit, rng);
        lint::preflight(replica, lint::Boundary::Executor, lint_options);
        fidelity_sum +=
            density ? density->fidelity(replica)
                    : stabilizer_replica_fidelity(replica, device, options,
                                                  rng);
        ++result.circuit_executions;
    }

    result.cnr = fidelity_sum / options.num_replicas;
    return result;
}

} // namespace elv::core
