#include "exec/executor.hpp"

#include "common/logging.hpp"
#include "common/statistics.hpp"
#include "common/validate.hpp"
#include "lint/preflight.hpp"
#include "sim/statevector.hpp"
#include "stabilizer/tableau.hpp"

namespace elv::exec {

namespace {

/**
 * Executor-boundary pre-flight. Every circuit entering a backend is
 * linted against the device it will be simulated on (when the backend
 * has one) and, for replica-fidelity requests, against the Clifford-
 * replica rules — replica_fidelity's contract is "a Clifford replica",
 * and a parametric gate slipping through reads as a silently wrong
 * fidelity, not a crash.
 */
void
executor_preflight(const circ::Circuit &circuit, const dev::Device *device,
                   bool clifford_replica)
{
    lint::LintOptions options;
    options.device = device;
    options.expect_clifford_replica = clifford_replica;
    lint::preflight(circuit, lint::Boundary::Executor, options);
}

} // namespace

const char *
backend_name(BackendKind kind)
{
    switch (kind) {
      case BackendKind::Density: return "density";
      case BackendKind::Stabilizer: return "stabilizer";
      case BackendKind::Noiseless: return "noiseless";
    }
    return "unknown";
}

bool
Executor::supports(const circ::Circuit &) const
{
    return true;
}

DensityExecutor::DensityExecutor(const dev::Device &device,
                                 double noise_scale)
    : sim_(device, noise_scale)
{
}

bool
DensityExecutor::supports(const circ::Circuit &circuit) const
{
    // The exact density matrix over k touched qubits costs 4^k; larger
    // circuits must degrade to the stabilizer rung.
    return circuit.touched_qubits().size() <=
           static_cast<std::size_t>(kMaxQubits);
}

double
DensityExecutor::replica_fidelity(const circ::Circuit &replica,
                                  elv::Rng &)
{
    executor_preflight(replica, &sim_.device(), true);
    const double f = sim_.fidelity(replica);
    ++executions_;
    return f;
}

std::vector<double>
DensityExecutor::run_distribution(const circ::Circuit &circuit,
                                  const std::vector<double> &params,
                                  const std::vector<double> &x, elv::Rng &)
{
    executor_preflight(circuit, &sim_.device(), false);
    auto probs = sim_.run_distribution(circuit, params, x);
    elv::validate_distribution(probs, elv::DistributionPolicy::Renormalize,
                               "density executor");
    ++executions_;
    return probs;
}

StabilizerExecutor::StabilizerExecutor(const dev::Device &device,
                                       int shots, double noise_scale)
    : device_(device), shots_(shots), scale_(noise_scale)
{
    if (shots < 1)
        elv::fatal("stabilizer executor needs at least one shot");
    device.validate();
}

bool
StabilizerExecutor::supports(const circ::Circuit &circuit) const
{
    for (const circ::Op &op : circuit.ops())
        if (op.num_params() > 0 || !circ::gate_is_clifford(op.kind))
            return false;
    return !circuit.measured().empty();
}

double
StabilizerExecutor::replica_fidelity(const circ::Circuit &replica,
                                     elv::Rng &rng)
{
    executor_preflight(replica, &device_, true);
    std::vector<int> kept;
    const circ::Circuit local = replica.compacted(kept);
    // Noiseless side: stabilizer sampling (efficient at any size).
    // Noisy side: stochastic Pauli injection.
    elv::Rng ideal_rng = rng.split();
    auto ideal = stab::sample_distribution(local, shots_, ideal_rng);
    const noise::DevicePauliNoise hook(device_, kept, scale_);
    elv::Rng noisy_rng = rng.split();
    auto noisy = stab::sample_distribution(local, shots_, noisy_rng, &hook);
    elv::validate_distribution(ideal, elv::DistributionPolicy::Renormalize,
                               "stabilizer executor (ideal)");
    elv::validate_distribution(noisy, elv::DistributionPolicy::Renormalize,
                               "stabilizer executor (noisy)");
    ++executions_;
    return 1.0 - elv::total_variation_distance(ideal, noisy);
}

std::vector<double>
StabilizerExecutor::run_distribution(const circ::Circuit &circuit,
                                     const std::vector<double> &,
                                     const std::vector<double> &,
                                     elv::Rng &rng)
{
    if (!supports(circuit))
        throw BackendError(
            "stabilizer backend cannot run non-Clifford circuits");
    executor_preflight(circuit, &device_, false);
    std::vector<int> kept;
    const circ::Circuit local = circuit.compacted(kept);
    const noise::DevicePauliNoise hook(device_, kept, scale_);
    elv::Rng shot_rng = rng.split();
    auto probs = stab::sample_distribution(local, shots_, shot_rng, &hook);
    elv::validate_distribution(probs, elv::DistributionPolicy::Renormalize,
                               "stabilizer executor");
    ++executions_;
    return probs;
}

double
NoiselessExecutor::replica_fidelity(const circ::Circuit &replica,
                                    elv::Rng &)
{
    executor_preflight(replica, nullptr, true);
    ++executions_;
    return 1.0;
}

std::vector<double>
NoiselessExecutor::run_distribution(const circ::Circuit &circuit,
                                    const std::vector<double> &params,
                                    const std::vector<double> &x,
                                    elv::Rng &)
{
    executor_preflight(circuit, nullptr, false);
    std::vector<int> kept;
    const circ::Circuit local = circuit.compacted(kept);
    sim::StateVector psi(local.num_qubits());
    psi.run(local, params, x);
    auto probs = psi.probabilities(local.measured());
    elv::validate_distribution(probs, elv::DistributionPolicy::Renormalize,
                               "noiseless executor");
    ++executions_;
    return probs;
}

} // namespace elv::exec
