#include "qml/diagnostics.hpp"

#include <cmath>

#include "common/logging.hpp"
#include "sim/gradients.hpp"
#include "sim/observable.hpp"

namespace elv::qml {

GradientVariance
gradient_variance(const circ::Circuit &circuit, elv::Rng &rng,
                  const GradientVarianceOptions &options)
{
    ELV_REQUIRE(options.num_samples >= 2, "need at least two samples");
    ELV_REQUIRE(circuit.num_params() >= 1,
                "circuit has no trainable parameters");
    ELV_REQUIRE(!circuit.measured().empty(), "circuit measures nothing");

    std::vector<int> kept;
    const circ::Circuit local = circuit.compacted(kept);
    const int slot = options.param_index < 0 ? 0 : options.param_index;
    ELV_REQUIRE(slot < local.num_params(), "parameter index out of range");

    const std::vector<sim::DiagonalObservable> obs = {
        sim::DiagonalObservable::pauli_z(local.measured().front())};
    const std::vector<double> x(
        static_cast<std::size_t>(std::max(1, local.num_data_features())),
        0.0);
    const sim::FusedProgram program = sim::FusedProgram::compile(local);

    GradientVariance result;
    std::vector<double> params(
        static_cast<std::size_t>(local.num_params()));
    double sum = 0.0, sum_sq = 0.0;
    for (int s = 0; s < options.num_samples; ++s) {
        for (auto &p : params)
            p = rng.uniform(-M_PI, M_PI);
        const auto g = sim::adjoint_gradient(program, params, x, obs);
        result.circuit_executions += g.circuit_executions;
        const double grad =
            g.jacobian[0][static_cast<std::size_t>(slot)];
        sum += grad;
        sum_sq += grad * grad;
    }
    const double n = static_cast<double>(options.num_samples);
    result.mean = sum / n;
    result.variance =
        std::max(0.0, sum_sq / n - result.mean * result.mean);
    return result;
}

} // namespace elv::qml
