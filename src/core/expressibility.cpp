#include "core/expressibility.hpp"

#include <cmath>

#include "common/logging.hpp"
#include "sim/statevector.hpp"

namespace elv::core {

namespace {

/** Histogram bins for the fidelity distribution. */
constexpr int kNumBins = 24;

} // namespace

ExpressibilityResult
expressibility(const circ::Circuit &circuit, elv::Rng &rng,
               const ExpressibilityOptions &options)
{
    ELV_REQUIRE(options.num_pairs >= 2, "bad expressibility options");

    std::vector<int> kept;
    const circ::Circuit local = circuit.compacted(kept);
    const std::vector<double> x(
        static_cast<std::size_t>(std::max(1, local.num_data_features())),
        0.0);

    ExpressibilityResult result;
    std::vector<double> histogram(
        static_cast<std::size_t>(kNumBins), 0.0);

    sim::StateVector a(local.num_qubits());
    sim::StateVector b(local.num_qubits());
    std::vector<double> pa(static_cast<std::size_t>(local.num_params()));
    std::vector<double> pb(pa.size());
    for (int pair = 0; pair < options.num_pairs; ++pair) {
        for (auto &v : pa)
            v = rng.uniform(-M_PI, M_PI);
        for (auto &v : pb)
            v = rng.uniform(-M_PI, M_PI);
        a.run(local, pa, x);
        b.run(local, pb, x);
        result.circuit_executions += 2;
        const double fidelity = a.overlap(b);
        const int bin = std::min(
            kNumBins - 1,
            static_cast<int>(fidelity * kNumBins));
        histogram[static_cast<std::size_t>(bin)] += 1.0;
    }
    for (double &h : histogram)
        h /= options.num_pairs;

    // Haar fidelity CDF: 1 - (1 - F)^(N-1); integrate per bin exactly.
    const double n_minus_1 =
        std::pow(2.0, local.num_qubits()) - 1.0;
    double kl = 0.0;
    for (int bin = 0; bin < kNumBins; ++bin) {
        const double lo = static_cast<double>(bin) / kNumBins;
        const double hi = static_cast<double>(bin + 1) / kNumBins;
        const double haar = std::pow(1.0 - lo, n_minus_1) -
                            std::pow(1.0 - hi, n_minus_1);
        const double p = histogram[static_cast<std::size_t>(bin)];
        if (p > 0.0)
            kl += p * std::log(p / std::max(haar, 1e-12));
    }
    result.kl_divergence = kl;
    return result;
}

} // namespace elv::core
