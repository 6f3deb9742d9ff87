#include "qml/classifier.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/rng.hpp"
#include "common/logging.hpp"
#include "common/validate.hpp"
#include "sim/fusion.hpp"
#include "sim/statevector.hpp"

namespace elv::qml {

namespace {

/** The compacted circuit, compiled. */
sim::FusedProgram
compile_compacted(const circ::Circuit &circuit)
{
    std::vector<int> kept;
    return sim::FusedProgram::compile(circuit.compacted(kept));
}

/** Noiseless outcome distribution of one run of `program`. */
std::vector<double>
ideal_distribution(const sim::FusedProgram &program,
                   const std::vector<double> &params,
                   const std::vector<double> &x)
{
    sim::StateVector psi(program.num_qubits());
    program.run(psi, params, x);
    auto probs = psi.probabilities(program.source().measured());
    // Numerical guardrail at the DistributionFn boundary: NaN or
    // lost mass here silently corrupts every downstream loss.
    elv::validate_distribution(probs, "statevector distribution");
    return probs;
}

} // namespace

DistributionFn
statevector_distribution()
{
    return [](const circ::Circuit &circuit,
              const std::vector<double> &params,
              const std::vector<double> &x) {
        return ideal_distribution(compile_compacted(circuit), params, x);
    };
}

DistributionFn
with_shot_noise(DistributionFn inner, int shots, std::uint64_t seed)
{
    ELV_REQUIRE(shots >= 1, "need at least one shot");
    // Shared generator: one provider instance samples a single stream.
    auto rng = std::make_shared<elv::Rng>(seed ^ 0x73686f74ULL);
    return [inner = std::move(inner), shots,
            rng](const circ::Circuit &circuit,
                 const std::vector<double> &params,
                 const std::vector<double> &x) {
        auto exact = inner(circuit, params, x);
        // Sampling from a NaN/unnormalized distribution would silently
        // bias every histogram; validate (and repair drift) first.
        elv::validate_distribution(exact, "shot-noise provider input");
        std::vector<double> histogram(exact.size(), 0.0);
        for (int s = 0; s < shots; ++s) {
            const std::size_t outcome =
                sim::StateVector::sample_from(exact, *rng);
            histogram[outcome] += 1.0 / shots;
        }
        return histogram;
    };
}

std::vector<double>
class_probabilities_from(const std::vector<double> &outcome_probs,
                         int num_classes)
{
    ELV_REQUIRE(num_classes >= 2, "need at least two classes");
    ELV_REQUIRE(outcome_probs.size() >=
                    static_cast<std::size_t>(num_classes),
                "not enough outcomes for the class count");
    std::vector<double> probs(static_cast<std::size_t>(num_classes), 0.0);
    for (std::size_t k = 0; k < outcome_probs.size(); ++k)
        probs[k % static_cast<std::size_t>(num_classes)] +=
            outcome_probs[k];
    // Outcome distributions can carry tiny negative float error.
    double total = 0.0;
    for (double &p : probs) {
        p = std::max(p, 0.0);
        total += p;
    }
    if (total > 0.0)
        for (double &p : probs)
            p /= total;
    return probs;
}

std::vector<double>
class_probabilities(const circ::Circuit &circuit,
                    const std::vector<double> &params,
                    const std::vector<double> &x, int num_classes)
{
    return class_probabilities_from(
        statevector_distribution()(circuit, params, x), num_classes);
}

int
predict_class(const std::vector<double> &class_probs)
{
    ELV_REQUIRE(!class_probs.empty(), "empty class probabilities");
    return static_cast<int>(std::max_element(class_probs.begin(),
                                             class_probs.end()) -
                            class_probs.begin());
}

double
cross_entropy(const std::vector<double> &class_probs, int label)
{
    ELV_REQUIRE(label >= 0 &&
                    label < static_cast<int>(class_probs.size()),
                "label out of range");
    const double p = std::max(
        class_probs[static_cast<std::size_t>(label)], 1e-10);
    return -std::log(p);
}

EvalResult
evaluate(const circ::Circuit &circuit, const std::vector<double> &params,
         const Dataset &data, const DistributionFn &dist_fn)
{
    ELV_REQUIRE(!data.samples.empty(), "empty evaluation set");
    EvalResult result;
    int correct = 0;
    for (std::size_t i = 0; i < data.samples.size(); ++i) {
        const auto outcome = dist_fn(circuit, params, data.samples[i]);
        const auto probs =
            class_probabilities_from(outcome, data.num_classes);
        result.loss += cross_entropy(probs, data.labels[i]);
        if (predict_class(probs) == data.labels[i])
            ++correct;
    }
    result.loss /= static_cast<double>(data.samples.size());
    result.accuracy = static_cast<double>(correct) /
                      static_cast<double>(data.samples.size());
    return result;
}

EvalResult
evaluate(const circ::Circuit &circuit, const std::vector<double> &params,
         const Dataset &data)
{
    // statevector_distribution()'s arithmetic, compiled once for all
    // rows.
    const sim::FusedProgram program = compile_compacted(circuit);
    return evaluate(circuit, params, data,
                    [&program](const circ::Circuit &,
                               const std::vector<double> &p,
                               const std::vector<double> &x) {
                        return ideal_distribution(program, p, x);
                    });
}

} // namespace elv::qml
