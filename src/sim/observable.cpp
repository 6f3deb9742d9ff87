#include "sim/observable.hpp"

#include "common/logging.hpp"

namespace elv::sim {

DiagonalObservable::DiagonalObservable(std::vector<int> qubits,
                                       std::vector<double> weights)
    : qubits_(std::move(qubits)), weights_(std::move(weights))
{
    ELV_REQUIRE(!qubits_.empty(), "observable needs at least one qubit");
    ELV_REQUIRE(weights_.size() == (std::size_t{1} << qubits_.size()),
                "observable weight vector has wrong size");
}

double
DiagonalObservable::expectation(const StateVector &psi) const
{
    return expectation(psi.probabilities(qubits_));
}

double
DiagonalObservable::expectation(const std::vector<double> &probs) const
{
    ELV_REQUIRE(probs.size() == weights_.size(),
                "outcome distribution size mismatch");
    double e = 0.0;
    for (std::size_t k = 0; k < probs.size(); ++k)
        e += weights_[k] * probs[k];
    return e;
}

void
DiagonalObservable::apply_to(StateVector &psi) const
{
    const OutcomeIndex outcome(qubits_, psi.num_qubits());
    auto &amps = psi.amps();
    for (std::size_t i = 0; i < amps.size(); ++i)
        amps[i] *= weights_[outcome(i)];
}

DiagonalObservable
DiagonalObservable::pauli_z(int qubit)
{
    return DiagonalObservable({qubit}, {1.0, -1.0});
}

DiagonalObservable
DiagonalObservable::outcome_group(const std::vector<int> &qubits,
                                  int num_groups, int group)
{
    ELV_REQUIRE(num_groups > 0 && group >= 0 && group < num_groups,
                "bad outcome group");
    std::vector<double> weights(std::size_t{1} << qubits.size(), 0.0);
    for (std::size_t k = 0; k < weights.size(); ++k)
        if (static_cast<int>(k % static_cast<std::size_t>(num_groups)) ==
            group)
            weights[k] = 1.0;
    return DiagonalObservable(qubits, std::move(weights));
}

std::vector<DiagonalObservable>
class_projectors(const std::vector<int> &measured_qubits, int num_classes)
{
    ELV_REQUIRE((std::size_t{1} << measured_qubits.size()) >=
                    static_cast<std::size_t>(num_classes),
                "not enough measured qubits for the class count");
    std::vector<DiagonalObservable> obs;
    obs.reserve(static_cast<std::size_t>(num_classes));
    for (int k = 0; k < num_classes; ++k)
        obs.push_back(DiagonalObservable::outcome_group(measured_qubits,
                                                        num_classes, k));
    return obs;
}

} // namespace elv::sim
