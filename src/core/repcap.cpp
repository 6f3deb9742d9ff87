#include "core/repcap.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "common/validate.hpp"
#include "sim/fusion.hpp"
#include "sim/state_batch.hpp"
#include "sim/unitaries.hpp"
#include "sim/vec_batch.hpp"

namespace elv::core {

namespace {

/**
 * Samples per StateBatch. A 6-qubit batch of 32 lanes is 64 x 32 x 16
 * bytes = 32 KiB of amplitudes, so the batch a gate sweeps stays in L1d
 * (EXPERIMENTS.md, "Lane-batched RepCap", has the replay throughput by
 * qubits x lanes behind this choice). It changes no result: every lane
 * is bit-identical to a lone replay.
 */
constexpr std::size_t kLanes = 32;

} // namespace

RepCapResult
representational_capacity(const circ::Circuit &circuit,
                          const qml::Dataset &data, elv::Rng &rng,
                          const RepCapOptions &options)
{
    data.check();
    ELV_REQUIRE(options.samples_per_class >= 1 &&
                    options.param_inits >= 1 && options.num_bases >= 1,
                "bad RepCap options");
    ELV_REQUIRE(!circuit.measured().empty(), "circuit measures nothing");

    std::vector<int> kept;
    const circ::Circuit local = circuit.compacted(kept);
    const auto &measured = local.measured();

    // Select d_c samples per class (indices grouped by class).
    const auto chosen =
        qml::sample_per_class(data, options.samples_per_class, rng);
    const std::size_t d = chosen.size();
    ELV_REQUIRE(d >= 2, "need at least two samples for RepCap");

    // R_ref(i, j) = 1 iff labels match.
    // Accumulate R_C over parameter inits and random bases.
    std::vector<double> r_c(d * d, 0.0);
    RepCapResult result;

    // One candidate circuit, d x param_inits executions: compile the
    // fused program once (no cache — candidates are one-shot here).
    const sim::FusedProgram program = sim::FusedProgram::compile(local);

    // Embedding matrices read only the sample, so each (sample, gate)
    // resolves once per candidate; variational ones once per init.
    std::vector<std::vector<double>> inputs;
    inputs.reserve(d);
    for (const std::size_t row : chosen)
        inputs.push_back(data.samples[row]);
    const sim::LaneBarriers embedded = program.resolve_embedding(inputs);

    // The d states of one init replay as batches of kLanes samples
    // (sample s is lane s % kLanes of batch s / kLanes); each lane is
    // bit-identical to replaying its sample alone.
    std::vector<sim::StateBatch> states;
    for (std::size_t first = 0; first < d; first += kLanes)
        states.emplace_back(local.num_qubits(),
                            std::min(kLanes, d - first));
    sim::StateBatch rotated = states.front();
    const std::size_t outcomes = std::size_t{1} << measured.size();
    // Outcome-major: entry (k, s) is P_s(k), so for a fixed state i the
    // pair loop below runs over contiguous j and vectorizes, while each
    // pair still sums |P_i(k) - P_j(k)| in outcome order (the order
    // elv::total_variation_distance uses).
    std::vector<double> dists(outcomes * d);
    std::vector<double> probs(outcomes);
    std::vector<double> abs_sum(d);

    for (int t = 0; t < options.param_inits; ++t) {
        // Random parameter vector theta_t (uniformly sampled angles).
        std::vector<double> params(
            static_cast<std::size_t>(local.num_params()));
        for (auto &p : params)
            p = rng.uniform(-M_PI, M_PI);
        const sim::ResolvedBarriers variational =
            program.resolve(circ::ParamRole::Variational, params, {});

        // Prepare the d output states once per init.
        for (std::size_t j = 0; j < states.size(); ++j) {
            program.run(states[j], variational, embedded, j * kLanes);
            result.circuit_executions += states[j].lanes();
        }

        for (int k = 0; k < options.num_bases; ++k) {
            // Random measurement basis: a random U3 on each measured
            // qubit (the alpha array of Algorithm 2).
            std::vector<sim::Mat2> basis;
            basis.reserve(measured.size());
            for (std::size_t m = 0; m < measured.size(); ++m) {
                const std::array<double, 3> angles = {
                    rng.uniform(0.0, M_PI),
                    rng.uniform(0.0, 2.0 * M_PI),
                    rng.uniform(0.0, 2.0 * M_PI)};
                basis.push_back(
                    sim::gate_matrix_1q(circ::GateKind::U3, angles));
            }

            // Outcome distribution of each state in this basis.
            for (std::size_t j = 0; j < states.size(); ++j) {
                rotated = states[j];
                for (std::size_t m = 0; m < measured.size(); ++m)
                    rotated.apply_1q(basis[m], measured[m]);
                rotated.probabilities(measured, dists.data() + j * kLanes,
                                      d);
            }
            for (std::size_t s = 0; s < d; ++s) {
                for (std::size_t o = 0; o < outcomes; ++o)
                    probs[o] = dists[o * d + s];
                // Guard the similarity estimate against numerical decay
                // of the rotated state (NaN poisons the whole matrix).
                elv::validate_distribution(
                    probs, elv::DistributionPolicy::Renormalize,
                    "RepCap randomized measurement");
                for (std::size_t o = 0; o < outcomes; ++o)
                    dists[o * d + s] = probs[o];
            }

            // Similarity 1 - TVD of every pair (i, j > i).
            for (std::size_t i = 0; i < d; ++i) {
                r_c[i * d + i] += 1.0;
                sim::vec::dispatch<sim::vec::AbsDiffRows>(
                    dists.data(), outcomes, d, i, abs_sum.data());
                for (std::size_t j = i + 1; j < d; ++j) {
                    const double sim_ij = 1.0 - 0.5 * abs_sum[j];
                    r_c[i * d + j] += sim_ij;
                    r_c[j * d + i] += sim_ij;
                }
            }
        }
    }

    const double norm = 1.0 / (static_cast<double>(options.param_inits) *
                               static_cast<double>(options.num_bases));
    double frob2 = 0.0;
    for (std::size_t i = 0; i < d; ++i) {
        for (std::size_t j = 0; j < d; ++j) {
            const double ref =
                data.labels[chosen[i]] == data.labels[chosen[j]] ? 1.0
                                                                 : 0.0;
            const double diff = r_c[i * d + j] * norm - ref;
            frob2 += diff * diff;
        }
    }
    result.repcap = 1.0 - frob2 / static_cast<double>(d * d);
    return result;
}

} // namespace elv::core
