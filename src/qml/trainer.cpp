#include "qml/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "lint/dataflow.hpp"
#include "lint/preflight.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "qml/optimizer.hpp"
#include "sim/gradients.hpp"
#include "sim/observable.hpp"

namespace elv::qml {

TrainResult
train_circuit(const circ::Circuit &circuit, const Dataset &data,
              const TrainConfig &config)
{
    data.check();
    ELV_REQUIRE(!circuit.measured().empty(), "circuit measures nothing");
    ELV_REQUIRE((std::size_t{1} << circuit.measured().size()) >=
                    static_cast<std::size_t>(data.num_classes),
                "not enough measured qubits for the class count");

    // Training-boundary pre-flight: the structural rules.
    lint::preflight(circuit, lint::Boundary::Training);

    // Optional dead-structure elision: out-of-lightcone ops are removed
    // and their parameter slots densely renumbered; param_map records
    // original slot -> reduced slot (-1 = dropped).
    lint::FixResult fix;
    bool pruned = false;
    if (config.prune_dead_structure) {
        fix = lint::elide_dead_structure(circuit);
        if (fix.ops_elided > 0) {
            pruned = true;
            ELV_METRIC_COUNT_N("lint.ops_elided",
                               static_cast<std::uint64_t>(
                                   fix.ops_elided));
            if (fix.params_elided > 0)
                ELV_METRIC_COUNT_N("lint.params_elided",
                                   static_cast<std::uint64_t>(
                                       fix.params_elided));
        }
    }
    const circ::Circuit &source = pruned ? fix.circuit : circuit;

    // Work on the compacted circuit (Elivagar circuits live on large
    // devices); parameters are unaffected by compaction.
    std::vector<int> kept;
    const circ::Circuit local = source.compacted(kept);

    elv::Rng rng(config.seed ^ 0x7261696eULL);
    TrainResult result;
    // Draw initializations at the ORIGINAL parameter count even when
    // pruning dropped slots: the per-epoch shuffles below share this
    // stream, so the draw count must not depend on the prune.
    std::vector<double> full_init(
        static_cast<std::size_t>(circuit.num_params()));
    for (auto &p : full_init)
        p = rng.uniform(-M_PI, M_PI);
    if (pruned) {
        result.params.resize(
            static_cast<std::size_t>(local.num_params()));
        for (std::size_t s = 0; s < fix.param_map.size(); ++s)
            if (fix.param_map[s] >= 0)
                result.params[static_cast<std::size_t>(
                    fix.param_map[s])] = full_init[s];
    } else {
        result.params = full_init;
    }
    if (full_init.empty()) {
        result.loss_history.assign(
            static_cast<std::size_t>(config.epochs), 0.0);
        return result;
    }

    Adam optimizer(result.params.size());
    const auto projectors =
        sim::class_projectors(local.measured(), data.num_classes);

    std::vector<std::size_t> order(data.samples.size());
    std::iota(order.begin(), order.end(), std::size_t{0});

    // One pool for the whole call. Size 1 (the default) executes every
    // task inline in index order — the serial reference path.
    par::ThreadPool pool(config.threads);
    // Compiled once; every sample's gradient on every worker replays it.
    const sim::FusedProgram program = sim::FusedProgram::compile(local);

    for (int epoch = 0; epoch < config.epochs; ++epoch) {
        rng.shuffle(order);
        double epoch_loss = 0.0;
        std::size_t seen = 0;

        std::size_t cursor = 0;
        while (cursor < order.size()) {
            const std::size_t batch_end =
                std::min(order.size(),
                         cursor +
                             static_cast<std::size_t>(config.batch_size));
            const std::size_t batch_n = batch_end - cursor;
            std::vector<double> grad(result.params.size(), 0.0);

            // Each sample's loss/gradient is a pure function of
            // (program, params, sample) — no RNG, no shared mutable
            // state — so the batch fans out across the pool; the
            // reduction below then runs serially in sample-index
            // order, reproducing the serial loop's floating-point
            // accumulation exactly for every thread count.
            const std::vector<sim::GradientResult> batch_grads =
                pool.parallel_map<sim::GradientResult>(
                    batch_n, [&](std::size_t k) {
                        ELV_METRIC_COUNT("train.batch_tasks");
                        const std::size_t idx = order[cursor + k];
                        // Only the label-class projector feeds the
                        // loss gradient:
                        // dL/dtheta = -(1/p_y) dp_y/dtheta.
                        const std::vector<sim::DiagonalObservable> obs =
                            {projectors[static_cast<std::size_t>(
                                data.labels[idx])]};
                        return sim::adjoint_gradient(
                            program, result.params, data.samples[idx],
                            obs);
                    });

            // Index-ordered reduction (same accumulation order as the
            // serial loop).
            for (std::size_t k = 0; k < batch_n; ++k) {
                const sim::GradientResult &g = batch_grads[k];
                result.circuit_executions += g.circuit_executions;
                const double p_y = std::max(g.values[0], 1e-10);
                epoch_loss += -std::log(p_y);
                ++seen;
                const double coeff =
                    -1.0 / (p_y * static_cast<double>(batch_n));
                for (std::size_t pi = 0; pi < grad.size(); ++pi)
                    grad[pi] += coeff * g.jacobian[0][pi];
            }

            optimizer.step(result.params, grad);
            cursor = batch_end;
        }
        result.loss_history.push_back(
            seen > 0 ? epoch_loss / static_cast<double>(seen) : 0.0);
    }

    if (pruned) {
        // Expand back to the original slot layout: live slots carry
        // their trained values, dead slots their initialization draws
        // (what zero-gradient element-wise Adam leaves them at).
        std::vector<double> expanded = std::move(full_init);
        for (std::size_t s = 0; s < fix.param_map.size(); ++s)
            if (fix.param_map[s] >= 0)
                expanded[s] = result.params[static_cast<std::size_t>(
                    fix.param_map[s])];
        result.params = std::move(expanded);
    }
    return result;
}

std::uint64_t
parameter_shift_execution_count_dataset(int num_params, int epochs,
                                        int num_samples)
{
    ELV_REQUIRE(num_params >= 0 && epochs >= 0 && num_samples >= 0,
                "bad execution-count arguments");
    const std::uint64_t per_sample =
        1 + 2 * static_cast<std::uint64_t>(num_params);
    return per_sample * static_cast<std::uint64_t>(epochs) *
           static_cast<std::uint64_t>(num_samples);
}

} // namespace elv::qml
