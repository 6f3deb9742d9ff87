#include "extensions/qtnvqc.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "qml/optimizer.hpp"
#include "sim/gradients.hpp"
#include "sim/observable.hpp"

namespace elv::ext {

namespace {

/** Hidden units of the frontend. */
constexpr int kHidden = 8;
/** Samples per joint-training batch. */
constexpr std::size_t kBatchSize = 32;

} // namespace

QtnVqc::QtnVqc(int in_dim, int out_dim, const QtnVqcConfig &config)
    : in_dim_(in_dim), out_dim_(out_dim), config_(config)
{
    ELV_REQUIRE(in_dim >= 1 && out_dim >= 1, "bad QTN-VQC shape");
    elv::Rng rng(config.seed ^ 0x71746eULL);
    const double scale1 = 1.0 / std::sqrt(static_cast<double>(in_dim));
    const double scale2 = 1.0 / std::sqrt(static_cast<double>(kHidden));
    w1_.resize(static_cast<std::size_t>(kHidden * in_dim_));
    for (auto &w : w1_)
        w = rng.normal(0.0, scale1);
    b1_.assign(static_cast<std::size_t>(kHidden), 0.0);
    w2_.resize(static_cast<std::size_t>(out_dim_ * kHidden));
    for (auto &w : w2_)
        w = rng.normal(0.0, scale2);
    b2_.assign(static_cast<std::size_t>(out_dim_), 0.0);
}

std::vector<double>
QtnVqc::forward(const std::vector<double> &x,
                std::vector<double> &hidden) const
{
    ELV_REQUIRE(static_cast<int>(x.size()) == in_dim_,
                "input dimension mismatch");
    hidden.resize(static_cast<std::size_t>(kHidden));
    for (int j = 0; j < kHidden; ++j) {
        double acc = b1_[static_cast<std::size_t>(j)];
        for (int i = 0; i < in_dim_; ++i)
            acc += w1_[static_cast<std::size_t>(j * in_dim_ + i)] *
                   x[static_cast<std::size_t>(i)];
        hidden[static_cast<std::size_t>(j)] = std::tanh(acc);
    }
    std::vector<double> y(static_cast<std::size_t>(out_dim_));
    for (int o = 0; o < out_dim_; ++o) {
        double acc = b2_[static_cast<std::size_t>(o)];
        for (int j = 0; j < kHidden; ++j)
            acc += w2_[static_cast<std::size_t>(o * kHidden + j)] *
                   hidden[static_cast<std::size_t>(j)];
        y[static_cast<std::size_t>(o)] = acc;
    }
    return y;
}

std::vector<double>
QtnVqc::transform(const std::vector<double> &x) const
{
    std::vector<double> hidden;
    return forward(x, hidden);
}

std::vector<double>
QtnVqc::train_joint(const circ::Circuit &circuit, const qml::Dataset &data,
                    std::uint64_t *executions)
{
    data.check();
    ELV_REQUIRE(data.dim() == in_dim_, "dataset dimension mismatch");
    ELV_REQUIRE(circuit.num_data_features() <= out_dim_,
                "circuit reads more features than the frontend emits");

    std::vector<int> kept;
    const circ::Circuit local = circuit.compacted(kept);
    const auto embed_ops = local.embedding_op_indices();
    for (std::size_t idx : embed_ops)
        ELV_REQUIRE(local.ops()[idx].data_index2 < 0,
                    "QTN-VQC supports single-feature embeddings only");

    elv::Rng rng(config_.seed ^ 0x6a6f696eULL);

    // Flat trainable vector: [circuit params | w1 | b1 | w2 | b2].
    const std::size_t np = static_cast<std::size_t>(local.num_params());
    std::vector<double> theta(np);
    for (auto &p : theta)
        p = rng.uniform(-M_PI, M_PI);
    std::vector<double> flat = theta;
    flat.insert(flat.end(), w1_.begin(), w1_.end());
    flat.insert(flat.end(), b1_.begin(), b1_.end());
    flat.insert(flat.end(), w2_.begin(), w2_.end());
    flat.insert(flat.end(), b2_.begin(), b2_.end());

    auto unpack = [&](const std::vector<double> &v) {
        std::size_t off = np;
        std::copy(v.begin() + static_cast<std::ptrdiff_t>(off),
                  v.begin() + static_cast<std::ptrdiff_t>(off +
                                                          w1_.size()),
                  w1_.begin());
        off += w1_.size();
        std::copy(v.begin() + static_cast<std::ptrdiff_t>(off),
                  v.begin() + static_cast<std::ptrdiff_t>(off +
                                                          b1_.size()),
                  b1_.begin());
        off += b1_.size();
        std::copy(v.begin() + static_cast<std::ptrdiff_t>(off),
                  v.begin() + static_cast<std::ptrdiff_t>(off +
                                                          w2_.size()),
                  w2_.begin());
        off += w2_.size();
        std::copy(v.begin() + static_cast<std::ptrdiff_t>(off),
                  v.begin() + static_cast<std::ptrdiff_t>(off +
                                                          b2_.size()),
                  b2_.begin());
    };
    unpack(flat);

    qml::Adam optimizer(flat.size());
    const auto projectors =
        sim::class_projectors(local.measured(), data.num_classes);
    const sim::FusedProgram program = sim::FusedProgram::compile(local);

    std::vector<std::size_t> order(data.samples.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::uint64_t exec_count = 0;

    for (int epoch = 0; epoch < config_.epochs; ++epoch) {
        rng.shuffle(order);
        std::size_t cursor = 0;
        while (cursor < order.size()) {
            const std::size_t batch_end =
                std::min(order.size(), cursor + kBatchSize);
            std::vector<double> grad(flat.size(), 0.0);
            const double inv_batch =
                1.0 / static_cast<double>(batch_end - cursor);

            for (std::size_t bi = cursor; bi < batch_end; ++bi) {
                const std::size_t idx = order[bi];
                const auto &x = data.samples[idx];
                const int label = data.labels[idx];

                // Classical forward (keep hidden activations for
                // backprop).
                std::vector<double> h;
                const std::vector<double> y = forward(x, h);

                // Quantum forward + gradients (params and embeddings).
                const std::vector<double> params(
                    flat.begin(),
                    flat.begin() + static_cast<std::ptrdiff_t>(np));
                const std::vector<sim::DiagonalObservable> obs = {
                    projectors[static_cast<std::size_t>(label)]};
                const auto g = sim::adjoint_gradient(program, params, y,
                                                     obs, true);
                exec_count += g.circuit_executions;

                const double p_y = std::max(g.values[0], 1e-10);
                const double coeff = -inv_batch / p_y;

                for (std::size_t pi = 0; pi < np; ++pi)
                    grad[pi] += coeff * g.jacobian[0][pi];

                // dL/dy via the embedding Jacobian.
                std::vector<double> dy(static_cast<std::size_t>(out_dim_),
                                       0.0);
                for (std::size_t e = 0; e < embed_ops.size(); ++e) {
                    const int feature =
                        local.ops()[embed_ops[e]].data_index;
                    dy[static_cast<std::size_t>(feature)] +=
                        coeff * g.embedding_jacobian[0][e];
                }

                // Backprop the two-layer frontend.
                std::size_t off = np;
                // w1 grads need dL/dh first.
                std::vector<double> dh(static_cast<std::size_t>(kHidden),
                                       0.0);
                for (int o = 0; o < out_dim_; ++o)
                    for (int j = 0; j < kHidden; ++j)
                        dh[static_cast<std::size_t>(j)] +=
                            dy[static_cast<std::size_t>(o)] *
                            w2_[static_cast<std::size_t>(o * kHidden +
                                                         j)];
                for (int j = 0; j < kHidden; ++j) {
                    const double dpre =
                        dh[static_cast<std::size_t>(j)] *
                        (1.0 - h[static_cast<std::size_t>(j)] *
                                   h[static_cast<std::size_t>(j)]);
                    for (int i = 0; i < in_dim_; ++i)
                        grad[off + static_cast<std::size_t>(
                                       j * in_dim_ + i)] +=
                            dpre * x[static_cast<std::size_t>(i)];
                }
                off += w1_.size();
                for (int j = 0; j < kHidden; ++j)
                    grad[off + static_cast<std::size_t>(j)] +=
                        dh[static_cast<std::size_t>(j)] *
                        (1.0 - h[static_cast<std::size_t>(j)] *
                                   h[static_cast<std::size_t>(j)]);
                off += b1_.size();
                for (int o = 0; o < out_dim_; ++o)
                    for (int j = 0; j < kHidden; ++j)
                        grad[off + static_cast<std::size_t>(
                                       o * kHidden + j)] +=
                            dy[static_cast<std::size_t>(o)] *
                            h[static_cast<std::size_t>(j)];
                off += w2_.size();
                for (int o = 0; o < out_dim_; ++o)
                    grad[off + static_cast<std::size_t>(o)] +=
                        dy[static_cast<std::size_t>(o)];
            }

            optimizer.step(flat, grad);
            unpack(flat);
            cursor = batch_end;
        }
    }

    if (executions)
        *executions = exec_count;
    return {flat.begin(), flat.begin() + static_cast<std::ptrdiff_t>(np)};
}

qml::EvalResult
QtnVqc::evaluate(const circ::Circuit &circuit,
                 const std::vector<double> &params,
                 const qml::Dataset &data,
                 const qml::DistributionFn &dist_fn) const
{
    qml::Dataset transformed;
    transformed.num_classes = data.num_classes;
    transformed.labels = data.labels;
    transformed.samples.reserve(data.samples.size());
    for (const auto &x : data.samples)
        transformed.samples.push_back(transform(x));
    return qml::evaluate(circuit, params, transformed, dist_fn);
}

} // namespace elv::ext
