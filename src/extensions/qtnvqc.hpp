/**
 * @file
 * QTN-VQC companion framework (Qi et al.) in the form the paper
 * composes with Elivagar and QuantumNAS (Sec. 9.5 / Fig. 11b): a
 * *trainable classical preprocessing network* in front of the quantum
 * circuit, trained jointly with the circuit parameters.
 *
 * The original uses a tensor-train network; this reproduction uses a
 * low-rank two-layer frontend y = W2 tanh(W1 x + b1) + b2 (a rank-
 * factorized linear map with one nonlinearity — the same role and
 * parameter-efficiency story; see DESIGN.md "Substitutions"). Joint
 * training backpropagates through the circuit's data-embedding angles
 * using the adjoint engine's embedding Jacobian.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "qml/classifier.hpp"
#include "qml/dataset.hpp"

namespace elv::ext {

/** Joint-training hyperparameters. The frontend has 8 hidden units;
 *  training uses batches of 32 at qml::kLearningRate. */
struct QtnVqcConfig
{
    int epochs = 30;
    std::uint64_t seed = 0;
};

/** Trainable classical frontend + circuit parameters. */
class QtnVqc
{
  public:
    /**
     * @param in_dim raw feature dimensionality
     * @param out_dim features fed to the circuit (its num_data_features)
     */
    QtnVqc(int in_dim, int out_dim, const QtnVqcConfig &config);

    /** Classical forward pass. */
    std::vector<double> transform(const std::vector<double> &x) const;

    /**
     * Jointly train frontend weights and circuit parameters on `data`.
     * The circuit must use only single-feature rotation embeddings.
     * Returns the trained circuit parameters (frontend weights are
     * stored inside). `executions` (optional) receives the circuit
     * execution count.
     */
    std::vector<double> train_joint(const circ::Circuit &circuit,
                                    const qml::Dataset &data,
                                    std::uint64_t *executions = nullptr);

    /** Evaluate with the frontend applied, via any backend. */
    qml::EvalResult evaluate(const circ::Circuit &circuit,
                             const std::vector<double> &params,
                             const qml::Dataset &data,
                             const qml::DistributionFn &dist_fn) const;

  private:
    /** Classical forward pass; `hidden` receives the tanh activations
     * that backprop needs. */
    std::vector<double> forward(const std::vector<double> &x,
                                std::vector<double> &hidden) const;

    int in_dim_, out_dim_;
    QtnVqcConfig config_;
    /** w1_[h][i], b1_[h], w2_[o][h], b2_[o]. */
    std::vector<double> w1_, b1_, w2_, b2_;
};

} // namespace elv::ext
