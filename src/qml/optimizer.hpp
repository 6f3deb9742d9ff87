/**
 * @file
 * Adam optimizer (the paper trains every circuit with Adam, lr = 0.01,
 * no weight decay or scheduling — Sec. 7.3).
 */
#pragma once

#include <cstdint>
#include <vector>

namespace elv::qml {

/** Step size of every training loop in the repo (the paper's lr). */
inline constexpr double kLearningRate = 0.01;

/** Adam with bias correction. */
class Adam
{
  public:
    explicit Adam(std::size_t num_params, double lr = kLearningRate,
                  double beta1 = 0.9, double beta2 = 0.999,
                  double epsilon = 1e-8);

    /** Apply one update in place: params -= lr * m_hat / (sqrt(v)+eps). */
    void step(std::vector<double> &params,
              const std::vector<double> &grads);

    /**
     * Sparse update for weight-shared (SuperCircuit) training: only
     * parameters with mask[i] != 0 are touched — their moments update
     * and they step, with per-parameter bias correction; inactive
     * parameters keep their moments frozen (plain Adam would keep
     * moving them on stale momentum).
     */
    void step_masked(std::vector<double> &params,
                     const std::vector<double> &grads,
                     const std::vector<std::uint8_t> &mask);

    double learning_rate() const { return lr_; }

  private:
    double lr_, beta1_, beta2_, epsilon_;
    long step_count_ = 0;
    std::vector<double> m_, v_;
    /** Per-parameter step counts for step_masked bias correction. */
    std::vector<long> slot_steps_;
};

} // namespace elv::qml
