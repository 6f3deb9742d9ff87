#include "qml/optimizer.hpp"

#include <cmath>

#include "common/logging.hpp"

namespace elv::qml {

Adam::Adam(std::size_t num_params, double lr, double beta1, double beta2,
           double epsilon)
    : lr_(lr), beta1_(beta1), beta2_(beta2), epsilon_(epsilon),
      m_(num_params, 0.0), v_(num_params, 0.0),
      slot_steps_(num_params, 0)
{
    ELV_REQUIRE(lr > 0.0, "learning rate must be positive");
}

void
Adam::step(std::vector<double> &params, const std::vector<double> &grads)
{
    ELV_REQUIRE(params.size() == m_.size() && grads.size() == m_.size(),
                "optimizer size mismatch");
    ++step_count_;
    const double bc1 = 1.0 - std::pow(beta1_, step_count_);
    const double bc2 = 1.0 - std::pow(beta2_, step_count_);
    for (std::size_t i = 0; i < params.size(); ++i) {
        m_[i] = beta1_ * m_[i] + (1.0 - beta1_) * grads[i];
        v_[i] = beta2_ * v_[i] + (1.0 - beta2_) * grads[i] * grads[i];
        const double m_hat = m_[i] / bc1;
        const double v_hat = v_[i] / bc2;
        params[i] -= lr_ * m_hat / (std::sqrt(v_hat) + epsilon_);
    }
}

void
Adam::step_masked(std::vector<double> &params,
                  const std::vector<double> &grads,
                  const std::vector<std::uint8_t> &mask)
{
    ELV_REQUIRE(params.size() == m_.size() && grads.size() == m_.size() &&
                    mask.size() == m_.size(),
                "optimizer size mismatch");
    for (std::size_t i = 0; i < params.size(); ++i) {
        if (!mask[i])
            continue;
        const long t = ++slot_steps_[i];
        m_[i] = beta1_ * m_[i] + (1.0 - beta1_) * grads[i];
        v_[i] = beta2_ * v_[i] + (1.0 - beta2_) * grads[i] * grads[i];
        const double m_hat = m_[i] / (1.0 - std::pow(beta1_, t));
        const double v_hat = v_[i] / (1.0 - std::pow(beta2_, t));
        params[i] -= lr_ * m_hat / (std::sqrt(v_hat) + epsilon_);
    }
}

} // namespace elv::qml
