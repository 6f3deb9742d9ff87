/**
 * @file
 * Numerical guardrails for outcome distributions.
 *
 * Every backend in the tree ultimately hands probability vectors to
 * TVD/loss computations that silently propagate NaN, negative mass, or
 * normalization drift. validate_distribution() is the single checkpoint
 * applied at the DistributionFn boundary (qml/classifier) and inside
 * CNR/RepCap.
 */
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

namespace elv {

/** Thrown when a distribution fails validation. */
class DistributionError : public std::runtime_error
{
  public:
    explicit DistributionError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** What validate_distribution does with a repairable violation. */
enum class DistributionPolicy {
    /**
     * Clip tiny negative entries and rescale to unit mass. Non-finite
     * entries, entries below -tolerance, and non-positive total mass
     * are not repairable and still throw.
     */
    Renormalize,
    /** Throw DistributionError on any violation beyond tolerance. */
    Throw,
};

/** True iff `probs` is a probability distribution within `tolerance`. */
bool is_valid_distribution(const std::vector<double> &probs,
                           double tolerance = 1e-6);

/**
 * Validate (and under Renormalize, repair) `probs` in place. `context`
 * names the producing component in the DistributionError message.
 * Returns a reference to `probs` for call-site chaining.
 */
std::vector<double> &validate_distribution(
    std::vector<double> &probs, DistributionPolicy policy,
    const char *context, double tolerance = 1e-6);

} // namespace elv
