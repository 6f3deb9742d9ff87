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

/** True iff `probs` is a probability distribution within `tolerance`. */
bool is_valid_distribution(const std::vector<double> &probs,
                           double tolerance = 1e-6);

/**
 * Validate and repair `probs` in place: clip tiny negative entries and
 * rescale to unit mass. Throws DistributionError on what is not
 * repairable: an empty vector, a non-finite entry, an entry below
 * -tolerance, or non-positive total mass. `context` names the
 * producing component in the message. Returns a reference to `probs`
 * for call-site chaining.
 */
std::vector<double> &validate_distribution(std::vector<double> &probs,
                                           const char *context,
                                           double tolerance = 1e-6);

} // namespace elv
