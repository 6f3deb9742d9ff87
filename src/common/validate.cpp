#include "common/validate.hpp"

#include <cmath>
#include <sstream>

namespace elv {

namespace {

[[noreturn]] void
reject(const char *context, const std::string &why,
       const std::vector<double> &probs)
{
    std::ostringstream oss;
    oss << context << ": invalid distribution (" << why << ", "
        << probs.size() << " entries)";
    throw DistributionError(oss.str());
}

} // namespace

bool
is_valid_distribution(const std::vector<double> &probs, double tolerance)
{
    if (probs.empty())
        return false;
    double total = 0.0;
    for (double p : probs) {
        if (!std::isfinite(p) || p < -tolerance)
            return false;
        total += p;
    }
    return std::abs(total - 1.0) <= tolerance;
}

std::vector<double> &
validate_distribution(std::vector<double> &probs, const char *context,
                      double tolerance)
{
    if (probs.empty())
        reject(context, "empty", probs);

    double total = 0.0;
    double most_negative = 0.0;
    for (double p : probs) {
        if (!std::isfinite(p))
            reject(context, "non-finite entry", probs);
        most_negative = std::min(most_negative, p);
        total += p;
    }
    if (most_negative < -tolerance)
        reject(context, "negative probability mass", probs);
    if (total <= tolerance)
        reject(context, "no probability mass", probs);

    // Repair float drift: clip tiny negatives, rescale to unit mass.
    double clipped_total = 0.0;
    for (double &p : probs) {
        p = std::max(p, 0.0);
        clipped_total += p;
    }
    for (double &p : probs)
        p /= clipped_total;
    return probs;
}

} // namespace elv
