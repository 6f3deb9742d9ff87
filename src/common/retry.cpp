#include "common/retry.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"

namespace elv {

double
RetryPolicy::backoff_delay_ms(int retry_index, Rng &rng) const
{
    ELV_REQUIRE(retry_index >= 0, "negative retry index");
    double nominal = initial_backoff_ms *
                     std::pow(backoff_multiplier,
                              static_cast<double>(retry_index));
    nominal = std::min(nominal, max_backoff_ms);
    // Bounded full jitter: uniform in nominal * [1 - jitter, 1]. The
    // draw never exceeds the nominal delay, so a fleet of synchronized
    // clients spreads out instead of stampeding, and the (1 - jitter)
    // floor preserves backoff progress.
    const double factor = (1.0 - jitter) + jitter * rng.uniform();
    return std::max(0.0, nominal * factor);
}

} // namespace elv
