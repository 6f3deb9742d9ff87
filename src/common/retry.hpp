/**
 * @file
 * Backoff for reconnect loops: the CLI's `watch` re-attaches to the
 * server with these delays after a dropped connection.
 */
#pragma once

#include "common/rng.hpp"

namespace elv {

/** Exponential backoff with bounded full jitter. */
struct RetryPolicy
{
    /** Consecutive failed attempts before giving up (>= 1). */
    int max_attempts = 4;
    /** Delay before the first retry (milliseconds). */
    double initial_backoff_ms = 100.0;
    /** Growth factor of successive delays (>= 1). */
    double backoff_multiplier = 2.0;
    /** Cap on a single backoff delay. */
    double max_backoff_ms = 10000.0;
    /**
     * Jitter as a fraction of the nominal delay, in [0, 1]: the delay
     * is drawn uniformly from [nominal * (1 - jitter), nominal].
     * Concurrent clients whose retries would otherwise synchronize
     * spread across the window, while the floor keeps exponential
     * progress; jitter = 1 is classic full jitter over [0, nominal].
     */
    double jitter = 0.25;

    /**
     * Delay before retry number `retry_index` (0-based), with jitter
     * drawn deterministically from `rng`.
     */
    double backoff_delay_ms(int retry_index, Rng &rng) const;
};

} // namespace elv
