/**
 * @file
 * Thread-safe metrics registry: named counters, gauges and fixed-bucket
 * histograms backed by atomics.
 *
 * Counters are sharded per thread (the shard index is the caller's
 * thread ordinal), so a hot-path increment is one relaxed atomic add on
 * a cache line no other thread touches; reading a counter sums the
 * shards. Gauges and histograms are single atomics / atomic bucket
 * arrays — they sit on colder paths (queue depths, backoff delays).
 *
 * Collection is *disabled* by default: every `ELV_METRIC_*` macro loads
 * one relaxed atomic flag and branches away, so instrumented hot paths
 * (gate-kernel dispatch, shot sampling) show no measurable cost until a
 * run opts in with `--metrics`.
 *
 * Naming convention: dotted lowercase paths, `layer.noun[.verb]` —
 * `sim.kernel.cx`, `pool.steals`, `noise.superop_table.hits`.
 */
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/logging.hpp"

namespace elv::obs {

/** Monotonic counter, sharded across threads. */
class Counter
{
  public:
    /** Relaxed atomic add on the calling thread's shard. */
    void
    add(std::uint64_t n = 1)
    {
        shards_[static_cast<std::size_t>(elv::thread_ordinal()) %
                kShards]
            .value.fetch_add(n, std::memory_order_relaxed);
    }

    /** Sum over all shards (racy against concurrent adds, as usual). */
    std::uint64_t
    value() const
    {
        std::uint64_t total = 0;
        for (const Shard &shard : shards_)
            total += shard.value.load(std::memory_order_relaxed);
        return total;
    }

    void
    reset()
    {
        for (Shard &shard : shards_)
            shard.value.store(0, std::memory_order_relaxed);
    }

  private:
    static constexpr std::size_t kShards = 16;

    /** Cache-line padded so shards never false-share. */
    struct alignas(64) Shard
    {
        std::atomic<std::uint64_t> value{0};
    };

    std::array<Shard, kShards> shards_;
};

/** Instantaneous signed value with a high-water mark. */
class Gauge
{
  public:
    void
    set(std::int64_t v)
    {
        value_.store(v, std::memory_order_relaxed);
        update_max(v);
    }

    /** Relaxed add (negative deltas allowed); tracks the maximum. */
    void
    add(std::int64_t delta)
    {
        const std::int64_t now =
            value_.fetch_add(delta, std::memory_order_relaxed) + delta;
        update_max(now);
    }

    std::int64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    /** Largest value ever set/reached (since construction or reset). */
    std::int64_t max_value() const
    {
        return max_.load(std::memory_order_relaxed);
    }

    void
    reset()
    {
        value_.store(0, std::memory_order_relaxed);
        max_.store(0, std::memory_order_relaxed);
    }

  private:
    void
    update_max(std::int64_t v)
    {
        std::int64_t seen = max_.load(std::memory_order_relaxed);
        while (v > seen &&
               !max_.compare_exchange_weak(seen, v,
                                           std::memory_order_relaxed)) {
        }
    }

    std::atomic<std::int64_t> value_{0};
    std::atomic<std::int64_t> max_{0};
};

/**
 * Fixed-bucket histogram. Bucket i counts observations v with
 * edges[i-1] < v <= edges[i] (Prometheus-style upper bounds); the last
 * bucket is the +inf overflow. Edges are fixed at registration.
 */
class Histogram
{
  public:
    explicit Histogram(std::vector<double> edges);

    /** Atomic increment of the owning bucket (binary search on edges). */
    void observe(double v);

    const std::vector<double> &edges() const { return edges_; }

    /** Bucket counts, size edges().size() + 1 (last = overflow). */
    std::vector<std::uint64_t> counts() const;

    /** Total observations. */
    std::uint64_t total() const;

    /** Sum of all observed values (CAS-accumulated double). */
    double sum() const;

    /**
     * Estimated q-quantile (q in [0, 1]) by cumulative-bucket linear
     * interpolation, Prometheus `histogram_quantile` style: the target
     * rank is located in the cumulative counts, then interpolated
     * linearly inside the owning bucket (first bucket interpolates from
     * max(0, nothing) — i.e. from 0 when edges[0] > 0, else from
     * edges[0]); ranks landing in the +inf overflow clamp to the last
     * finite edge. Returns NaN when the histogram is empty.
     */
    double quantile(double q) const;

    void reset();

  private:
    std::vector<double> edges_;
    std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
    std::atomic<double> sum_{0.0};
};

/**
 * Quantile estimation over a bucketed distribution — the math behind
 * `Histogram::quantile`, usable on snapshot data. `counts` has
 * `edges.size() + 1` entries (last = +inf overflow). Returns NaN for an
 * empty distribution or a malformed counts size.
 */
double histogram_quantile(const std::vector<double> &edges,
                          const std::vector<std::uint64_t> &counts,
                          double q);

/** Point-in-time copy of every registered metric, sorted by name. */
struct MetricsSnapshot
{
    struct CounterValue
    {
        std::string name;
        std::uint64_t value;
    };
    struct GaugeValue
    {
        std::string name;
        std::int64_t value;
        std::int64_t max;
    };
    struct HistogramValue
    {
        std::string name;
        std::vector<double> edges;
        std::vector<std::uint64_t> counts;
        double sum = 0.0;

        /** Quantile estimate over the snapshotted buckets. */
        double
        quantile(double q) const
        {
            return histogram_quantile(edges, counts, q);
        }
    };

    std::vector<CounterValue> counters;
    std::vector<GaugeValue> gauges;
    std::vector<HistogramValue> histograms;

    /** Value of a counter by name (0 when absent). */
    std::uint64_t counter(const std::string &name) const;
};

/**
 * Exponentially-weighted moving-average rates for counters, fed by
 * successive snapshots. Each `update(snapshot, now_sec)` computes the
 * instantaneous per-second rate of every counter since the previous
 * update and folds it into a per-counter EWMA with time-aware weight
 * `alpha = 1 - exp(-dt / tau)` — irregular scrape intervals therefore
 * converge to the same steady-state as regular ones. Timestamps are
 * caller-supplied (any monotonic seconds source), which keeps the math
 * deterministic under test.
 *
 * Not thread-safe: owned and driven by one consumer (the exposition
 * endpoint), not by instrumented hot paths.
 */
class RateTracker
{
  public:
    /** `tau_sec` is the EWMA time constant (smoothing horizon). */
    explicit RateTracker(double tau_sec = 30.0);

    /** Fold one snapshot in. The first call only seeds the baseline. */
    void update(const MetricsSnapshot &snapshot, double now_sec);

    /** Smoothed per-second rate for a counter (0 when unknown). */
    double rate(const std::string &name) const;

    /** Every tracked (name, rate) pair, sorted by name. */
    std::vector<std::pair<std::string, double>> rates() const;

  private:
    struct State
    {
        std::uint64_t last_value = 0;
        double ewma = 0.0;
        bool seeded = false;
    };

    double tau_sec_;
    double last_time_sec_ = 0.0;
    bool has_time_ = false;
    std::map<std::string, State> states_;
};

/**
 * Process-wide named-metric registry. Registration (the first call for
 * a given name) takes a mutex; the returned references are stable for
 * the registry's lifetime, so hot paths register once (function-local
 * static) and then touch only the metric's atomics.
 */
class Registry
{
  public:
    static Registry &global();

    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** Whether `ELV_METRIC_*` macro sites record (default off). */
    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    void
    set_enabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }

    /** The counter registered under `name` (registering it if new). */
    Counter &counter(const std::string &name);

    /** The gauge registered under `name` (registering it if new). */
    Gauge &gauge(const std::string &name);

    /**
     * The histogram registered under `name`. `edges` must be strictly
     * ascending; it is fixed by the first registration and ignored on
     * lookups of an existing histogram.
     */
    Histogram &histogram(const std::string &name,
                         std::vector<double> edges);

    /** Copy out every metric, sorted by name. */
    MetricsSnapshot snapshot() const;

    /** Zero every metric (registrations survive). */
    void reset();

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
    std::atomic<bool> enabled_{false};
};

} // namespace elv::obs

/**
 * Hot-path instrumentation macros. Each site registers its metric once
 * (function-local static) and afterwards costs one relaxed load of the
 * enabled flag plus, when collection is on, one relaxed atomic update.
 */
#define ELV_METRIC_COUNT_N(name, n)                                        \
    do {                                                                   \
        static ::elv::obs::Counter &elv_metric_counter_ =                  \
            ::elv::obs::Registry::global().counter(name);                  \
        if (::elv::obs::Registry::global().enabled())                      \
            elv_metric_counter_.add(n);                                    \
    } while (0)

#define ELV_METRIC_COUNT(name) ELV_METRIC_COUNT_N(name, 1)

#define ELV_METRIC_GAUGE_ADD(name, delta)                                  \
    do {                                                                   \
        static ::elv::obs::Gauge &elv_metric_gauge_ =                      \
            ::elv::obs::Registry::global().gauge(name);                    \
        if (::elv::obs::Registry::global().enabled())                      \
            elv_metric_gauge_.add(delta);                                  \
    } while (0)

#define ELV_METRIC_OBSERVE(name, edges, v)                                 \
    do {                                                                   \
        static ::elv::obs::Histogram &elv_metric_hist_ =                   \
            ::elv::obs::Registry::global().histogram(name, edges);         \
        if (::elv::obs::Registry::global().enabled())                      \
            elv_metric_hist_.observe(v);                                   \
    } while (0)
