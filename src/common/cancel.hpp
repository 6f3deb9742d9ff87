/**
 * @file
 * Cooperative cancellation for long-running pipelines.
 *
 * A CancelToken is a small shared object that a controller (the server,
 * a CLI --deadline-sec flag, a test) arms and that workers poll at
 * checkpoints: phase boundaries, per-candidate task entry, retry loops.
 * Cancellation is *cooperative* — nothing is torn down preemptively;
 * the polling code observes the token and unwinds by throwing
 * CancelledError, so destructors run, journals stay valid, and the job
 * remains resumable from its checkpoint.
 *
 * Two trip conditions share one token: an explicit cancel() (client
 * request, server shutdown) and an optional wall-clock deadline.
 * `reason()` distinguishes them so callers can report "cancelled" vs
 * "deadline exceeded" — a deadline expiry is not a failure.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>

namespace elv {

/** Thrown by CancelToken::check() when a pipeline must unwind. */
class CancelledError : public std::runtime_error
{
  public:
    explicit CancelledError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** Shared cancel flag + optional wall-clock deadline. Thread-safe. */
class CancelToken
{
  public:
    CancelToken() = default;

    /** Trip the token explicitly (idempotent). */
    void
    cancel()
    {
        cancelled_.store(true, std::memory_order_relaxed);
    }

    /**
     * Arm a wall-clock deadline `seconds` from now; <= 0 or NaN
     * disarms, and budgets past kNeverSec saturate there. Call before
     * handing the token to workers — rearming while a pipeline polls
     * is not synchronized.
     */
    void
    set_deadline_after(double seconds)
    {
        if (!(seconds > 0.0)) {
            has_deadline_.store(false, std::memory_order_release);
            return;
        }
        deadline_ = std::chrono::steady_clock::now() +
                    std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(
                            seconds < kNeverSec ? seconds : kNeverSec));
        has_deadline_.store(true, std::memory_order_release);
    }

    /** True once cancelled explicitly or past the deadline. */
    bool
    cancelled() const
    {
        if (cancelled_.load(std::memory_order_relaxed))
            return true;
        return deadline_expired();
    }

    /** True when the deadline (if armed) has passed. */
    bool
    deadline_expired() const
    {
        return has_deadline_.load(std::memory_order_acquire) &&
               std::chrono::steady_clock::now() >= deadline_;
    }

    /**
     * Why the token tripped: "cancelled" for an explicit cancel,
     * "deadline" when only the wall clock expired. Meaningful after
     * cancelled() returned true; explicit cancel wins ties.
     */
    const char *
    reason() const
    {
        if (cancelled_.load(std::memory_order_relaxed))
            return "cancelled";
        return deadline_expired() ? "deadline" : "none";
    }

    /**
     * Cancellation checkpoint: throws CancelledError("<where>:
     * <reason>") once the token has tripped, otherwise returns. Cheap
     * enough for per-candidate polling (one relaxed load on the
     * untripped path with no deadline armed).
     */
    void
    check(const char *where) const
    {
        if (!cancelled())
            return;
        throw CancelledError(std::string(where) + ": " + reason());
    }

  private:
    /** About a century: never expires, yet far inside the ~292 years
     * of nanosecond clock ticks that a longer budget overflows. */
    static constexpr double kNeverSec = 3.0e9;

    std::atomic<bool> cancelled_{false};
    std::atomic<bool> has_deadline_{false};
    std::chrono::steady_clock::time_point deadline_{};
};

} // namespace elv
