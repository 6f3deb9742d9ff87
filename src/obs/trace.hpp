/**
 * @file
 * Scoped-span tracer emitting Chrome `trace_event` JSON.
 *
 * `ELV_TRACE_SCOPE("name", "category")` drops an RAII span into the
 * enclosing block; when tracing is on, the scope's wall-clock interval
 * is recorded as a complete ("ph":"X") event tagged with the calling
 * thread's ordinal. The resulting file loads directly in Perfetto
 * (https://ui.perfetto.dev) or chrome://tracing, where same-thread
 * spans nest by containment — candidate-level spans appear under their
 * phase span.
 *
 * Cost model: with tracing off (the default) a scope is one relaxed
 * atomic load and a branch. When tracing is on, events append to
 * per-thread buffers (one uncontended mutex each, taken only at append
 * and at drain), so pool workers never serialize against each other
 * mid-run.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace elv::obs {

/** One complete span (Chrome trace "X" event). */
struct TraceEvent
{
    std::string name;
    /** Static category string ("search", "pool", "sim", ...). */
    const char *category = "";
    /** Microseconds since the tracer's epoch. */
    double ts_us = 0.0;
    double dur_us = 0.0;
    /** elv::thread_ordinal() of the emitting thread. */
    int tid = 0;
    /** Optional integer argument (candidate index, task index, ...). */
    std::int64_t arg = 0;
    bool has_arg = false;
};

/**
 * Process-wide trace collector. start() flips the recording flag;
 * spans created while it is set record themselves on destruction.
 * stop() flips it back; write() renders everything collected since the
 * last drain as a Chrome trace JSON file.
 */
class Tracer
{
  public:
    static Tracer &global();

    Tracer();
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    void start();
    void stop();

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Microseconds since this tracer's construction (steady clock). */
    double now_us() const;

    /** Append one event to the calling thread's buffer. */
    void record(TraceEvent event);

    /**
     * Move every buffered event out (all threads' buffers, in thread
     * order). Call after the traced work has completed — concurrent
     * recorders keep appending safely, but their in-flight spans may
     * land in a later drain.
     */
    std::vector<TraceEvent> drain();

    /**
     * stop(), drain() and write the Chrome trace JSON ("traceEvents"
     * array plus thread-name metadata) to `path`. Returns false (with
     * a warning) when the file cannot be written.
     */
    bool write(const std::string &path);

  private:
    struct ThreadBuffer
    {
        std::mutex mutex;
        std::vector<TraceEvent> events;
        int tid = 0;
    };

    /** The calling thread's buffer, registering it on first use. */
    ThreadBuffer &local_buffer();

    std::atomic<bool> enabled_{false};
    std::chrono::steady_clock::time_point epoch_;
    std::mutex mutex_;
    /** shared_ptr keeps buffers alive past their thread's exit. */
    std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
};

/**
 * Render events as Chrome trace JSON: a "traceEvents" array of "X"
 * spans plus "M" thread-name metadata for every tid present. Shared by
 * `Tracer::write` and per-job `SpanLog` artifacts so both open in
 * Perfetto identically.
 */
std::string chrome_trace_json(const std::vector<TraceEvent> &events);

/**
 * Write `events` to `path` as Chrome trace JSON. Returns false (with a
 * warning) when the file cannot be written.
 */
bool write_chrome_trace(const std::string &path,
                        const std::vector<TraceEvent> &events);

/**
 * Small thread-safe span collection with its own timeline — the
 * per-job counterpart of the process-wide `Tracer`. The owner supplies
 * timestamps (microseconds since whatever epoch it picks, typically
 * job submission), appends spans from any thread, and writes a
 * Perfetto-loadable artifact when the job completes. Unlike the global
 * tracer it is always on: whether a job is traced is the owner's
 * decision, not a process flag.
 */
class SpanLog
{
  public:
    /** Append one span (thread-safe). */
    void add(TraceEvent event);

    /** Convenience: append a complete span. */
    void add_span(std::string name, const char *category, double ts_us,
                  double dur_us, std::int64_t arg = 0,
                  bool has_arg = false);

    /** Copy of all spans, stably sorted by start time. */
    std::vector<TraceEvent> events() const;

    /** Render via `write_chrome_trace`. */
    bool write(const std::string &path) const;

  private:
    mutable std::mutex mutex_;
    std::vector<TraceEvent> events_;
};

/**
 * RAII span: captures the start time if tracing is on at construction,
 * records a complete event at destruction. Prefer the macro forms.
 */
class TraceScope
{
  public:
    explicit TraceScope(const char *name, const char *category = "elv");

    /** Span with an integer argument (shown in the event's args). */
    TraceScope(const char *name, const char *category, std::int64_t arg);

    /** Span with a dynamic name (built only when tracing is on). */
    TraceScope(std::string name, const char *category = "elv");

    ~TraceScope();

    TraceScope(const TraceScope &) = delete;
    TraceScope &operator=(const TraceScope &) = delete;

  private:
    const char *static_name_;
    std::string dynamic_name_;
    const char *category_;
    double start_us_ = 0.0;
    std::int64_t arg_ = 0;
    bool has_arg_ = false;
    bool active_;
};

} // namespace elv::obs

#define ELV_OBS_CONCAT_IMPL(a, b) a##b
#define ELV_OBS_CONCAT(a, b) ELV_OBS_CONCAT_IMPL(a, b)

/** Trace the enclosing scope: ELV_TRACE_SCOPE(name [, category [, arg]]). */
#define ELV_TRACE_SCOPE(...)                                               \
    ::elv::obs::TraceScope ELV_OBS_CONCAT(elv_trace_scope_,               \
                                          __LINE__){__VA_ARGS__}
