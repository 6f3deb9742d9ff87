#include "obs/trace.hpp"

#include <algorithm>

#include "common/file_write.hpp"
#include "common/logging.hpp"
#include "obs/json.hpp"

namespace elv::obs {

Tracer &
Tracer::global()
{
    static Tracer instance;
    return instance;
}

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

void
Tracer::start()
{
    enabled_.store(true, std::memory_order_relaxed);
}

void
Tracer::stop()
{
    enabled_.store(false, std::memory_order_relaxed);
}

double
Tracer::now_us() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

Tracer::ThreadBuffer &
Tracer::local_buffer()
{
    // One buffer per (tracer, thread); the shared_ptr registered with
    // the tracer keeps events reachable after the thread exits (pool
    // workers die with the pool, usually before the trace is written).
    thread_local std::shared_ptr<ThreadBuffer> buffer;
    thread_local Tracer *owner = nullptr;
    if (!buffer || owner != this) {
        buffer = std::make_shared<ThreadBuffer>();
        buffer->tid = elv::thread_ordinal();
        owner = this;
        std::lock_guard<std::mutex> lock(mutex_);
        buffers_.push_back(buffer);
    }
    return *buffer;
}

void
Tracer::record(TraceEvent event)
{
    ThreadBuffer &buffer = local_buffer();
    std::lock_guard<std::mutex> lock(buffer.mutex);
    buffer.events.push_back(std::move(event));
}

std::vector<TraceEvent>
Tracer::drain()
{
    std::vector<TraceEvent> out;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &buffer : buffers_) {
        std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
        for (TraceEvent &event : buffer->events)
            out.push_back(std::move(event));
        buffer->events.clear();
    }
    // Chronological order reads better in Perfetto's JSON view and
    // makes the nesting tests straightforward.
    std::stable_sort(out.begin(), out.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         return a.ts_us < b.ts_us;
                     });
    return out;
}

std::string
chrome_trace_json(const std::vector<TraceEvent> &events)
{
    std::vector<int> tids;
    for (const TraceEvent &event : events)
        tids.push_back(event.tid);
    std::sort(tids.begin(), tids.end());
    tids.erase(std::unique(tids.begin(), tids.end()), tids.end());

    JsonWriter json;
    json.begin_object();
    json.key("traceEvents").begin_array();
    for (const int tid : tids) {
        json.begin_object()
            .kv("name", "thread_name")
            .kv("ph", "M")
            .kv("pid", 1)
            .kv("tid", tid)
            .key("args")
            .begin_object()
            .kv("name", tid == 0 ? std::string("main")
                                 : "thread-" + std::to_string(tid))
            .end_object()
            .end_object();
    }
    for (const TraceEvent &event : events) {
        json.begin_object()
            .kv("name", event.name)
            .kv("cat", std::string(event.category))
            .kv("ph", "X")
            .kv("ts", event.ts_us)
            .kv("dur", event.dur_us)
            .kv("pid", 1)
            .kv("tid", event.tid);
        if (event.has_arg)
            json.key("args")
                .begin_object()
                .kv("i", event.arg)
                .end_object();
        json.end_object();
    }
    json.end_array();
    json.kv("displayTimeUnit", "ms");
    json.end_object();
    return json.str();
}

bool
write_chrome_trace(const std::string &path,
                   const std::vector<TraceEvent> &events)
{
    if (elv::write_file(path, chrome_trace_json(events) + "\n"))
        return true;
    elv::warn("cannot write trace file " + path);
    return false;
}

bool
Tracer::write(const std::string &path)
{
    stop();
    return write_chrome_trace(path, drain());
}

void
SpanLog::add(TraceEvent event)
{
    std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back(std::move(event));
}

void
SpanLog::add_span(std::string name, const char *category, double ts_us,
                  double dur_us, std::int64_t arg, bool has_arg)
{
    TraceEvent event;
    event.name = std::move(name);
    event.category = category;
    event.ts_us = ts_us;
    event.dur_us = dur_us;
    event.tid = elv::thread_ordinal();
    event.arg = arg;
    event.has_arg = has_arg;
    add(std::move(event));
}

std::vector<TraceEvent>
SpanLog::events() const
{
    std::vector<TraceEvent> out;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        out = events_;
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         return a.ts_us < b.ts_us;
                     });
    return out;
}

bool
SpanLog::write(const std::string &path) const
{
    return write_chrome_trace(path, events());
}

TraceScope::TraceScope(const char *name, const char *category)
    : static_name_(name), category_(category),
      active_(Tracer::global().enabled())
{
    if (active_)
        start_us_ = Tracer::global().now_us();
}

TraceScope::TraceScope(const char *name, const char *category,
                       std::int64_t arg)
    : static_name_(name), category_(category), arg_(arg), has_arg_(true),
      active_(Tracer::global().enabled())
{
    if (active_)
        start_us_ = Tracer::global().now_us();
}

TraceScope::TraceScope(std::string name, const char *category)
    : static_name_(nullptr), dynamic_name_(std::move(name)),
      category_(category), active_(Tracer::global().enabled())
{
    if (active_)
        start_us_ = Tracer::global().now_us();
}

TraceScope::~TraceScope()
{
    if (!active_)
        return;
    TraceEvent event;
    event.name = static_name_ ? std::string(static_name_)
                              : std::move(dynamic_name_);
    event.category = category_;
    event.ts_us = start_us_;
    event.dur_us = Tracer::global().now_us() - start_us_;
    event.tid = elv::thread_ordinal();
    event.arg = arg_;
    event.has_arg = has_arg_;
    Tracer::global().record(std::move(event));
}

} // namespace elv::obs
