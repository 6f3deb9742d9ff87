#include "bench.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include <sys/resource.h>

#include "common/runinfo.hpp"
#include "core/checkpoint.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "sim/cpu_features.hpp"

namespace perfbench {

const std::vector<std::string> kEndToEndMetrics = {
    "run_s", "search_s", "cpu_s", "peak_rss_mb", "setup_s",
};

const std::vector<std::string> kPerLayerMetrics = {
    "core.cnr.s",
    "core.cnr.executions",
    "core.cnr.ms_per_candidate_p50",
    "core.cnr.ms_per_candidate_max",
    "core.cnr.survivor_ratio",
    "core.repcap.s",
    "core.repcap.executions",
    "core.repcap.us_per_exec",
    "noise.compile.s",
    "noise.replay.s",
    "noise.compile_share",
    "noise.replicas",
    "noise.entries_per_replica",
    "noise.ops_merged",
    "noise.eval_replay_us_per_sample",
    "qml.eval_noisy.s",
    "qml.eval_ideal.s",
    "qml.train.s",
    "qml.train.executions",
    "qml.train.us_per_sample_epoch",
    "qml.make_benchmark.s",
    "device.make_device.s",
    "parallel.search_cpu_eff",
    "parallel.search_speedup",
    "sim.superop_applies",
    "sim.sv.fused_runs",
    "fusion.ops_merged",
    "pool.tasks",
    "pool.steals",
    "train.batch_tasks",
    "server.submit_rtt_s",
    "server.status_rtt_s",
    "server.queue_wait_s",
    "server.search_s",
    "server.overhead_s",
    "dist.coordinator_cpu_s",
    "dist.worker_cpu_s",
    "dist.records",
    "dist.shards",
    "dist.reissues",
    "dist.fallback_records",
    "self.qml.s",
    "self.device.s",
    "self.core.s",
    "self.noise.s",
    "self.sim.s",
    "self.server.s",
    "self.dist.s",
    "trace.overhead_s",
};

double
now_s()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch())
        .count();
}

namespace {

double
rusage_cpu_s(int who)
{
    rusage usage{};
    getrusage(who, &usage);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
}

std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::string
cpu_model()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    return "unknown";
}

std::string
format_value(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.6g", value);
    return buf;
}

} // namespace

double
self_cpu_s()
{
    return rusage_cpu_s(RUSAGE_SELF);
}

double
children_cpu_s()
{
    return rusage_cpu_s(RUSAGE_CHILDREN);
}

double
peak_rss_mb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return std::nan("");
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] +
           (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

std::string
ranking_digest(const elv::core::SearchResult &result)
{
    using elv::core::double_to_hex;
    std::ostringstream out;
    out << "elv-ranking 1\n";
    for (std::size_t n = 0; n < result.candidates.size(); ++n) {
        const auto &record = result.candidates[n];
        out << "cand " << n << " " << double_to_hex(record.score) << " "
            << double_to_hex(record.cnr) << " "
            << double_to_hex(record.repcap) << " "
            << (record.rejected_by_cnr ? 1 : 0) << "\n";
    }
    out << "best " << double_to_hex(result.best_score) << "\n";
    out << "survivors " << result.survivors << "\n";
    out << "executions " << result.total_executions() << "\n";
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(fnv1a(out.str())));
    return buf;
}

void
Report::add(const std::string &name, double value, const std::string &unit)
{
    if (!std::isfinite(value)) {
        check_failed("metric " + name + " is not finite");
        value = 0.0;
    }
    metrics_.push_back({name, value, unit});
    lines_.push_back("metric " + name + " " + format_value(value) + " " +
                     unit);
}

void
Report::not_applicable(const std::string &name, const std::string &unit,
                       const std::string &why)
{
    lines_.push_back("metric " + name + " n/a " + unit + " (" + why + ")");
}

void
Report::info(const std::string &line)
{
    lines_.push_back(line);
}

void
Report::op_failed(const std::string &why)
{
    ++attempted_;
    ++failed_;
    lines_.push_back("FAILED: " + why);
}

void
Report::check_failed(const std::string &why)
{
    ++failed_;
    lines_.push_back("FAILED: " + why);
}

void
Report::print(const std::vector<std::string> &gated)
{
    for (const std::string &line : lines_)
        std::printf("%s\n", line.c_str());
    elv::obs::JsonWriter json;
    json.begin_object();
    json.key("metrics").begin_object();
    for (const std::string &name : gated) {
        const auto it =
            std::find_if(metrics_.begin(), metrics_.end(),
                         [&](const Metric &m) { return m.name == name; });
        if (it == metrics_.end()) {
            std::printf("FAILED: metric %s was not measured\n",
                        name.c_str());
            ++failed_;
            continue;
        }
        json.key(name).begin_object();
        json.kv("value", it->value);
        json.kv("unit", it->unit);
        json.end_object();
    }
    json.end_object();
    std::printf("metric ops %llu count\nmetric ops_failed %llu count\n",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    json.kv("correct", failed_ == 0);
    json.kv("attempted", std::max<std::uint64_t>(attempted_, 1));
    json.kv("failed", failed_);
    json.end_object();
    std::printf("%s\n", json.str().c_str());
    std::fflush(stdout);
}

namespace {

/** Open spans of the recording thread (innermost last). */
thread_local std::vector<int> t_open;

int
thread_number()
{
    static std::atomic<int> next{0};
    thread_local const int id = next.fetch_add(1);
    return id;
}

std::string
layer_of(const std::string &name)
{
    const auto dot = name.find('.');
    return dot == std::string::npos ? "bench" : name.substr(0, dot);
}

} // namespace

SpanLog::Scope::Scope(SpanLog &log, const std::string &name,
                      std::uint64_t op)
    : log_(log), start_(now_s())
{
    if (log_.enabled_)
        index_ = log_.begin(name, op, start_);
}

SpanLog::Scope::~Scope()
{
    if (index_ >= 0)
        log_.end(index_, now_s());
}

int
SpanLog::begin(const std::string &name, std::uint64_t op, double start)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Span span;
    span.name = name;
    span.start_s = start;
    span.end_s = start;
    span.parent = t_open.empty() ? -1 : t_open.back();
    span.op = op != 0 || span.parent < 0
                  ? op
                  : spans_[static_cast<std::size_t>(span.parent)].op;
    span.thread = thread_number();
    spans_.push_back(span);
    const int index = static_cast<int>(spans_.size() - 1);
    t_open.push_back(index);
    return index;
}

void
SpanLog::end(int index, double end)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(index)].end_s = end;
    if (!t_open.empty() && t_open.back() == index)
        t_open.pop_back();
}

std::vector<double>
SpanLog::durations(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    for (const Span &span : spans_)
        if (span.name == name)
            out.push_back(span.seconds());
    return out;
}

double
SpanLog::total(const std::string &name) const
{
    double sum = 0.0;
    for (double d : durations(name))
        sum += d;
    return sum;
}

std::vector<std::pair<std::string, double>>
SpanLog::self_by_layer() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span &span : spans_)
        if (span.parent >= 0)
            child[static_cast<std::size_t>(span.parent)] += span.seconds();
    std::map<std::string, double> by_layer;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        by_layer[layer_of(spans_[i].name)] +=
            spans_[i].seconds() - child[i];
    return {by_layer.begin(), by_layer.end()};
}

bool
SpanLog::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const double origin = spans_.empty() ? 0.0 : spans_.front().start_s;
    elv::obs::JsonWriter json;
    json.begin_object();
    json.key("traceEvents").begin_array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        json.begin_object();
        json.kv("name", span.name);
        json.kv("cat", layer_of(span.name));
        json.kv("ph", "X");
        json.kv("ts", (span.start_s - origin) * 1e6);
        json.kv("dur", span.seconds() * 1e6);
        json.kv("pid", 1);
        json.kv("tid", span.thread);
        json.key("args").begin_object();
        json.kv("id", static_cast<std::uint64_t>(i));
        json.kv("parent", span.parent);
        json.kv("op", span.op);
        json.end_object();
        json.end_object();
    }
    json.end_array();
    json.end_object();
    std::ofstream out(path, std::ios::trunc);
    out << json.str() << "\n";
    return static_cast<bool>(out);
}

Setup
make_setup(const elv::srv::JobSpec &job, SpanLog &spans)
{
    SpanLog::Scope setup_span(spans, "setup");
    Setup setup{[&] {
                    SpanLog::Scope span(spans, "qml.make_benchmark");
                    return elv::qml::make_benchmark(job.benchmark, job.seed,
                                                    job.scale);
                }(),
                [&] {
                    SpanLog::Scope span(spans, "device.make_device");
                    return elv::dev::make_device(job.device);
                }(),
                0.0};
    setup.seconds = setup_span.elapsed();
    return setup;
}

elv::core::ElivagarConfig
search_config(const elv::srv::JobSpec &job, const Setup &setup, int threads)
{
    return elv::srv::job_search_config(job, setup.bench.spec, threads, "");
}

void
add_provenance(Report &report, const Options &options, int threads,
               int clients)
{
    bool comparable = true;
    std::string build = PERFBENCH_BUILD_TYPE;
#ifndef NDEBUG
    build += "+asserts";
    comparable = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    build += "+sanitizer";
    comparable = false;
#endif
    if (build.rfind("Debug", 0) == 0)
        comparable = false;
    report.info("provenance nproc=" +
                std::to_string(std::thread::hardware_concurrency()) +
                " cpu=\"" + cpu_model() + "\"");
    report.info(std::string("provenance kernel_tier=") +
                elv::sim::kernel_tier_name(elv::sim::active_tier()) +
                " build=" + build + " git=" + elv::version_string());
    report.info("provenance workload=" + options.workload +
                " seed=" + std::to_string(options.seed) +
                " threads=" + std::to_string(threads) +
                " clients=" + std::to_string(clients) +
                " traced=" + (options.trace ? "1" : "0") +
                " smoke=" + (options.smoke ? "1" : "0"));
    report.info(std::string("provenance comparable=") +
                (comparable ? "yes" : "no (debug or sanitizer build)"));
}

void
finish_trace(const Options &options, const SpanLog &spans, Report &report)
{
    const elv::obs::MetricsSnapshot snap =
        elv::obs::Registry::global().snapshot();
    for (const char *name :
         {"sim.superop_applies", "sim.sv.fused_runs", "fusion.ops_merged",
          "pool.tasks", "pool.steals", "train.batch_tasks"})
        report.add(name, static_cast<double>(snap.counter(name)), "count");

    const auto self = spans.self_by_layer();
    for (const char *layer :
         {"qml", "device", "core", "noise", "sim", "server", "dist"}) {
        double seconds = 0.0;
        for (const auto &[name, value] : self)
            if (name == layer)
                seconds = value;
        report.add(std::string("self.") + layer + ".s", seconds, "s");
    }

    std::filesystem::create_directories(options.out_dir);
    const std::string path = options.out_dir + "/spans-" +
                             options.workload + "-seed" +
                             std::to_string(options.seed) + ".json";
    if (spans.write(path))
        report.info("spans written to " + path);
    else
        report.check_failed("cannot write span file " + path);
}

} // namespace perfbench
