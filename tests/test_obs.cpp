/**
 * @file
 * Observability-layer tests: metrics registry semantics (exact sums
 * under concurrent increments, histogram bucket edges, gauge high-water
 * marks), tracer span collection and Chrome-trace rendering (events
 * nest by time containment, the JSON is structurally sound), the
 * streaming JSON writer, and the structured run report (its tallies
 * must match the SearchResult it serializes).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/run_report.hpp"
#include "core/search.hpp"
#include "device/device.hpp"
#include "noise/noise_model.hpp"
#include "obs/exposition.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "qml/synthetic.hpp"

namespace {

using namespace elv;

/** Balanced-delimiter check: cheap structural JSON sanity. */
bool
balanced_json(const std::string &doc)
{
    int depth = 0;
    bool in_string = false;
    for (std::size_t i = 0; i < doc.size(); ++i) {
        const char c = doc[i];
        if (in_string) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_string = false;
            continue;
        }
        if (c == '"') {
            in_string = true;
        } else if (c == '{' || c == '[') {
            ++depth;
        } else if (c == '}' || c == ']') {
            if (--depth < 0)
                return false;
        }
    }
    return depth == 0 && !in_string;
}

TEST(Metrics, ConcurrentCounterIncrementsSumExactly)
{
    obs::Registry registry;
    obs::Counter &counter = registry.counter("test.hits");
    constexpr int kThreads = 8;
    constexpr int kPerThread = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&counter] {
            for (int i = 0; i < kPerThread; ++i)
                counter.add();
        });
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_EQ(counter.value(),
              static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Metrics, CounterAddNAndReset)
{
    obs::Registry registry;
    obs::Counter &counter = registry.counter("test.bulk");
    counter.add(41);
    counter.add();
    EXPECT_EQ(counter.value(), 42u);
    counter.reset();
    EXPECT_EQ(counter.value(), 0u);
}

TEST(Metrics, RegistryReturnsStableReferences)
{
    obs::Registry registry;
    obs::Counter &a = registry.counter("same.name");
    obs::Counter &b = registry.counter("same.name");
    EXPECT_EQ(&a, &b);
    a.add(3);
    EXPECT_EQ(b.value(), 3u);
}

TEST(Metrics, GaugeTracksValueAndMax)
{
    obs::Registry registry;
    obs::Gauge &gauge = registry.gauge("test.depth");
    gauge.add(5);
    gauge.add(3);
    gauge.add(-6);
    EXPECT_EQ(gauge.value(), 2);
    EXPECT_EQ(gauge.max_value(), 8);
    gauge.set(1);
    EXPECT_EQ(gauge.value(), 1);
    EXPECT_EQ(gauge.max_value(), 8);
}

TEST(Metrics, HistogramBucketEdgesArePrometheusStyle)
{
    obs::Registry registry;
    obs::Histogram &hist =
        registry.histogram("test.hist", {1.0, 2.0, 5.0});
    // Bucket i counts edges[i-1] < v <= edges[i]; last = overflow.
    hist.observe(0.5);  // bucket 0
    hist.observe(1.0);  // bucket 0 (inclusive upper bound)
    hist.observe(1.5);  // bucket 1
    hist.observe(2.0);  // bucket 1
    hist.observe(5.0);  // bucket 2
    hist.observe(6.0);  // overflow
    const auto counts = hist.counts();
    ASSERT_EQ(counts.size(), 4u);
    EXPECT_EQ(counts[0], 2u);
    EXPECT_EQ(counts[1], 2u);
    EXPECT_EQ(counts[2], 1u);
    EXPECT_EQ(counts[3], 1u);
    EXPECT_EQ(hist.total(), 6u);
}

TEST(Metrics, SnapshotIsSortedAndLooksUpByName)
{
    obs::Registry registry;
    registry.counter("zz.last").add(2);
    registry.counter("aa.first").add(1);
    registry.gauge("mid.gauge").set(7);
    const obs::MetricsSnapshot snap = registry.snapshot();
    ASSERT_EQ(snap.counters.size(), 2u);
    EXPECT_EQ(snap.counters[0].name, "aa.first");
    EXPECT_EQ(snap.counters[1].name, "zz.last");
    EXPECT_EQ(snap.counter("zz.last"), 2u);
    EXPECT_EQ(snap.counter("absent"), 0u);
    ASSERT_EQ(snap.gauges.size(), 1u);
    EXPECT_EQ(snap.gauges[0].value, 7);
}

#ifndef ELV_OBS_DISABLED
TEST(Metrics, MacroSitesRespectTheEnabledFlag)
{
    obs::Registry &registry = obs::Registry::global();
    registry.reset();
    registry.set_enabled(false);
    ELV_METRIC_COUNT("test.macro.flag");
    EXPECT_EQ(registry.counter("test.macro.flag").value(), 0u);
    registry.set_enabled(true);
    ELV_METRIC_COUNT("test.macro.flag");
    ELV_METRIC_COUNT_N("test.macro.flag", 2);
    registry.set_enabled(false);
    EXPECT_EQ(registry.counter("test.macro.flag").value(), 3u);
    registry.reset();
}

TEST(Metrics, CachesReportHitsMissesAndEvictions)
{
    obs::Registry &registry = obs::Registry::global();
    registry.reset();
    registry.set_enabled(true);

    // H, CX, H on a coupled pair: the second H reuses the first one's
    // superoperator-table entry (same kind, same qubit calibration).
    const dev::Device device = dev::make_device("ibm_lagos");
    circ::Circuit c(device.num_qubits());
    c.add_gate(circ::GateKind::H, {0});
    c.add_gate(circ::GateKind::CX, {0, 1});
    c.add_gate(circ::GateKind::H, {0});
    c.set_measured({0, 1});
    const noise::NoisyDensitySimulator noisy(device);
    noisy.run_distribution(c); // compiles: table 2 misses + 1 hit
    noisy.run_distribution(c); // program cache hit
    noisy.fidelity(c);         // no program cache; table 3 hits
    registry.set_enabled(false);

    const obs::MetricsSnapshot snap = registry.snapshot();
    EXPECT_EQ(snap.counter("noise.superop_table.misses"), 2u);
    EXPECT_EQ(snap.counter("noise.superop_table.hits"), 4u);
    EXPECT_EQ(snap.counter("noise.superop_table.evictions"), 0u);
    EXPECT_EQ(snap.counter("noise.program_cache.misses"), 1u);
    EXPECT_EQ(snap.counter("noise.program_cache.hits"), 1u);
    const std::string exposed = obs::render_prometheus(snap);
    EXPECT_NE(exposed.find("elv_noise_superop_table_hits_total 4"),
              std::string::npos);
    registry.reset();
}
#endif // ELV_OBS_DISABLED

TEST(Tracer, SpansNestByTimeContainment)
{
    obs::Tracer &tracer = obs::Tracer::global();
    tracer.drain(); // discard anything earlier tests left behind
    tracer.start();
    {
        obs::TraceScope outer("outer", "test");
        {
            obs::TraceScope inner("inner", "test",
                                  std::int64_t{17});
        }
    }
    tracer.stop();
    const auto events = tracer.drain();
    ASSERT_EQ(events.size(), 2u);
    // drain() sorts by start time: outer opened first.
    EXPECT_EQ(events[0].name, "outer");
    EXPECT_EQ(events[1].name, "inner");
    EXPECT_TRUE(events[1].has_arg);
    EXPECT_EQ(events[1].arg, 17);
    EXPECT_FALSE(events[0].has_arg);
    // Same thread, and the inner interval sits inside the outer one —
    // exactly what makes Perfetto render it as a nested span.
    EXPECT_EQ(events[0].tid, events[1].tid);
    EXPECT_LE(events[0].ts_us, events[1].ts_us);
    EXPECT_LE(events[1].ts_us + events[1].dur_us,
              events[0].ts_us + events[0].dur_us + 1e-3);
}

TEST(Tracer, DisabledTracerRecordsNothing)
{
    obs::Tracer &tracer = obs::Tracer::global();
    tracer.drain();
    ASSERT_FALSE(tracer.enabled());
    {
        obs::TraceScope span("ignored", "test");
        ELV_TRACE_SCOPE("ignored.macro", "test");
    }
    EXPECT_TRUE(tracer.drain().empty());
}

TEST(Tracer, CollectsSpansFromManyThreads)
{
    obs::Tracer &tracer = obs::Tracer::global();
    tracer.drain();
    tracer.start();
    constexpr int kThreads = 4;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([t] {
            obs::TraceScope span("worker", "test",
                                 static_cast<std::int64_t>(t));
        });
    for (std::thread &thread : threads)
        thread.join();
    tracer.stop();
    const auto events = tracer.drain();
    ASSERT_EQ(events.size(), static_cast<std::size_t>(kThreads));
    std::vector<int> tids;
    for (const auto &event : events)
        tids.push_back(event.tid);
    std::sort(tids.begin(), tids.end());
    EXPECT_EQ(std::unique(tids.begin(), tids.end()), tids.end())
        << "each thread must report its own tid";
}

TEST(Tracer, WritesStructurallySoundChromeTrace)
{
    obs::Tracer &tracer = obs::Tracer::global();
    tracer.drain();
    tracer.start();
    {
        obs::TraceScope outer("phase.demo", "search");
        obs::TraceScope inner("candidate", "search.candidate",
                              std::int64_t{3});
    }
    const std::string path = ::testing::TempDir() + "elv_trace.json";
    std::remove(path.c_str());
    ASSERT_TRUE(tracer.write(path));
    EXPECT_FALSE(tracer.enabled()) << "write() must stop the tracer";

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string doc = buffer.str();
    EXPECT_TRUE(balanced_json(doc));
    EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(doc.find("\"phase.demo\""), std::string::npos);
    EXPECT_NE(doc.find("\"candidate\""), std::string::npos);
    EXPECT_NE(doc.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(doc.find("thread_name"), std::string::npos);
    std::remove(path.c_str());
}

TEST(Tracer, WriteFailsGracefullyOnBadPath)
{
    obs::Tracer &tracer = obs::Tracer::global();
    tracer.start();
    EXPECT_FALSE(tracer.write("/nonexistent-dir/trace.json"));
    tracer.drain();
}

TEST(JsonWriterTest, NestsObjectsAndArraysWithCommas)
{
    obs::JsonWriter json;
    json.begin_object();
    json.kv("name", "elv");
    json.kv("count", 3);
    json.key("list").begin_array();
    json.value(1).value(2).value(3);
    json.end_array();
    json.key("nested").begin_object();
    json.kv("ok", true);
    json.end_object();
    json.end_object();
    EXPECT_EQ(json.str(), "{\"name\": \"elv\", \"count\": 3, "
                          "\"list\": [1, 2, 3], "
                          "\"nested\": {\"ok\": true}}");
}

TEST(JsonWriterTest, EscapesStringsAndNullsNonFinite)
{
    obs::JsonWriter json;
    json.begin_object();
    json.kv("text", "a\"b\\c\n");
    json.kv("nan", std::nan(""));
    json.kv("num", 0.5);
    json.end_object();
    EXPECT_EQ(json.str(), "{\"text\": \"a\\\"b\\\\c\\n\", "
                          "\"nan\": null, \"num\": 0.5}");
}

/** Tiny search for report round-trips (seconds, not minutes). */
core::ElivagarConfig
tiny_search_config(int num_features)
{
    core::ElivagarConfig config;
    config.num_candidates = 6;
    config.candidate.num_qubits = 4;
    config.candidate.num_params = 10;
    config.candidate.num_embeds = 4;
    config.candidate.num_meas = 1;
    config.candidate.num_features = num_features;
    config.cnr.num_replicas = 4;
    config.repcap.samples_per_class = 4;
    config.repcap.param_inits = 2;
    config.seed = 31;
    return config;
}

TEST(RunReport, TalliesMatchTheSearchResultExactly)
{
    const qml::Benchmark bench = qml::make_benchmark("moons", 5, 0.08);
    const dev::Device device = dev::make_device("ibmq_manila");
    const auto config = tiny_search_config(bench.spec.dim);
    const auto result =
        core::elivagar_search(device, bench.train, config);

    const std::string doc = core::run_report_json(config, result);
    EXPECT_TRUE(balanced_json(doc));

    auto expect_field = [&doc](const std::string &key,
                               const std::string &rendered) {
        const std::string needle = "\"" + key + "\": " + rendered;
        EXPECT_NE(doc.find(needle), std::string::npos)
            << "report missing " << needle;
    };
    expect_field("cnr_executions",
                 std::to_string(result.cnr_executions));
    expect_field("repcap_executions",
                 std::to_string(result.repcap_executions));
    expect_field("total_executions",
                 std::to_string(result.total_executions()));
    expect_field("survivors", std::to_string(result.survivors));
    expect_field("degraded_candidates",
                 std::to_string(result.degraded_candidates));
    expect_field("num_candidates",
                 std::to_string(config.num_candidates));
    expect_field("seed", std::to_string(config.seed));

    // One record per candidate, phases in pipeline order.
    std::size_t records = 0;
    for (std::size_t at = doc.find("\"index\":"); at != std::string::npos;
         at = doc.find("\"index\":", at + 1))
        ++records;
    EXPECT_EQ(records, result.candidates.size());
    ASSERT_EQ(result.phase_timings.size(), 4u);
    EXPECT_EQ(result.phase_timings[0].name, "generate");
    EXPECT_EQ(result.phase_timings[1].name, "cnr");
    EXPECT_EQ(result.phase_timings[2].name, "repcap");
    EXPECT_EQ(result.phase_timings[3].name, "rank");
    EXPECT_GT(result.total_seconds, 0.0);
    EXPECT_GE(result.total_seconds,
              result.phase_seconds("cnr"));
}

TEST(RunReport, SkippedCnrDropsThePhase)
{
    const qml::Benchmark bench = qml::make_benchmark("moons", 5, 0.08);
    const dev::Device device = dev::make_device("ibmq_manila");
    auto config = tiny_search_config(bench.spec.dim);
    config.use_cnr = false;
    const auto result =
        core::elivagar_search(device, bench.train, config);
    EXPECT_EQ(result.phase_seconds("cnr"), 0.0);
    ASSERT_EQ(result.phase_timings.size(), 3u);
    EXPECT_TRUE(balanced_json(core::run_report_json(config, result)));
}

TEST(RunReport, WritesAFileAndFailsGracefully)
{
    const qml::Benchmark bench = qml::make_benchmark("moons", 5, 0.08);
    const dev::Device device = dev::make_device("ibmq_manila");
    const auto config = tiny_search_config(bench.spec.dim);
    const auto result =
        core::elivagar_search(device, bench.train, config);

    const std::string path = ::testing::TempDir() + "elv_report.json";
    std::remove(path.c_str());
    EXPECT_TRUE(core::write_run_report(path, config, result));
    std::ifstream in(path);
    EXPECT_TRUE(in.good());
    std::remove(path.c_str());
    EXPECT_FALSE(core::write_run_report("/nonexistent-dir/report.json",
                                        config, result));
}

} // namespace
