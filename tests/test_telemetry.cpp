/**
 * @file
 * Telemetry-plane tests: histogram quantile math against known
 * distributions, EWMA rate tracking under regular and irregular scrape
 * intervals, the Prometheus text exposition (name sanitization, series
 * shape, deterministic ordering), the bounded operational event ring
 * (paging, clipping, loss detection), the per-job span log, and the
 * sampling profiler's collapsed-stack artifact. The Concurrency suite
 * hammers tracer spans, metric updates and exposition renders from
 * many threads at once — it exists to run under TSan.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/events.hpp"
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"

namespace {

using namespace elv;

/** One line of the exposition ("name value"), or "" when absent. */
std::string
sample_line(const std::string &text, const std::string &name)
{
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        if (line.rfind(name + " ", 0) == 0 ||
            line.rfind(name + "{", 0) == 0)
            return line;
    return "";
}

double
sample_value(const std::string &text, const std::string &name)
{
    const std::string line = sample_line(text, name);
    const auto space = line.rfind(' ');
    return space == std::string::npos
               ? std::nan("")
               : std::strtod(line.c_str() + space + 1, nullptr);
}

TEST(Quantile, EmptyAndMalformedAreNaN)
{
    const std::vector<double> edges{1.0, 2.0};
    EXPECT_TRUE(std::isnan(
        obs::histogram_quantile(edges, {0, 0, 0}, 0.5)));
    // counts must have edges+1 entries
    EXPECT_TRUE(std::isnan(obs::histogram_quantile(edges, {1, 2}, 0.5)));
    EXPECT_TRUE(std::isnan(obs::histogram_quantile({}, {}, 0.5)));
}

TEST(Quantile, UniformDistributionInterpolatesLinearly)
{
    // 100 observations spread evenly over one bucket (10, 20]: the
    // rank interpolates linearly inside the bucket.
    const std::vector<double> edges{10.0, 20.0};
    const std::vector<std::uint64_t> counts{0, 100, 0};
    EXPECT_DOUBLE_EQ(15.0,
                     obs::histogram_quantile(edges, counts, 0.5));
    EXPECT_DOUBLE_EQ(19.0,
                     obs::histogram_quantile(edges, counts, 0.9));
    EXPECT_DOUBLE_EQ(10.0 + 0.01 * 10.0,
                     obs::histogram_quantile(edges, counts, 0.01));
}

TEST(Quantile, FirstBucketInterpolatesFromZero)
{
    // Prometheus semantics: a rank inside the first bucket (whose
    // lower edge is implicit) interpolates from 0 when edges[0] > 0.
    const std::vector<double> edges{8.0};
    const std::vector<std::uint64_t> counts{4, 0};
    EXPECT_DOUBLE_EQ(4.0, obs::histogram_quantile(edges, counts, 0.5));
}

TEST(Quantile, KnownTwoBucketSplit)
{
    // 30 obs in (0,1], 70 in (1,2]: q50 has rank 50, 20 deep into the
    // 70-count second bucket -> 1 + 20/70.
    const std::vector<double> edges{1.0, 2.0};
    const std::vector<std::uint64_t> counts{30, 70, 0};
    EXPECT_NEAR(1.0 + 20.0 / 70.0,
                obs::histogram_quantile(edges, counts, 0.5), 1e-12);
    // q25 rank 25 sits inside the first bucket: 25/30 of the way.
    EXPECT_NEAR(25.0 / 30.0,
                obs::histogram_quantile(edges, counts, 0.25), 1e-12);
}

TEST(Quantile, OverflowClampsToLastFiniteEdge)
{
    const std::vector<double> edges{1.0, 2.0};
    const std::vector<std::uint64_t> counts{1, 1, 8};
    EXPECT_DOUBLE_EQ(2.0, obs::histogram_quantile(edges, counts, 0.99));
}

TEST(Quantile, HistogramSumAndQuantileAgreeWithObservations)
{
    obs::Registry registry;
    registry.set_enabled(true);
    obs::Histogram &h =
        registry.histogram("test.h", {1.0, 2.0, 4.0, 8.0});
    double expected_sum = 0.0;
    for (int i = 1; i <= 100; ++i) {
        const double v = 0.07 * i; // 0.07 .. 7.0
        h.observe(v);
        expected_sum += v;
    }
    EXPECT_NEAR(expected_sum, h.sum(), 1e-9);
    EXPECT_EQ(100u, h.total());
    // The true median is 3.535; bucketed interpolation lands inside
    // the (2,4] bucket.
    const double q50 = h.quantile(0.5);
    EXPECT_GT(q50, 2.0);
    EXPECT_LE(q50, 4.0);
    // Snapshot path computes the same estimate.
    const auto snap = registry.snapshot();
    ASSERT_EQ(1u, snap.histograms.size());
    EXPECT_DOUBLE_EQ(q50, snap.histograms[0].quantile(0.5));
    EXPECT_NEAR(expected_sum, snap.histograms[0].sum, 1e-9);
}

TEST(RateTracker, SteadyRateConvergesToEwma)
{
    obs::MetricsSnapshot snap;
    snap.counters.push_back({"c", 0});
    obs::RateTracker rates(10.0);
    rates.update(snap, 0.0); // seeds only
    EXPECT_DOUBLE_EQ(0.0, rates.rate("c"));
    // 50 events/second for a long time converges to 50/s.
    for (int t = 1; t <= 100; ++t) {
        snap.counters[0].value = static_cast<std::uint64_t>(50 * t);
        rates.update(snap, static_cast<double>(t));
    }
    EXPECT_NEAR(50.0, rates.rate("c"), 0.5);
}

TEST(RateTracker, IrregularIntervalsMatchRegularSteadyState)
{
    // The time-aware alpha makes scrape cadence irrelevant at steady
    // state: 10/s sampled every 1 s and every 3 s converge together.
    obs::RateTracker regular(5.0), irregular(5.0);
    obs::MetricsSnapshot snap;
    snap.counters.push_back({"c", 0});
    for (int t = 0; t <= 60; ++t) {
        snap.counters[0].value = static_cast<std::uint64_t>(10 * t);
        regular.update(snap, static_cast<double>(t));
    }
    for (int t = 0; t <= 60; t += 3) {
        snap.counters[0].value = static_cast<std::uint64_t>(10 * t);
        irregular.update(snap, static_cast<double>(t));
    }
    EXPECT_NEAR(regular.rate("c"), irregular.rate("c"), 0.5);
}

TEST(RateTracker, CounterResetReseedsInsteadOfGoingNegative)
{
    obs::RateTracker rates(5.0);
    obs::MetricsSnapshot snap;
    snap.counters.push_back({"c", 1000});
    rates.update(snap, 0.0);
    snap.counters[0].value = 2000;
    rates.update(snap, 1.0);
    EXPECT_GT(rates.rate("c"), 0.0);
    snap.counters[0].value = 5; // process restarted
    rates.update(snap, 2.0);
    EXPECT_GE(rates.rate("c"), 0.0);
}

TEST(Exposition, SanitizesNamesWithPrefix)
{
    EXPECT_EQ("elv_server_queue_depth",
              obs::prometheus_metric_name("server.queue.depth"));
    EXPECT_EQ("elv_a_b_c", obs::prometheus_metric_name("a-b c"));
}

TEST(Exposition, RendersEverySeriesShape)
{
    obs::Registry registry;
    registry.set_enabled(true);
    registry.counter("test.hits").add(3);
    registry.gauge("test.depth").set(7);
    obs::Histogram &h = registry.histogram("test.lat", {0.5, 1.0});
    h.observe(0.25);
    h.observe(0.75);
    h.observe(9.0);

    const std::string text =
        obs::render_prometheus(registry.snapshot());

    EXPECT_NE(std::string::npos,
              text.find("# TYPE elv_test_hits_total counter"));
    EXPECT_DOUBLE_EQ(3.0, sample_value(text, "elv_test_hits_total"));
    EXPECT_DOUBLE_EQ(7.0, sample_value(text, "elv_test_depth"));
    EXPECT_DOUBLE_EQ(7.0, sample_value(text, "elv_test_depth_max"));
    // Cumulative buckets plus +Inf, sum and count.
    EXPECT_EQ("elv_test_lat_bucket{le=\"0.5\"} 1",
              sample_line(text, "elv_test_lat_bucket"));
    EXPECT_NE(std::string::npos,
              text.find("elv_test_lat_bucket{le=\"1\"} 2"));
    EXPECT_NE(std::string::npos,
              text.find("elv_test_lat_bucket{le=\"+Inf\"} 3"));
    EXPECT_DOUBLE_EQ(3.0, sample_value(text, "elv_test_lat_count"));
    EXPECT_NEAR(10.0, sample_value(text, "elv_test_lat_sum"), 1e-9);
    // Server-side quantile gauges.
    EXPECT_FALSE(sample_line(text, "elv_test_lat_q50").empty());
    EXPECT_FALSE(sample_line(text, "elv_test_lat_q99").empty());
}

TEST(Exposition, OutputIsDeterministicallyOrdered)
{
    obs::Registry registry;
    registry.set_enabled(true);
    registry.counter("z.last").add(1);
    registry.counter("a.first").add(1);
    const std::string text =
        obs::render_prometheus(registry.snapshot());
    EXPECT_LT(text.find("elv_a_first_total"),
              text.find("elv_z_last_total"));
    // Byte-identical across renders of the same state.
    EXPECT_EQ(text, obs::render_prometheus(registry.snapshot()));
}

TEST(Exposition, RateGaugesAppearAfterTwoScrapes)
{
    obs::Registry registry;
    registry.set_enabled(true);
    registry.counter("test.ops").add(100);
    obs::Exposition exposition(5.0);
    const std::string first = exposition.render(registry, 0.0);
    EXPECT_DOUBLE_EQ(0.0, sample_value(first, "elv_test_ops_rate"));
    registry.counter("test.ops").add(100);
    const std::string second = exposition.render(registry, 1.0);
    EXPECT_GT(sample_value(second, "elv_test_ops_rate"), 0.0);
}

TEST(EventRing, EmitsMonotonicSeqAndPages)
{
    obs::EventRing ring(8);
    for (int i = 0; i < 5; ++i)
        ring.emit("kind", "subject-" + std::to_string(i), "d");
    const obs::EventSlice all = ring.since(0, 64);
    ASSERT_EQ(5u, all.events.size());
    EXPECT_EQ(1u, all.first_seq);
    EXPECT_EQ(5u, all.last_seq);
    for (std::size_t i = 0; i < all.events.size(); ++i)
        EXPECT_EQ(i + 1, all.events[i].seq);
    // Cursor-based paging returns only newer events.
    const obs::EventSlice page = ring.since(3, 64);
    ASSERT_EQ(2u, page.events.size());
    EXPECT_EQ(4u, page.events[0].seq);
    // A cursor at (or past) the newest event returns nothing.
    EXPECT_TRUE(ring.since(5, 64).events.empty());
    EXPECT_TRUE(ring.since(500, 64).events.empty());
}

TEST(EventRing, OverflowDropsOldestAndReportsLoss)
{
    obs::EventRing ring(4);
    for (int i = 1; i <= 10; ++i)
        ring.emit("k", std::to_string(i), "");
    const obs::EventSlice slice = ring.since(0, 64);
    // Only the newest 4 survive; first_seq exposes the loss.
    ASSERT_EQ(4u, slice.events.size());
    EXPECT_EQ(7u, slice.first_seq);
    EXPECT_EQ(7u, slice.events[0].seq);
    EXPECT_EQ("7", slice.events[0].subject);
    EXPECT_EQ(10u, slice.last_seq);
}

TEST(EventRing, LimitClipsToNewest)
{
    obs::EventRing ring(16);
    for (int i = 1; i <= 10; ++i)
        ring.emit("k", std::to_string(i), "");
    const obs::EventSlice slice = ring.since(0, 3);
    ASSERT_EQ(3u, slice.events.size());
    EXPECT_EQ(8u, slice.events[0].seq); // newest-preferred clip
    EXPECT_EQ(10u, slice.events[2].seq);
}

TEST(SpanLog, CollectsSortedSpansAndWritesChromeTrace)
{
    obs::SpanLog log;
    log.add_span("late", "phase", 100.0, 50.0);
    log.add_span("early", "phase", 0.0, 100.0);
    log.add_span("sized", "phase", 200.0, 10.0, 42, true);
    const auto events = log.events();
    ASSERT_EQ(3u, events.size());
    EXPECT_EQ("early", events[0].name); // sorted by start time
    EXPECT_EQ("late", events[1].name);

    const std::string doc = obs::chrome_trace_json(events);
    EXPECT_NE(std::string::npos, doc.find("\"traceEvents\""));
    EXPECT_NE(std::string::npos, doc.find("\"early\""));
    EXPECT_NE(std::string::npos, doc.find("\"i\": 42"));

    const std::string path =
        ::testing::TempDir() + "elv_spanlog_trace.json";
    EXPECT_TRUE(log.write(path));
    std::ifstream in(path);
    EXPECT_TRUE(in.good());
    std::remove(path.c_str());
}

TEST(Profiler, WritesCollapsedStacksWhileBusy)
{
    obs::Profiler &profiler = obs::Profiler::global();
    if (!profiler.start(997)) // high rate: the busy loop below is short
        GTEST_SKIP() << "profiler unsupported in this build";
    // Burn CPU so SIGPROF (which counts CPU time) actually fires.
    volatile double sink = 0.0;
    while (profiler.stats().samples < 5 && sink < 1e18) {
        double burn = 0.0;
        for (int i = 0; i < 100000; ++i)
            burn += std::sqrt(static_cast<double>(i));
        sink = sink + burn;
    }
    const std::string path = ::testing::TempDir() + "elv_prof.folded";
    EXPECT_TRUE(profiler.write_collapsed(path));
    EXPECT_FALSE(profiler.running());
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string folded = buf.str();
    EXPECT_FALSE(folded.empty());
    // Every line is "frame(;frame)* count".
    std::istringstream lines(folded);
    std::string line;
    while (std::getline(lines, line)) {
        ASSERT_FALSE(line.empty());
        const auto space = line.rfind(' ');
        ASSERT_NE(std::string::npos, space);
        EXPECT_GT(std::strtoull(line.c_str() + space + 1, nullptr, 10),
                  0u);
    }
    std::remove(path.c_str());
}

TEST(Profiler, StartRejectsBadRatesAndDoubleStart)
{
    obs::Profiler &profiler = obs::Profiler::global();
    EXPECT_FALSE(profiler.start(0));
    EXPECT_FALSE(profiler.start(100000));
    if (!profiler.start(97))
        GTEST_SKIP() << "profiler unsupported in this build";
    EXPECT_FALSE(profiler.start(97)); // already running
    profiler.stop();
    EXPECT_FALSE(profiler.running());
}

/**
 * TSan target: concurrent span logging, metric updates, event
 * emission and exposition scrapes must be free of data races.
 */
TEST(Concurrency, ScrapeWhileInstrumentingIsRaceFree)
{
    obs::Registry registry;
    registry.set_enabled(true);
    obs::EventRing ring(64);
    obs::SpanLog spans;
    obs::Exposition exposition;
    std::atomic<bool> stop{false};
    // Register the series before any thread starts: the scraper's
    // first render must find them however the writers are scheduled.
    registry.counter("test.ops");
    registry.gauge("test.depth");
    registry.histogram("test.lat", {0.5, 1.0});

    std::vector<std::thread> writers;
    for (int w = 0; w < 4; ++w)
        writers.emplace_back([&, w] {
            for (int i = 0; i < 500; ++i) {
                registry.counter("test.ops").add(1);
                registry.gauge("test.depth").set(i);
                registry.histogram("test.lat", {0.5, 1.0})
                    .observe(0.1 * (i % 20));
                ring.emit("tick", "w" + std::to_string(w), "");
                spans.add_span("op", "test", 10.0 * i, 5.0);
            }
        });
    std::thread scraper([&] {
        double now = 0.0;
        while (!stop.load()) {
            const std::string text =
                exposition.render(registry, now += 0.01);
            EXPECT_NE(std::string::npos, text.find("elv_test_ops"));
            (void)ring.since(0, 16);
            (void)spans.events();
        }
    });
    for (auto &t : writers)
        t.join();
    stop.store(true);
    scraper.join();

    EXPECT_EQ(2000u, registry.snapshot().counter("test.ops"));
    EXPECT_EQ(2000u, spans.events().size());
    EXPECT_EQ(2000u, ring.since(0, 1).last_seq);
}

} // namespace
