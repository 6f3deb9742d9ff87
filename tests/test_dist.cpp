/**
 * @file
 * Distributed sharded search tests (ISSUE acceptance criteria): the
 * shard partitioner, the coordinator/worker wire format, and above all
 * the determinism gauntlet — the merged ranking must be bit-identical
 * to the single-process search at 1/2/3/7 workers (including counts
 * that do not divide the pool), after a worker is SIGKILLed mid-shard
 * and its shard reissued, after falling back to in-process evaluation
 * when the worker binary cannot be spawned at all, and when a run
 * resumes from its shard journals under a different worker count.
 *
 * The worker binary under test is the real elivagar_worker (path baked
 * in via ELV_WORKER_BIN), fork/exec'd exactly as in production.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "circuit/serialize.hpp"
#include "common/logging.hpp"
#include "core/checkpoint.hpp"
#include "core/search.hpp"
#include "dist/channel.hpp"
#include "dist/coordinator.hpp"
#include "dist/wire.hpp"
#include "qml/synthetic.hpp"
#include "server/job.hpp"
#include "server/json_value.hpp"

namespace {

using namespace elv;
using namespace elv::dist;

/** The small spec every gauntlet run searches (seconds per run). */
srv::JobSpec
small_spec()
{
    srv::JobSpec spec;
    spec.benchmark = "moons";
    spec.candidates = 10;
    spec.seed = 11;
    spec.scale = 0.1;
    return spec;
}

/** Single-process reference with the identical JobSpec mapping. */
core::SearchResult
serial_reference(const srv::JobSpec &spec)
{
    const qml::Benchmark bench =
        qml::make_benchmark(spec.benchmark, spec.seed, spec.scale);
    const dev::Device device = dev::make_device(spec.device);
    const core::ElivagarConfig config =
        srv::job_search_config(spec, bench.spec, 1, "");
    return core::elivagar_search(device, bench.train, config);
}

/** DistConfig pointing at the real worker binary from the build. */
DistConfig
dist_config(int workers)
{
    DistConfig dc;
    dc.workers = workers;
    dc.worker_binary = ELV_WORKER_BIN;
    dc.handshake_timeout_sec = 60.0;
    dc.record_timeout_sec = 60.0;
    return dc;
}

/** Fresh state directory under the gtest temp dir. */
std::string
fresh_state_dir(const std::string &name)
{
    const std::string path =
        ::testing::TempDir() + "elv_dist_" + name;
    std::filesystem::remove_all(path);
    return path;
}

/** Bitwise equality of the full merged ranking (hexfloat compares). */
void
expect_bit_identical(const core::SearchResult &a,
                     const core::SearchResult &b)
{
    EXPECT_EQ(circ::to_text(a.best_circuit),
              circ::to_text(b.best_circuit));
    EXPECT_EQ(core::double_to_hex(a.best_score),
              core::double_to_hex(b.best_score));
    EXPECT_EQ(a.survivors, b.survivors);
    EXPECT_EQ(a.cnr_executions, b.cnr_executions);
    EXPECT_EQ(a.repcap_executions, b.repcap_executions);
    EXPECT_EQ(a.degraded_candidates, b.degraded_candidates);
    ASSERT_EQ(a.candidates.size(), b.candidates.size());
    for (std::size_t n = 0; n < a.candidates.size(); ++n) {
        EXPECT_EQ(circ::to_text_line(a.candidates[n].circuit),
                  circ::to_text_line(b.candidates[n].circuit))
            << n;
        EXPECT_EQ(core::double_to_hex(a.candidates[n].cnr),
                  core::double_to_hex(b.candidates[n].cnr))
            << n;
        EXPECT_EQ(core::double_to_hex(a.candidates[n].repcap),
                  core::double_to_hex(b.candidates[n].repcap))
            << n;
        EXPECT_EQ(core::double_to_hex(a.candidates[n].score),
                  core::double_to_hex(b.candidates[n].score))
            << n;
        EXPECT_EQ(a.candidates[n].rejected_by_cnr,
                  b.candidates[n].rejected_by_cnr)
            << n;
    }
}

TEST(DistPartition, EvenAndRemainderSplits)
{
    // 10 over 2: two fives.
    auto plan = partition_indices(10, 2);
    ASSERT_EQ(plan.size(), 2u);
    EXPECT_EQ(plan[0], std::make_pair(0, 5));
    EXPECT_EQ(plan[1], std::make_pair(5, 10));

    // 10 over 3: the first shard takes the extra element.
    plan = partition_indices(10, 3);
    ASSERT_EQ(plan.size(), 3u);
    EXPECT_EQ(plan[0], std::make_pair(0, 4));
    EXPECT_EQ(plan[1], std::make_pair(4, 7));
    EXPECT_EQ(plan[2], std::make_pair(7, 10));

    // 10 over 7: sizes differ by at most one and cover [0, 10).
    plan = partition_indices(10, 7);
    ASSERT_EQ(plan.size(), 7u);
    int covered = 0;
    for (std::size_t s = 0; s < plan.size(); ++s) {
        EXPECT_EQ(plan[s].first, covered);
        const int size = plan[s].second - plan[s].first;
        EXPECT_GE(size, 1);
        EXPECT_LE(size, 2);
        covered = plan[s].second;
    }
    EXPECT_EQ(covered, 10);
}

TEST(DistPartition, MoreShardsThanWorkYieldsEmptyRanges)
{
    const auto plan = partition_indices(3, 5);
    ASSERT_EQ(plan.size(), 5u);
    EXPECT_EQ(plan[0], std::make_pair(0, 1));
    EXPECT_EQ(plan[1], std::make_pair(1, 2));
    EXPECT_EQ(plan[2], std::make_pair(2, 3));
    EXPECT_EQ(plan[3], std::make_pair(3, 3)); // empty
    EXPECT_EQ(plan[4], std::make_pair(3, 3)); // empty
}

TEST(DistWire, ConfigureRoundTrip)
{
    srv::JobSpec spec = small_spec();
    const std::string line = make_configure(spec, 3, 0xdeadbeefcafe01ULL, 4);
    CoordRequest request;
    std::string error;
    ASSERT_TRUE(parse_coord_request(line, request, error)) << error;
    EXPECT_EQ(request.kind, CoordRequest::Kind::Configure);
    EXPECT_EQ(request.spec.benchmark, spec.benchmark);
    EXPECT_EQ(request.spec.candidates, spec.candidates);
    EXPECT_EQ(request.spec.seed, spec.seed);
    EXPECT_EQ(request.threads, 3);
    EXPECT_EQ(request.fingerprint, 0xdeadbeefcafe01ULL);
    EXPECT_EQ(request.crash_after, 4);
}

/** Configure lines and manifest records from builds that still carried
 * a "precision" spec field parse; the unknown key is ignored. */
TEST(DistWire, ConfigureWithLegacyPrecisionKeyParses)
{
    const srv::JobSpec spec = small_spec();
    std::string line = make_configure(spec, 2, 0x1234ULL, 0);
    const std::size_t at = line.find("\"workers\":");
    ASSERT_NE(at, std::string::npos) << line;
    line.insert(at, "\"precision\":\"f64\",");
    CoordRequest request;
    std::string error;
    ASSERT_TRUE(parse_coord_request(line, request, error)) << error;
    EXPECT_EQ(request.kind, CoordRequest::Kind::Configure);
    EXPECT_EQ(request.spec.seed, spec.seed);
    EXPECT_EQ(request.spec.candidates, spec.candidates);

    std::string record = spec.to_json();
    record.insert(record.find("\"workers\":"), "\"precision\":\"f64\",");
    srv::JsonValue value;
    ASSERT_TRUE(srv::json_parse(record, value, error)) << error;
    srv::JobSpec parsed;
    ASSERT_TRUE(srv::JobSpec::from_json(value, parsed, error)) << error;
    EXPECT_EQ(parsed.seed, spec.seed);
    EXPECT_EQ(parsed.benchmark, spec.benchmark);
}

TEST(DistWire, StageAndRecordRoundTrips)
{
    CoordRequest request;
    std::string error;
    ASSERT_TRUE(parse_coord_request(
        make_stage_request("cnr", {3, 1, 4}), request, error))
        << error;
    EXPECT_EQ(request.kind, CoordRequest::Kind::Stage);
    EXPECT_EQ(request.stage, "cnr");
    EXPECT_EQ(request.indices, (std::vector<int>{3, 1, 4}));

    // CNR record: hexfloat doubles survive bit-exactly.
    core::CandidateCnr cnr;
    cnr.cnr = 0.12345678901234567;
    cnr.executions = 16;
    cnr.degraded = true;
    cnr.retries = 2;
    WorkerEvent event;
    ASSERT_TRUE(
        parse_worker_event(make_cnr_record(7, cnr), event, error))
        << error;
    EXPECT_EQ(event.kind, WorkerEvent::Kind::Cnr);
    EXPECT_EQ(event.index, 7);
    EXPECT_EQ(core::double_to_hex(event.cnr.cnr),
              core::double_to_hex(cnr.cnr));
    EXPECT_EQ(event.cnr.executions, 16u);
    EXPECT_TRUE(event.cnr.degraded);
    EXPECT_EQ(event.cnr.retries, 2u);

    core::CandidateRepCap repcap;
    repcap.repcap = 0.9999999999999999;
    repcap.executions = 1024;
    ASSERT_TRUE(parse_worker_event(make_repcap_record(2, repcap),
                                   event, error))
        << error;
    EXPECT_EQ(event.kind, WorkerEvent::Kind::RepCap);
    EXPECT_EQ(event.index, 2);
    EXPECT_EQ(core::double_to_hex(event.repcap.repcap),
              core::double_to_hex(repcap.repcap));
    EXPECT_EQ(event.repcap.executions, 1024u);

    ASSERT_TRUE(
        parse_worker_event(make_stage_done("cnr", 5), event, error))
        << error;
    EXPECT_EQ(event.kind, WorkerEvent::Kind::Done);
    EXPECT_EQ(event.stage, "cnr");
    EXPECT_EQ(event.count, 5u);

    ASSERT_TRUE(
        parse_worker_event(make_error("backend on fire"), event, error))
        << error;
    EXPECT_EQ(event.kind, WorkerEvent::Kind::Error);
    EXPECT_EQ(event.message, "backend on fire");

    ASSERT_TRUE(
        parse_worker_event(make_ready(0x42ULL), event, error))
        << error;
    EXPECT_EQ(event.kind, WorkerEvent::Kind::Ready);
    EXPECT_EQ(event.fingerprint, 0x42ULL);

    EXPECT_FALSE(parse_worker_event("{\"ev\":\"nonsense\"}", event,
                                    error));
    EXPECT_FALSE(parse_worker_event("not json at all", event, error));
}

TEST(DistWire, EndpointParsing)
{
    std::string host;
    std::uint16_t port = 0;
    ASSERT_TRUE(parse_endpoint("10.1.2.3:7400", host, port));
    EXPECT_EQ(host, "10.1.2.3");
    EXPECT_EQ(port, 7400);
    ASSERT_TRUE(parse_endpoint(":7401", host, port));
    EXPECT_EQ(host, "127.0.0.1");
    EXPECT_EQ(port, 7401);
    ASSERT_TRUE(parse_endpoint("7402", host, port));
    EXPECT_EQ(host, "127.0.0.1");
    EXPECT_EQ(port, 7402);
    EXPECT_FALSE(parse_endpoint("host:", host, port));
    EXPECT_FALSE(parse_endpoint("host:99999", host, port));
    EXPECT_FALSE(parse_endpoint("", host, port));
}

TEST(DistJobSpec, WorkersFieldRoundTripsAndValidates)
{
    srv::JobSpec spec = small_spec();
    spec.workers = 4;
    srv::JsonValue value;
    std::string error;
    ASSERT_TRUE(srv::json_parse(spec.to_json(), value, error)) << error;
    srv::JobSpec parsed;
    ASSERT_TRUE(srv::JobSpec::from_json(value, parsed, error)) << error;
    EXPECT_EQ(parsed.workers, 4);

    srv::JobSpec bad = small_spec();
    bad.workers = -1;
    EXPECT_THROW(bad.check(), elv::UsageError);
    bad.workers = 65;
    EXPECT_THROW(bad.check(), elv::UsageError);
}

/**
 * The headline guarantee: the merged distributed ranking equals the
 * single-process ranking bit for bit — at worker counts that divide
 * the pool, that do not divide it, and that exceed half of it.
 */
TEST(DistDeterminism, ShardCountGauntletMatchesSerialBitwise)
{
    const srv::JobSpec spec = small_spec();
    const core::SearchResult reference = serial_reference(spec);
    for (const int workers : {1, 2, 3, 7}) {
        const DistResult dist =
            distributed_search(spec, dist_config(workers));
        SCOPED_TRACE("workers=" + std::to_string(workers));
        expect_bit_identical(reference, dist.result);
        EXPECT_EQ(dist.stats.workers_spawned, workers);
        EXPECT_EQ(dist.stats.records_received,
                  static_cast<std::uint64_t>(
                      spec.candidates + reference.survivors));
        EXPECT_EQ(dist.stats.shards_reissued, 0);
        EXPECT_EQ(dist.stats.fallback_records, 0u);
    }
}

/**
 * Crash tolerance: SIGKILL a worker after two streamed records, mid
 * CNR shard. The shard is reissued to a fresh worker minus the
 * journal-free already-received records, and the merged ranking is
 * still bit-identical.
 */
TEST(DistDeterminism, WorkerKilledMidShardIsReissuedBitIdentical)
{
    const srv::JobSpec spec = small_spec();
    const core::SearchResult reference = serial_reference(spec);
    DistConfig dc = dist_config(2);
    dc.crash_after = 2;
    const DistResult dist = distributed_search(spec, dc);
    expect_bit_identical(reference, dist.result);
    EXPECT_GE(dist.stats.shards_reissued, 1);
    EXPECT_GE(dist.stats.worker_failures, 1);
    // The crashed worker was replaced by a fresh spawn.
    EXPECT_GE(dist.stats.workers_spawned, 3);
}

/** A worker binary that cannot even spawn degrades to in-process
 * evaluation — the run completes bit-identically, not at all fast. */
TEST(DistDeterminism, UnspawnableWorkerFallsBackInProcess)
{
    const srv::JobSpec spec = small_spec();
    const core::SearchResult reference = serial_reference(spec);
    DistConfig dc = dist_config(2);
    dc.worker_binary = "/nonexistent/elivagar_worker_missing";
    dc.max_reissues = 0;
    const DistResult dist = distributed_search(spec, dc);
    expect_bit_identical(reference, dist.result);
    EXPECT_GT(dist.stats.fallback_records, 0u);
    EXPECT_EQ(dist.stats.records_received, 0u);
}

/** Without the fallback, an unusable worker fleet is an error, with
 * the shard's diagnostics in the message. */
TEST(DistDeterminism, ExhaustedReissuesWithoutFallbackThrows)
{
    const srv::JobSpec spec = small_spec();
    DistConfig dc = dist_config(1);
    dc.worker_binary = "/nonexistent/elivagar_worker_missing";
    dc.max_reissues = 0;
    dc.allow_local_fallback = false;
    EXPECT_THROW(distributed_search(spec, dc), std::runtime_error);
}

/**
 * Whole-run resume: a completed run's state_dir replays every record
 * from the shard journals — no worker is spawned at all — and a
 * *different* worker count reads the same journals (the union of
 * shard-*.journal is the resume state, not the per-shard layout).
 */
TEST(DistDeterminism, StateDirResumesUnderDifferentWorkerCount)
{
    const srv::JobSpec spec = small_spec();
    const core::SearchResult reference = serial_reference(spec);
    const std::string state_dir = fresh_state_dir("resume");

    DistConfig first = dist_config(2);
    first.state_dir = state_dir;
    const DistResult original = distributed_search(spec, first);
    expect_bit_identical(reference, original.result);
    EXPECT_FALSE(original.result.resumed);

    DistConfig second = dist_config(3);
    second.state_dir = state_dir;
    const DistResult resumed = distributed_search(spec, second);
    expect_bit_identical(reference, resumed.result);
    EXPECT_TRUE(resumed.result.resumed);
    EXPECT_EQ(resumed.stats.workers_spawned, 0);
    EXPECT_EQ(resumed.stats.records_received, 0u);
    EXPECT_EQ(resumed.stats.records_resumed,
              static_cast<std::uint64_t>(
                  spec.candidates + reference.survivors));
}

/** A state_dir written under a different configuration is refused,
 * and the refusal names the fingerprint. */
TEST(DistDeterminism, StateDirFromDifferentConfigRefusedWithHint)
{
    const srv::JobSpec spec = small_spec();
    const std::string state_dir = fresh_state_dir("fingerprint");

    DistConfig first = dist_config(2);
    first.state_dir = state_dir;
    distributed_search(spec, first);

    srv::JobSpec flipped = spec;
    flipped.seed += 1;
    DistConfig second = dist_config(2);
    second.state_dir = state_dir;
    try {
        distributed_search(flipped, second);
        FAIL() << "expected the mismatched state_dir to be refused";
    } catch (const elv::UsageError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("fingerprint"), std::string::npos) << what;
    }
}

/** More workers than candidates: the surplus shards are empty and no
 * process is spawned for them. */
TEST(DistDeterminism, MoreWorkersThanCandidates)
{
    srv::JobSpec spec = small_spec();
    spec.candidates = 3;
    const core::SearchResult reference = serial_reference(spec);
    const DistResult dist = distributed_search(spec, dist_config(5));
    expect_bit_identical(reference, dist.result);
    EXPECT_LE(dist.stats.workers_spawned, 3);
}

} // namespace
