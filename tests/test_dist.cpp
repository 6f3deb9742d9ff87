/**
 * @file
 * Distributed sharded search tests (ISSUE acceptance criteria): the
 * shard partitioner, the coordinator/worker wire format, and above all
 * the determinism gauntlet — the merged ranking must be bit-identical
 * to the single-process search at 1/2/3/7 workers (including counts
 * that do not divide the pool), after a worker is SIGKILLed mid-shard
 * and its shard reissued, after falling back to in-process evaluation
 * when the worker binary cannot be spawned at all, when a run resumes
 * from its search journal under a different worker count, and when a
 * dist journal and an in-process journal resume each other. The
 * search's RemoteStages seam is driven with a test-only remote stage,
 * the worker's stage-request checks over a pipe, and the socket
 * transport (`elivagar_worker --serve` + attach) and the worker
 * channel's line cap end to end.
 *
 * The worker binary under test is the real elivagar_worker (path baked
 * in via ELV_WORKER_BIN), fork/exec'd exactly as in production.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "circuit/serialize.hpp"
#include "common/logging.hpp"
#include "core/checkpoint.hpp"
#include "core/run_spec.hpp"
#include "core/search.hpp"
#include "dist/channel.hpp"
#include "dist/coordinator.hpp"
#include "dist/wire.hpp"
#include "dist/worker.hpp"
#include "obs/json.hpp"
#include "qml/synthetic.hpp"
#include "server/server.hpp"

#include "mutate.hpp"

namespace {

using namespace elv;
using namespace elv::dist;

/** The small spec every gauntlet run searches (seconds per run). */
core::RunSpec
small_spec()
{
    core::RunSpec spec;
    spec.benchmark = "moons";
    spec.candidates = 10;
    spec.seed = 11;
    spec.scale = 0.1;
    return spec;
}

/** Single-process reference with the identical spec mapping. */
core::SearchResult
serial_reference(const core::RunSpec &spec)
{
    const qml::Benchmark bench =
        qml::make_benchmark(spec.benchmark, spec.seed, spec.scale);
    const dev::Device device = dev::make_device(spec.device);
    const core::ElivagarConfig config =
        core::search_config(spec, bench.spec, 1, "");
    return core::elivagar_search(device, bench.train, config);
}

/** DistConfig pointing at the real worker binary from the build. */
DistConfig
dist_config(int workers)
{
    DistConfig dc;
    dc.workers = workers;
    dc.worker_binary = ELV_WORKER_BIN;
    return dc;
}

/** A path under the gtest temp dir with nothing there yet. */
std::string
fresh_path(const std::string &name)
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
    core::RunSpec spec = small_spec();
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
    const core::RunSpec spec = small_spec();
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
    obs::JsonValue value;
    ASSERT_TRUE(obs::json_parse(record, value, error)) << error;
    core::RunSpec parsed;
    ASSERT_TRUE(core::RunSpec::from_json(value, parsed, error)) << error;
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
    const std::string cnr_line = make_cnr_record(7, cnr);
    // The columns earlier builds read stay on the wire, fixed.
    EXPECT_NE(cnr_line.find(R"("degraded": false, "retries": 0})"),
              std::string::npos)
        << cnr_line;
    WorkerEvent event;
    ASSERT_TRUE(parse_worker_event(cnr_line, event, error)) << error;
    EXPECT_EQ(event.kind, WorkerEvent::Kind::Cnr);
    EXPECT_EQ(event.index, 7);
    EXPECT_EQ(core::double_to_hex(event.cnr.cnr),
              core::double_to_hex(cnr.cnr));
    EXPECT_EQ(event.cnr.executions, 16u);

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

/** An integer that does not fit its field rejects the whole line;
 * it is never wrapped or cast out of range. */
TEST(DistWire, OutOfRangeIntegersRejectTheLine)
{
    WorkerEvent event;
    CoordRequest request;
    std::string error;
    const std::string cnr = R"({"ev":"cnr","cnr":"0x1p-1",)";
    for (const std::string &line :
         {cnr + R"("i":1e30})", cnr + R"("i":4294967296})",
          cnr + R"("i":2.5})", cnr + R"("i":0,"execs":1e300})",
          cnr + R"("i":0,"retries":-1})",
          std::string(R"({"ev":"repcap","repcap":"0x1p-1","i":-1e30})"),
          std::string(R"({"ev":"done","op":"cnr","n":-1})")})
        EXPECT_FALSE(parse_worker_event(line, event, error)) << line;
    ASSERT_TRUE(parse_worker_event(cnr + R"("i":3,"execs":8})", event,
                                   error))
        << error;
    EXPECT_EQ(event.index, 3);

    // threads = 7 and crash_after = 9, then each pushed out of range.
    const std::string configure = make_configure(small_spec(), 7, 0x1, 9);
    ASSERT_TRUE(parse_coord_request(configure, request, error)) << error;
    for (const auto &[from, to] :
         {std::pair<std::string, std::string>{"\"threads\": 7",
                                              "\"threads\": 4294967297"},
          std::pair<std::string, std::string>{"\"crash_after\": 9",
                                              "\"crash_after\": 1e30"}}) {
        std::string line = configure;
        const std::size_t at = line.find(from);
        ASSERT_NE(at, std::string::npos) << line;
        line.replace(at, from.size(), to);
        EXPECT_FALSE(parse_coord_request(line, request, error)) << line;
    }
    EXPECT_FALSE(parse_coord_request(R"({"op":"cnr","indices":[1,1e30]})",
                                     request, error));
    EXPECT_FALSE(parse_coord_request(
        R"({"op":"cnr","indices":[2147483648]})", request, error));
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

/** Every refused line says why: a configure line without its spec
 * once came back false with an empty error. */
TEST(DistWire, ConfigureWithoutSpecNamesTheField)
{
    CoordRequest request;
    std::string error;
    EXPECT_FALSE(parse_coord_request(
        R"({"op":"configure","protocol":1,"threads":2,)"
        R"("fp":"0000000000001234","crash_after":0})",
        request, error));
    EXPECT_NE(error.find("\"spec\""), std::string::npos) << error;
}

/**
 * The wire is a trust boundary: seeded mutants of every line the
 * builders make either parse or are refused with a non-empty error, on
 * both ends, and mutated endpoints parse or are refused. Nothing
 * throws.
 */
TEST(DistWire, SeededMutantsParseOrAreRejected)
{
    core::CandidateCnr cnr;
    cnr.cnr = 0.12345678901234567;
    cnr.executions = 16;
    core::CandidateRepCap repcap;
    repcap.repcap = 0.75;
    repcap.executions = 512;
    const std::vector<std::string> lines = {
        make_configure(small_spec(), 2, 0xdeadbeefcafe01ULL, 3),
        make_stage_request("cnr", {3, 1, 4}),
        make_stage_request("repcap", {}),
        make_shutdown(),
        make_ready(0x42ULL),
        make_cnr_record(7, cnr),
        make_repcap_record(2, repcap),
        make_stage_done("cnr", 5),
        make_error("backend on fire"),
        make_bye()};
    const std::vector<std::string> endpoints = {"10.1.2.3:7400", ":7401",
                                                "7402", "localhost:65535"};

    std::mt19937_64 rng(23);
    int parsed = 0, rejected = 0;
    constexpr int kRounds = 500;
    for (int round = 0; round < kRounds; ++round) {
        for (const std::string &line : lines) {
            const std::string mutant = test::mutate(line, lines, rng);
            for (const bool worker_side : {false, true}) {
                WorkerEvent event;
                CoordRequest request;
                std::string error;
                bool ok = false;
                EXPECT_NO_THROW(
                    ok = worker_side
                             ? parse_coord_request(mutant, request, error)
                             : parse_worker_event(mutant, event, error))
                    << mutant;
                if (ok) {
                    ++parsed;
                } else {
                    ++rejected;
                    EXPECT_FALSE(error.empty()) << mutant;
                }
            }
        }
        for (const std::string &endpoint : endpoints) {
            const std::string mutant =
                test::mutate(endpoint, endpoints, rng);
            std::string host;
            std::uint16_t port = 0;
            EXPECT_NO_THROW(parse_endpoint(mutant, host, port)) << mutant;
        }
    }
    EXPECT_GT(parsed, 0);
    EXPECT_GT(rejected, 0);
}

TEST(DistJobSpec, WorkersFieldRoundTripsAndValidates)
{
    core::RunSpec spec = small_spec();
    spec.workers = 4;
    obs::JsonValue value;
    std::string error;
    ASSERT_TRUE(obs::json_parse(spec.to_json(), value, error)) << error;
    core::RunSpec parsed;
    ASSERT_TRUE(core::RunSpec::from_json(value, parsed, error)) << error;
    EXPECT_EQ(parsed.workers, 4);

    core::RunSpec bad = small_spec();
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
    const core::RunSpec spec = small_spec();
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
    const core::RunSpec spec = small_spec();
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
    const core::RunSpec spec = small_spec();
    const core::SearchResult reference = serial_reference(spec);
    DistConfig dc = dist_config(2);
    dc.worker_binary = "/nonexistent/elivagar_worker_missing";
    const DistResult dist = distributed_search(spec, dc);
    expect_bit_identical(reference, dist.result);
    EXPECT_GT(dist.stats.fallback_records, 0u);
    EXPECT_EQ(dist.stats.records_received, 0u);
}

/**
 * Whole-run resume: a completed run's journal replays every record —
 * no worker is spawned and no shard issued — at a *different* worker
 * count (the journal has no per-shard layout).
 */
TEST(DistDeterminism, StateDirResumesUnderDifferentWorkerCount)
{
    const core::RunSpec spec = small_spec();
    const core::SearchResult reference = serial_reference(spec);
    const std::string journal = fresh_path("resume.journal");

    DistConfig first = dist_config(2);
    first.checkpoint_path = journal;
    const DistResult original = distributed_search(spec, first);
    expect_bit_identical(reference, original.result);
    EXPECT_FALSE(original.result.resumed);

    DistConfig second = dist_config(3);
    second.checkpoint_path = journal;
    const DistResult resumed = distributed_search(spec, second);
    expect_bit_identical(reference, resumed.result);
    EXPECT_TRUE(resumed.result.resumed);
    EXPECT_EQ(resumed.stats.workers_spawned, 0);
    EXPECT_EQ(resumed.stats.records_received, 0u);
    EXPECT_EQ(resumed.stats.shards, 0);
}

/** A journal written under a different configuration is refused, and
 * the refusal names the fingerprint. */
TEST(DistDeterminism, StateDirFromDifferentConfigRefusedWithHint)
{
    const core::RunSpec spec = small_spec();
    const std::string journal = fresh_path("fingerprint.journal");

    DistConfig first = dist_config(2);
    first.checkpoint_path = journal;
    distributed_search(spec, first);

    core::RunSpec flipped = spec;
    flipped.seed += 1;
    DistConfig second = dist_config(2);
    second.checkpoint_path = journal;
    try {
        distributed_search(flipped, second);
        FAIL() << "expected the mismatched journal to be refused";
    } catch (const elv::UsageError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("fingerprint"), std::string::npos) << what;
    }
}

/** More workers than candidates: the surplus shards are empty and no
 * process is spawned for them. */
TEST(DistDeterminism, MoreWorkersThanCandidates)
{
    core::RunSpec spec = small_spec();
    spec.candidates = 3;
    const core::SearchResult reference = serial_reference(spec);
    const DistResult dist = distributed_search(spec, dist_config(5));
    expect_bit_identical(reference, dist.result);
    EXPECT_LE(dist.stats.workers_spawned, 3);
}

// --- Remote stages ----------------------------------------------------

/**
 * A test-only remote stage: evaluates its pending indices with the core
 * stage evaluators, in reverse order, on two std::threads, and hands
 * back every third index (pending[0], pending[3], ...) for the search's
 * own pool. With a token, it trips the token once `cancel_after`
 * values are stored and then stops, handing back everything it did not
 * store.
 */
class ReversedRemote final : public core::RemoteStages
{
  public:
    ReversedRemote(const dev::Device &device, const qml::Dataset &train,
                   const core::ElivagarConfig &config)
        : device_(device), train_(train), config_(config)
    {
    }

    std::vector<int>
    cnr(const std::vector<int> &pending, const CnrStore &store) override
    {
        cnr_pending = pending;
        return run(pending, [&](int n) {
            store(n, core::evaluate_candidate_cnr(
                         device_, circuit(n), config_,
                         static_cast<std::size_t>(n)));
        });
    }

    std::vector<int>
    repcap(const std::vector<int> &pending,
           const RepCapStore &store) override
    {
        repcap_pending = pending;
        return run(pending, [&](int n) {
            store(n, core::evaluate_candidate_repcap(
                         circuit(n), train_, config_,
                         static_cast<std::size_t>(n)));
        });
    }

    /** The pending lists the search handed over, per stage. */
    std::vector<int> cnr_pending, repcap_pending;
    std::shared_ptr<CancelToken> cancel;
    int cancel_after = 0;

  private:
    circ::Circuit
    circuit(int n) const
    {
        return core::generate_search_candidate(
            device_, config_, static_cast<std::size_t>(n));
    }

    std::vector<int>
    run(const std::vector<int> &pending,
        const std::function<void(int)> &evaluate)
    {
        std::vector<int> mine, back;
        for (std::size_t k = 0; k < pending.size(); ++k)
            (k % 3 == 0 ? back : mine).push_back(pending[k]);
        std::reverse(mine.begin(), mine.end());
        std::vector<char> stored(mine.size(), 0);
        auto half = [&](std::size_t first) {
            for (std::size_t k = first; k < mine.size(); k += 2) {
                if (cancel && cancel->cancelled())
                    return;
                evaluate(mine[k]);
                stored[k] = 1;
                if (cancel && ++stores_ == cancel_after)
                    cancel->cancel();
            }
        };
        std::thread a(half, 0), b(half, 1);
        a.join();
        b.join();
        for (std::size_t k = 0; k < mine.size(); ++k)
            if (!stored[k])
                back.push_back(mine[k]);
        std::sort(back.begin(), back.end());
        return back;
    }

    const dev::Device &device_;
    const qml::Dataset &train_;
    const core::ElivagarConfig &config_;
    std::atomic<int> stores_{0};
};

/** Indices of the `kind` records ("cnr" / "repcap") in a journal,
 * ascending, repeats kept. */
std::vector<int>
journaled(const std::string &path, const std::string &kind)
{
    std::ifstream in(path);
    std::vector<int> indices;
    for (std::string line; std::getline(in, line);) {
        std::istringstream fields(line);
        std::string word;
        int index = -1;
        if (fields >> word >> index && word == kind)
            indices.push_back(index);
    }
    std::sort(indices.begin(), indices.end());
    return indices;
}

/** Ascending `from` minus ascending `drop`. */
std::vector<int>
minus(const std::vector<int> &from, const std::vector<int> &drop)
{
    std::vector<int> out;
    std::set_difference(from.begin(), from.end(), drop.begin(), drop.end(),
                        std::back_inserter(out));
    return out;
}

/** Pending lists of a search with nothing journaled: the whole pool
 * for CNR, the survivors for RepCap. */
struct Pending
{
    std::vector<int> cnr, repcap;
};

Pending
all_pending(const core::SearchResult &reference)
{
    Pending all;
    for (std::size_t n = 0; n < reference.candidates.size(); ++n) {
        all.cnr.push_back(static_cast<int>(n));
        if (!reference.candidates[n].rejected_by_cnr)
            all.repcap.push_back(static_cast<int>(n));
    }
    return all;
}

/** The search run with a remote stage equals the search without one,
 * whatever order and thread the remote stores from. */
TEST(DistRemoteStages, RemoteStageMatchesInProcessBitwise)
{
    const core::RunSpec spec = small_spec();
    const core::SearchResult reference = serial_reference(spec);
    const Pending all = all_pending(reference);
    const qml::Benchmark bench =
        qml::make_benchmark(spec.benchmark, spec.seed, spec.scale);
    const dev::Device device = dev::make_device(spec.device);
    for (const int threads : {1, 4}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        const core::ElivagarConfig config =
            core::search_config(spec, bench.spec, threads, "");
        ReversedRemote remote(device, bench.train, config);
        expect_bit_identical(reference,
                             core::elivagar_search(device, bench.train,
                                                   config, &remote));
        EXPECT_EQ(remote.cnr_pending, all.cnr);
        EXPECT_EQ(remote.repcap_pending, all.repcap);
    }
}

/**
 * A cancel tripped mid-stage by the remote unwinds with CancelledError;
 * the rerun on the same journal hands the remote only what the first
 * run did not store, evaluates nothing twice, and ranks bit-identically.
 * cancel_after 3 trips during CNR, 8 during RepCap (the remote stores 6
 * of the 10 CNR values).
 */
TEST(DistRemoteStages, CancelledRemoteStageResumesFromTheJournal)
{
    const core::RunSpec spec = small_spec();
    const core::SearchResult reference = serial_reference(spec);
    const Pending all = all_pending(reference);
    const qml::Benchmark bench =
        qml::make_benchmark(spec.benchmark, spec.seed, spec.scale);
    const dev::Device device = dev::make_device(spec.device);
    for (const int cancel_after : {3, 8}) {
        SCOPED_TRACE("cancel_after=" + std::to_string(cancel_after));
        const std::string journal = fresh_path(
            "cancel_" + std::to_string(cancel_after) + ".journal");
        core::ElivagarConfig config =
            core::search_config(spec, bench.spec, 2, journal);
        ReversedRemote first(device, bench.train, config);
        first.cancel = std::make_shared<CancelToken>();
        first.cancel_after = cancel_after;
        config.hooks.cancel = first.cancel;
        EXPECT_THROW(
            core::elivagar_search(device, bench.train, config, &first),
            CancelledError);
        const Pending done{journaled(journal, "cnr"),
                           journaled(journal, "repcap")};
        EXPECT_LT(done.cnr.size() + done.repcap.size(),
                  all.cnr.size() + all.repcap.size());

        config.hooks.cancel.reset();
        ReversedRemote second(device, bench.train, config);
        const core::SearchResult resumed =
            core::elivagar_search(device, bench.train, config, &second);
        expect_bit_identical(reference, resumed);
        EXPECT_TRUE(resumed.resumed);
        EXPECT_EQ(second.cnr_pending, minus(all.cnr, done.cnr));
        EXPECT_EQ(second.repcap_pending, minus(all.repcap, done.repcap));
        // Every value was evaluated exactly once across both runs.
        EXPECT_EQ(journaled(journal, "cnr"), all.cnr);
        EXPECT_EQ(journaled(journal, "repcap"), all.repcap);
    }
}

/**
 * A dist run and an in-process run write one journal format: each run
 * resumes from the other's journal with nothing re-evaluated (no
 * worker spawned, no cnr/repcap record appended).
 */
TEST(DistDeterminism, DistAndInProcessJournalsInterchange)
{
    const core::RunSpec spec = small_spec();
    const core::SearchResult reference = serial_reference(spec);
    const qml::Benchmark bench =
        qml::make_benchmark(spec.benchmark, spec.seed, spec.scale);
    const dev::Device device = dev::make_device(spec.device);
    auto stage_records = [](const std::string &journal) {
        return journaled(journal, "cnr").size() +
               journaled(journal, "repcap").size();
    };
    const std::size_t complete =
        static_cast<std::size_t>(spec.candidates + reference.survivors);

    // Dist run -> in-process resume.
    const std::string dist_journal = fresh_path("interchange_dist.journal");
    DistConfig dc = dist_config(2);
    dc.checkpoint_path = dist_journal;
    expect_bit_identical(reference, distributed_search(spec, dc).result);
    ASSERT_EQ(stage_records(dist_journal), complete);
    const core::SearchResult in_process = core::elivagar_search(
        device, bench.train,
        core::search_config(spec, bench.spec, 1, dist_journal));
    expect_bit_identical(reference, in_process);
    EXPECT_TRUE(in_process.resumed);
    EXPECT_EQ(stage_records(dist_journal), complete);

    // In-process run -> dist resume.
    const std::string own = fresh_path("interchange_own.journal");
    core::elivagar_search(device, bench.train,
                          core::search_config(spec, bench.spec, 1, own));
    dc.checkpoint_path = own;
    const DistResult resumed = distributed_search(spec, dc);
    expect_bit_identical(reference, resumed.result);
    EXPECT_TRUE(resumed.result.resumed);
    EXPECT_EQ(resumed.stats.workers_spawned, 0);
    EXPECT_EQ(stage_records(own), complete);
}

// --- Worker ------------------------------------------------------------

/** What serve_worker answers to `requests`, one event per line. */
std::vector<WorkerEvent>
serve(const std::vector<std::string> &requests)
{
    int in[2], out[2];
    EXPECT_EQ(::pipe(in), 0);
    EXPECT_EQ(::pipe(out), 0);
    std::string input;
    for (const std::string &request : requests)
        input += request + "\n";
    EXPECT_EQ(::write(in[1], input.data(), input.size()),
              static_cast<ssize_t>(input.size()));
    ::close(in[1]);
    serve_worker(in[0], out[1]);
    ::close(in[0]);
    ::close(out[1]);
    std::string output;
    char buffer[4096];
    for (ssize_t got; (got = ::read(out[0], buffer, sizeof buffer)) > 0;)
        output.append(buffer, static_cast<std::size_t>(got));
    ::close(out[0]);
    std::vector<WorkerEvent> events;
    std::istringstream lines(output);
    for (std::string line; std::getline(lines, line);) {
        WorkerEvent event;
        std::string error;
        EXPECT_TRUE(parse_worker_event(line, event, error)) << line;
        events.push_back(event);
    }
    return events;
}

/** A stage request naming an index twice, or one outside the pool, is
 * answered with an error event naming it and evaluates nothing. */
TEST(DistWorker, RepeatedOrOutOfRangeIndexIsAnErrorEvent)
{
    const core::RunSpec spec = small_spec();
    const qml::Benchmark bench =
        qml::make_benchmark(spec.benchmark, spec.seed, spec.scale);
    const std::string configure = make_configure(
        spec, 2,
        core::config_fingerprint(
            core::search_config(spec, bench.spec, 2, "")),
        0);
    for (const auto &[indices, expected] :
         {std::pair<std::vector<int>, std::string>{
              {3, 3}, "candidate index 3 repeated"},
          std::pair<std::vector<int>, std::string>{
              {99}, "candidate index 99 out of range"}}) {
        SCOPED_TRACE(expected);
        const std::vector<WorkerEvent> events =
            serve({configure, make_stage_request("cnr", indices)});
        ASSERT_FALSE(events.empty());
        EXPECT_EQ(events.front().kind, WorkerEvent::Kind::Ready);
        int errors = 0;
        for (const WorkerEvent &event : events) {
            EXPECT_NE(event.kind, WorkerEvent::Kind::Cnr);
            if (event.kind == WorkerEvent::Kind::Error) {
                ++errors;
                EXPECT_EQ(event.message, expected);
            }
        }
        EXPECT_EQ(errors, 1);
    }
}

double
seconds_since(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** A peer that streams one endless line is cut off at the 1 MiB line
 * cap, not buffered until the record deadline runs out. */
TEST(DistChannel, EndlessLineFailsFastAsTooLong)
{
    std::string error, line;
    const auto channel = WorkerChannel::spawn(
        "/bin/sh", {"-c", "head -c 4194304 /dev/zero; exec sleep 30"},
        error);
    ASSERT_NE(channel, nullptr) << error;
    const auto start = std::chrono::steady_clock::now();
    EXPECT_FALSE(channel->read_line(line, error, 20.0));
    EXPECT_LT(seconds_since(start), 5.0);
    EXPECT_NE(error.find("too long"), std::string::npos) << error;
}

/**
 * The socket transport end to end: an `elivagar_worker --serve` peer
 * attached by endpoint merges to the serial ranking bit for bit, and
 * once idle again it exits on SIGTERM.
 */
TEST(DistAttach, ServeWorkerMatchesSerialAndStopsOnSigterm)
{
    std::string error, line;
    const auto worker = WorkerChannel::spawn(
        ELV_WORKER_BIN, {"--serve", "--port", "0"}, error);
    ASSERT_NE(worker, nullptr) << error;
    ASSERT_TRUE(worker->read_line(line, error, 30.0)) << error;
    obs::JsonValue announce;
    ASSERT_TRUE(obs::json_parse(line, announce, error)) << line;
    ASSERT_NE(announce.get("port"), nullptr) << line;
    const std::uint64_t port = 
        announce.get("port")->as_integer<std::uint64_t>().value_or(0);
    ASSERT_GT(port, 0u) << line;

    const core::RunSpec spec = small_spec();
    const core::SearchResult reference = serial_reference(spec);
    DistConfig dc = dist_config(0);
    dc.attach = {"127.0.0.1:" + std::to_string(port)};
    const DistResult dist = distributed_search(spec, dc);
    expect_bit_identical(reference, dist.result);
    EXPECT_EQ(dist.stats.workers_attached, 1);
    EXPECT_EQ(dist.stats.workers_spawned, 0);
    EXPECT_EQ(dist.stats.records_received,
              static_cast<std::uint64_t>(spec.candidates +
                                         reference.survivors));
    EXPECT_EQ(dist.stats.fallback_records, 0u);

    // Its stdout reaching EOF is the worker exiting.
    ASSERT_EQ(::kill(worker->pid(), SIGTERM), 0);
    const auto start = std::chrono::steady_clock::now();
    EXPECT_FALSE(worker->read_line(line, error, 5.0)) << line;
    EXPECT_LT(seconds_since(start), 5.0);
    EXPECT_NE(error.find("closed"), std::string::npos) << error;
}

// --- Every front end -------------------------------------------------

/** One line per candidate: hexfloat cnr, repcap and score, then the
 * CNR rejection flag — what a ranking is, bit for bit. */
std::vector<std::string>
ranking_of(const core::SearchResult &result)
{
    std::vector<std::string> lines;
    for (const core::CandidateRecord &record : result.candidates)
        lines.push_back(core::double_to_hex(record.cnr) + " " +
                        core::double_to_hex(record.repcap) + " " +
                        core::double_to_hex(record.score) + " " +
                        (record.rejected_by_cnr ? "1" : "0"));
    return lines;
}

/** The same lines read back from a run report (%.17g doubles, which
 * round-trip exactly). */
std::vector<std::string>
ranking_of_report(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    obs::JsonValue doc;
    std::string error;
    EXPECT_TRUE(obs::json_parse(text.str(), doc, error)) << path << error;
    std::vector<std::string> lines;
    const obs::JsonValue *candidates = doc.get("candidates");
    if (!candidates)
        return lines;
    for (const obs::JsonValue &record : candidates->items)
        lines.push_back(
            core::double_to_hex(record.get("cnr")->as_number()) + " " +
            core::double_to_hex(record.get("repcap")->as_number()) + " " +
            core::double_to_hex(record.get("score")->as_number()) + " " +
            (record.get("rejected_by_cnr")->as_bool() ? "1" : "0"));
    return lines;
}

/**
 * The north star: one spec, one ranking, whichever front end runs it —
 * the in-process search of core::search_config(spec), distributed_search
 * over 2 forked workers, a server job, and a server job with
 * workers = 2.
 */
TEST(DistFrontEnds, EveryFrontEndRanksASpecIdentically)
{
    // The server's dist path forks the default worker binary.
    ASSERT_EQ(::setenv("ELV_WORKER_BIN", ELV_WORKER_BIN, 1), 0);
    core::RunSpec spec = small_spec();
    const std::vector<std::string> expected =
        ranking_of(serial_reference(spec));
    ASSERT_EQ(expected.size(), static_cast<std::size_t>(spec.candidates));
    // The workers derive the config themselves: a worker that derived
    // another config would fail the fingerprint handshake and its
    // shard would fall back in-process.
    const DistResult dist = distributed_search(spec, dist_config(2));
    EXPECT_EQ(ranking_of(dist.result), expected);
    EXPECT_EQ(dist.stats.worker_failures, 0);
    EXPECT_EQ(dist.stats.fallback_records, 0u);

    srv::ServerConfig config;
    config.data_dir = fresh_path("front_plain");
    config.thread_budget = 2;
    srv::Server server(config);
    for (const int workers : {0, 2}) {
        SCOPED_TRACE("server job, workers=" + std::to_string(workers));
        spec.workers = workers;
        const srv::SubmitOutcome outcome = server.submit(spec);
        ASSERT_TRUE(outcome.accepted) << outcome.error;
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(120);
        std::optional<srv::JobStatusSnapshot> snap;
        while ((!(snap = server.status(outcome.id)) ||
                !srv::job_state_terminal(snap->state)) &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        ASSERT_TRUE(snap && snap->state == srv::JobState::Completed)
            << (snap ? snap->detail : "no status");
        const std::string job = config.data_dir + "/" + outcome.id;
        EXPECT_EQ(ranking_of_report(job + ".report.json"), expected);
        // A job with workers records its fan-out in result.json:
        // every shard ran on a worker, none fell back in-process.
        std::ifstream in(job + ".result.json");
        std::ostringstream text;
        text << in.rdbuf();
        obs::JsonValue result;
        std::string error;
        ASSERT_TRUE(obs::json_parse(text.str(), result, error)) << error;
        const obs::JsonValue *fanout = result.get("dist");
        ASSERT_EQ(fanout != nullptr, workers > 0) << text.str();
        auto count = [fanout](const char *key) {
            const obs::JsonValue *value = fanout->get(key);
            return value ? value->as_number(-1.0) : -1.0;
        };
        if (fanout) {
            EXPECT_EQ(count("workers_spawned"), 2.0);
            EXPECT_GT(count("records_received"), 0.0);
            EXPECT_EQ(count("fallback_records"), 0.0);
            EXPECT_EQ(count("worker_failures"), 0.0);
        }
    }
}

} // namespace
