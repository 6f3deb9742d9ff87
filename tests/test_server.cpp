/**
 * @file
 * Search-service tests: the wire-format JSON parser, the job model,
 * protocol request handling, admission control and the overload ladder
 * (explicit rejections with retry-after, priority shedding), per-job
 * deadlines and cancellation (a cancelled job releases its thread
 * quota and leaves no partial results), crash recovery (a job
 * interrupted by a hard stop resumes on the next start to a
 * bit-identical result), and the TCP transport end to end.
 */
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <random>
#include <sstream>
#include <thread>

#include "common/line_io.hpp"
#include "common/logging.hpp"
#include "core/run_spec.hpp"
#include "server/http.hpp"
#include "server/job.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "server/tcp.hpp"

#include "mutate.hpp"

namespace {

using namespace elv;
using namespace elv::srv;

/** Fresh per-test data directory under the gtest temp dir. */
std::string
fresh_dir(const std::string &name)
{
    const std::string path = ::testing::TempDir() + "elv_srv_" + name;
    std::filesystem::remove_all(path);
    return path;
}

/** A job that completes in well under a second. */
core::RunSpec
quick_spec(std::uint64_t seed = 21)
{
    core::RunSpec spec;
    spec.benchmark = "moons";
    spec.candidates = 6;
    spec.scale = 0.05;
    spec.seed = seed;
    return spec;
}

/** A job that runs long enough to observe and interrupt mid-flight. */
core::RunSpec
long_spec(std::uint64_t seed = 33)
{
    core::RunSpec spec = quick_spec(seed);
    spec.candidates = 64;
    spec.scale = 0.1;
    return spec;
}

/** Small-footprint server config over a fresh directory. */
ServerConfig
small_config(const std::string &dir)
{
    ServerConfig config;
    config.data_dir = dir;
    config.queue_capacity = 2;
    config.workers = 1;
    config.thread_budget = 2;
    return config;
}

/** Poll `id` until `done(snapshot)` or the deadline; asserts on it. */
JobStatusSnapshot
wait_for(Server &server, const std::string &id,
         bool (*done)(const JobStatusSnapshot &),
         double timeout_sec = 120.0)
{
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration<double>(timeout_sec);
    while (std::chrono::steady_clock::now() < deadline) {
        const auto snap = server.status(id);
        if (snap && done(*snap))
            return *snap;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ADD_FAILURE() << "timed out waiting on " << id;
    const auto snap = server.status(id);
    return snap ? *snap : JobStatusSnapshot{};
}

bool
is_terminal(const JobStatusSnapshot &snap)
{
    return job_state_terminal(snap.state);
}

/** Field of a one-line JSON document (empty when absent). */
std::string
json_field(const std::string &doc, const std::string &key)
{
    obs::JsonValue value;
    std::string error;
    if (!obs::json_parse(doc, value, error))
        return "";
    const obs::JsonValue *field = value.get(key);
    if (!field)
        return "";
    if (field->is_string())
        return field->text;
    return field->text.empty() ? "" : field->text; // raw number token
}

// --- JSON parser -----------------------------------------------------

TEST(JsonValue, ParsesNestedDocument)
{
    obs::JsonValue value;
    std::string error;
    ASSERT_TRUE(obs::json_parse(
        R"({"a": [1, 2.5, -3e2], "b": {"c": "x\ny"}, "d": true,)"
        R"( "e": null})",
        value, error))
        << error;
    ASSERT_TRUE(value.is_object());
    const obs::JsonValue *a = value.get("a");
    ASSERT_NE(a, nullptr);
    ASSERT_EQ(a->items.size(), 3u);
    EXPECT_EQ(a->items[0].as_integer<int>(), 1);
    EXPECT_DOUBLE_EQ(a->items[1].as_number(), 2.5);
    EXPECT_DOUBLE_EQ(a->items[2].as_number(), -300.0);
    const obs::JsonValue *b = value.get("b");
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->get("c")->as_string(), "x\ny");
    EXPECT_TRUE(value.get("d")->as_bool(false));
    EXPECT_EQ(value.get("e")->kind, obs::JsonValue::Kind::Null);
}

TEST(JsonValue, PreservesLargeSeedsExactly)
{
    obs::JsonValue value;
    std::string error;
    // 2^64 - 1: past the double-precision cliff at 2^53.
    ASSERT_TRUE(obs::json_parse(R"({"seed": 18446744073709551615})", value,
                           error));
    EXPECT_EQ(value.get("seed")->as_integer<std::uint64_t>(),
              18446744073709551615ull);
}

TEST(JsonValue, OutOfRangeIntegersAreNeverCast)
{
    obs::JsonValue value;
    std::string error;
    ASSERT_TRUE(obs::json_parse(
        R"([1e30, -1e30, 1e300, -1e300, 4294967297, -1, 2.5,)"
        R"( 9223372036854775808, 18446744073709551616, 1e3, -0])",
        value, error))
        << error;
    const std::vector<obs::JsonValue> &n = value.items;
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_FALSE(n[i].as_integer<int>().has_value()) << i;
        EXPECT_FALSE(n[i].as_integer<std::int64_t>().has_value()) << i;
        EXPECT_FALSE(n[i].as_integer<std::uint64_t>().has_value()) << i;
    }
    EXPECT_FALSE(n[4].as_integer<int>().has_value());
    EXPECT_EQ(n[4].as_integer<std::int64_t>(), 4294967297LL);
    EXPECT_FALSE(n[5].as_integer<std::uint64_t>().has_value());
    EXPECT_EQ(n[5].as_integer<int>(), -1);
    EXPECT_FALSE(n[6].as_integer<int>().has_value());
    EXPECT_FALSE(n[7].as_integer<std::int64_t>().has_value());
    EXPECT_EQ(n[7].as_integer<std::uint64_t>(), 9223372036854775808ULL);
    EXPECT_FALSE(n[8].as_integer<std::uint64_t>().has_value());
    EXPECT_EQ(n[9].as_integer<int>(), 1000);
    EXPECT_EQ(n[10].as_integer<std::uint64_t>(), 0u);
    // Other kinds are no integers; absent members leave the default.
    ASSERT_TRUE(obs::json_parse(R"({"s": "7", "b": true})", value, error));
    EXPECT_FALSE(value.get("s")->as_integer<int>().has_value());
    int out = 5;
    EXPECT_FALSE(value.read("b", out, error));
    EXPECT_NE(error.find("\"b\""), std::string::npos) << error;
    EXPECT_TRUE(value.read("absent", out, error));
    EXPECT_EQ(out, 5);
}

TEST(JsonValue, RejectsMalformedInput)
{
    obs::JsonValue value;
    std::string error;
    EXPECT_FALSE(obs::json_parse("", value, error));
    EXPECT_FALSE(obs::json_parse("{", value, error));
    EXPECT_FALSE(obs::json_parse(R"({"a": 1} trailing)", value, error));
    EXPECT_FALSE(obs::json_parse(R"({"a": })", value, error));
    EXPECT_FALSE(obs::json_parse(R"("unterminated)", value, error));
    EXPECT_FALSE(obs::json_parse(R"({"a": 1e})", value, error));
    EXPECT_FALSE(obs::json_parse("{\"a\": \"\x01\"}", value, error));
    // Depth bomb: bounded recursion, not a stack overflow.
    std::string bomb;
    for (int i = 0; i < 2000; ++i)
        bomb += '[';
    EXPECT_FALSE(obs::json_parse(bomb, value, error));
}

TEST(JsonValue, DecodesEscapes)
{
    obs::JsonValue value;
    std::string error;
    ASSERT_TRUE(obs::json_parse(R"({"s": "a\t\"\\é€"})", value,
                           error))
        << error;
    EXPECT_EQ(value.get("s")->as_string(),
              "a\t\"\\\xc3\xa9\xe2\x82\xac");
    EXPECT_FALSE(obs::json_parse(R"({"s": "\ud800"})", value, error));
}

// --- Job model -------------------------------------------------------

TEST(JobSpec, JsonRoundTrip)
{
    core::RunSpec spec;
    spec.benchmark = "bank";
    spec.device = "ibm_nairobi";
    spec.candidates = 12;
    spec.seed = 18446744073709551615ull;
    spec.scale = 0.25;
    spec.priority = 3;
    spec.deadline_sec = 4.5;

    obs::JsonValue value;
    std::string error;
    ASSERT_TRUE(obs::json_parse(spec.to_json(), value, error)) << error;
    core::RunSpec parsed;
    ASSERT_TRUE(core::RunSpec::from_json(value, parsed, error)) << error;
    EXPECT_EQ(parsed.benchmark, spec.benchmark);
    EXPECT_EQ(parsed.device, spec.device);
    EXPECT_EQ(parsed.candidates, spec.candidates);
    EXPECT_EQ(parsed.seed, spec.seed);
    EXPECT_DOUBLE_EQ(parsed.scale, spec.scale);
    EXPECT_EQ(parsed.priority, spec.priority);
    EXPECT_DOUBLE_EQ(parsed.deadline_sec, spec.deadline_sec);
}

TEST(JobSpec, FromJsonRejectsBadFields)
{
    obs::JsonValue value;
    std::string error;
    core::RunSpec spec;
    ASSERT_TRUE(obs::json_parse(R"({"candidates": 0})", value, error));
    EXPECT_FALSE(core::RunSpec::from_json(value, spec, error));
    ASSERT_TRUE(obs::json_parse(R"({"scale": 2.0})", value, error));
    EXPECT_FALSE(core::RunSpec::from_json(value, spec, error));
    ASSERT_TRUE(obs::json_parse(R"({"deadline_sec": -1})", value, error));
    EXPECT_FALSE(core::RunSpec::from_json(value, spec, error));
    ASSERT_TRUE(obs::json_parse(R"([1,2])", value, error));
    EXPECT_FALSE(core::RunSpec::from_json(value, spec, error));
    // Integers that do not fit their field are errors: never wrapped
    // (4294967297 is no 1-candidate job) nor cast out of range.
    for (const char *doc :
         {R"({"candidates": 1e30})", R"({"candidates": 4294967297})",
          R"({"candidates": -1e30})", R"({"candidates": 8.5})",
          R"({"candidates": "8"})", R"({"seed": 1e300})",
          R"({"seed": -1})", R"({"seed": 18446744073709551616})",
          R"({"priority": 1e30})", R"({"workers": -2147483649})"}) {
        ASSERT_TRUE(obs::json_parse(doc, value, error)) << doc;
        EXPECT_FALSE(core::RunSpec::from_json(value, spec, error)) << doc;
        EXPECT_NE(error.find("integer"), std::string::npos) << doc;
    }
    // Integral spellings that fit still parse.
    ASSERT_TRUE(obs::json_parse(R"({"candidates": 8e0, "seed": 1e3})",
                                value, error));
    ASSERT_TRUE(core::RunSpec::from_json(value, spec, error)) << error;
    EXPECT_EQ(spec.candidates, 8);
    EXPECT_EQ(spec.seed, 1000u);
    // A string or number field of the wrong JSON kind is an error,
    // never silently replaced by its default.
    for (const char *doc :
         {R"({"benchmark": ["mnist_4"]})", R"({"device": 7})",
          R"({"scale": "0.5"})", R"({"scale": null})",
          R"({"deadline_sec": "10"})"}) {
        ASSERT_TRUE(obs::json_parse(doc, value, error)) << doc;
        error.clear();
        EXPECT_FALSE(core::RunSpec::from_json(value, spec, error)) << doc;
        EXPECT_NE(error.find(" is not a"), std::string::npos) << doc;
    }
    // A deadline past the stated bound, or infinite, is refused rather
    // than cancelling the run at once.
    for (const char *doc :
         {R"({"deadline_sec": 1e10})", R"({"deadline_sec": 1e999})",
          R"({"scale": 1e999})"}) {
        ASSERT_TRUE(obs::json_parse(doc, value, error)) << doc;
        EXPECT_FALSE(core::RunSpec::from_json(value, spec, error)) << doc;
    }
}

TEST(JobSpec, CheckRejectsNanAndUnboundedValues)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_NO_THROW(core::RunSpec{}.check());
    core::RunSpec spec;
    spec.deadline_sec = core::RunSpec::kMaxDeadlineSec;
    EXPECT_NO_THROW(spec.check());
    for (const double deadline : {nan, inf, 1e10, -1.0}) {
        spec.deadline_sec = deadline;
        EXPECT_THROW(spec.check(), UsageError) << deadline;
    }
    spec = core::RunSpec{};
    for (const double scale : {nan, inf, 0.0, 1.5}) {
        spec.scale = scale;
        EXPECT_THROW(spec.check(), UsageError) << scale;
    }
}

TEST(JobSpec, SearchConfigKeepsEmbeddingsWithinTheRotationBudget)
{
    const qml::BenchmarkSpec bench = qml::benchmark_spec("mnist-4");
    const core::ElivagarConfig config =
        core::search_config(core::RunSpec{}, bench, 1, "");
    EXPECT_LE(config.candidate.num_embeds, bench.params);
}

TEST(JobState, NamesRoundTripAndTerminality)
{
    for (const JobState state :
         {JobState::Queued, JobState::Running, JobState::Completed,
          JobState::Failed, JobState::Cancelled, JobState::Rejected}) {
        const auto parsed = job_state_from_name(job_state_name(state));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, state);
    }
    EXPECT_FALSE(job_state_from_name("bogus").has_value());
    EXPECT_FALSE(job_state_terminal(JobState::Queued));
    EXPECT_FALSE(job_state_terminal(JobState::Running));
    EXPECT_TRUE(job_state_terminal(JobState::Completed));
    EXPECT_TRUE(job_state_terminal(JobState::Rejected));
}

// --- Server lifecycle ------------------------------------------------

TEST(Server, RunsAJobToCompletion)
{
    Server server(small_config(fresh_dir("complete")));
    const SubmitOutcome outcome = server.submit(quick_spec());
    ASSERT_TRUE(outcome.accepted) << outcome.error;
    EXPECT_EQ(outcome.id, "job-1");

    const auto snap = wait_for(server, outcome.id, is_terminal);
    EXPECT_EQ(snap.state, JobState::Completed);
    EXPECT_GT(snap.best_score, 0.0);

    const auto result = server.result_json(outcome.id);
    ASSERT_TRUE(result.has_value());
    EXPECT_FALSE(json_field(*result, "best_score_hex").empty());
    EXPECT_FALSE(json_field(*result, "circuit").empty());
    EXPECT_EQ(server.threads_in_use(), 0);
}

TEST(Server, RejectsInvalidSpecs)
{
    Server server(small_config(fresh_dir("invalid")));
    core::RunSpec bad = quick_spec();
    bad.benchmark = "no_such_benchmark";
    EXPECT_FALSE(server.submit(bad).accepted);
    bad = quick_spec();
    bad.device = "no_such_device";
    EXPECT_FALSE(server.submit(bad).accepted);
    bad = quick_spec();
    bad.candidates = 0;
    EXPECT_FALSE(server.submit(bad).accepted);
    // Nothing was admitted or recorded.
    EXPECT_TRUE(server.jobs().empty());
}

TEST(Server, OverloadRejectsExplicitlyWithRetryAfter)
{
    Server server(small_config(fresh_dir("overload")));

    // Flood a capacity-2 queue. The single worker drains one job at a
    // time, so at least the tail of the flood must see "queue full" —
    // an explicit rejection with a retry hint, never a hang or a
    // silent drop.
    std::vector<std::string> accepted;
    SubmitOutcome rejected;
    for (int i = 0; i < 12 && rejected.error.empty(); ++i) {
        const SubmitOutcome outcome =
            server.submit(long_spec(100 + static_cast<unsigned>(i)));
        if (outcome.accepted)
            accepted.push_back(outcome.id);
        else
            rejected = outcome;
    }
    ASSERT_FALSE(rejected.error.empty())
        << "flooding a bounded queue must reject";
    EXPECT_NE(rejected.error.find("queue full"), std::string::npos);
    EXPECT_GT(rejected.retry_after_ms, 0.0);

    // Priority shedding: with the queue full, a higher-priority arrival
    // displaces the lowest-priority queued job, which ends Rejected with
    // an explicit explanation. The worker may dequeue between a "queue
    // full" rejection and the urgent submit, admitting the urgent job
    // into the freed slot without a shed; so re-flood right before each
    // urgent submit, and raise the priority each attempt so earlier
    // urgent jobs stay sheddable.
    bool saw_shed = false;
    for (int attempt = 0; attempt < 8 && !saw_shed; ++attempt) {
        bool full = false;
        for (int i = 0; i < 12 && !full; ++i) {
            const SubmitOutcome outcome = server.submit(
                long_spec(200 + static_cast<unsigned>(12 * attempt + i)));
            if (outcome.accepted)
                accepted.push_back(outcome.id);
            else
                full = outcome.error.find("queue full") !=
                       std::string::npos;
        }
        ASSERT_TRUE(full) << "re-flooding a bounded queue must reject";

        core::RunSpec urgent = quick_spec(7 + static_cast<unsigned>(attempt));
        urgent.priority = 5 + attempt;
        const SubmitOutcome shed_outcome = server.submit(urgent);
        ASSERT_TRUE(shed_outcome.accepted) << shed_outcome.error;
        accepted.push_back(shed_outcome.id);
        for (const auto &snap : server.jobs()) {
            if (snap.state == JobState::Rejected) {
                saw_shed = true;
                EXPECT_NE(snap.detail.find("shed"), std::string::npos);
            }
        }
    }
    EXPECT_TRUE(saw_shed);

    // Bounded memory: the server only ever holds accepted jobs.
    EXPECT_LE(server.jobs().size(), accepted.size());

    // Tear down briskly: cancel everything still pending/running.
    for (const auto &snap : server.jobs())
        if (!job_state_terminal(snap.state))
            server.cancel(snap.id);
    for (const auto &snap : server.jobs())
        wait_for(server, snap.id, is_terminal);

    obs::JsonValue health;
    std::string error;
    ASSERT_TRUE(obs::json_parse(server.health_json(), health, error));
    const obs::JsonValue *jobs = health.get("jobs");
    ASSERT_NE(jobs, nullptr);
    EXPECT_GE(jobs->get("rejected")->as_integer<int>().value_or(0), 1);
    EXPECT_GE(jobs->get("shed")->as_integer<int>().value_or(0), 1);
}

TEST(Server, DeadlineExpiryCancelsNotFails)
{
    Server server(small_config(fresh_dir("deadline")));
    core::RunSpec spec = long_spec();
    spec.deadline_sec = 0.05; // far too tight for 64 candidates
    const SubmitOutcome outcome = server.submit(spec);
    ASSERT_TRUE(outcome.accepted);

    const auto snap = wait_for(server, outcome.id, is_terminal);
    EXPECT_EQ(snap.state, JobState::Cancelled);
    EXPECT_NE(snap.detail.find("deadline"), std::string::npos)
        << snap.detail;
    // The quota went back to the pool and no partial result leaked.
    EXPECT_EQ(server.threads_in_use(), 0);
    EXPECT_FALSE(server.result_json(outcome.id).has_value());
}

TEST(Server, CancelDuringCnrReleasesQuotaAndLeavesNoResult)
{
    const std::string dir = fresh_dir("cancel_cnr");
    Server server(small_config(dir));
    const SubmitOutcome outcome = server.submit(long_spec());
    ASSERT_TRUE(outcome.accepted);

    // Wait until the job is provably inside the CNR phase.
    wait_for(server, outcome.id, [](const JobStatusSnapshot &snap) {
        return snap.phase == "cnr" || job_state_terminal(snap.state);
    });
    ASSERT_FALSE(is_terminal(*server.status(outcome.id)))
        << "job finished before it could be cancelled";
    EXPECT_GT(server.threads_in_use(), 0);
    EXPECT_TRUE(server.cancel(outcome.id));

    const auto snap = wait_for(server, outcome.id, is_terminal);
    EXPECT_EQ(snap.state, JobState::Cancelled); // not Failed
    EXPECT_EQ(server.threads_in_use(), 0);
    // No partial results in the job store.
    EXPECT_FALSE(server.result_json(outcome.id).has_value());
    EXPECT_FALSE(std::filesystem::exists(dir + "/" + outcome.id +
                                         ".result.json"));

    // Cancelling a terminal job is a harmless no-op; unknown ids fail.
    EXPECT_TRUE(server.cancel(outcome.id));
    EXPECT_FALSE(server.cancel("job-999"));
}

TEST(Server, CancelQueuedJobNeverRuns)
{
    Server server(small_config(fresh_dir("cancel_queued")));
    const SubmitOutcome running = server.submit(long_spec());
    ASSERT_TRUE(running.accepted);
    const SubmitOutcome queued = server.submit(quick_spec());
    ASSERT_TRUE(queued.accepted);
    EXPECT_TRUE(server.cancel(queued.id));
    const auto snap = *server.status(queued.id);
    EXPECT_EQ(snap.state, JobState::Cancelled);
    server.cancel(running.id);
    wait_for(server, running.id, is_terminal);
}

TEST(Server, HardStopResumesBitIdentically)
{
    // Reference: the same job on an uninterrupted server.
    core::RunSpec spec = quick_spec(55);
    spec.candidates = 24;
    spec.scale = 0.1;
    std::string clean_hex, clean_circuit;
    {
        Server server(small_config(fresh_dir("crash_clean")));
        const SubmitOutcome outcome = server.submit(spec);
        ASSERT_TRUE(outcome.accepted);
        wait_for(server, outcome.id, is_terminal);
        const auto result = server.result_json(outcome.id);
        ASSERT_TRUE(result.has_value());
        clean_hex = json_field(*result, "best_score_hex");
        clean_circuit = json_field(*result, "circuit");
        ASSERT_FALSE(clean_hex.empty());
    }

    // Crash-equivalent stop mid-run, then recover on the same dir.
    const std::string dir = fresh_dir("crash_resume");
    {
        Server server(small_config(dir));
        const SubmitOutcome outcome = server.submit(spec);
        ASSERT_TRUE(outcome.accepted);
        // Let it make some journaled progress first.
        wait_for(server, outcome.id,
                 [](const JobStatusSnapshot &snap) {
                     return (snap.phase == "cnr" && snap.done >= 2) ||
                            job_state_terminal(snap.state);
                 });
        server.stop_hard();
        // Abandoned, not terminal: the manifest still says running.
        EXPECT_FALSE(job_state_terminal(
            server.status(outcome.id)->state));
    }
    {
        Server server(small_config(dir));
        const auto recovered = server.status("job-1");
        ASSERT_TRUE(recovered.has_value());
        EXPECT_TRUE(recovered->recovered);
        const auto snap = wait_for(server, "job-1", is_terminal);
        EXPECT_EQ(snap.state, JobState::Completed);
        const auto result = server.result_json("job-1");
        ASSERT_TRUE(result.has_value());
        // Bit-identical to the uninterrupted run.
        EXPECT_EQ(json_field(*result, "best_score_hex"), clean_hex);
        EXPECT_EQ(json_field(*result, "circuit"), clean_circuit);
    }
}

TEST(Server, TornManifestTailIsDroppedNotFatal)
{
    const std::string dir = fresh_dir("torn_manifest");
    {
        Server server(small_config(dir));
        const SubmitOutcome outcome = server.submit(quick_spec());
        ASSERT_TRUE(outcome.accepted);
        wait_for(server, outcome.id, is_terminal);
    }
    // Tear the manifest mid-append, as a crash during a write would.
    {
        std::ofstream out(dir + "/jobs.manifest",
                          std::ios::app | std::ios::binary);
        out << "state job-1 canc"; // no checksum, no newline
    }
    Server server(small_config(dir));
    const auto snap = server.status("job-1");
    ASSERT_TRUE(snap.has_value());
    // The torn record was dropped; the last durable state stands.
    EXPECT_EQ(snap->state, JobState::Completed);
}

TEST(Server, DrainLeavesQueuedJobsForNextStart)
{
    const std::string dir = fresh_dir("drain");
    {
        Server server(small_config(dir));
        ASSERT_TRUE(server.submit(long_spec()).accepted);
        ASSERT_TRUE(server.submit(quick_spec(77)).accepted);
        // No budget for the in-flight job: it is cancelled in-process
        // but stays resumable; the queued job is untouched.
        server.drain(0.0);
        EXPECT_TRUE(server.draining());
        EXPECT_FALSE(server.submit(quick_spec()).accepted);
    }
    Server server(small_config(dir));
    EXPECT_EQ(server.jobs().size(), 2u);
    for (const auto &snap : server.jobs()) {
        const auto done = wait_for(server, snap.id, is_terminal);
        EXPECT_EQ(done.state, JobState::Completed) << snap.id;
    }
}

// --- Protocol --------------------------------------------------------

TEST(Protocol, HandlesBadInputWithoutThrowing)
{
    Server server(small_config(fresh_dir("proto_bad")));
    for (const char *line :
         {"not json", "{}", R"({"op": 7})", R"({"op": "nope"})",
          R"({"op": "status"})", R"({"op": "submit"})",
          R"({"op": "cancel", "id": "job-9"})",
          R"({"op": "shutdown"})", R"({"op": "events", "since": 1e300})",
          R"({"op": "events", "limit": -1})",
          R"({"op": "submit", "spec": {"candidates": 1e30}})",
          R"({"op": "submit", "spec": {"candidates": 4294967297}})"}) {
        const RequestOutcome outcome =
            handle_request(server, line, /*allow_shutdown=*/false);
        EXPECT_EQ(outcome.action, RequestAction::Reply);
        obs::JsonValue value;
        std::string error;
        ASSERT_TRUE(obs::json_parse(outcome.response, value, error)) << line;
        EXPECT_FALSE(value.get("ok")->as_bool(true)) << line;
    }
}

/** Handle `line` and check the answer is one JSON object with an "ok"
 *  bool, carrying a non-empty "error" when false. Returns its "ok". */
bool
expect_well_formed_answer(Server &server, const std::string &line,
                          bool allow_shutdown, std::string *error_out)
{
    RequestOutcome outcome;
    EXPECT_NO_THROW(outcome = handle_request(server, line, allow_shutdown))
        << line;
    obs::JsonValue value;
    std::string error;
    EXPECT_TRUE(obs::json_parse(outcome.response, value, error))
        << error << " in " << outcome.response;
    const obs::JsonValue *ok = value.get("ok");
    EXPECT_TRUE(ok && ok->kind == obs::JsonValue::Kind::Bool)
        << outcome.response;
    if (!ok || ok->as_bool(false))
        return ok != nullptr;
    const obs::JsonValue *why = value.get("error");
    EXPECT_TRUE(why && !why->as_string().empty()) << outcome.response;
    if (error_out && why)
        *error_out = why->as_string();
    return false;
}

TEST(Protocol, SeededMutantsAnswerWithoutThrowing)
{
    ServerConfig config;
    config.data_dir = fresh_dir("proto_mutants");
    config.queue_capacity = 1;
    config.workers = 1;
    config.thread_budget = 1;
    Server server(config);
    const std::vector<std::string> lines = {
        make_submit_request(quick_spec()), make_status_request("job-1"),
        make_jobs_request(),               make_cancel_request("job-1"),
        make_result_request("job-1"),      make_watch_request("job-1"),
        make_health_request(),             make_metrics_request(),
        make_events_request(3, 8),         make_shutdown_request(1.5)};

    std::mt19937_64 rng(31);
    bool allow_shutdown = false;
    for (int round = 0; round < 300; ++round) {
        for (const std::string &line : lines) {
            std::string mutant = test::mutate(line, lines, rng);
            std::replace(mutant.begin(), mutant.end(), '\n', ' ');
            expect_well_formed_answer(server, mutant, allow_shutdown,
                                      nullptr);
            allow_shutdown = !allow_shutdown;
        }
    }

    // The parser's depth bound refuses a deeply nested line before it
    // can exhaust the stack.
    std::string why;
    EXPECT_FALSE(expect_well_formed_answer(
        server, std::string(10000, '['), false, &why));
    EXPECT_NE(why.find("nesting too deep"), std::string::npos) << why;
    EXPECT_FALSE(expect_well_formed_answer(
        server, make_status_request(std::string(70 * 1024, 'j')), false,
        nullptr));
}

TEST(Protocol, SubmitStatusResultLifecycle)
{
    Server server(small_config(fresh_dir("proto_life")));
    const RequestOutcome submitted = handle_request(
        server, make_submit_request(quick_spec()), false);
    obs::JsonValue value;
    std::string error;
    ASSERT_TRUE(obs::json_parse(submitted.response, value, error));
    ASSERT_TRUE(value.get("ok")->as_bool(false)) << submitted.response;
    const std::string id = value.get("id")->as_string();
    wait_for(server, id, is_terminal);

    const RequestOutcome status =
        handle_request(server, make_status_request(id), false);
    ASSERT_TRUE(obs::json_parse(status.response, value, error));
    EXPECT_EQ(value.get("job")->get("state")->as_string(), "completed");

    const RequestOutcome result =
        handle_request(server, make_result_request(id), false);
    ASSERT_TRUE(obs::json_parse(result.response, value, error));
    EXPECT_TRUE(value.get("ok")->as_bool(false));
    EXPECT_FALSE(value.get("result")
                     ->get("best_score_hex")
                     ->as_string()
                     .empty());

    const RequestOutcome health =
        handle_request(server, make_health_request(), false);
    ASSERT_TRUE(obs::json_parse(health.response, value, error));
    EXPECT_EQ(value.get("health")->get("state")->as_string(),
              "serving");

    const RequestOutcome metrics =
        handle_request(server, make_metrics_request(), false);
    ASSERT_TRUE(obs::json_parse(metrics.response, value, error));
    EXPECT_TRUE(value.get("ok")->as_bool(false));

    const RequestOutcome shutdown =
        handle_request(server, make_shutdown_request(2.5), true);
    EXPECT_EQ(shutdown.action, RequestAction::Shutdown);
    EXPECT_DOUBLE_EQ(shutdown.drain_sec, 2.5);
}

// --- TCP transport ---------------------------------------------------

TEST(Tcp, EndToEndOverLoopback)
{
    Server server(small_config(fresh_dir("tcp")));
    TcpConfig tcp_config;
    tcp_config.port = 0; // pick a free one
    TcpServer tcp(server, tcp_config);
    ASSERT_GT(tcp.port(), 0);
    std::thread accept_thread([&] { tcp.run(); });

    std::string error;
    Client client("127.0.0.1", tcp.port(), error);
    ASSERT_TRUE(client.connected()) << error;

    // Malformed line: explicit error, connection stays usable.
    std::string response;
    ASSERT_TRUE(client.request("this is not json", response, error));
    obs::JsonValue value;
    ASSERT_TRUE(obs::json_parse(response, value, error));
    EXPECT_FALSE(value.get("ok")->as_bool(true));

    ASSERT_TRUE(client.request(make_submit_request(quick_spec()),
                               response, error));
    ASSERT_TRUE(obs::json_parse(response, value, error));
    ASSERT_TRUE(value.get("ok")->as_bool(false)) << response;
    const std::string id = value.get("id")->as_string();

    // Watch streams status lines until the job is terminal.
    ASSERT_TRUE(client.send_line(make_watch_request(id), error));
    ASSERT_TRUE(client.read_line(response, error, 60.0)); // ack
    bool saw_terminal = false;
    while (!saw_terminal &&
           client.read_line(response, error, 60.0)) {
        ASSERT_TRUE(obs::json_parse(response, value, error)) << response;
        const obs::JsonValue *state = value.get("state");
        ASSERT_NE(state, nullptr);
        const auto parsed = job_state_from_name(state->as_string());
        ASSERT_TRUE(parsed.has_value());
        saw_terminal = job_state_terminal(*parsed);
    }
    EXPECT_TRUE(saw_terminal) << error;

    // Shutdown is rejected unless the transport allows it.
    ASSERT_TRUE(
        client.request(make_shutdown_request(1.0), response, error));
    ASSERT_TRUE(obs::json_parse(response, value, error));
    EXPECT_FALSE(value.get("ok")->as_bool(true));

    ASSERT_TRUE(
        client.request(make_health_request(), response, error));
    ASSERT_TRUE(obs::json_parse(response, value, error));
    EXPECT_TRUE(value.get("ok")->as_bool(false));

    tcp.stop();
    accept_thread.join();
}

TEST(Tcp, StopUnblocksIdleConnections)
{
    // Regression: stop() used to only set a flag, so a connection
    // thread blocked in recv() on an idle (or watch-finished) client
    // kept the destructor's join waiting forever after SIGTERM.
    Server server(small_config(fresh_dir("tcp_idle")));
    TcpConfig tcp_config;
    auto tcp = std::make_unique<TcpServer>(server, tcp_config);
    std::thread accept_thread([&] { tcp->run(); });

    std::string error, response;
    Client idle("127.0.0.1", tcp->port(), error);
    ASSERT_TRUE(idle.connected()) << error;
    // One full exchange guarantees the connection thread exists and is
    // back in recv() waiting for a next line that never comes.
    ASSERT_TRUE(idle.request(make_health_request(), response, error));

    // With the client still connected and silent, stop + destroy must
    // finish promptly: stop() half-closes the socket so the blocked
    // recv() returns instead of pinning the join.
    const auto start = std::chrono::steady_clock::now();
    tcp->stop();
    accept_thread.join();
    tcp.reset();
    const double took =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_LT(took, 10.0);
}

TEST(Tcp, ClientReadTimeoutCoversPartialLines)
{
    // Regression: read_line applied its timeout only to the first
    // poll(); a peer that sent half a line and then stalled hung the
    // client in blocking recv() past the requested deadline.
    const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(listen_fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr *>(&addr),
                     sizeof addr),
              0);
    ASSERT_EQ(::listen(listen_fd, 1), 0);
    socklen_t len = sizeof addr;
    ASSERT_EQ(::getsockname(listen_fd,
                            reinterpret_cast<sockaddr *>(&addr), &len),
              0);

    std::string error;
    Client client("127.0.0.1", ntohs(addr.sin_port), error);
    ASSERT_TRUE(client.connected()) << error;
    const int conn_fd = ::accept(listen_fd, nullptr, nullptr);
    ASSERT_GE(conn_fd, 0);
    // Half a line — no terminator — then silence.
    ASSERT_EQ(::send(conn_fd, "{\"ok\":tr", 8, 0), 8);

    std::string line;
    const auto start = std::chrono::steady_clock::now();
    EXPECT_FALSE(client.read_line(line, error, 0.5));
    const double took =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_GE(took, 0.4);
    EXPECT_LT(took, 10.0);
    EXPECT_NE(error.find("timed out"), std::string::npos) << error;
    ::close(conn_fd);
    ::close(listen_fd);
}

// --- Telemetry plane -------------------------------------------------

TEST(Telemetry, EventsVerbReportsJobLifecycle)
{
    Server server(small_config(fresh_dir("tele_events")));
    const SubmitOutcome outcome = server.submit(quick_spec());
    ASSERT_TRUE(outcome.accepted) << outcome.error;
    wait_for(server, outcome.id, is_terminal);

    const RequestOutcome reply =
        handle_request(server, make_events_request(0, 64), false);
    obs::JsonValue value;
    std::string error;
    ASSERT_TRUE(obs::json_parse(reply.response, value, error))
        << reply.response;
    ASSERT_TRUE(value.get("ok")->as_bool(false));
    const obs::JsonValue *doc = value.get("events");
    ASSERT_NE(doc, nullptr);
    const std::uint64_t last_seq = 
        doc->get("last_seq")->as_integer<std::uint64_t>().value_or(0);
    EXPECT_GE(last_seq, 3u); // admitted, started, finished

    std::vector<std::string> kinds;
    for (const obs::JsonValue &event : doc->get("events")->items) {
        kinds.push_back(event.get("kind")->as_string());
        if (const obs::JsonValue *id = event.get("id")) {
            EXPECT_EQ(id->as_string(), outcome.id);
        }
    }
    const auto index_of = [&](const char *kind) {
        for (std::size_t i = 0; i < kinds.size(); ++i)
            if (kinds[i] == kind)
                return static_cast<std::ptrdiff_t>(i);
        return static_cast<std::ptrdiff_t>(-1);
    };
    const std::ptrdiff_t admitted = index_of("job.admitted");
    const std::ptrdiff_t started = index_of("job.started");
    const std::ptrdiff_t finished = index_of("job.finished");
    EXPECT_GE(admitted, 0);
    EXPECT_LT(admitted, started);
    EXPECT_LT(started, finished);

    // Cursor paging: everything before last_seq is filtered out.
    const RequestOutcome tail = handle_request(
        server, make_events_request(last_seq, 64), false);
    ASSERT_TRUE(obs::json_parse(tail.response, value, error));
    EXPECT_TRUE(value.get("events")->get("events")->items.empty());
}

TEST(Telemetry, TraceArtifactIsWrittenAndLinked)
{
    Server server(small_config(fresh_dir("tele_trace")));
    const SubmitOutcome outcome = server.submit(quick_spec());
    ASSERT_TRUE(outcome.accepted) << outcome.error;
    const auto snap = wait_for(server, outcome.id, is_terminal);
    ASSERT_EQ(snap.state, JobState::Completed);

    // The job's trace artifact exists and is a Chrome trace with the
    // queue-wait and run spans.
    ASSERT_FALSE(snap.trace_path.empty());
    ASSERT_TRUE(std::filesystem::exists(snap.trace_path))
        << snap.trace_path;
    std::ifstream in(snap.trace_path, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string trace = buf.str();
    EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(trace.find("queue.wait"), std::string::npos);
    EXPECT_NE(trace.find("job.run"), std::string::npos);

    // Both the status line and the result document link it.
    EXPECT_NE(status_json(snap).find("\"trace\""), std::string::npos);
    const auto result = server.result_json(outcome.id);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(json_field(*result, "trace"), snap.trace_path);
}

TEST(Telemetry, HttpHandleServesMetricsHealthzAnd404)
{
    ServerConfig config = small_config(fresh_dir("tele_http"));
    config.metrics = true;
    Server server(config);
    const SubmitOutcome outcome = server.submit(quick_spec());
    ASSERT_TRUE(outcome.accepted) << outcome.error;
    wait_for(server, outcome.id, is_terminal);

    HttpConfig http_config; // port 0: ephemeral
    MetricsHttpServer http(server, http_config);
    EXPECT_GT(http.port(), 0);

    std::string content_type;
    const std::string metrics = http.handle("/metrics", content_type);
    EXPECT_NE(content_type.find("text/plain"), std::string::npos);
    EXPECT_NE(metrics.find("elv_server_queue_depth"),
              std::string::npos);
    EXPECT_NE(metrics.find("elv_server_job_seconds_bucket"),
              std::string::npos);
    EXPECT_NE(metrics.find("elv_server_job_seconds_q50"),
              std::string::npos);

    const std::string health = http.handle("/healthz", content_type);
    EXPECT_EQ(content_type, "application/json");
    EXPECT_NE(health.find("serving"), std::string::npos);

    std::string none_type = "sentinel";
    EXPECT_TRUE(http.handle("/no-such", none_type).empty());
    EXPECT_TRUE(none_type.empty());
}

/** Send `request` to the metrics port; everything the server writes
 * back before it closes (empty when it drops the connection). With
 * `half_close` the write side is shut after the request, so a head
 * without its blank line ends at EOF instead of the server's deadline. */
std::string
http_exchange(std::uint16_t port, const std::string &request,
              bool half_close = false)
{
    std::string error;
    const int fd = connect_tcp("127.0.0.1", port, error);
    EXPECT_GE(fd, 0) << error;
    if (fd < 0)
        return "";
    const timeval limit{10, 0}; // a server that never answers fails
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &limit, sizeof limit);
    EXPECT_TRUE(write_all(fd, request, error)) << error;
    if (half_close)
        ::shutdown(fd, SHUT_WR);
    std::string response;
    char chunk[4096];
    ssize_t n = 0;
    // n < 0 also ends it: closing on unread request bytes resets.
    while ((n = ::recv(fd, chunk, sizeof chunk, 0)) > 0)
        response.append(chunk, static_cast<std::size_t>(n));
    ::close(fd);
    return response;
}

TEST(Telemetry, HttpWireAnswers200And405And404)
{
    ServerConfig config = small_config(fresh_dir("tele_http_wire"));
    config.metrics = true;
    Server server(config);
    MetricsHttpServer http(server, HttpConfig{});

    const std::string ok = http_exchange(
        http.port(), "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
    EXPECT_EQ(ok.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << ok;
    EXPECT_NE(ok.find("Content-Type: text/plain"), std::string::npos);

    const std::string post = http_exchange(
        http.port(), "POST /metrics HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
    EXPECT_EQ(post.rfind("HTTP/1.0 405 Method Not Allowed\r\n", 0), 0u)
        << post;

    // Bare-LF heads are accepted too.
    const std::string missing =
        http_exchange(http.port(), "GET /no-such HTTP/1.0\n\n");
    EXPECT_EQ(missing.rfind("HTTP/1.0 404 Not Found\r\n", 0), 0u)
        << missing;
}

TEST(Telemetry, HttpHeadOver8KiBIsDroppedWithoutResponse)
{
    Server server(small_config(fresh_dir("tele_http_big")));
    MetricsHttpServer http(server, HttpConfig{});
    std::string head = "GET /metrics HTTP/1.1\r\n";
    while (head.size() <= 9000)
        head += "X-Pad: " + std::string(100, 'a') + "\r\n";
    EXPECT_EQ(http_exchange(http.port(), head), "");

    // The port keeps serving after dropping the oversized head.
    const std::string ok =
        http_exchange(http.port(), "GET /healthz HTTP/1.0\r\n\r\n");
    EXPECT_EQ(ok.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << ok;
}

TEST(Telemetry, SeededHttpHeadMutantsAreAnsweredOrClosed)
{
    Server server(small_config(fresh_dir("tele_http_mutants")));
    MetricsHttpServer http(server, HttpConfig{});
    const std::vector<std::string> heads = {
        "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n",
        "GET /healthz HTTP/1.0\r\n\r\n",
        "POST /metrics HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
        "GET /no-such HTTP/1.0\n\n",
        "GET /metrics HTTP/1.1\r\nAccept: text/plain\r\n"
        "User-Agent: probe\r\n\r\n"};

    std::mt19937_64 rng(37);
    int answered = 0, closed = 0;
    for (int round = 0; round < 60; ++round) {
        for (const std::string &head : heads) {
            const std::string mutant = test::mutate(head, heads, rng);
            const std::string response =
                http_exchange(http.port(), mutant, /*half_close=*/true);
            if (response.empty()) {
                ++closed;
                continue;
            }
            ++answered;
            const bool known_status =
                response.rfind("HTTP/1.0 200 OK\r\n", 0) == 0 ||
                response.rfind("HTTP/1.0 404 Not Found\r\n", 0) == 0 ||
                response.rfind("HTTP/1.0 405 Method Not Allowed\r\n", 0) ==
                    0;
            EXPECT_TRUE(known_status) << mutant << "\n->\n" << response;
        }
    }
    EXPECT_GT(answered, 0);
    EXPECT_GT(closed, 0);

    const std::string ok =
        http_exchange(http.port(), "GET /healthz HTTP/1.0\r\n\r\n");
    EXPECT_EQ(ok.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << ok;
}

} // namespace
