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
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "common/logging.hpp"
#include "server/http.hpp"
#include "server/job.hpp"
#include "server/json_value.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "server/tcp.hpp"

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
JobSpec
quick_spec(std::uint64_t seed = 21)
{
    JobSpec spec;
    spec.benchmark = "moons";
    spec.candidates = 6;
    spec.scale = 0.05;
    spec.seed = seed;
    return spec;
}

/** A job that runs long enough to observe and interrupt mid-flight. */
JobSpec
long_spec(std::uint64_t seed = 33)
{
    JobSpec spec = quick_spec(seed);
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
    JsonValue value;
    std::string error;
    if (!json_parse(doc, value, error))
        return "";
    const JsonValue *field = value.get(key);
    if (!field)
        return "";
    if (field->is_string())
        return field->text;
    return field->text.empty() ? "" : field->text; // raw number token
}

// --- JSON parser -----------------------------------------------------

TEST(JsonValue, ParsesNestedDocument)
{
    JsonValue value;
    std::string error;
    ASSERT_TRUE(json_parse(
        R"({"a": [1, 2.5, -3e2], "b": {"c": "x\ny"}, "d": true,)"
        R"( "e": null})",
        value, error))
        << error;
    ASSERT_TRUE(value.is_object());
    const JsonValue *a = value.get("a");
    ASSERT_NE(a, nullptr);
    ASSERT_EQ(a->items.size(), 3u);
    EXPECT_EQ(a->items[0].as_int(), 1);
    EXPECT_DOUBLE_EQ(a->items[1].as_number(), 2.5);
    EXPECT_DOUBLE_EQ(a->items[2].as_number(), -300.0);
    const JsonValue *b = value.get("b");
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->get("c")->as_string(), "x\ny");
    EXPECT_TRUE(value.get("d")->as_bool(false));
    EXPECT_EQ(value.get("e")->kind, JsonValue::Kind::Null);
}

TEST(JsonValue, PreservesLargeSeedsExactly)
{
    JsonValue value;
    std::string error;
    // 2^64 - 1: past the double-precision cliff at 2^53.
    ASSERT_TRUE(json_parse(R"({"seed": 18446744073709551615})", value,
                           error));
    EXPECT_EQ(value.get("seed")->as_uint(0),
              18446744073709551615ull);
}

TEST(JsonValue, RejectsMalformedInput)
{
    JsonValue value;
    std::string error;
    EXPECT_FALSE(json_parse("", value, error));
    EXPECT_FALSE(json_parse("{", value, error));
    EXPECT_FALSE(json_parse(R"({"a": 1} trailing)", value, error));
    EXPECT_FALSE(json_parse(R"({"a": })", value, error));
    EXPECT_FALSE(json_parse(R"("unterminated)", value, error));
    EXPECT_FALSE(json_parse(R"({"a": 1e})", value, error));
    EXPECT_FALSE(json_parse("{\"a\": \"\x01\"}", value, error));
    // Depth bomb: bounded recursion, not a stack overflow.
    std::string bomb;
    for (int i = 0; i < 2000; ++i)
        bomb += '[';
    EXPECT_FALSE(json_parse(bomb, value, error));
}

TEST(JsonValue, DecodesEscapes)
{
    JsonValue value;
    std::string error;
    ASSERT_TRUE(json_parse(R"({"s": "a\t\"\\é€"})", value,
                           error))
        << error;
    EXPECT_EQ(value.get("s")->as_string(),
              "a\t\"\\\xc3\xa9\xe2\x82\xac");
    EXPECT_FALSE(json_parse(R"({"s": "\ud800"})", value, error));
}

// --- Job model -------------------------------------------------------

TEST(JobSpec, JsonRoundTrip)
{
    JobSpec spec;
    spec.benchmark = "bank";
    spec.device = "ibm_nairobi";
    spec.candidates = 12;
    spec.seed = 18446744073709551615ull;
    spec.scale = 0.25;
    spec.priority = 3;
    spec.deadline_sec = 4.5;

    JsonValue value;
    std::string error;
    ASSERT_TRUE(json_parse(spec.to_json(), value, error)) << error;
    JobSpec parsed;
    ASSERT_TRUE(JobSpec::from_json(value, parsed, error)) << error;
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
    JsonValue value;
    std::string error;
    JobSpec spec;
    ASSERT_TRUE(json_parse(R"({"candidates": 0})", value, error));
    EXPECT_FALSE(JobSpec::from_json(value, spec, error));
    ASSERT_TRUE(json_parse(R"({"scale": 2.0})", value, error));
    EXPECT_FALSE(JobSpec::from_json(value, spec, error));
    ASSERT_TRUE(json_parse(R"({"deadline_sec": -1})", value, error));
    EXPECT_FALSE(JobSpec::from_json(value, spec, error));
    ASSERT_TRUE(json_parse(R"([1,2])", value, error));
    EXPECT_FALSE(JobSpec::from_json(value, spec, error));
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
    JobSpec bad = quick_spec();
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

        JobSpec urgent = quick_spec(7 + static_cast<unsigned>(attempt));
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

    JsonValue health;
    std::string error;
    ASSERT_TRUE(json_parse(server.health_json(), health, error));
    const JsonValue *jobs = health.get("jobs");
    ASSERT_NE(jobs, nullptr);
    EXPECT_GE(jobs->get("rejected")->as_int(0), 1);
    EXPECT_GE(jobs->get("shed")->as_int(0), 1);
}

TEST(Server, DeadlineExpiryCancelsNotFails)
{
    Server server(small_config(fresh_dir("deadline")));
    JobSpec spec = long_spec();
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
    JobSpec spec = quick_spec(55);
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
          R"({"op": "shutdown"})"}) {
        const RequestOutcome outcome =
            handle_request(server, line, /*allow_shutdown=*/false);
        EXPECT_EQ(outcome.action, RequestAction::Reply);
        JsonValue value;
        std::string error;
        ASSERT_TRUE(json_parse(outcome.response, value, error)) << line;
        EXPECT_FALSE(value.get("ok")->as_bool(true)) << line;
    }
}

TEST(Protocol, SubmitStatusResultLifecycle)
{
    Server server(small_config(fresh_dir("proto_life")));
    const RequestOutcome submitted = handle_request(
        server, make_submit_request(quick_spec()), false);
    JsonValue value;
    std::string error;
    ASSERT_TRUE(json_parse(submitted.response, value, error));
    ASSERT_TRUE(value.get("ok")->as_bool(false)) << submitted.response;
    const std::string id = value.get("id")->as_string();
    wait_for(server, id, is_terminal);

    const RequestOutcome status =
        handle_request(server, make_status_request(id), false);
    ASSERT_TRUE(json_parse(status.response, value, error));
    EXPECT_EQ(value.get("job")->get("state")->as_string(), "completed");

    const RequestOutcome result =
        handle_request(server, make_result_request(id), false);
    ASSERT_TRUE(json_parse(result.response, value, error));
    EXPECT_TRUE(value.get("ok")->as_bool(false));
    EXPECT_FALSE(value.get("result")
                     ->get("best_score_hex")
                     ->as_string()
                     .empty());

    const RequestOutcome health =
        handle_request(server, make_health_request(), false);
    ASSERT_TRUE(json_parse(health.response, value, error));
    EXPECT_EQ(value.get("health")->get("state")->as_string(),
              "serving");

    const RequestOutcome metrics =
        handle_request(server, make_metrics_request(), false);
    ASSERT_TRUE(json_parse(metrics.response, value, error));
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
    JsonValue value;
    ASSERT_TRUE(json_parse(response, value, error));
    EXPECT_FALSE(value.get("ok")->as_bool(true));

    ASSERT_TRUE(client.request(make_submit_request(quick_spec()),
                               response, error));
    ASSERT_TRUE(json_parse(response, value, error));
    ASSERT_TRUE(value.get("ok")->as_bool(false)) << response;
    const std::string id = value.get("id")->as_string();

    // Watch streams status lines until the job is terminal.
    ASSERT_TRUE(client.send_line(make_watch_request(id), error));
    ASSERT_TRUE(client.read_line(response, error, 60.0)); // ack
    bool saw_terminal = false;
    while (!saw_terminal &&
           client.read_line(response, error, 60.0)) {
        ASSERT_TRUE(json_parse(response, value, error)) << response;
        const JsonValue *state = value.get("state");
        ASSERT_NE(state, nullptr);
        const auto parsed = job_state_from_name(state->as_string());
        ASSERT_TRUE(parsed.has_value());
        saw_terminal = job_state_terminal(*parsed);
    }
    EXPECT_TRUE(saw_terminal) << error;

    // Shutdown is rejected unless the transport allows it.
    ASSERT_TRUE(
        client.request(make_shutdown_request(1.0), response, error));
    ASSERT_TRUE(json_parse(response, value, error));
    EXPECT_FALSE(value.get("ok")->as_bool(true));

    ASSERT_TRUE(
        client.request(make_health_request(), response, error));
    ASSERT_TRUE(json_parse(response, value, error));
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
    JsonValue value;
    std::string error;
    ASSERT_TRUE(json_parse(reply.response, value, error))
        << reply.response;
    ASSERT_TRUE(value.get("ok")->as_bool(false));
    const JsonValue *doc = value.get("events");
    ASSERT_NE(doc, nullptr);
    const std::uint64_t last_seq = doc->get("last_seq")->as_uint(0);
    EXPECT_GE(last_seq, 3u); // admitted, started, finished

    std::vector<std::string> kinds;
    for (const JsonValue &event : doc->get("events")->items) {
        kinds.push_back(event.get("kind")->as_string());
        if (const JsonValue *id = event.get("id")) {
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
    ASSERT_TRUE(json_parse(tail.response, value, error));
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
#ifndef ELV_OBS_DISABLED
    // Series content needs a live registry; the -DELV_OBS=OFF build
    // still serves the endpoint (empty scrape), checked above.
    EXPECT_NE(metrics.find("elv_server_queue_depth"),
              std::string::npos);
    EXPECT_NE(metrics.find("elv_server_job_seconds_bucket"),
              std::string::npos);
    EXPECT_NE(metrics.find("elv_server_job_seconds_q50"),
              std::string::npos);
#endif

    const std::string health = http.handle("/healthz", content_type);
    EXPECT_EQ(content_type, "application/json");
    EXPECT_NE(health.find("serving"), std::string::npos);

    std::string none_type = "sentinel";
    EXPECT_TRUE(http.handle("/no-such", none_type).empty());
    EXPECT_TRUE(none_type.empty());
}

} // namespace
