/**
 * @file
 * The three durable logs written through common/record_log.hpp (the
 * search journal, the server's jobs.manifest and the dist run
 * manifest), each driven through its real owner: SearchJournal,
 * Server and distributed_search.
 *
 *  - Byte compatibility: a file holding the exact bytes of the previous
 *    writer loads, and what is appended to it is the exact bytes that
 *    writer appends.
 *  - Torn writes: each manifest's final record cut at every byte offset
 *    loads, drops only that record and leaves a file the next append
 *    and load read whole with no warning. A torn header resets.
 *  - Hostile bytes: seeded bit flips, truncations, duplicated lines and
 *    spliced lines either load or throw UsageError.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hpp"
#include "core/checkpoint.hpp"
#include "dist/coordinator.hpp"
#include "server/server.hpp"

namespace {

using namespace elv;

std::string
fresh_dir(const std::string &name)
{
    const std::string path = ::testing::TempDir() + "elv_logs_" + name;
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
    return path;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

void
spit(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

std::size_t
count(const std::string &text, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + 1))
        ++n;
    return n;
}

/** Offset of the line after the one starting at `start`. */
std::size_t
next_line(const std::string &blob, std::size_t start)
{
    return blob.find('\n', start) + 1;
}

/** Offset of the final line of `blob` (which ends in '\n'). */
std::size_t
last_line(const std::string &blob)
{
    return blob.rfind('\n', blob.size() - 2) + 1;
}

// --- Server and dist fixtures -------------------------------------------

/** A job that completes in well under a second. */
srv::JobSpec
quick_spec(std::uint64_t seed)
{
    srv::JobSpec spec;
    spec.benchmark = "moons";
    spec.candidates = 6;
    spec.scale = 0.05;
    spec.seed = seed;
    return spec;
}

srv::ServerConfig
small_config(const std::string &dir)
{
    srv::ServerConfig config;
    config.data_dir = dir;
    config.queue_capacity = 2;
    config.workers = 1;
    config.thread_budget = 2;
    return config;
}

/** Poll `id` until it is terminal (asserting on a 120 s deadline). */
srv::JobState
wait_terminal(srv::Server &server, const std::string &id)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    while (std::chrono::steady_clock::now() < deadline) {
        const auto snap = server.status(id);
        if (snap && srv::job_state_terminal(snap->state))
            return snap->state;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ADD_FAILURE() << "timed out waiting on " << id;
    return srv::JobState::Queued;
}

/** The dist test spec (fingerprint 8b1652ae4c2c6f4d). */
srv::JobSpec
dist_spec()
{
    srv::JobSpec spec;
    spec.benchmark = "moons";
    spec.candidates = 10;
    spec.seed = 11;
    spec.scale = 0.1;
    return spec;
}

dist::DistConfig
dist_config(const std::string &state_dir)
{
    dist::DistConfig dc;
    dc.workers = 2;
    dc.worker_binary = ELV_WORKER_BIN;
    dc.handshake_timeout_sec = 60.0;
    dc.record_timeout_sec = 60.0;
    dc.state_dir = state_dir;
    return dc;
}

/**
 * One distributed_search over `state_dir`, whose search journal is
 * complete, so it resumes without spawning a worker. Returns what it
 * printed to stderr.
 */
std::string
resume_dist(const std::string &state_dir, const std::string &what)
{
    testing::internal::CaptureStderr();
    try {
        const dist::DistResult out =
            dist::distributed_search(dist_spec(), dist_config(state_dir));
        EXPECT_TRUE(out.result.resumed) << what;
        EXPECT_EQ(out.stats.workers_spawned, 0) << what;
    } catch (const UsageError &e) {
        ADD_FAILURE() << what << ": " << e.what();
    }
    return testing::internal::GetCapturedStderr();
}

// --- Byte compatibility -------------------------------------------------

TEST(DurableLog, JournalBytesMatchThePreviousWriter)
{
    const std::string path = fresh_dir("journal_bytes") + "/j.journal";
    const std::string circuit =
        R"(elv-circuit 1\nqubits 2\ngate H 0\ngate CX 0 1\nmeasure\n)";
    const std::string fixture = "elv-search-journal 2\n"
                                "fingerprint 000000000000002a\n"
                                "cand 0 " + circuit + " ~921749d4ebfa112b\n"
                                "cnr 0 0x1p-1 4 0 0 ~14d82fe4e860b323\n";
    spit(path, fixture);

    core::SearchJournal journal(path, 42);
    ASSERT_TRUE(journal.load());
    const core::CheckpointEntry *entry = journal.entry(0);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->circuit_line, circuit);
    EXPECT_TRUE(entry->has_cnr);
    EXPECT_EQ(entry->cnr, 0.5);
    EXPECT_EQ(entry->cnr_executions, 4u);
    EXPECT_FALSE(entry->has_repcap);

    journal.record_repcap(0, 0.25, 8);
    EXPECT_EQ(slurp(path), fixture + "repcap 0 0x1p-2 8 ~baf48574ba6e4428\n");
}

TEST(DurableLog, JobsManifestBytesMatchThePreviousWriter)
{
    const std::string dir = fresh_dir("manifest_bytes");
    auto spec_json = [](int seed) {
        return R"({"benchmark": "moons", "device": "ibm_lagos", )"
               R"("candidates": 6, "seed": )" +
               std::to_string(seed) +
               R"(, "scale": 0.050000000000000003, "priority": 0, )"
               R"("deadline_sec": 0, "workers": 0})";
    };
    const std::string fixture =
        "elv-server-manifest 1\n"
        "job job-1 " + spec_json(21) + " ~160676089f15361a\n"
        "state job-1 running ~15f41f52fd0cf92e\n"
        "state job-1 completed ~6c2d99a9e23d9e48\n";
    spit(dir + "/jobs.manifest", fixture);
    {
        srv::Server server(small_config(dir));
        const auto first = server.status("job-1");
        ASSERT_TRUE(first.has_value());
        EXPECT_EQ(first->state, srv::JobState::Completed);
        EXPECT_EQ(first->spec.seed, 21u);
        const srv::SubmitOutcome outcome = server.submit(quick_spec(22));
        ASSERT_TRUE(outcome.accepted) << outcome.error;
        EXPECT_EQ(outcome.id, "job-2");
        EXPECT_EQ(wait_terminal(server, "job-2"),
                  srv::JobState::Completed);
    }
    EXPECT_EQ(slurp(dir + "/jobs.manifest"),
              fixture + "job job-2 " + spec_json(22) +
                  " ~973d4f9751bd7396\n"
                  "state job-2 running ~579d4d2953d4cd73\n"
                  "state job-2 completed ~ba42b621a5740acd\n");
}

TEST(DurableLog, DistRunManifestBytesMatchThePreviousWriter)
{
    const std::string state_dir = fresh_dir("dist_bytes");
    // A first run leaves a complete search journal behind.
    dist::distributed_search(dist_spec(), dist_config(state_dir));
    const std::string fixture =
        "elv-dist-manifest 1\n"
        "fingerprint 8b1652ae4c2c6f4d\n"
        "run shards 2 workers 2 attached 0 candidates 10 "
        "~19bb79f6a767ce61\n"
        "issue cnr shard 0 5 indices [0..4] -> local worker pid 22670 "
        "~e7a2db4b162d303d\n"
        "issue cnr shard 1 5 indices [5..9] -> local worker pid 22672 "
        "~e68cb786373ba850\n"
        "done cnr shard 0 ~120e6503a03f3df2\n"
        "done cnr shard 1 ~120e6603a03f3fa5\n"
        "issue repcap shard 0 3 indices [2..4] -> local worker pid 22670 "
        "~c58a21521ba88681\n"
        "issue repcap shard 1 2 indices [5..7] -> local worker pid 22672 "
        "~06b599d51d10fa79\n"
        "done repcap shard 1 ~74eeb6507f0d993b\n"
        "done repcap shard 0 ~74eeb5507f0d9788\n"
        "complete best_score 0x1.4803618eab24ap-1 ~2490606fe43280b3\n";
    spit(state_dir + "/dist.manifest", fixture);

    const std::string log = resume_dist(state_dir, "resume");
    EXPECT_EQ(count(log, "dropping"), 0u) << log;
    EXPECT_EQ(slurp(state_dir + "/dist.manifest"),
              fixture +
                  "run shards 2 workers 2 attached 0 candidates 10 "
                  "~19bb79f6a767ce61\n"
                  "complete best_score 0x1.4803618eab24ap-1 "
                  "~2490606fe43280b3\n");
}

// --- Torn writes ----------------------------------------------------------

TEST(DurableLog, JobsManifestTornAtEveryByteOffset)
{
    const std::string dir = fresh_dir("manifest_torn");
    const std::string manifest = dir + "/jobs.manifest";
    {
        srv::Server server(small_config(dir));
        ASSERT_TRUE(server.submit(quick_spec(21)).accepted);
        ASSERT_EQ(wait_terminal(server, "job-1"), srv::JobState::Completed);
    }
    // header, job job-1, state job-1 running, state job-1 completed
    const std::string blob = slurp(manifest);
    const std::size_t last = last_line(blob);
    const std::size_t running = next_line(blob, next_line(blob, 0));
    ASSERT_EQ(blob.compare(running, 20, "state job-1 running "), 0) << blob;
    ASSERT_EQ(next_line(blob, running), last) << blob;

    for (std::size_t cut = last; cut < blob.size(); ++cut) {
        const std::string what = "cut at byte " + std::to_string(cut);
        spit(manifest, blob.substr(0, cut));
        testing::internal::CaptureStderr();
        {
            // Without its completion record the job re-runs, resuming
            // from its journal, and records running + completed again.
            srv::Server server(small_config(dir));
            EXPECT_EQ(wait_terminal(server, "job-1"),
                      srv::JobState::Completed)
                << what;
        }
        std::string log = testing::internal::GetCapturedStderr();
        EXPECT_EQ(count(log, "dropping record torn"), cut > last ? 1u : 0u)
            << what << "\n" << log;
        EXPECT_EQ(slurp(manifest),
                  blob.substr(0, last) + blob.substr(running))
            << what;

        testing::internal::CaptureStderr();
        {
            srv::Server server(small_config(dir));
            const auto snap = server.status("job-1");
            ASSERT_TRUE(snap.has_value()) << what;
            EXPECT_EQ(snap->state, srv::JobState::Completed) << what;
        }
        log = testing::internal::GetCapturedStderr();
        EXPECT_EQ(count(log, "dropping"), 0u) << what << "\n" << log;
    }

    const std::size_t header = next_line(blob, 0);
    for (std::size_t cut = 0; cut < header; ++cut) {
        spit(manifest, blob.substr(0, cut));
        srv::Server server(small_config(dir));
        EXPECT_TRUE(server.jobs().empty()) << "cut at byte " << cut;
        EXPECT_EQ(std::filesystem::file_size(manifest), 0u)
            << "cut at byte " << cut;
    }
}

TEST(DurableLog, DistRunManifestTornAtEveryByteOffset)
{
    const std::string state_dir = fresh_dir("dist_torn");
    const std::string manifest = state_dir + "/dist.manifest";
    dist::distributed_search(dist_spec(), dist_config(state_dir));
    const std::string blob = slurp(manifest);
    const std::size_t header = next_line(blob, next_line(blob, 0));
    const std::string run_line =
        blob.substr(header, next_line(blob, header) - header);
    const std::size_t last = last_line(blob);
    const std::string complete_line = blob.substr(last);
    ASSERT_EQ(run_line.rfind("run shards ", 0), 0u) << blob;
    ASSERT_EQ(complete_line.rfind("complete best_score ", 0), 0u) << blob;

    // A resume appends exactly one "run" and one "complete" record.
    for (std::size_t cut = last; cut < blob.size(); ++cut) {
        const std::string what = "cut at byte " + std::to_string(cut);
        spit(manifest, blob.substr(0, cut));
        std::string log = resume_dist(state_dir, what);
        EXPECT_EQ(count(log, "dropping"), cut > last ? 1u : 0u)
            << what << "\n" << log;
        const std::string once =
            blob.substr(0, last) + run_line + complete_line;
        EXPECT_EQ(slurp(manifest), once) << what;

        log = resume_dist(state_dir, what + ", reloaded");
        EXPECT_EQ(count(log, "dropping"), 0u) << what << "\n" << log;
        EXPECT_EQ(slurp(manifest), once + run_line + complete_line) << what;
    }

    for (std::size_t cut = 0; cut < header; ++cut) {
        const std::string what = "header cut at byte " + std::to_string(cut);
        spit(manifest, blob.substr(0, cut));
        const std::string log = resume_dist(state_dir, what);
        EXPECT_EQ(count(log, "dropping header"), cut > 0 ? 1u : 0u)
            << what << "\n" << log;
        EXPECT_EQ(slurp(manifest),
                  blob.substr(0, header) + run_line + complete_line)
            << what;
    }
}

/** A manifest append that fails on a shard's driver thread surfaces as
 * UsageError from distributed_search, not as std::terminate. */
TEST(DurableLog, FailedDistRunManifestAppendIsFatal)
{
    const std::string state_dir = fresh_dir("dist_unwritable");
    const std::string manifest = state_dir + "/dist.manifest";
    dist::DistConfig dc = dist_config(state_dir);
    std::atomic<bool> swapped{false};
    dc.hooks.progress = [&](const std::string &phase, std::size_t,
                            std::size_t) {
        // Mid-CNR, a directory takes the manifest's place: every
        // later append fails to open it, even for root.
        if (phase == "cnr" && !swapped.exchange(true)) {
            std::filesystem::remove(manifest);
            std::filesystem::create_directory(manifest);
        }
    };
    EXPECT_THROW(dist::distributed_search(dist_spec(), dc), UsageError);
    EXPECT_TRUE(swapped.load());
}

// --- Hostile bytes ----------------------------------------------------------

std::vector<std::string>
split_lines(const std::string &blob)
{
    std::vector<std::string> lines;
    std::istringstream in(blob);
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    return lines;
}

/**
 * 1-3 seeded edits of `blob`: a bit flip, a truncation, a duplicated
 * line, or a line spliced in from `donors`, inserted at a line start.
 */
std::string
mutate(const std::string &blob, const std::vector<std::string> &donors,
       std::mt19937_64 &rng)
{
    std::string out = blob;
    for (std::uint64_t edits = 1 + rng() % 3; edits > 0 && !out.empty();
         --edits) {
        switch (rng() % 4) {
        case 0: {
            const std::size_t at = rng() % out.size();
            out[at] = static_cast<char>(out[at] ^ (1 << (rng() % 8)));
            break;
        }
        case 1:
            out.resize(rng() % out.size());
            break;
        default: {
            const std::vector<std::string> own = split_lines(out);
            const std::vector<std::string> &pool =
                own.empty() || rng() % 2 ? donors : own;
            std::vector<std::size_t> starts{0};
            for (std::size_t at = out.find('\n'); at != std::string::npos;
                 at = out.find('\n', at + 1))
                starts.push_back(at + 1);
            out.insert(starts[rng() % starts.size()],
                       pool[rng() % pool.size()] + "\n");
        }
        }
    }
    return out;
}

/** Loads and refusals over one file's mutants. */
struct Outcomes
{
    int loaded = 0, refused = 0;
};

/** Feed `budget` mutants of the file at `path` to `load`: each must
 *  load or throw UsageError. */
Outcomes
fuzz(const std::string &path, const std::vector<std::string> &donors,
     std::uint64_t seed, int budget, const std::function<void()> &load)
{
    const std::string blob = slurp(path);
    std::mt19937_64 rng(seed);
    Outcomes outcomes;
    const LogLevel level = log_level();
    set_log_level(LogLevel::Silent);
    for (int n = 0; n < budget; ++n) {
        spit(path, mutate(blob, donors, rng));
        try {
            load();
            ++outcomes.loaded;
        } catch (const UsageError &) {
            ++outcomes.refused;
        } catch (const std::exception &e) {
            ADD_FAILURE() << path << " mutant " << n << ": " << e.what();
        }
    }
    set_log_level(level);
    spit(path, blob);
    return outcomes;
}

TEST(DurableLog, SeededMutantsLoadOrThrowUsageError)
{
    // Real files: a server job's journal and manifest, a dist run's
    // manifest (its search journal is complete, so a load is a resume
    // with no worker).
    const std::string dir = fresh_dir("mutants_server");
    {
        srv::Server server(small_config(dir));
        ASSERT_TRUE(server.submit(quick_spec(21)).accepted);
        ASSERT_EQ(wait_terminal(server, "job-1"), srv::JobState::Completed);
    }
    const std::string state_dir = fresh_dir("mutants_dist");
    dist::distributed_search(dist_spec(), dist_config(state_dir));

    const std::string journal = dir + "/job-1.journal";
    const std::string manifest = dir + "/jobs.manifest";
    const std::string dist_manifest = state_dir + "/dist.manifest";
    std::vector<std::string> donors;
    for (const std::string &path : {journal, manifest, dist_manifest})
        for (const std::string &line : split_lines(slurp(path)))
            donors.push_back(line);
    const std::uint64_t fingerprint =
        std::stoull(split_lines(slurp(journal)).at(1).substr(12), nullptr,
                    16);

    constexpr int kBudget = 120;
    const Outcomes journals = fuzz(journal, donors, 1, kBudget, [&] {
        core::SearchJournal(journal, fingerprint).load();
    });
    const Outcomes manifests = fuzz(manifest, donors, 2, kBudget, [&] {
        srv::Server server(small_config(dir));
    });
    const Outcomes dist_manifests =
        fuzz(dist_manifest, donors, 3, kBudget, [&] {
            dist::distributed_search(dist_spec(), dist_config(state_dir));
        });
    // Both outcomes occur, so the mutants reach past the header.
    for (const Outcomes &o : {journals, manifests, dist_manifests}) {
        EXPECT_GT(o.loaded, 0);
        EXPECT_GT(o.refused, 0);
    }
}

} // namespace
