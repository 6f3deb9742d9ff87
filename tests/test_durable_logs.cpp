/**
 * @file
 * The durable logs written through common/record_log.hpp (the search
 * journal, in-process and distributed, and the server's jobs.manifest),
 * each driven through its real owner: SearchJournal,
 * distributed_search and Server.
 *
 *  - Byte compatibility: a file holding the exact bytes of the previous
 *    writer loads, and what is appended to it is the exact bytes that
 *    writer appends.
 *  - Torn writes: the manifest's final record cut at every byte offset
 *    loads, drops only that record and leaves a file the next append
 *    and load read whole with no warning. A torn header resets.
 *  - Hostile bytes: seeded bit flips, truncations, duplicated lines and
 *    spliced lines either load or throw UsageError. The same mutator
 *    feeds the run spec's JSON codec, which every manifest job record
 *    and dist configure line goes through.
 *  - Search resume: a search stopped by its cancel token, a journal
 *    torn at every byte of its final record and a completed journal
 *    all resume to the uninterrupted ranking; a journal from another
 *    configuration is refused, naming the likely culprit; fingerprints
 *    match earlier builds'.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "circuit/serialize.hpp"
#include "common/cancel.hpp"
#include "common/logging.hpp"
#include "common/record_log.hpp"
#include "core/checkpoint.hpp"
#include "core/run_spec.hpp"
#include "core/search.hpp"
#include "device/device.hpp"
#include "dist/coordinator.hpp"
#include "obs/json.hpp"
#include "qml/synthetic.hpp"
#include "server/server.hpp"

#include "mutate.hpp"

namespace {

using namespace elv;
using elv::test::mutate;
using elv::test::split_lines;

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
core::RunSpec
quick_spec(std::uint64_t seed)
{
    core::RunSpec spec;
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
core::RunSpec
dist_spec()
{
    core::RunSpec spec;
    spec.benchmark = "moons";
    spec.candidates = 10;
    spec.seed = 11;
    spec.scale = 0.1;
    return spec;
}

dist::DistConfig
dist_config(const std::string &journal)
{
    dist::DistConfig dc;
    dc.workers = 2;
    dc.worker_binary = ELV_WORKER_BIN;
    dc.handshake_timeout_sec = 60.0;
    dc.record_timeout_sec = 60.0;
    dc.checkpoint_path = journal;
    return dc;
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

/** A journal append that fails on a shard's driver thread (where a
 * worker's record is stored) surfaces as UsageError from
 * distributed_search, not as std::terminate. */
TEST(DurableLog, FailedDistJournalAppendIsFatal)
{
    const std::string journal =
        fresh_dir("dist_unwritable") + "/search.journal";
    dist::DistConfig dc = dist_config(journal);
    std::atomic<bool> swapped{false};
    dc.hooks.progress = [&](const std::string &phase, std::size_t,
                            std::size_t) {
        // As CNR starts, a directory takes the journal's place: every
        // later append fails to open it, even for root.
        if (phase == "cnr" && !swapped.exchange(true)) {
            std::filesystem::remove(journal);
            std::filesystem::create_directory(journal);
        }
    };
    try {
        dist::distributed_search(dist_spec(), dc);
        ADD_FAILURE() << "expected the failed append to be fatal";
    } catch (const UsageError &e) {
        EXPECT_NE(std::string(e.what()).find(journal), std::string::npos)
            << e.what();
    }
    EXPECT_TRUE(swapped.load());
}

// --- Hostile bytes ----------------------------------------------------------

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
    // Real files: a server job's journal and manifest, and a dist run's
    // journal, loaded by the dist run that wrote it (a load that drops
    // records resumes on workers).
    const std::string dir = fresh_dir("mutants_server");
    {
        srv::Server server(small_config(dir));
        ASSERT_TRUE(server.submit(quick_spec(21)).accepted);
        ASSERT_EQ(wait_terminal(server, "job-1"), srv::JobState::Completed);
    }
    const std::string dist_journal =
        fresh_dir("mutants_dist") + "/search.journal";
    dist::distributed_search(dist_spec(), dist_config(dist_journal));

    const std::string journal = dir + "/job-1.journal";
    const std::string manifest = dir + "/jobs.manifest";
    std::vector<std::string> donors;
    for (const std::string &path : {journal, manifest, dist_journal})
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
    const Outcomes dist_journals =
        fuzz(dist_journal, donors, 3, kBudget, [&] {
            dist::distributed_search(dist_spec(),
                                     dist_config(dist_journal));
        });
    // Both outcomes occur, so the mutants reach past the header.
    for (const Outcomes &o : {journals, manifests, dist_journals}) {
        EXPECT_GT(o.loaded, 0);
        EXPECT_GT(o.refused, 0);
    }
}

/** `json` with one member per line, so line splices add and repeat
 * members. */
std::string
one_member_per_line(std::string json)
{
    for (std::size_t at = json.find(", \""); at != std::string::npos;
         at = json.find(", \"", at))
        json.replace(at, 2, ",\n");
    return json;
}

TEST(DurableLog, SeededRunSpecMutantsParseOrAreRejected)
{
    core::RunSpec spec = dist_spec();
    spec.deadline_sec = 4.5;
    spec.workers = 2;
    const std::string blob = one_member_per_line(spec.to_json()) + "\n";
    // Donor members: out-of-range values and fields of the wrong kind.
    std::vector<std::string> donors = split_lines(
        one_member_per_line(core::RunSpec{}.to_json()));
    for (const char *member :
         {R"("benchmark": ["mnist_4"],)", R"("scale": "0.5",)",
          R"("deadline_sec": 1e10,)", R"("deadline_sec": 1e999,)",
          R"("candidates": 5000,)", R"("seed": -1,)",
          R"("prune_dead": 1,)", R"("workers": null,)"})
        donors.emplace_back(member);

    std::mt19937_64 rng(4);
    Outcomes outcomes;
    for (int n = 0; n < 4000; ++n) {
        const std::string mutant = mutate(blob, donors, rng);
        obs::JsonValue value;
        std::string error;
        core::RunSpec parsed;
        if (obs::json_parse(mutant, value, error) &&
            core::RunSpec::from_json(value, parsed, error)) {
            EXPECT_NO_THROW(parsed.check()) << mutant;
            ++outcomes.loaded;
        } else {
            EXPECT_FALSE(error.empty()) << mutant;
            ++outcomes.refused;
        }
    }
    EXPECT_GT(outcomes.loaded, 0);
    EXPECT_GT(outcomes.refused, 0);
}

// --- Search journal: resume, torn records, fingerprints ----------------

using namespace elv::core;

/** Small search configuration (seconds, not minutes, per run). */
ElivagarConfig
small_search_config(int num_features)
{
    ElivagarConfig config;
    config.num_candidates = 10;
    config.candidate.num_qubits = 4;
    config.candidate.num_params = 12;
    config.candidate.num_embeds = 4;
    config.candidate.num_meas = 1;
    config.candidate.num_features = num_features;
    config.cnr.num_replicas = 4;
    config.repcap.samples_per_class = 4;
    config.repcap.param_inits = 2;
    config.seed = 23;
    return config;
}

/** Fresh journal path under the test temp dir. */
std::string
journal_path(const std::string &name)
{
    const std::string path = ::testing::TempDir() + "elv_" + name +
                             ".journal";
    std::remove(path.c_str());
    return path;
}

void
expect_identical_results(const SearchResult &a, const SearchResult &b)
{
    EXPECT_EQ(circ::to_text(a.best_circuit),
              circ::to_text(b.best_circuit));
    EXPECT_EQ(a.best_score, b.best_score); // bit-exact
    EXPECT_EQ(a.survivors, b.survivors);
    EXPECT_EQ(a.cnr_executions, b.cnr_executions);
    EXPECT_EQ(a.repcap_executions, b.repcap_executions);
    ASSERT_EQ(a.candidates.size(), b.candidates.size());
    for (std::size_t n = 0; n < a.candidates.size(); ++n) {
        EXPECT_EQ(a.candidates[n].cnr, b.candidates[n].cnr) << n;
        EXPECT_EQ(a.candidates[n].repcap, b.candidates[n].repcap) << n;
        EXPECT_EQ(a.candidates[n].score, b.candidates[n].score) << n;
        EXPECT_EQ(a.candidates[n].rejected_by_cnr,
                  b.candidates[n].rejected_by_cnr)
            << n;
    }
}

TEST(Resilience, CrashedSearchResumesToIdenticalRanking)
{
    const qml::Benchmark bench = qml::make_benchmark("moons", 8, 0.1);
    const dev::Device device = dev::make_device("ibm_lagos");
    const ElivagarConfig config = small_search_config(bench.spec.dim);

    // Uninterrupted reference run (no journal).
    const SearchResult reference =
        elivagar_search(device, bench.train, config);

    // Stop mid-search: a progress hook trips the cancel token once two
    // CNR values are stored, so the third candidate unwinds.
    const std::string path = journal_path("crash_resume");
    ElivagarConfig crash_config = config;
    crash_config.checkpoint_path = path;
    const auto token = std::make_shared<CancelToken>();
    crash_config.hooks.cancel = token;
    crash_config.hooks.progress = [token](const char *phase,
                                          std::size_t done, std::size_t) {
        if (std::strcmp(phase, "cnr") == 0 && done >= 2)
            token->cancel();
    };
    EXPECT_THROW(elivagar_search(device, bench.train, crash_config),
                 CancelledError);

    // The journal holds the completed prefix.
    {
        SearchJournal journal(path, config_fingerprint(config));
        EXPECT_TRUE(journal.load());
        ASSERT_NE(journal.entry(2), nullptr);
        EXPECT_TRUE(journal.entry(0)->has_cnr);
        EXPECT_TRUE(journal.entry(1)->has_cnr);
        EXPECT_FALSE(journal.entry(2)->has_cnr);
    }

    // Resume without the hooks (they are not fingerprinted).
    ElivagarConfig resume_config = config;
    resume_config.checkpoint_path = path;
    const SearchResult resumed =
        elivagar_search(device, bench.train, resume_config);

    EXPECT_TRUE(resumed.resumed);
    expect_identical_results(reference, resumed);
    std::remove(path.c_str());
}

TEST(Resilience, CompletedJournalReplaysWithoutReexecution)
{
    const qml::Benchmark bench = qml::make_benchmark("moons", 9, 0.1);
    const dev::Device device = dev::make_device("ibm_lagos");
    ElivagarConfig config = small_search_config(bench.spec.dim);
    config.checkpoint_path = journal_path("full_replay");

    const SearchResult first =
        elivagar_search(device, bench.train, config);
    EXPECT_FALSE(first.resumed);

    const std::string journal = slurp(config.checkpoint_path);

    const SearchResult second =
        elivagar_search(device, bench.train, config);
    EXPECT_TRUE(second.resumed);
    expect_identical_results(first, second);
    // Everything came from the journal: no stage record was appended.
    const std::string after = slurp(config.checkpoint_path);
    EXPECT_EQ(count(after, "\ncnr "), count(journal, "\ncnr "));
    EXPECT_EQ(count(after, "\nrepcap "), count(journal, "\nrepcap "));
    std::remove(config.checkpoint_path.c_str());
}

TEST(Resilience, TornFinalRecordToleratedAtEveryByteOffset)
{
    const qml::Benchmark bench = qml::make_benchmark("moons", 14, 0.1);
    const dev::Device device = dev::make_device("ibm_lagos");
    ElivagarConfig config = small_search_config(bench.spec.dim);
    config.checkpoint_path = journal_path("torn_reference");

    const SearchResult reference =
        elivagar_search(device, bench.train, config);
    EXPECT_FALSE(reference.resumed);

    // The complete journal, byte for byte.
    std::string blob;
    {
        std::ifstream in(config.checkpoint_path,
                         std::ios::binary);
        ASSERT_TRUE(in.good());
        std::ostringstream text;
        text << in.rdbuf();
        blob = text.str();
    }
    std::remove(config.checkpoint_path.c_str());
    ASSERT_FALSE(blob.empty());
    ASSERT_EQ(blob.back(), '\n');

    // Simulate a crash torn mid-append at EVERY byte offset of the
    // final record: from "record entirely missing" through "all bytes
    // but the trailing newline". Each torn journal must load (warning,
    // not abort), drop exactly the damaged record, and resume to the
    // bit-identical result.
    const std::size_t last_start =
        blob.rfind('\n', blob.size() - 2) + 1;
    const std::string torn_path = journal_path("torn_case");
    ElivagarConfig resume_config = config;
    resume_config.checkpoint_path = torn_path;
    for (std::size_t cut = last_start; cut < blob.size(); ++cut) {
        {
            std::ofstream out(torn_path,
                              std::ios::binary | std::ios::trunc);
            out.write(blob.data(),
                      static_cast<std::streamsize>(cut));
        }
        const SearchResult resumed =
            elivagar_search(device, bench.train, resume_config);
        EXPECT_TRUE(resumed.resumed) << "cut at byte " << cut;
        expect_identical_results(reference, resumed);
        std::remove(torn_path.c_str());
    }

    // A record torn anywhere but the tail is real corruption, not a
    // crash artifact, and must still abort loudly.
    {
        const std::size_t prev_start =
            blob.rfind('\n', last_start - 2) + 1;
        std::string interior = blob.substr(0, prev_start + 5);
        // Re-attach the intact final record after the damaged one.
        interior += "\n" + blob.substr(last_start);
        std::ofstream out(torn_path,
                          std::ios::binary | std::ios::trunc);
        out.write(interior.data(),
                  static_cast<std::streamsize>(interior.size()));
        out.close();
        EXPECT_THROW(elivagar_search(device, bench.train, resume_config),
                     UsageError);
        std::remove(torn_path.c_str());
    }
}

TEST(Resilience, TruncatedNumericFieldFailsChecksumNotSilently)
{
    // Regression for the nastiest torn-write shape: a truncated line
    // whose shortened fields still lex as valid numbers ("15" torn to
    // "1"). The per-record checksum must catch it even when the torn
    // prefix happens to parse.
    const qml::Benchmark bench = qml::make_benchmark("moons", 15, 0.1);
    const dev::Device device = dev::make_device("ibm_lagos");
    ElivagarConfig config = small_search_config(bench.spec.dim);
    config.checkpoint_path = journal_path("torn_numeric");

    const SearchResult reference =
        elivagar_search(device, bench.train, config);

    std::string blob;
    {
        std::ifstream in(config.checkpoint_path,
                         std::ios::binary);
        std::ostringstream text;
        text << in.rdbuf();
        blob = text.str();
    }
    // Drop the checksum suffix AND part of the last field, then
    // re-terminate the line: without checksums this parsed "cleanly".
    const std::size_t last_start =
        blob.rfind('\n', blob.size() - 2) + 1;
    std::string last = blob.substr(
        last_start, blob.size() - last_start - 1);
    const std::size_t tilde = last.rfind(" ~");
    ASSERT_NE(tilde, std::string::npos);
    last.resize(tilde > 2 ? tilde - 2 : tilde);
    const std::string doctored =
        blob.substr(0, last_start) + last + "\n";
    {
        std::ofstream out(config.checkpoint_path,
                          std::ios::binary | std::ios::trunc);
        out.write(doctored.data(),
                  static_cast<std::streamsize>(doctored.size()));
    }

    const SearchResult resumed =
        elivagar_search(device, bench.train, config);
    EXPECT_TRUE(resumed.resumed);
    expect_identical_results(reference, resumed);
    std::remove(config.checkpoint_path.c_str());
}

TEST(Resilience, JournalFromDifferentConfigIsRejected)
{
    const qml::Benchmark bench = qml::make_benchmark("moons", 10, 0.1);
    const dev::Device device = dev::make_device("ibm_lagos");
    ElivagarConfig config = small_search_config(bench.spec.dim);
    config.checkpoint_path = journal_path("fingerprint");
    elivagar_search(device, bench.train, config);

    ElivagarConfig other = config;
    other.seed = config.seed + 1; // different search, same journal
    EXPECT_THROW(elivagar_search(device, bench.train, other),
                 UsageError);
    std::remove(config.checkpoint_path.c_str());
}

TEST(Resilience, FingerprintMismatchNamesBothPrintsAndLikelyCulprit)
{
    // The refusing-to-resume message must carry enough to debug it
    // from a log line alone: the stored fingerprint, the expected
    // one, and — when a single-field change explains the difference —
    // which knob moved (here the CNR backend).
    const qml::Benchmark bench = qml::make_benchmark("moons", 10, 0.1);
    const dev::Device device = dev::make_device("ibm_lagos");
    ElivagarConfig config = small_search_config(bench.spec.dim);
    config.checkpoint_path = journal_path("fp_hint");
    elivagar_search(device, bench.train, config);
    const std::uint64_t stored = config_fingerprint(config);

    ElivagarConfig flipped = config;
    flipped.cnr.backend = CnrBackend::Stabilizer;
    try {
        elivagar_search(device, bench.train, flipped);
        FAIL() << "expected the mismatched journal to be refused";
    } catch (const UsageError &e) {
        const std::string what = e.what();
        char stored_hex[32];
        std::snprintf(stored_hex, sizeof(stored_hex), "%016llx",
                      static_cast<unsigned long long>(stored));
        char expected_hex[32];
        std::snprintf(expected_hex, sizeof(expected_hex), "%016llx",
                      static_cast<unsigned long long>(
                          config_fingerprint(flipped)));
        EXPECT_NE(what.find(stored_hex), std::string::npos) << what;
        EXPECT_NE(what.find(expected_hex), std::string::npos) << what;
        EXPECT_NE(what.find("CNR backend"), std::string::npos) << what;
    }
    std::remove(config.checkpoint_path.c_str());
}

TEST(Resilience, FingerprintHintCoversSingleFieldMutations)
{
    const qml::Benchmark bench = qml::make_benchmark("moons", 10, 0.1);
    ElivagarConfig config = small_search_config(bench.spec.dim);

    // CNR backend switch (density vs stabilizer).
    ElivagarConfig mutated = config;
    mutated.cnr.backend = CnrBackend::Stabilizer;
    std::string hint = fingerprint_mismatch_hint(
        config, config_fingerprint(mutated));
    EXPECT_NE(hint.find("CNR backend"), std::string::npos) << hint;

    // use_cnr toggle (the RepCap-only ablation).
    mutated = config;
    mutated.use_cnr = !mutated.use_cnr;
    hint = fingerprint_mismatch_hint(config,
                                     config_fingerprint(mutated));
    EXPECT_NE(hint.find("use_cnr"), std::string::npos) << hint;

    // A multi-field change has no single culprit: no guess offered.
    mutated = config;
    mutated.seed += 1;
    mutated.num_candidates += 1;
    EXPECT_EQ(fingerprint_mismatch_hint(config,
                                        config_fingerprint(mutated)),
              "");
}

/** Fingerprints pinned to the values older builds computed, so their
 * journals keep resuming. */
TEST(Fingerprint, GoldenValuesMatchEarlierBuilds)
{
    EXPECT_EQ(config_fingerprint(ElivagarConfig{}), 0x902d077d099a5636ULL);

    ElivagarConfig c;
    c.seed = 7;
    c.num_candidates = 64;
    c.candidate.num_qubits = 6;
    c.candidate.num_params = 18;
    c.candidate.num_embeds = 6;
    c.candidate.num_meas = 2;
    c.candidate.num_features = 16;
    c.candidate.noise_aware = false;
    c.cnr.num_replicas = 8;
    c.cnr.backend = CnrBackend::Stabilizer;
    c.cnr.shots = 512;
    c.cnr.noise_scale = 0.5;
    c.repcap.samples_per_class = 8;
    c.repcap.param_inits = 4;
    c.repcap.num_bases = 2;
    c.cnr_threshold = 0.25;
    c.keep_fraction = 0.5;
    c.alpha_cnr = 0.75;
    c.use_cnr = false;
    EXPECT_EQ(config_fingerprint(c), 0x303441ffbbd717b1ULL);
}

TEST(Resilience, OldJournalVersionDiscardedNotFatal)
{
    // Regression: a well-formed journal of another format version used
    // to be mistaken for a torn header and, with records present,
    // aborted the resume with a misleading "missing header" error. A
    // stale version means the record format may differ: discard the
    // journal and run the search fresh.
    const std::string path = journal_path("old_version");
    {
        std::ofstream out(path, std::ios::binary);
        out << "elv-search-journal 1\n";
        out << "fingerprint 0123456789abcdef\n";
        out << record_with_checksum("cnr 0 0x1p+0 4 0 0") << "\n";
    }
    SearchJournal journal(path, 42);
    EXPECT_FALSE(journal.load());
    // The stale file was cleared, so the fresh run starts clean.
    EXPECT_EQ(std::filesystem::file_size(path), 0u);
    std::remove(path.c_str());
}

TEST(Resilience, HexFloatRoundTripIsBitExact)
{
    for (const double v :
         {0.0, 1.0, 1.0 / 3.0, 0.8721350128375, 1e-300, -0.25}) {
        EXPECT_EQ(double_from_hex(double_to_hex(v)), v);
    }
    EXPECT_THROW(double_from_hex("not-a-number"), UsageError);
}

/**
 * A cnr record with <degraded> 1 (a CNR older builds took from a
 * fallback backend) loads but is not replayed: the resumed search
 * evaluates that candidate again, appends its record after the
 * degraded one, and ranks bit-identically to the clean run.
 */
TEST(DurableLog, DegradedCnrRecordIsRecomputedNotReplayed)
{
    const qml::Benchmark bench = qml::make_benchmark("moons", 9, 0.1);
    const dev::Device device = dev::make_device("ibm_lagos");
    ElivagarConfig config = small_search_config(bench.spec.dim);
    config.checkpoint_path = journal_path("degraded_record");
    const SearchResult clean =
        elivagar_search(device, bench.train, config);
    ASSERT_NE(clean.candidates[0].cnr, 1.0);

    // The record a noiseless-rung CNR of candidate 0 left behind.
    const std::string degraded = "cnr 0 0x1p+0 4 1 9";
    {
        RecordLog log(config.checkpoint_path, "elv-search-journal 2",
                      config_fingerprint(config));
        log.load([](const std::string &) { return true; });
        log.append(degraded);
    }

    const SearchResult resumed =
        elivagar_search(device, bench.train, config);
    EXPECT_TRUE(resumed.resumed);
    expect_identical_results(clean, resumed);
    const std::string journal = slurp(config.checkpoint_path);
    const std::size_t at = journal.find(degraded);
    ASSERT_NE(at, std::string::npos);
    EXPECT_NE(journal.find("cnr 0 " +
                               double_to_hex(clean.candidates[0].cnr) +
                               " 4 0 0 ~",
                           at),
              std::string::npos);
    std::remove(config.checkpoint_path.c_str());
}

} // namespace
