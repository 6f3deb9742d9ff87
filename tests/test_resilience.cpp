/**
 * @file
 * Resilience acceptance tests for the search pipeline (ISSUE acceptance
 * criteria): a fault-injected run that survives via retries returns the
 * same best circuit as the fault-free run; a crash-interrupted search
 * resumes from its journal to a bit-identical ranking; an always-failing
 * primary backend degrades down the ladder instead of aborting, with
 * every affected candidate flagged.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "circuit/serialize.hpp"
#include "common/logging.hpp"
#include "core/checkpoint.hpp"
#include "core/search.hpp"
#include "exec/executor.hpp"
#include "qml/synthetic.hpp"

namespace {

using namespace elv;
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

TEST(Resilience, FaultInjectedRunMatchesFaultFreeRun)
{
    const qml::Benchmark bench = qml::make_benchmark("moons", 7, 0.1);
    const dev::Device device = dev::make_device("ibm_lagos");
    const ElivagarConfig config = small_search_config(bench.spec.dim);

    // Reference: plain execution, no resilience layer at all.
    const SearchResult clean =
        elivagar_search(device, bench.train, config);

    // Same search under ~20% injected transient faults, with enough
    // attempts that no call exhausts its rung.
    ElivagarConfig faulty_config = config;
    faulty_config.resilience.enabled = true;
    faulty_config.resilience.retry.max_attempts = 10;
    faulty_config.resilience.faults.transient_rate = 0.15;
    faulty_config.resilience.faults.garbage_rate = 0.05;
    const SearchResult faulty =
        elivagar_search(device, bench.train, faulty_config);

    expect_identical_results(clean, faulty);
    EXPECT_EQ(faulty.degraded_candidates, 0);
    EXPECT_GT(faulty.fault_counters.total(), 0u);
    EXPECT_EQ(faulty.exec_counters.failures,
              faulty.fault_counters.transient +
                  faulty.fault_counters.garbage);
    EXPECT_GT(faulty.exec_counters.retries, 0u);
    EXPECT_GT(faulty.simulated_wait_ms, 0.0);
    // The clean run reports no resilience activity.
    EXPECT_EQ(clean.exec_counters.calls, 0u);
    EXPECT_EQ(clean.fault_counters.total(), 0u);
}

TEST(Resilience, CrashedSearchResumesToIdenticalRanking)
{
    const qml::Benchmark bench = qml::make_benchmark("moons", 8, 0.1);
    const dev::Device device = dev::make_device("ibm_lagos");
    const ElivagarConfig config = small_search_config(bench.spec.dim);

    // Uninterrupted reference run (no journal, no faults).
    ElivagarConfig reference_config = config;
    reference_config.resilience.enabled = true;
    const SearchResult reference =
        elivagar_search(device, bench.train, reference_config);

    // Crash mid-search: the injected CrashError fires once 10 replica
    // executions succeeded — 2.5 candidates into the CNR stage.
    const std::string path = journal_path("crash_resume");
    ElivagarConfig crash_config = config;
    crash_config.resilience.enabled = true;
    crash_config.resilience.faults.crash_after = 10;
    crash_config.resilience.checkpoint_path = path;
    EXPECT_THROW(elivagar_search(device, bench.train, crash_config),
                 exec::CrashError);

    // The journal holds the completed prefix.
    {
        SearchJournal journal(path, config_fingerprint(config));
        EXPECT_TRUE(journal.load());
        ASSERT_NE(journal.entry(0), nullptr);
        EXPECT_TRUE(journal.entry(0)->has_cnr);
        EXPECT_TRUE(journal.entry(1)->has_cnr);
        EXPECT_FALSE(journal.entry(2)->has_cnr);
    }

    // Resume with the faults disabled (the fingerprint ignores fault
    // and retry knobs, so the journal is accepted).
    ElivagarConfig resume_config = config;
    resume_config.resilience.enabled = true;
    resume_config.resilience.checkpoint_path = path;
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
    config.resilience.enabled = true;
    config.resilience.checkpoint_path = journal_path("full_replay");

    const SearchResult first =
        elivagar_search(device, bench.train, config);
    EXPECT_FALSE(first.resumed);

    const SearchResult second =
        elivagar_search(device, bench.train, config);
    EXPECT_TRUE(second.resumed);
    expect_identical_results(first, second);
    // Everything came from the journal: the executor serviced no calls.
    EXPECT_EQ(second.exec_counters.calls, 0u);
    std::remove(config.resilience.checkpoint_path.c_str());
}

TEST(Resilience, TornFinalRecordToleratedAtEveryByteOffset)
{
    const qml::Benchmark bench = qml::make_benchmark("moons", 14, 0.1);
    const dev::Device device = dev::make_device("ibm_lagos");
    ElivagarConfig config = small_search_config(bench.spec.dim);
    config.resilience.enabled = true;
    config.resilience.checkpoint_path = journal_path("torn_reference");

    const SearchResult reference =
        elivagar_search(device, bench.train, config);
    EXPECT_FALSE(reference.resumed);

    // The complete journal, byte for byte.
    std::string blob;
    {
        std::ifstream in(config.resilience.checkpoint_path,
                         std::ios::binary);
        ASSERT_TRUE(in.good());
        std::ostringstream text;
        text << in.rdbuf();
        blob = text.str();
    }
    std::remove(config.resilience.checkpoint_path.c_str());
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
    resume_config.resilience.checkpoint_path = torn_path;
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
    config.resilience.enabled = true;
    config.resilience.checkpoint_path = journal_path("torn_numeric");

    const SearchResult reference =
        elivagar_search(device, bench.train, config);

    std::string blob;
    {
        std::ifstream in(config.resilience.checkpoint_path,
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
        std::ofstream out(config.resilience.checkpoint_path,
                          std::ios::binary | std::ios::trunc);
        out.write(doctored.data(),
                  static_cast<std::streamsize>(doctored.size()));
    }

    const SearchResult resumed =
        elivagar_search(device, bench.train, config);
    EXPECT_TRUE(resumed.resumed);
    expect_identical_results(reference, resumed);
    std::remove(config.resilience.checkpoint_path.c_str());
}

TEST(Resilience, JournalFromDifferentConfigIsRejected)
{
    const qml::Benchmark bench = qml::make_benchmark("moons", 10, 0.1);
    const dev::Device device = dev::make_device("ibm_lagos");
    ElivagarConfig config = small_search_config(bench.spec.dim);
    config.resilience.checkpoint_path = journal_path("fingerprint");
    elivagar_search(device, bench.train, config);

    ElivagarConfig other = config;
    other.seed = config.seed + 1; // different search, same journal
    EXPECT_THROW(elivagar_search(device, bench.train, other),
                 UsageError);
    std::remove(config.resilience.checkpoint_path.c_str());
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
    config.resilience.checkpoint_path = journal_path("fp_hint");
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
    std::remove(config.resilience.checkpoint_path.c_str());
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
 * journals, manifests and dist state dirs keep resuming. */
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
    c.cnr.prune_dead_structure = true;
    c.repcap.prune_dead_structure = true;
    EXPECT_EQ(config_fingerprint(c), 0x78c2b535d3f2b25dULL);
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

TEST(Resilience, AlwaysFailingDensityDegradesToStabilizer)
{
    const qml::Benchmark bench = qml::make_benchmark("moons", 11, 0.1);
    const dev::Device device = dev::make_device("ibm_lagos");
    ElivagarConfig config = small_search_config(bench.spec.dim);
    config.resilience.enabled = true;
    config.resilience.retry.max_attempts = 2;
    config.resilience.faults.transient_rate = 1.0;
    config.resilience.faults.target = exec::FaultTarget::Density;

    const SearchResult result =
        elivagar_search(device, bench.train, config);

    // Every candidate's CNR was serviced by the stabilizer fallback.
    EXPECT_EQ(result.degraded_candidates, config.num_candidates);
    for (const auto &record : result.candidates) {
        EXPECT_TRUE(record.degraded);
        EXPECT_GT(record.retries, 0u);
    }
    EXPECT_GE(result.survivors, 1);
    EXPECT_GT(result.best_score, 0.0);

    // Counter bookkeeping matches the injected failures exactly: per
    // call, 2 failed density attempts (1 retry) then 1 stabilizer
    // success.
    const std::uint64_t calls = result.exec_counters.calls;
    EXPECT_EQ(calls, result.cnr_executions);
    EXPECT_EQ(result.exec_counters.failures, 2 * calls);
    EXPECT_EQ(result.exec_counters.retries, calls);
    EXPECT_EQ(result.exec_counters.rungs_exhausted, calls);
    EXPECT_EQ(result.exec_counters.degraded_calls, calls);
    EXPECT_EQ(result.fault_counters.transient, 2 * calls);
    EXPECT_GT(result.simulated_wait_ms, 0.0);
}

TEST(Resilience, CalibrationDriftIsCountedAndContained)
{
    const qml::Benchmark bench = qml::make_benchmark("moons", 12, 0.1);
    const dev::Device device = dev::make_device("ibm_lagos");
    const std::vector<double> original_readout = device.readout_error;

    ElivagarConfig config = small_search_config(bench.spec.dim);
    config.resilience.enabled = true;
    config.resilience.faults.drift_rate = 0.3;

    const SearchResult result =
        elivagar_search(device, bench.train, config);
    EXPECT_GT(result.fault_counters.drifts, 0u);
    EXPECT_GE(result.survivors, 1);
    // Drift perturbed the executor's private snapshot, never the
    // caller's device.
    EXPECT_EQ(device.readout_error, original_readout);
}

TEST(Resilience, HexFloatRoundTripIsBitExact)
{
    for (const double v :
         {0.0, 1.0, 1.0 / 3.0, 0.8721350128375, 1e-300, -0.25}) {
        EXPECT_EQ(double_from_hex(double_to_hex(v)), v);
    }
    EXPECT_THROW(double_from_hex("not-a-number"), UsageError);
}

} // namespace
