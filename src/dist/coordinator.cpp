#include "dist/coordinator.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "circuit/serialize.hpp"
#include "common/logging.hpp"
#include "core/checkpoint.hpp"
#include "dist/channel.hpp"
#include "dist/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "qml/synthetic.hpp"

namespace elv::dist {

namespace {

double
seconds_since(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** CNR histogram edges, mirroring the in-process pipeline metrics;
 *  read only by metric macros, which -DELV_OBS=OFF compiles out. */
[[maybe_unused]] const std::vector<double> &
cnr_edges()
{
    static const std::vector<double> edges{0.1, 0.2, 0.3, 0.4, 0.5,
                                           0.6, 0.7, 0.8, 0.9, 1.0};
    return edges;
}

/**
 * Append-only run manifest: shard assignment, completion and reissue
 * records, checksummed like every other durable artifact. The
 * journals alone carry the resume state — the manifest is the audit
 * trail that says which worker ran what, and its fingerprint header
 * refuses a state_dir written by a different search configuration.
 */
class DistManifest
{
  public:
    DistManifest(std::string path, std::uint64_t fingerprint,
                 std::function<std::string(std::uint64_t)> hint)
        : path_(std::move(path)), fingerprint_(fingerprint),
          hint_(std::move(hint))
    {
    }

    /** Returns true when a prior run's records were found. */
    bool
    load()
    {
        std::ifstream in(path_);
        if (!in)
            return false;
        std::string line;
        if (!std::getline(in, line) || line != "elv-dist-manifest 1")
            elv::fatal("manifest " + path_ + ": bad header");
        if (!std::getline(in, line))
            elv::fatal("manifest " + path_ + ": missing fingerprint");
        std::istringstream ls(line);
        std::string keyword, hex;
        ls >> keyword >> hex;
        std::uint64_t seen = 0;
        if (keyword != "fingerprint" ||
            !fingerprint_from_hex(hex, seen))
            elv::fatal("manifest " + path_ + ": bad fingerprint line");
        if (seen != fingerprint_) {
            std::string message =
                "manifest " + path_ +
                " belongs to a different search configuration "
                "(stored fingerprint " + hex + ", expected " +
                fingerprint_to_hex(fingerprint_) +
                "); refusing to resume from this state directory";
            if (hint_) {
                const std::string guess = hint_(seen);
                if (!guess.empty())
                    message += "; " + guess;
            }
            elv::fatal(message);
        }
        header_written_ = true;
        bool any = false;
        while (std::getline(in, line)) {
            if (line.empty())
                continue;
            // A torn final record is an expected crash artifact;
            // the manifest is an audit trail, so it is merely noted.
            if (!core::strip_record_checksum(line)) {
                elv::warn("manifest " + path_ +
                          ": dropping torn record");
                break;
            }
            any = true;
        }
        return any;
    }

    /** Append one checksummed audit record (flushed immediately). */
    void
    record(const std::string &body)
    {
        std::ofstream out(path_, std::ios::app);
        if (!out)
            elv::fatal("cannot append to manifest " + path_);
        if (!header_written_) {
            out << "elv-dist-manifest 1\n"
                << "fingerprint " << fingerprint_to_hex(fingerprint_)
                << "\n";
            header_written_ = true;
        }
        out << core::record_with_checksum(body) << "\n";
        out.flush();
    }

  private:
    std::string path_;
    std::uint64_t fingerprint_;
    std::function<std::string(std::uint64_t)> hint_;
    bool header_written_ = false;
};

/** One shard: its index range, transport and coordinator-side journal. */
struct Shard
{
    int id = 0;
    int begin = 0, end = 0;
    /** Local fork/exec worker vs socket-attached peer. */
    bool local = true;
    std::string host;
    std::uint16_t port = 0;
    /** Test hook forwarded to the first configure, then consumed. */
    int crash_after = 0;
    std::unique_ptr<WorkerChannel> channel;
    std::unique_ptr<core::SearchJournal> journal;
    int reissues = 0;
    /** Sticky failure once every recovery option is exhausted. */
    std::string failure;
};

/** Everything the shard drivers share (immutable unless noted). */
struct RunContext
{
    const srv::JobSpec &spec;
    const DistConfig &dist;
    const dev::Device &device;
    const qml::Benchmark &bench;
    const core::ElivagarConfig &config;
    std::uint64_t fingerprint = 0;
    std::string worker_binary;
    exec::FaultConfig faults;
    /** Guards stats + manifest (shard threads write both). */
    std::mutex control_mutex;
    DistStats *stats = nullptr;
    DistManifest *manifest = nullptr;
    const elv::CancelToken *cancel = nullptr;
    /** Per-phase progress (reset by the phase runner). */
    std::atomic<std::size_t> progress_done{0};
    std::size_t progress_total = 0;
    const char *phase = "";

    bool
    cancelled() const
    {
        return cancel && cancel->cancelled();
    }

    void
    note_progress()
    {
        if (dist.hooks.progress)
            dist.hooks.progress(
                phase,
                progress_done.fetch_add(1, std::memory_order_relaxed) +
                    1,
                progress_total);
    }

    void
    manifest_record(const std::string &body)
    {
        std::lock_guard<std::mutex> lock(control_mutex);
        if (manifest)
            manifest->record(body);
    }
};

/** Render an index list compactly for manifest/diagnostic lines. */
std::string
describe_indices(const std::vector<int> &indices)
{
    if (indices.empty())
        return "none";
    std::string text = std::to_string(indices.size()) + " indices [" +
                       std::to_string(indices.front()) + ".." +
                       std::to_string(indices.back()) + "]";
    return text;
}

/**
 * Spawn/connect + configure handshake for one shard. Returns the
 * ready channel, or null with `error` set.
 */
std::unique_ptr<WorkerChannel>
connect_shard(RunContext &ctx, Shard &shard, std::string &error)
{
    std::unique_ptr<WorkerChannel> channel;
    if (shard.local) {
        auto process = std::make_unique<ProcessChannel>();
        if (!process->spawn(ctx.worker_binary, {}, error))
            return nullptr;
        channel = std::move(process);
        {
            std::lock_guard<std::mutex> lock(ctx.control_mutex);
            ++ctx.stats->workers_spawned;
        }
        ELV_METRIC_COUNT("dist.workers_spawned");
    } else {
        channel = std::make_unique<SocketChannel>(shard.host, shard.port);
        {
            std::lock_guard<std::mutex> lock(ctx.control_mutex);
            ++ctx.stats->workers_attached;
        }
        ELV_METRIC_COUNT("dist.workers_attached");
    }
    const int crash_after = shard.crash_after;
    shard.crash_after = 0; // the reissued worker must run clean
    if (!channel->send_line(make_configure(ctx.spec,
                                           ctx.dist.threads_per_worker,
                                           ctx.fingerprint, crash_after),
                            error))
        return nullptr;
    std::string line;
    if (!channel->read_line(line, error,
                            ctx.dist.handshake_timeout_sec))
        return nullptr;
    WorkerEvent event;
    if (!parse_worker_event(line, event, error))
        return nullptr;
    if (event.kind == WorkerEvent::Kind::Error) {
        error = event.message;
        return nullptr;
    }
    if (event.kind != WorkerEvent::Kind::Ready) {
        error = "expected a ready event from " + channel->describe();
        return nullptr;
    }
    if (event.fingerprint != ctx.fingerprint) {
        error = "worker " + channel->describe() +
                " acknowledged a different config fingerprint";
        return nullptr;
    }
    ELV_METRIC_GAUGE_ADD("dist.active_workers", 1);
    return channel;
}

/** Tear a shard's channel down after a failure and account for it. */
void
fail_shard_channel(RunContext &ctx, Shard &shard,
                   const std::string &stage, const std::string &error)
{
    elv::warn("dist: shard " + std::to_string(shard.id) + " (" +
              (shard.channel ? shard.channel->describe()
                             : std::string("unconnected")) +
              ") failed during " + stage + ": " + error);
    if (shard.channel) {
        shard.channel->close();
        shard.channel.reset();
        ELV_METRIC_GAUGE_ADD("dist.active_workers", -1);
    }
    ++shard.reissues;
    {
        std::lock_guard<std::mutex> lock(ctx.control_mutex);
        ++ctx.stats->worker_failures;
    }
    ELV_METRIC_COUNT("dist.worker_failures");
}

/**
 * Drive one shard through one stage: issue the pending indices,
 * absorb records, reissue on failure, fall back in-process as the
 * last resort. `store` receives each (index, event) exactly once;
 * indices are disjoint across shards, so stores need no locking.
 */
void
drive_shard(RunContext &ctx, Shard &shard, const std::string &stage,
            std::vector<int> pending,
            const std::function<void(int, const WorkerEvent &)> &store,
            const std::function<std::string(int)> &fallback)
{
    auto absorb = [&](int index, const WorkerEvent &event) {
        store(index, event);
        pending.erase(
            std::find(pending.begin(), pending.end(), index));
        {
            std::lock_guard<std::mutex> lock(ctx.control_mutex);
            ++ctx.stats->records_received;
        }
        ELV_METRIC_COUNT("dist.records_received");
        ctx.note_progress();
    };

    bool issued_once = false;
    while (!pending.empty() && !ctx.cancelled() &&
           shard.reissues <= ctx.dist.max_reissues) {
        if (!shard.channel) {
            std::string error;
            auto channel = connect_shard(ctx, shard, error);
            if (!channel) {
                fail_shard_channel(ctx, shard, stage + " handshake",
                                   error);
                continue;
            }
            shard.channel = std::move(channel);
        }
        {
            const bool reissue = issued_once;
            issued_once = true;
            ctx.manifest_record(
                std::string(reissue ? "reissue " : "issue ") + stage +
                " shard " + std::to_string(shard.id) + " " +
                describe_indices(pending) + " -> " +
                shard.channel->describe());
            if (reissue) {
                std::lock_guard<std::mutex> lock(ctx.control_mutex);
                ++ctx.stats->shards_reissued;
                ELV_METRIC_COUNT("dist.shards_reissued");
            }
        }
        std::string error;
        if (!shard.channel->send_line(make_stage_request(stage, pending),
                                      error)) {
            fail_shard_channel(ctx, shard, stage, error);
            continue;
        }
        bool stream_ok = true;
        bool done = false;
        while (!done && !ctx.cancelled()) {
            std::string line;
            if (!shard.channel->read_line(
                    line, error, ctx.dist.record_timeout_sec)) {
                stream_ok = false;
                break;
            }
            WorkerEvent event;
            if (!parse_worker_event(line, event, error)) {
                stream_ok = false;
                break;
            }
            switch (event.kind) {
            case WorkerEvent::Kind::Cnr:
                if (stage == "cnr" &&
                    std::find(pending.begin(), pending.end(),
                              event.index) != pending.end())
                    absorb(event.index, event);
                break;
            case WorkerEvent::Kind::RepCap:
                if (stage == "repcap" &&
                    std::find(pending.begin(), pending.end(),
                              event.index) != pending.end())
                    absorb(event.index, event);
                break;
            case WorkerEvent::Kind::Done:
                done = true;
                break;
            case WorkerEvent::Kind::Error:
                error = event.message;
                stream_ok = false;
                break;
            case WorkerEvent::Kind::Ready:
            case WorkerEvent::Kind::Bye:
                // Stale handshake noise; harmless.
                break;
            }
            if (!stream_ok)
                break;
        }
        if (ctx.cancelled())
            return;
        if (!stream_ok) {
            fail_shard_channel(ctx, shard, stage, error);
            continue;
        }
        if (done && !pending.empty()) {
            // The worker claimed completion but skipped indices —
            // treat like any other worker failure and reissue.
            fail_shard_channel(ctx, shard, stage,
                               "done with " +
                                   describe_indices(pending) +
                                   " still pending");
            continue;
        }
    }
    if (pending.empty()) {
        ctx.manifest_record("done " + stage + " shard " +
                            std::to_string(shard.id));
        return;
    }
    if (ctx.cancelled())
        return;
    // Every reissue burned: finish the shard in-process, or surface
    // the failure with the worker's diagnostics.
    if (!ctx.dist.allow_local_fallback) {
        shard.failure = "shard " + std::to_string(shard.id) +
                        " exhausted " +
                        std::to_string(ctx.dist.max_reissues) +
                        " reissues with " + describe_indices(pending) +
                        " still pending";
        return;
    }
    ctx.manifest_record("fallback " + stage + " shard " +
                        std::to_string(shard.id) + " " +
                        describe_indices(pending));
    for (int index : pending) {
        if (ctx.cancelled())
            return;
        const std::string record_line = fallback(index);
        WorkerEvent event;
        std::string error;
        if (!parse_worker_event(record_line, event, error))
            elv::fatal("internal fallback record failed to parse: " +
                       error);
        store(index, event);
        {
            std::lock_guard<std::mutex> lock(ctx.control_mutex);
            ++ctx.stats->fallback_records;
        }
        ELV_METRIC_COUNT("dist.fallback_records");
        ctx.note_progress();
    }
}

/** Run one stage across all shards, one driver thread per shard. */
void
run_phase(RunContext &ctx, std::vector<Shard> &shards,
          const std::string &stage,
          const std::vector<std::vector<int>> &pending,
          const std::function<void(int, const WorkerEvent &)> &store,
          const std::function<std::string(int)> &fallback)
{
    std::vector<std::thread> drivers;
    drivers.reserve(shards.size());
    for (std::size_t s = 0; s < shards.size(); ++s) {
        if (pending[s].empty())
            continue;
        {
            std::lock_guard<std::mutex> lock(ctx.control_mutex);
            ++ctx.stats->shards; // counts issued shard-stages
        }
        ELV_METRIC_COUNT("dist.shards_issued");
        drivers.emplace_back([&ctx, &shards, s, &stage, &pending,
                              &store, &fallback] {
            drive_shard(ctx, shards[s], stage, pending[s], store,
                        fallback);
        });
    }
    for (std::thread &driver : drivers)
        driver.join();
    for (const Shard &shard : shards)
        if (!shard.failure.empty())
            throw std::runtime_error("distributed search failed: " +
                                     shard.failure);
}

} // namespace

std::vector<std::pair<int, int>>
partition_indices(int count, int shards)
{
    ELV_REQUIRE(count >= 0, "negative candidate count");
    ELV_REQUIRE(shards >= 1, "need at least one shard");
    std::vector<std::pair<int, int>> plan;
    plan.reserve(static_cast<std::size_t>(shards));
    const int base = count / shards;
    const int extra = count % shards;
    int begin = 0;
    for (int s = 0; s < shards; ++s) {
        const int size = base + (s < extra ? 1 : 0);
        plan.emplace_back(begin, begin + size);
        begin += size;
    }
    return plan;
}

DistResult
distributed_search(const srv::JobSpec &spec, const DistConfig &dist)
{
    spec.check();
    if (dist.workers < 0)
        elv::fatal("dist workers must be non-negative");
    const int total_shards =
        dist.workers + static_cast<int>(dist.attach.size());
    if (total_shards < 1)
        elv::fatal("distributed search needs at least one worker "
                   "(--workers N or --attach host:port)");
    if (dist.threads_per_worker < 1)
        elv::fatal("threads per worker must be >= 1");

    const auto search_start = std::chrono::steady_clock::now();
    ELV_TRACE_SCOPE("distributed_search", "dist");

    const dev::Device device = dev::make_device(spec.device);
    const qml::Benchmark bench =
        qml::make_benchmark(spec.benchmark, spec.seed, spec.scale);
    const core::ElivagarConfig config = srv::job_search_config(
        spec, bench.spec, dist.coordinator_threads, "");
    const std::uint64_t fingerprint = core::config_fingerprint(config);
    const int num_candidates = config.num_candidates;
    const auto pool_size = static_cast<std::size_t>(num_candidates);

    DistResult out;
    core::SearchResult &result = out.result;
    result.candidates.resize(pool_size);

    RunContext ctx{spec,
                   dist,
                   device,
                   bench,
                   config,
                   fingerprint,
                   dist.worker_binary.empty() ? default_worker_binary()
                                              : dist.worker_binary,
                   core::prepare_fault_config(config),
                   {},
                   &out.stats,
                   nullptr,
                   dist.hooks.cancel.get(),
                   {},
                   pool_size,
                   ""};
    auto check_cancel = [&](const char *where) {
        if (ctx.cancel)
            ctx.cancel->check(where);
    };
    auto phase_begin = [&](const char *phase) {
        check_cancel(phase);
        ctx.phase = phase;
        ctx.progress_done.store(0, std::memory_order_relaxed);
        if (dist.hooks.progress)
            dist.hooks.progress(phase, 0, pool_size);
    };

    // Shard plan: attached peers first, then local workers; the first
    // local shard carries the crash_after test hook.
    const auto plan = partition_indices(num_candidates, total_shards);
    std::vector<Shard> shards(static_cast<std::size_t>(total_shards));
    for (int s = 0; s < total_shards; ++s) {
        Shard &shard = shards[static_cast<std::size_t>(s)];
        shard.id = s;
        shard.begin = plan[static_cast<std::size_t>(s)].first;
        shard.end = plan[static_cast<std::size_t>(s)].second;
        if (s < static_cast<int>(dist.attach.size())) {
            shard.local = false;
            if (!parse_endpoint(dist.attach[static_cast<std::size_t>(s)],
                                shard.host, shard.port))
                elv::fatal("bad --attach endpoint \"" +
                           dist.attach[static_cast<std::size_t>(s)] +
                           "\" (expected host:port)");
        } else if (s == static_cast<int>(dist.attach.size())) {
            shard.crash_after = dist.crash_after;
        }
    }
    auto shard_of = [&](int index) -> Shard & {
        for (Shard &shard : shards)
            if (index >= shard.begin && index < shard.end)
                return shard;
        ELV_REQUIRE(false, "candidate index outside every shard");
        return shards.front();
    };

    // Durable state: per-shard journals + the run manifest. The union
    // of every shard-*.journal in the directory is the resume state,
    // so a rerun at a different worker count still replays everything.
    std::map<int, core::CheckpointEntry> prior;
    auto harvest = [&](core::SearchJournal &journal) {
        for (int n = 0; n < num_candidates; ++n)
            if (const core::CheckpointEntry *entry = journal.entry(n)) {
                core::CheckpointEntry &merged = prior[n];
                if (merged.circuit_line.empty())
                    merged.circuit_line = entry->circuit_line;
                if (!merged.has_cnr && entry->has_cnr) {
                    merged.has_cnr = true;
                    merged.cnr = entry->cnr;
                    merged.cnr_executions = entry->cnr_executions;
                    merged.degraded = entry->degraded;
                    merged.retries = entry->retries;
                }
                if (!merged.has_repcap && entry->has_repcap) {
                    merged.has_repcap = true;
                    merged.repcap = entry->repcap;
                    merged.repcap_executions = entry->repcap_executions;
                }
            }
    };
    auto hint = [&config](std::uint64_t stored) {
        return core::fingerprint_mismatch_hint(config, stored);
    };
    std::unique_ptr<DistManifest> manifest;
    if (!dist.state_dir.empty()) {
        std::filesystem::create_directories(dist.state_dir);
        std::vector<std::string> current_files;
        for (Shard &shard : shards) {
            const std::string path =
                dist.state_dir + "/shard-" + std::to_string(shard.id) +
                ".journal";
            current_files.push_back(
                std::filesystem::path(path).filename().string());
            shard.journal = std::make_unique<core::SearchJournal>(
                path, fingerprint);
            shard.journal->set_mismatch_hint(hint);
            if (shard.journal->load())
                harvest(*shard.journal);
        }
        // Journals left by a previous run at a different shard count.
        for (const auto &entry :
             std::filesystem::directory_iterator(dist.state_dir)) {
            const std::string name = entry.path().filename().string();
            if (name.rfind("shard-", 0) != 0 ||
                name.find(".journal") == std::string::npos)
                continue;
            if (std::find(current_files.begin(), current_files.end(),
                          name) != current_files.end())
                continue;
            core::SearchJournal old(entry.path().string(), fingerprint);
            old.set_mismatch_hint(hint);
            if (old.load())
                harvest(old);
        }
        manifest = std::make_unique<DistManifest>(
            dist.state_dir + "/dist.manifest", fingerprint, hint);
        manifest->load();
        ctx.manifest = manifest.get();
        manifest->record(
            "run shards " + std::to_string(total_shards) + " workers " +
            std::to_string(dist.workers) + " attached " +
            std::to_string(dist.attach.size()) + " candidates " +
            std::to_string(num_candidates));
    }
    result.resumed = !prior.empty();

    // Step 1: generation, always local — cheap, deterministic, and it
    // gives the coordinator the circuits the journal verifies against.
    {
        const auto phase_start = std::chrono::steady_clock::now();
        phase_begin("generate");
        par::ThreadPool pool(dist.coordinator_threads);
        std::mutex journal_mutex;
        pool.parallel_for(pool_size, [&](std::size_t n) {
            auto &record = result.candidates[n];
            record.circuit =
                core::generate_search_candidate(device, config, n);
            if (!dist.state_dir.empty()) {
                std::lock_guard<std::mutex> lock(journal_mutex);
                const auto it = prior.find(static_cast<int>(n));
                if (it != prior.end() &&
                    !it->second.circuit_line.empty()) {
                    if (it->second.circuit_line !=
                        circ::to_text_line(record.circuit))
                        elv::fatal(
                            "state dir " + dist.state_dir +
                            ": candidate " + std::to_string(n) +
                            " does not match the regenerated pool; "
                            "the journals belong to a different run");
                } else {
                    shard_of(static_cast<int>(n))
                        .journal->record_candidate(static_cast<int>(n),
                                                   record.circuit);
                }
            }
            ctx.note_progress();
        });
        result.phase_timings.push_back(
            {"generate", seconds_since(phase_start)});
    }

    // Step 2 + 3: CNR scatter, then the global selection. The cutoff
    // needs every candidate's CNR, so this phase barriers before the
    // survivors are known.
    std::vector<std::uint64_t> cnr_execs(pool_size, 0);
    if (config.use_cnr) {
        const auto phase_start = std::chrono::steady_clock::now();
        phase_begin("cnr");
        std::vector<std::vector<int>> pending(shards.size());
        for (int n = 0; n < num_candidates; ++n) {
            const auto it = prior.find(n);
            if (it != prior.end() && it->second.has_cnr) {
                auto &record =
                    result.candidates[static_cast<std::size_t>(n)];
                record.cnr = it->second.cnr;
                record.degraded = it->second.degraded;
                record.retries = it->second.retries;
                cnr_execs[static_cast<std::size_t>(n)] =
                    it->second.cnr_executions;
                ++out.stats.records_resumed;
                ctx.note_progress();
                continue;
            }
            pending[static_cast<std::size_t>(shard_of(n).id)]
                .push_back(n);
        }
        auto store = [&](int index, const WorkerEvent &event) {
            auto &record =
                result.candidates[static_cast<std::size_t>(index)];
            record.cnr = event.cnr.cnr;
            record.degraded = event.cnr.degraded;
            record.retries = event.cnr.retries;
            cnr_execs[static_cast<std::size_t>(index)] =
                event.cnr.executions;
            if (Shard &shard = shard_of(index); shard.journal)
                shard.journal->record_cnr(index, event.cnr.cnr,
                                          event.cnr.executions,
                                          event.cnr.degraded,
                                          event.cnr.retries);
        };
        auto fallback = [&](int index) {
            const core::CandidateCnr cnr = core::evaluate_candidate_cnr(
                device,
                result.candidates[static_cast<std::size_t>(index)]
                    .circuit,
                config, ctx.faults, static_cast<std::size_t>(index));
            return make_cnr_record(index, cnr);
        };
        run_phase(ctx, shards, "cnr", pending, store, fallback);
        check_cancel("cnr");
        for (std::size_t n = 0; n < pool_size; ++n) {
            result.cnr_executions += cnr_execs[n];
            ELV_METRIC_OBSERVE("search.cnr", cnr_edges(),
                               result.candidates[n].cnr);
        }
        core::apply_cnr_selection(result.candidates, config);
        result.phase_timings.push_back(
            {"cnr", seconds_since(phase_start)});
    }

    // Step 4: RepCap scatter over the survivors only.
    std::vector<std::uint64_t> repcap_execs(pool_size, 0);
    {
        const auto phase_start = std::chrono::steady_clock::now();
        phase_begin("repcap");
        std::vector<std::vector<int>> pending(shards.size());
        for (int n = 0; n < num_candidates; ++n) {
            auto &record =
                result.candidates[static_cast<std::size_t>(n)];
            if (record.rejected_by_cnr) {
                ctx.note_progress();
                continue;
            }
            const auto it = prior.find(n);
            if (it != prior.end() && it->second.has_repcap) {
                record.repcap = it->second.repcap;
                repcap_execs[static_cast<std::size_t>(n)] =
                    it->second.repcap_executions;
                ++out.stats.records_resumed;
                ctx.note_progress();
                continue;
            }
            pending[static_cast<std::size_t>(shard_of(n).id)]
                .push_back(n);
        }
        auto store = [&](int index, const WorkerEvent &event) {
            result.candidates[static_cast<std::size_t>(index)].repcap =
                event.repcap.repcap;
            repcap_execs[static_cast<std::size_t>(index)] =
                event.repcap.executions;
            if (Shard &shard = shard_of(index); shard.journal)
                shard.journal->record_repcap(index,
                                             event.repcap.repcap,
                                             event.repcap.executions);
        };
        auto fallback = [&](int index) {
            const core::CandidateRepCap repcap =
                core::evaluate_candidate_repcap(
                    result.candidates[static_cast<std::size_t>(index)]
                        .circuit,
                    bench.train, config,
                    static_cast<std::size_t>(index));
            return make_repcap_record(index, repcap);
        };
        run_phase(ctx, shards, "repcap", pending, store, fallback);
        check_cancel("repcap");
        for (std::size_t n = 0; n < pool_size; ++n) {
            if (!result.candidates[n].rejected_by_cnr)
                ++result.survivors;
            result.repcap_executions += repcap_execs[n];
        }
        result.phase_timings.push_back(
            {"repcap", seconds_since(phase_start)});
    }

    // Workers are done: polite shutdown, then hard close.
    for (Shard &shard : shards) {
        if (!shard.channel)
            continue;
        std::string error, line;
        if (shard.channel->send_line(make_shutdown(), error))
            shard.channel->read_line(line, error, 1.0);
        shard.channel->close();
        ELV_METRIC_GAUGE_ADD("dist.active_workers", -1);
    }

    // Step 5: composite score + final selection, index order — the
    // same first-max-wins scan as the in-process search.
    const core::CandidateRecord *best = nullptr;
    {
        const auto phase_start = std::chrono::steady_clock::now();
        phase_begin("rank");
        for (int n = 0; n < num_candidates; ++n) {
            auto &record =
                result.candidates[static_cast<std::size_t>(n)];
            if (record.degraded)
                ++result.degraded_candidates;
            if (record.rejected_by_cnr)
                continue;
            record.score = core::composite_score(record.cnr,
                                                 record.repcap, config);
            if (!best || record.score > best->score)
                best = &record;
            if (Shard &shard = shard_of(n); shard.journal)
                shard.journal->record_rank(n, record.score,
                                           record.rejected_by_cnr);
        }
        result.phase_timings.push_back(
            {"rank", seconds_since(phase_start)});
    }
    ELV_REQUIRE(best != nullptr, "no surviving candidate");
    result.best_circuit = best->circuit;
    result.best_score = best->score;
    result.total_seconds = seconds_since(search_start);
    if (manifest)
        manifest->record("complete best_score " +
                         core::double_to_hex(result.best_score));
    return out;
}

} // namespace elv::dist
