#include "dist/coordinator.hpp"

#include <algorithm>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "common/logging.hpp"
#include "dist/channel.hpp"
#include "dist/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "qml/synthetic.hpp"

namespace elv::dist {

namespace {

/** Worker spawn/configure handshake deadline (seconds). */
constexpr double kHandshakeTimeoutSec = 30.0;
/** Progress deadline: a worker producing no record for this long is
 *  treated as hung and its shard reissued (seconds). */
constexpr double kRecordTimeoutSec = 300.0;
/** Reissues per shard before its remainder goes back to the search. */
constexpr int kMaxReissues = 2;

/** One shard: its index range and transport. */
struct Shard
{
    int id = 0;
    /** One past the shard's last index (ranges are contiguous). */
    int end = 0;
    /** Local fork/exec worker vs socket-attached peer. */
    bool local = true;
    std::string host;
    std::uint16_t port = 0;
    /** Test hook forwarded to the first configure, then consumed. */
    int crash_after = 0;
    std::unique_ptr<WorkerChannel> channel;
    int reissues = 0;
};

/** Everything the shard drivers share (immutable unless noted). */
struct RunContext
{
    const core::RunSpec &spec;
    const DistConfig &dist;
    std::uint64_t fingerprint = 0;
    std::string worker_binary;
    /** Guards stats (shard threads write them). */
    std::mutex control_mutex;
    DistStats *stats = nullptr;
    /** Contiguous, ascending index ranges; one thread per stage owns
     *  each. */
    std::vector<Shard> shards;

    bool
    cancelled() const
    {
        return dist.hooks.cancel && dist.hooks.cancel->cancelled();
    }
};

/** Render an index list compactly for diagnostic lines. */
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
        channel = WorkerChannel::spawn(ctx.worker_binary, {}, error);
        if (!channel)
            return nullptr;
        {
            std::lock_guard<std::mutex> lock(ctx.control_mutex);
            ++ctx.stats->workers_spawned;
        }
        ELV_METRIC_COUNT("dist.workers_spawned");
    } else {
        channel = WorkerChannel::connect(shard.host, shard.port, error);
        if (!channel)
            return nullptr;
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
    if (!channel->read_line(line, error, kHandshakeTimeoutSec))
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
 * Drive one shard through one stage: issue the pending indices, hand
 * each record to `store`, reissue on failure. Returns the indices left
 * unevaluated when the reissues run out or the run is cancelled; the
 * search evaluates those in-process. Indices are disjoint across
 * shards, so each is stored at most once.
 */
std::vector<int>
drive_shard(RunContext &ctx, Shard &shard, const std::string &stage,
            std::vector<int> pending,
            const std::function<void(const WorkerEvent &)> &store)
{
    const WorkerEvent::Kind record_kind = stage == "cnr"
                                              ? WorkerEvent::Kind::Cnr
                                              : WorkerEvent::Kind::RepCap;
    auto absorb = [&](const WorkerEvent &event) {
        const auto it =
            std::find(pending.begin(), pending.end(), event.index);
        if (event.kind != record_kind || it == pending.end())
            return;
        store(event);
        pending.erase(it);
        {
            std::lock_guard<std::mutex> lock(ctx.control_mutex);
            ++ctx.stats->records_received;
        }
        ELV_METRIC_COUNT("dist.records_received");
    };

    bool issued_once = false;
    while (!pending.empty() && !ctx.cancelled() &&
           shard.reissues <= kMaxReissues) {
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
        if (issued_once) {
            std::lock_guard<std::mutex> lock(ctx.control_mutex);
            ++ctx.stats->shards_reissued;
            ELV_METRIC_COUNT("dist.shards_reissued");
        }
        issued_once = true;
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
            if (!shard.channel->read_line(line, error,
                                          kRecordTimeoutSec)) {
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
            case WorkerEvent::Kind::RepCap:
                absorb(event);
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
            break;
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
    if (pending.empty() || ctx.cancelled())
        return pending;
    // Every reissue burned: hand the rest back to the search.
    {
        std::lock_guard<std::mutex> lock(ctx.control_mutex);
        ctx.stats->fallback_records += pending.size();
    }
    ELV_METRIC_COUNT_N("dist.fallback_records", pending.size());
    return pending;
}

/**
 * Run one stage across the shards, one thread per shard with work. `pending` is ascending, so the indices the shards hand back
 * are too.
 */
std::vector<int>
scatter(RunContext &ctx, const std::string &stage,
        const std::vector<int> &pending,
        const std::function<void(const WorkerEvent &)> &store)
{
    std::vector<Shard> &shards = ctx.shards;
    std::vector<std::vector<int>> work(shards.size());
    std::size_t s = 0;
    for (int index : pending) {
        while (index >= shards[s].end)
            ++s;
        work[s].push_back(index);
    }
    std::vector<std::vector<int>> left(shards.size());
    std::vector<std::exception_ptr> errors(shards.size());
    std::vector<std::thread> threads;
    threads.reserve(shards.size());
    for (s = 0; s < shards.size(); ++s) {
        if (work[s].empty())
            continue;
        {
            std::lock_guard<std::mutex> lock(ctx.control_mutex);
            ++ctx.stats->shards; // counts issued shard-stages
        }
        ELV_METRIC_COUNT("dist.shards_issued");
        threads.emplace_back([&, s] {
            try {
                left[s] = drive_shard(ctx, shards[s], stage,
                                      std::move(work[s]), store);
            } catch (...) {
                errors[s] = std::current_exception();
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    for (const std::exception_ptr &error : errors)
        if (error)
            std::rethrow_exception(error);
    std::vector<int> rest;
    for (const std::vector<int> &indices : left)
        rest.insert(rest.end(), indices.begin(), indices.end());
    return rest;
}

/** elivagar_search's CNR and RepCap stages, scattered over the shards. */
class ShardScatter final : public core::RemoteStages
{
  public:
    explicit ShardScatter(RunContext &ctx) : ctx_(ctx) {}

    std::vector<int>
    cnr(const std::vector<int> &pending, const CnrStore &store) override
    {
        return scatter(ctx_, "cnr", pending,
                       [&store](const WorkerEvent &event) {
                           store(event.index, event.cnr);
                       });
    }

    std::vector<int>
    repcap(const std::vector<int> &pending,
           const RepCapStore &store) override
    {
        return scatter(ctx_, "repcap", pending,
                       [&store](const WorkerEvent &event) {
                           store(event.index, event.repcap);
                       });
    }

  private:
    RunContext &ctx_;
};

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
distributed_search(const core::RunSpec &spec, const DistConfig &dist)
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

    ELV_TRACE_SCOPE("distributed_search", "dist");

    const dev::Device device = dev::make_device(spec.device);
    const qml::Benchmark bench =
        qml::make_benchmark(spec.benchmark, spec.seed, spec.scale);
    core::ElivagarConfig config =
        core::search_config(spec, bench.spec, dist.coordinator_threads,
                            dist.checkpoint_path);
    config.hooks = dist.hooks;

    DistResult out;
    RunContext ctx{spec,
                   dist,
                   core::config_fingerprint(config),
                   dist.worker_binary.empty() ? default_worker_binary()
                                              : dist.worker_binary,
                   {},
                   &out.stats,
                   std::vector<Shard>(
                       static_cast<std::size_t>(total_shards))};

    // Shard plan: attached peers first, then local workers; the first
    // local shard carries the crash_after test hook.
    const auto plan =
        partition_indices(config.num_candidates, total_shards);
    for (int s = 0; s < total_shards; ++s) {
        Shard &shard = ctx.shards[static_cast<std::size_t>(s)];
        shard.id = s;
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

    ShardScatter remote(ctx);
    out.result = core::elivagar_search(device, bench.train, config, &remote);

    // Workers are done: polite shutdown, then hard close.
    for (Shard &shard : ctx.shards) {
        if (!shard.channel)
            continue;
        std::string error, line;
        if (shard.channel->send_line(make_shutdown(), error))
            shard.channel->read_line(line, error, 1.0);
        shard.channel->close();
        ELV_METRIC_GAUGE_ADD("dist.active_workers", -1);
    }
    return out;
}

} // namespace elv::dist
