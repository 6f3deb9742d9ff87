/**
 * @file
 * Coordinator of the distributed sharded search.
 *
 * distributed_search is core::elivagar_search with a RemoteStages that
 * evaluates the CNR and RepCap stages on worker processes (local
 * fork/exec'd elivagar_worker processes and/or socket-attached peers).
 * The search generates the pool, replays its journal, selects, ranks
 * and reports phases exactly as it does in-process; this file only
 * scatters each stage's pending indices.
 *
 * The candidate index range is partitioned into contiguous shards, one
 * per worker. Workers evaluate with the same per-candidate seeded
 * streams the in-process search uses and stream (index, score) records
 * back; each record goes straight into the search's store, so the
 * ranking is bit-identical to an in-process run at any shard count.
 *
 * Crash tolerance: with a checkpoint_path, the search journals every
 * record there on the coordinator side, in the one format --checkpoint
 * writes, so a worker crash can never tear it. A worker that dies,
 * stalls past the progress deadline, or returns garbage is killed and
 * its shard reissued to a fresh worker minus the records already
 * stored. After max_reissues the shard hands its remaining indices
 * back to the search, which evaluates them in-process. Re-running with
 * the same journal resumes at any worker count, and an in-process run
 * resumes from that journal too.
 */
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/run_spec.hpp"
#include "core/search.hpp"

namespace elv::dist {

/** Fan-out topology + failure policy of one distributed run. */
struct DistConfig
{
    /** Local worker processes to fork (>= 0). */
    int workers = 1;
    /** Remote peers ("host:port") attached before local workers. */
    std::vector<std::string> attach;
    /** Worker binary to fork; "" = default_worker_binary(). */
    std::string worker_binary;
    /** Simulator threads each worker runs with (>= 1). */
    int threads_per_worker = 1;
    /** Coordinator threads: the search's own pool (generation and
     * handed-back indices; 0 = hardware). */
    int coordinator_threads = 0;
    /**
     * The search journal (core::ElivagarConfig::checkpoint_path); ""
     * disables persistence (no crash resume across coordinator
     * restarts; mid-run reissue works regardless).
     */
    std::string checkpoint_path;
    /** Worker spawn/configure handshake deadline (seconds). */
    double handshake_timeout_sec = 30.0;
    /**
     * Progress deadline: a worker producing no record for this long
     * is treated as hung and its shard reissued (seconds).
     */
    double record_timeout_sec = 300.0;
    /** Reissues per shard before its remainder goes back to the
     * search. */
    int max_reissues = 2;
    /**
     * Test hook forwarded to the first local worker's configure:
     * SIGKILL itself after emitting this many records (0 = off).
     * Consumed by the first spawn only — the reissued worker runs
     * clean, which is exactly the scenario the reissue tests prove.
     */
    int crash_after = 0;
    /** Cancellation + progress, with core/search semantics. */
    core::SearchHooks hooks;
};

/** Fan-out accounting of one distributed run. */
struct DistStats
{
    int workers_spawned = 0;
    int workers_attached = 0;
    int shards = 0;
    int shards_reissued = 0;
    /** Worker failures observed (spawn, handshake, stream, crash). */
    int worker_failures = 0;
    /** Records streamed back by workers (journal replays excluded). */
    std::uint64_t records_received = 0;
    /** Candidate stages handed back to the search after a shard ran
     * out of reissues. */
    std::uint64_t fallback_records = 0;
};

/** Distributed search output: the merged result + fan-out stats. */
struct DistResult
{
    core::SearchResult result;
    DistStats stats;
};

/**
 * Contiguous partition of [0, count) into `shards` ranges (as
 * [begin, end) pairs) whose sizes differ by at most one; the first
 * count % shards ranges take the extra element. Empty ranges appear
 * when shards > count.
 */
std::vector<std::pair<int, int>> partition_indices(int count,
                                                   int shards);

/**
 * Run the distributed search for `spec` (core::search_config, as every
 * other front end maps a spec, so results and journals are
 * interchangeable with a single-process run of the same spec). Throws
 * UsageError on unusable topology (no workers at all), CancelledError
 * via the hooks, and propagates evaluation failures.
 */
DistResult distributed_search(const core::RunSpec &spec,
                              const DistConfig &dist);

} // namespace elv::dist
