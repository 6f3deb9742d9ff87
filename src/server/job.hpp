/**
 * @file
 * Job model of the search service: what a client submits, the lifecycle
 * state machine the server drives it through, and the mapping from a
 * job spec to the ElivagarConfig the search pipeline runs.
 *
 * Lifecycle:
 *
 *       submit                 worker picks up           search returns
 *   --> Queued --------------> Running -----------------> Completed
 *         |                      |        \----throw----> Failed
 *         |  shed (overload)     |  cancel() / deadline
 *         +--> Rejected          +-----------------------> Cancelled
 *         +--> Cancelled (cancel before start)
 *
 * Rejected/Cancelled/Failed/Completed are terminal. A job abandoned by
 * a crash or a drain deadline is *not* terminal: its manifest record
 * still reads Queued/Running, so the next server start re-queues it
 * and the search resumes from the job's checkpoint journal.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/search.hpp"
#include "qml/synthetic.hpp"
#include "server/json_value.hpp"

namespace elv::srv {

/** Job lifecycle states (see the diagram above). */
enum class JobState {
    Queued,
    Running,
    Completed,
    Failed,
    Cancelled,
    Rejected,
};

/** Wire/manifest name of a state ("queued", "running", ...). */
const char *job_state_name(JobState state);

/** Inverse of job_state_name; nullopt for unknown names. */
std::optional<JobState> job_state_from_name(const std::string &name);

/** True for states a job can never leave. */
bool job_state_terminal(JobState state);

/** What a client submits: one search over a catalog benchmark. */
struct JobSpec
{
    /** Catalog benchmark name (Table 2). */
    std::string benchmark = "moons";
    /** Catalog device name (Table 3). */
    std::string device = "ibm_lagos";
    /** Candidate pool size. */
    int candidates = 16;
    /** Search/data seed. */
    std::uint64_t seed = 7;
    /** Dataset scale in (0, 1]. */
    double scale = 0.2;
    /**
     * Admission priority (higher = more important). Under overload the
     * lowest-priority queued jobs are shed first.
     */
    int priority = 0;
    /**
     * Per-job wall-clock deadline in seconds, measured from the moment
     * the job starts running; 0 disables. Enforced by cooperative
     * cancellation checkpoints inside the search phases.
     */
    double deadline_sec = 0.0;
    /**
     * Distributed fan-out: > 0 runs the search through
     * dist::distributed_search with this many local worker processes
     * sharing the job's thread quota; 0 (default) evaluates in-process.
     * Deliberately outside the config fingerprint — like the thread
     * quota, it changes how the work is executed, never the result, so
     * a journaled run resumes under a different worker count.
     */
    int workers = 0;

    /** Reject out-of-range fields with fatal(). Catalog names are
     * checked separately at admission (they need the catalogs). */
    void check() const;

    /** Single-line JSON rendering (manifest + protocol). */
    std::string to_json() const;

    /**
     * Read a spec from a parsed JSON object (unknown keys ignored,
     * missing keys defaulted). Returns false and sets `error` on a
     * non-object or type-mangled field.
     */
    static bool from_json(const JsonValue &value, JobSpec &out,
                          std::string &error);
};

/**
 * The ElivagarConfig a job runs with. Pure function of (spec,
 * thread quota, journal path): the same spec always produces the same
 * fingerprint, which is what makes a journal written before a crash
 * resumable after a restart — and the thread quota and hooks are
 * deliberately outside the fingerprint, so the degradation ladder can
 * hand a resumed job a different quota.
 */
core::ElivagarConfig job_search_config(const JobSpec &spec,
                                       const qml::BenchmarkSpec &bench,
                                       int threads,
                                       const std::string &journal_path);

} // namespace elv::srv
