/**
 * @file
 * Job model of the search service: the lifecycle state machine the
 * server drives a submitted core::RunSpec through.
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

#include <optional>
#include <string>

#include "core/run_spec.hpp"

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

/** Former names of the run spec, its mapping and the JSON reader, kept
 *  for the frozen benchmark sources (perfbench/). */
using JobSpec = core::RunSpec;
using obs::JsonValue;
using obs::json_parse;
inline constexpr auto &job_search_config = core::search_config;

} // namespace elv::srv
