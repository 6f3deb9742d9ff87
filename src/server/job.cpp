#include "server/job.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "obs/json.hpp"

namespace elv::srv {

const char *
job_state_name(JobState state)
{
    switch (state) {
    case JobState::Queued: return "queued";
    case JobState::Running: return "running";
    case JobState::Completed: return "completed";
    case JobState::Failed: return "failed";
    case JobState::Cancelled: return "cancelled";
    case JobState::Rejected: return "rejected";
    }
    return "unknown";
}

std::optional<JobState>
job_state_from_name(const std::string &name)
{
    for (const JobState state :
         {JobState::Queued, JobState::Running, JobState::Completed,
          JobState::Failed, JobState::Cancelled, JobState::Rejected})
        if (name == job_state_name(state))
            return state;
    return std::nullopt;
}

bool
job_state_terminal(JobState state)
{
    return state == JobState::Completed || state == JobState::Failed ||
           state == JobState::Cancelled || state == JobState::Rejected;
}

void
JobSpec::check() const
{
    if (benchmark.empty() || device.empty())
        elv::fatal("job needs a benchmark and a device");
    if (candidates < 1 || candidates > 4096)
        elv::fatal("job candidates must lie in [1, 4096]");
    if (scale <= 0.0 || scale > 1.0)
        elv::fatal("job scale must lie in (0, 1]");
    if (deadline_sec < 0.0)
        elv::fatal("job deadline must be non-negative");
    if (workers < 0 || workers > 64)
        elv::fatal("job workers must lie in [0, 64]");
}

std::string
JobSpec::to_json() const
{
    obs::JsonWriter json;
    json.begin_object();
    json.kv("benchmark", benchmark);
    json.kv("device", device);
    json.kv("candidates", candidates);
    json.kv("seed", static_cast<std::uint64_t>(seed));
    json.kv("scale", scale);
    json.kv("priority", priority);
    json.kv("deadline_sec", deadline_sec);
    json.kv("workers", workers);
    json.end_object();
    return json.str();
}

bool
JobSpec::from_json(const JsonValue &value, JobSpec &out,
                   std::string &error)
{
    if (!value.is_object()) {
        error = "job spec must be a JSON object";
        return false;
    }
    out = JobSpec{};
    if (const JsonValue *v = value.get("benchmark"))
        out.benchmark = v->as_string(out.benchmark);
    if (const JsonValue *v = value.get("device"))
        out.device = v->as_string(out.device);
    if (const JsonValue *v = value.get("candidates"))
        out.candidates = static_cast<int>(v->as_int(out.candidates));
    if (const JsonValue *v = value.get("seed"))
        out.seed = v->as_uint(out.seed);
    if (const JsonValue *v = value.get("scale"))
        out.scale = v->as_number(out.scale);
    if (const JsonValue *v = value.get("priority"))
        out.priority = static_cast<int>(v->as_int(out.priority));
    if (const JsonValue *v = value.get("deadline_sec"))
        out.deadline_sec = v->as_number(out.deadline_sec);
    if (const JsonValue *v = value.get("workers"))
        out.workers = static_cast<int>(v->as_int(out.workers));
    try {
        out.check();
    } catch (const elv::UsageError &e) {
        error = e.what();
        return false;
    }
    return true;
}

core::ElivagarConfig
job_search_config(const JobSpec &spec, const qml::BenchmarkSpec &bench,
                  int threads, const std::string &journal_path)
{
    // Mirrors the elivagar_cli mapping so a job submitted to the server
    // and a one-shot CLI run with the same knobs produce bit-identical
    // results (and interchangeable journals).
    core::ElivagarConfig config;
    config.num_candidates = spec.candidates;
    config.candidate.num_qubits = bench.qubits;
    config.candidate.num_params = bench.params;
    config.candidate.num_embeds = std::min(
        bench.params, std::max(bench.dim, bench.params / 4));
    config.candidate.num_meas = bench.meas;
    config.candidate.num_features = bench.dim;
    config.seed = spec.seed;
    config.threads = threads;
    config.resilience.checkpoint_path = journal_path;
    // Server jobs retry with bounded full jitter: many tenants share
    // the backends, and synchronized backoff from concurrent jobs is
    // exactly the stampede the jitter exists to break.
    config.resilience.retry.full_jitter = true;
    return config;
}

} // namespace elv::srv
