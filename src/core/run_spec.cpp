#include "core/run_spec.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace elv::core {

void
RunSpec::check() const
{
    // Every comparison is written so that NaN fails it.
    if (benchmark.empty() || device.empty())
        elv::fatal("a run needs a benchmark and a device");
    if (candidates < 1 || candidates > kMaxCandidates)
        elv::fatal("candidates must lie in [1, " +
                   std::to_string(kMaxCandidates) + "]");
    if (!(scale > 0.0 && scale <= 1.0))
        elv::fatal("scale must lie in (0, 1]");
    if (!(deadline_sec >= 0.0 && deadline_sec <= kMaxDeadlineSec))
        elv::fatal("deadline must lie in [0, " +
                   std::to_string(static_cast<long>(kMaxDeadlineSec)) +
                   "] seconds");
    if (workers < 0 || workers > kMaxWorkers)
        elv::fatal("workers must lie in [0, " +
                   std::to_string(kMaxWorkers) + "]");
}

std::string
RunSpec::to_json() const
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
RunSpec::from_json(const obs::JsonValue &value, RunSpec &out,
                   std::string &error)
{
    if (!value.is_object()) {
        error = "run spec must be a JSON object";
        return false;
    }
    out = RunSpec{};
    if (!value.read("benchmark", out.benchmark, error) ||
        !value.read("device", out.device, error) ||
        !value.read("candidates", out.candidates, error) ||
        !value.read("seed", out.seed, error) ||
        !value.read("scale", out.scale, error) ||
        !value.read("priority", out.priority, error) ||
        !value.read("deadline_sec", out.deadline_sec, error) ||
        !value.read("workers", out.workers, error))
        return false;
    try {
        out.check();
    } catch (const elv::UsageError &e) {
        error = e.what();
        return false;
    }
    return true;
}

ElivagarConfig
search_config(const RunSpec &spec, const qml::BenchmarkSpec &bench,
              int threads, const std::string &journal_path)
{
    ElivagarConfig config;
    config.num_candidates = spec.candidates;
    config.candidate.num_qubits = bench.qubits;
    config.candidate.num_params = bench.params;
    // The embedding budget covers every feature when the rotation
    // budget allows, and never exceeds it.
    config.candidate.num_embeds = std::min(
        bench.params, std::max(bench.dim, bench.params / 4));
    config.candidate.num_meas = bench.meas;
    config.candidate.num_features = bench.dim;
    config.seed = spec.seed;
    config.threads = threads;
    config.checkpoint_path = journal_path;
    return config;
}

} // namespace elv::core
