#include "core/run_report.hpp"

#include <cstdio>

#include "common/logging.hpp"
#include "common/runinfo.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "sim/cpu_features.hpp"

namespace elv::core {

namespace {

void
write_config(obs::JsonWriter &json, const ElivagarConfig &config)
{
    json.key("config").begin_object();
    json.kv("num_candidates", config.num_candidates);
    json.kv("num_qubits", config.candidate.num_qubits);
    json.kv("num_params", config.candidate.num_params);
    json.kv("num_embeds", config.candidate.num_embeds);
    json.kv("num_meas", config.candidate.num_meas);
    json.kv("cnr_replicas", config.cnr.num_replicas);
    json.kv("cnr_shots", config.cnr.shots);
    json.kv("cnr_noise_scale", config.cnr.noise_scale);
    json.kv("cnr_threshold", config.cnr_threshold);
    json.kv("keep_fraction", config.keep_fraction);
    json.kv("alpha_cnr", config.alpha_cnr);
    json.kv("use_cnr", config.use_cnr);
    json.kv("seed", static_cast<std::uint64_t>(config.seed));
    json.kv("threads", config.threads);
    json.kv("resilience_enabled", config.resilience.enabled);
    json.kv("checkpoint_path", config.resilience.checkpoint_path);
    json.end_object();
}

void
write_search(obs::JsonWriter &json, const SearchResult &result)
{
    json.key("search").begin_object();
    json.kv("best_score", result.best_score);
    json.kv("survivors", result.survivors);
    json.kv("cnr_executions", result.cnr_executions);
    json.kv("repcap_executions", result.repcap_executions);
    json.kv("total_executions", result.total_executions());
    json.kv("degraded_candidates", result.degraded_candidates);
    json.kv("resumed", result.resumed);
    json.kv("simulated_wait_ms", result.simulated_wait_ms);

    const elv::RetryCounters &exec = result.exec_counters;
    json.key("exec").begin_object();
    json.kv("calls", exec.calls);
    json.kv("attempts", exec.attempts);
    json.kv("failures", exec.failures);
    json.kv("retries", exec.retries);
    json.kv("invalid_results", exec.invalid_results);
    json.kv("rungs_exhausted", exec.rungs_exhausted);
    json.kv("degraded_calls", exec.degraded_calls);
    json.kv("backoff_wait_ms", exec.backoff_wait_ms);
    json.kv("queue_wait_ms", exec.queue_wait_ms);
    json.end_object();

    const exec::FaultCounters &faults = result.fault_counters;
    json.key("faults").begin_object();
    json.kv("transient", faults.transient);
    json.kv("timeouts", faults.timeouts);
    json.kv("garbage", faults.garbage);
    json.kv("drifts", faults.drifts);
    json.kv("crashes", faults.crashes);
    json.kv("total", faults.total());
    json.end_object();

    json.end_object();
}

void
write_phases(obs::JsonWriter &json, const SearchResult &result)
{
    json.key("phases").begin_array();
    for (const PhaseTiming &phase : result.phase_timings) {
        json.begin_object();
        json.kv("name", phase.name);
        json.kv("seconds", phase.seconds);
        json.end_object();
    }
    json.end_array();
    json.kv("total_seconds", result.total_seconds);
}

void
write_candidates(obs::JsonWriter &json, const SearchResult &result)
{
    json.key("candidates").begin_array();
    for (std::size_t n = 0; n < result.candidates.size(); ++n) {
        const CandidateRecord &record = result.candidates[n];
        json.begin_object();
        json.kv("index", static_cast<std::uint64_t>(n));
        json.kv("num_gates",
                static_cast<std::uint64_t>(record.circuit.ops().size()));
        json.kv("cnr", record.cnr);
        json.kv("repcap", record.repcap);
        json.kv("score", record.score);
        json.kv("rejected_by_cnr", record.rejected_by_cnr);
        json.kv("degraded", record.degraded);
        json.kv("retries", record.retries);
        json.end_object();
    }
    json.end_array();
}

void
write_metrics(obs::JsonWriter &json)
{
    const obs::MetricsSnapshot snap =
        obs::Registry::global().snapshot();
    json.key("metrics").begin_object();
    json.kv("enabled", obs::Registry::global().enabled());

    json.key("counters").begin_object();
    for (const auto &counter : snap.counters)
        json.kv(counter.name, counter.value);
    json.end_object();

    json.key("gauges").begin_object();
    for (const auto &gauge : snap.gauges) {
        json.key(gauge.name).begin_object();
        json.kv("value", gauge.value);
        json.kv("max", gauge.max);
        json.end_object();
    }
    json.end_object();

    json.key("histograms").begin_object();
    for (const auto &hist : snap.histograms) {
        json.key(hist.name).begin_object();
        json.key("edges").begin_array();
        for (double edge : hist.edges)
            json.value(edge);
        json.end_array();
        json.key("counts").begin_array();
        for (std::uint64_t count : hist.counts)
            json.value(count);
        json.end_array();
        json.kv("sum", hist.sum);
        json.kv("q50", hist.quantile(0.5));
        json.kv("q90", hist.quantile(0.9));
        json.kv("q99", hist.quantile(0.99));
        json.end_object();
    }
    json.end_object();

    json.end_object();
}

} // namespace

std::string
run_report_json(const ElivagarConfig &config, const SearchResult &result)
{
    obs::JsonWriter json;
    json.begin_object();
    json.kv("report", "elivagar_search");
    json.kv("version", elv::version_string());
    json.kv("timestamp", elv::iso8601_utc_now());
    // Execution provenance: the kernel tier actually dispatched, so a
    // report is self-describing when artifacts from different machines
    // or builds are compared.
    json.kv("kernel_dispatch",
            sim::kernel_tier_name(sim::active_tier()));
    write_config(json, config);
    write_search(json, result);
    write_phases(json, result);
    write_candidates(json, result);
    write_metrics(json);
    json.end_object();
    return json.str();
}

bool
write_run_report(const std::string &path, const ElivagarConfig &config,
                 const SearchResult &result)
{
    const std::string doc = run_report_json(config, result);
    std::FILE *file = std::fopen(path.c_str(), "w");
    if (!file) {
        elv::warn("cannot write run report to " + path);
        return false;
    }
    std::fwrite(doc.data(), 1, doc.size(), file);
    std::fputc('\n', file);
    std::fclose(file);
    return true;
}

} // namespace elv::core
