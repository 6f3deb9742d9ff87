/**
 * @file
 * The in-process workloads (pipeline-mnist4, search-mnist10), the
 * distributed one (dist-mnist10), and the layer probes every traced run
 * shares: staged search replay, noise compile/replay split, training
 * and evaluation, and distributed search.
 */
#include "bench.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>

#include "circuit/clifford_replica.hpp"
#include "core/checkpoint.hpp"
#include "dist/coordinator.hpp"
#include "noise/noise_model.hpp"
#include "noise/superop.hpp"
#include "obs/metrics.hpp"
#include "qml/classifier.hpp"
#include "qml/trainer.hpp"
#include "sim/density_matrix.hpp"
#include "sim/fusion.hpp"
#include "sim/statevector.hpp"

namespace perfbench {

using elv::core::SearchResult;

namespace {

/** Set-ups per run; the median is reported (the first is cold). */
constexpr int kSetups = 11;

/** "op_times_s a b c ..." for the run log. */
std::string
op_times(const std::vector<double> &times)
{
    std::string line = "op_times_s";
    for (double t : times) {
        char buf[32];
        std::snprintf(buf, sizeof buf, " %.4f", t);
        line += buf;
    }
    return line;
}

/** A trained circuit plus the training and evaluation wall times. */
struct TrainEval
{
    elv::qml::TrainResult trained;
    double train = 0.0, eval = 0.0;
};

/** train_circuit -> noiseless + noisy evaluate, as elivagar_cli does. */
TrainEval
train_and_evaluate(const Setup &setup, const elv::circ::Circuit &circuit,
                   const WorkloadSpec &spec, SpanLog &spans)
{
    TrainEval out;
    {
        SpanLog::Scope span(spans, "qml.train");
        elv::qml::TrainConfig tc;
        tc.epochs = spec.epochs;
        tc.threads = spec.threads;
        tc.seed = spec.job.seed + 1;
        out.trained =
            elv::qml::train_circuit(circuit, setup.bench.train, tc);
        out.train = span.elapsed();
    }
    SpanLog::Scope span(spans, "qml.eval");
    const auto &params = out.trained.params;
    {
        SpanLog::Scope ideal(spans, "qml.eval_ideal");
        elv::qml::evaluate(circuit, params, setup.bench.test);
    }
    {
        SpanLog::Scope noisy_span(spans, "qml.eval_noisy");
        const elv::noise::NoisyDensitySimulator noisy(setup.device);
        elv::qml::evaluate(circuit, params, setup.bench.test,
                           [&noisy](const elv::circ::Circuit &c,
                                    const std::vector<double> &p,
                                    const std::vector<double> &x) {
                               return noisy.run_distribution(c, p, x);
                           });
    }
    out.eval = span.elapsed();
    return out;
}

/** Timings of one pipeline op (seconds). */
struct PipelineOp
{
    SearchResult found;
    TrainEval qml;
    double run = 0.0, search = 0.0, search_cpu = 0.0, cpu = 0.0;
};

/** elivagar_search -> train_circuit -> ideal + noisy evaluate. */
PipelineOp
pipeline_op(const Setup &setup, const WorkloadSpec &spec, SpanLog &spans,
            std::uint64_t op_id)
{
    PipelineOp op;
    const double cpu0 = self_cpu_s();
    SpanLog::Scope op_span(spans, "pipeline", op_id);
    {
        SpanLog::Scope span(spans, "core.search");
        const double search_cpu0 = self_cpu_s();
        op.found = elv::core::elivagar_search(
            setup.device, setup.bench.train,
            search_config(spec.job, setup, spec.threads));
        op.search = span.elapsed();
        op.search_cpu = self_cpu_s() - search_cpu0;
    }
    op.qml = train_and_evaluate(setup, op.found.best_circuit, spec, spans);
    op.run = op_span.elapsed();
    op.cpu = self_cpu_s() - cpu0;
    return op;
}

/**
 * Run `op(id)` back to back while the median op so far still fits in
 * --seconds; `op` returns its wall time, which lands in `run`. A throwing
 * op ends the window as a failed op. Returns the window's wall seconds,
 * up to the end of the last op.
 */
template <typename Op>
double
timed_window(const Options &options, Report &report,
             std::vector<double> &run, Op op)
{
    const double start = now_s();
    double end = start;
    std::uint64_t op_id = 0;
    while (run.empty() ||
           now_s() - start + median(run) <= options.seconds) {
        ++op_id;
        try {
            run.push_back(op(op_id));
            end = now_s();
            report.op_ok();
        } catch (const std::exception &error) {
            report.op_failed("op " + std::to_string(op_id) + ": " +
                             error.what());
            break;
        }
    }
    report.info(op_times(run));
    return end - start;
}

void
add_untraced_common(Report &report, const std::vector<double> &setup_times,
                    double window_s, std::size_t ops_ok)
{
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    report.add("setup_s", median(setup_times), "s");
    report.add("jobs_per_s",
               window_s > 0.0 ? static_cast<double>(ops_ok) / window_s
                              : 0.0,
               "1/s");
    report.not_applicable("job_p50_s", "s", "no job queue; see run_s");
    report.not_applicable("job_p90_s", "s", "no job queue");
}

void
qml_metrics(const Setup &setup, const elv::qml::TrainResult &trained,
            int epochs, const SpanLog &spans, Report &report)
{
    const double train_s = spans.total("qml.train");
    report.add("qml.train.s", train_s, "s");
    report.add("qml.train.executions",
               static_cast<double>(trained.circuit_executions), "count");
    report.add("qml.train.us_per_sample_epoch",
               train_s * 1e6 /
                   static_cast<double>(setup.bench.train.size() *
                                       static_cast<std::size_t>(epochs)),
               "us");
    report.add("qml.eval_ideal.s", spans.total("qml.eval_ideal"), "s");
    report.add("qml.eval_noisy.s", spans.total("qml.eval_noisy"), "s");
}

/** Noisy replay of the trained circuit's compiled program per sample. */
void
eval_replay_probe(const Setup &setup, const elv::circ::Circuit &circuit,
                  const std::vector<double> &params, SpanLog &spans,
                  Report &report)
{
    std::vector<int> kept;
    const elv::circ::Circuit local = circuit.compacted(kept);
    const auto program =
        elv::noise::NoisyProgram::compile(local, kept, setup.device, 1.0);
    SpanLog::Scope span(spans, "noise.eval_replay");
    for (const auto &x : setup.bench.test.samples) {
        elv::sim::DensityMatrix rho(local.num_qubits());
        program.run(rho, params, x);
    }
    report.add("noise.eval_replay_us_per_sample",
               span.elapsed() * 1e6 /
                   static_cast<double>(
                       std::max<std::size_t>(1, setup.bench.test.size())),
               "us");
}

/** A server job's best_score_hex must match the in-process search. */
void
check_job_result(const std::string &job_hex, const SearchResult &found,
                 Report &report)
{
    const std::string hex = elv::core::double_to_hex(found.best_score);
    if (!job_hex.empty() && job_hex != hex)
        report.check_failed("server job best_score_hex " + job_hex +
                            " differs from the in-process search's " + hex);
}

elv::dist::DistConfig
dist_config(const WorkloadSpec &spec)
{
    elv::dist::DistConfig dc;
    dc.workers = spec.dist_workers;
    dc.threads_per_worker = spec.dist_threads;
    dc.coordinator_threads = spec.dist_threads;
    return dc;
}

} // namespace

Setup
repeated_setup(const WorkloadSpec &spec, SpanLog &spans,
               std::vector<double> &times)
{
    std::optional<Setup> setup;
    for (int k = 0; k < kSetups; ++k) {
        setup.emplace(make_setup(spec.job, spans));
        times.push_back(setup->seconds);
    }
    return std::move(*setup);
}

void
setup_layer_metrics(const SpanLog &spans, Report &report)
{
    report.add("qml.make_benchmark.s",
               median(spans.durations("qml.make_benchmark")), "s");
    report.add("device.make_device.s",
               median(spans.durations("device.make_device")), "s");
}

void
parallel_metrics(const SpanLog &spans, double search_wall, double search_cpu,
                 int threads, Report &report)
{
    double serial = 0.0;
    for (const char *name :
         {"core.generate", "core.cnr", "core.select", "core.repcap",
          "core.rank"})
        serial += spans.total(name);
    report.add("parallel.search_cpu_eff",
               search_cpu / (search_wall * static_cast<double>(threads)),
               "ratio");
    report.add("parallel.search_speedup", serial / search_wall, "ratio");
}

void
check_ranking(const SearchResult &found, const std::string &digest,
              std::optional<std::string> &first, const std::string &what,
              Report &report)
{
    if (!first) {
        first = digest;
        report.info("ranking_digest " + digest + " survivors " +
                    std::to_string(found.survivors) + " best_score_hex " +
                    elv::core::double_to_hex(found.best_score));
        return;
    }
    if (digest != *first)
        report.check_failed(what + ": ranking digest " + digest +
                            " differs from the first op's " + *first);
}

void
check_expected_digest(const Options &options, const std::string &digest,
                      Report &report)
{
    if (options.expect_digest.empty())
        return;
    if (digest == options.expect_digest)
        report.info("ranking digest matches the recorded reference");
    else
        report.check_failed("ranking digest " + digest +
                            " differs from the recorded reference " +
                            options.expect_digest);
}

SearchResult
replay_search(const elv::dev::Device &device, const elv::qml::Dataset &train,
              const elv::core::ElivagarConfig &config, SpanLog &spans,
              Report &report)
{
    namespace core = elv::core;
    SpanLog::Scope replay_span(spans, "replay");
    const auto count = static_cast<std::size_t>(config.num_candidates);
    SearchResult result;
    result.candidates.resize(count);
    for (std::size_t n = 0; n < count; ++n) {
        SpanLog::Scope span(spans, "core.generate");
        result.candidates[n].circuit =
            core::generate_search_candidate(device, config, n);
    }

    const auto faults = core::prepare_fault_config(config);
    std::vector<double> cnr_ms;
    for (std::size_t n = 0; n < count; ++n) {
        SpanLog::Scope span(spans, "core.cnr");
        auto &record = result.candidates[n];
        const core::CandidateCnr cnr = core::evaluate_candidate_cnr(
            device, record.circuit, config, faults, n);
        record.cnr = cnr.cnr;
        record.degraded = cnr.degraded;
        record.retries = cnr.retries;
        result.cnr_executions += cnr.executions;
        cnr_ms.push_back(span.elapsed() * 1e3);
    }
    {
        SpanLog::Scope span(spans, "core.select");
        core::apply_cnr_selection(result.candidates, config);
    }

    double repcap_s = 0.0;
    for (std::size_t n = 0; n < count; ++n) {
        auto &record = result.candidates[n];
        if (record.rejected_by_cnr)
            continue;
        SpanLog::Scope span(spans, "core.repcap");
        const core::CandidateRepCap rc =
            core::evaluate_candidate_repcap(record.circuit, train, config, n);
        record.repcap = rc.repcap;
        result.repcap_executions += rc.executions;
        ++result.survivors;
        repcap_s += span.elapsed();
    }

    {
        SpanLog::Scope span(spans, "core.rank");
        const core::CandidateRecord *best = nullptr;
        for (auto &record : result.candidates) {
            if (record.degraded)
                ++result.degraded_candidates;
            if (record.rejected_by_cnr)
                continue;
            record.score =
                core::composite_score(record.cnr, record.repcap, config);
            if (!best || record.score > best->score)
                best = &record;
        }
        if (best) {
            result.best_circuit = best->circuit;
            result.best_score = best->score;
        }
    }

    double cnr_s = 0.0;
    for (double ms : cnr_ms)
        cnr_s += ms / 1e3;
    report.add("core.cnr.s", cnr_s, "s");
    report.add("core.cnr.executions",
               static_cast<double>(result.cnr_executions), "count");
    report.add("core.cnr.ms_per_candidate_p50", median(cnr_ms), "ms");
    report.add("core.cnr.ms_per_candidate_max",
               *std::max_element(cnr_ms.begin(), cnr_ms.end()), "ms");
    report.add("core.cnr.survivor_ratio",
               static_cast<double>(result.survivors) /
                   static_cast<double>(count),
               "ratio");
    report.add("core.repcap.s", repcap_s, "s");
    report.add("core.repcap.executions",
               static_cast<double>(result.repcap_executions), "count");
    report.add("core.repcap.us_per_exec",
               repcap_s * 1e6 /
                   static_cast<double>(
                       std::max<std::uint64_t>(1, result.repcap_executions)),
               "us");
    return result;
}

void
noise_probe(const elv::dev::Device &device, const SearchResult &found,
            const elv::core::ElivagarConfig &config, SpanLog &spans,
            Report &report)
{
    SpanLog::Scope probe_span(spans, "noise_probe");
    double compile_s = 0.0, replay_s = 0.0;
    std::uint64_t replicas = 0, entries = 0, merged = 0;
    const std::vector<double> none;
    for (std::size_t n = 0; n < found.candidates.size(); ++n) {
        elv::Rng rng(config.seed * 0x9e3779b97f4a7c15ULL + n + 1);
        const auto replica_set = elv::circ::make_clifford_replicas(
            found.candidates[n].circuit, config.cnr.num_replicas, rng);
        for (const auto &replica : replica_set) {
            std::vector<int> kept;
            const elv::circ::Circuit local = replica.compacted(kept);
            {
                SpanLog::Scope span(spans, "sim.ideal");
                elv::sim::StateVector psi(local.num_qubits());
                elv::sim::FusedProgram::compile(local).run(psi, none, none);
            }
            std::optional<elv::noise::NoisyProgram> program;
            {
                SpanLog::Scope span(spans, "noise.compile");
                program.emplace(elv::noise::NoisyProgram::compile(
                    local, kept, device, config.cnr.noise_scale));
                compile_s += span.elapsed();
            }
            {
                SpanLog::Scope span(spans, "noise.replay");
                elv::sim::DensityMatrix rho(local.num_qubits());
                program->run(rho);
                replay_s += span.elapsed();
            }
            ++replicas;
            entries += program->size();
            merged += program->ops_merged();
        }
    }
    report.add("noise.compile.s", compile_s, "s");
    report.add("noise.replay.s", replay_s, "s");
    report.add("noise.compile_share", compile_s / (compile_s + replay_s),
               "ratio");
    report.add("noise.replicas", static_cast<double>(replicas), "count");
    report.add("noise.entries_per_replica",
               static_cast<double>(entries) / static_cast<double>(replicas),
               "count");
    report.add("noise.ops_merged", static_cast<double>(merged), "count");
}

void
qml_layer(const Setup &setup, const SearchResult &found,
          const WorkloadSpec &spec, SpanLog &spans, Report &report)
{
    SpanLog::Scope probe_span(spans, "qml_probe");
    const TrainEval qml =
        train_and_evaluate(setup, found.best_circuit, spec, spans);
    qml_metrics(setup, qml.trained, spec.epochs, spans, report);
    eval_replay_probe(setup, found.best_circuit, qml.trained.params, spans,
                      report);
}

SearchResult
dist_layer(const WorkloadSpec &spec, SpanLog &spans, Report &report,
           double *wall_s, double *cpu_s)
{
    const double self0 = self_cpu_s(), children0 = children_cpu_s();
    elv::dist::DistResult out;
    double wall = 0.0;
    {
        SpanLog::Scope span(spans, "dist.search");
        out = elv::dist::distributed_search(spec.job, dist_config(spec));
        wall = span.elapsed();
    }
    const double coordinator = self_cpu_s() - self0;
    const double workers = children_cpu_s() - children0;
    report.add("dist.coordinator_cpu_s", coordinator, "s");
    report.add("dist.worker_cpu_s", workers, "s");
    report.add("dist.records",
               static_cast<double>(out.stats.records_received), "count");
    report.add("dist.shards", out.stats.shards, "count");
    report.add("dist.reissues", out.stats.shards_reissued, "count");
    report.add("dist.fallback_records",
               static_cast<double>(out.stats.fallback_records), "count");
    if (wall_s)
        *wall_s = wall;
    if (cpu_s)
        *cpu_s = coordinator + workers;
    return out.result;
}

void
run_pipeline(const Options &options, const WorkloadSpec &spec,
             Report &report)
{
    add_provenance(report, options, spec.threads, 1);
    SpanLog spans(options.trace);
    SpanLog quiet(false);
    std::vector<double> setup_times;
    const Setup setup = repeated_setup(spec, spans, setup_times);
    report.info("inputs " + setup.bench.spec.name + " (" +
                std::to_string(setup.bench.train.size()) + " train / " +
                std::to_string(setup.bench.test.size()) + " test) on " +
                setup.device.name);

    std::optional<std::string> first;
    if (!options.trace) {
        std::vector<double> run, search, train, eval, cpu;
        const double window = timed_window(
            options, report, run, [&](std::uint64_t op_id) {
                const PipelineOp op = pipeline_op(setup, spec, quiet, op_id);
                const std::string digest = ranking_digest(op.found);
                if (!first)
                    check_expected_digest(options, digest, report);
                check_ranking(op.found, digest, first,
                              "op " + std::to_string(op_id), report);
                search.push_back(op.search);
                train.push_back(op.qml.train);
                eval.push_back(op.qml.eval);
                cpu.push_back(op.cpu);
                return op.run;
            });
        report.add("run_s", median(run), "s");
        report.add("search_s", median(search), "s");
        report.add("train_s", median(train), "s");
        report.add("eval_s", median(eval), "s");
        report.add("cpu_s", median(cpu), "s");
        add_untraced_common(report, setup_times, window, run.size());
        report.print(kEndToEndMetrics);
        return;
    }

    // Traced run: one untraced op as the overhead baseline, then the
    // same op traced with the library's counters on, then the probes.
    const PipelineOp base = pipeline_op(setup, spec, quiet, 1);
    report.op_ok();
    const std::string base_digest = ranking_digest(base.found);
    check_expected_digest(options, base_digest, report);
    check_ranking(base.found, base_digest, first, "untraced op", report);

    elv::obs::Registry::global().set_enabled(true);
    const PipelineOp traced = pipeline_op(setup, spec, spans, 2);
    report.op_ok();
    check_ranking(traced.found, ranking_digest(traced.found), first,
                  "traced op", report);
    report.add("trace.overhead_s", traced.run - base.run, "s");

    const auto config = search_config(spec.job, setup, spec.threads);
    const SearchResult replayed = replay_search(
        setup.device, setup.bench.train, config, spans, report);
    report.op_ok();
    check_ranking(replayed, ranking_digest(replayed), first, "staged replay",
                  report);
    parallel_metrics(spans, base.search, base.search_cpu, spec.threads,
                     report);
    noise_probe(setup.device, traced.found, config, spans, report);
    qml_metrics(setup, traced.qml.trained, spec.epochs, spans, report);
    eval_replay_probe(setup, traced.found.best_circuit,
                      traced.qml.trained.params, spans, report);
    setup_layer_metrics(spans, report);
    check_job_result(server_probe(options, spec, spans, report),
                     traced.found, report);
    const SearchResult distributed = dist_layer(spec, spans, report);
    report.op_ok();
    check_ranking(distributed, ranking_digest(distributed), first,
                  "distributed search", report);
    finish_trace(options, spans, report);
    report.print(kPerLayerMetrics);
}

void
run_dist(const Options &options, const WorkloadSpec &spec, Report &report)
{
    const int threads = spec.dist_workers * spec.dist_threads;
    add_provenance(report, options, threads, 1);
    SpanLog spans(options.trace);
    SpanLog quiet(false);
    std::vector<double> setup_times;
    const Setup setup = repeated_setup(spec, spans, setup_times);

    // Reference: the in-process search of the same spec at all threads,
    // computed outside the timed window.
    const SearchResult reference = elv::core::elivagar_search(
        setup.device, setup.bench.train,
        search_config(spec.job, setup, threads));
    std::optional<std::string> first;
    const std::string ref_digest = ranking_digest(reference);
    check_expected_digest(options, ref_digest, report);
    check_ranking(reference, ref_digest, first, "in-process reference",
                  report);

    if (!options.trace) {
        std::vector<double> run, cpu;
        Report layer; // dist.* numbers belong to the traced run
        const double window = timed_window(
            options, report, run, [&](std::uint64_t op_id) {
                double wall = 0.0, op_cpu = 0.0;
                const SearchResult found =
                    dist_layer(spec, quiet, layer, &wall, &op_cpu);
                check_ranking(found, ranking_digest(found), first,
                              "op " + std::to_string(op_id), report);
                cpu.push_back(op_cpu);
                return wall;
            });
        report.add("run_s", median(run), "s");
        report.add("search_s", median(run), "s");
        report.not_applicable("train_s", "s", "search only");
        report.not_applicable("eval_s", "s", "search only");
        report.add("cpu_s", median(cpu), "s");
        add_untraced_common(report, setup_times, window, run.size());
        report.print(kEndToEndMetrics);
        return;
    }

    Report untraced_layer;
    double base_wall = 0.0, base_cpu = 0.0;
    const SearchResult base =
        dist_layer(spec, quiet, untraced_layer, &base_wall, &base_cpu);
    report.op_ok();
    check_ranking(base, ranking_digest(base), first, "untraced op", report);

    elv::obs::Registry::global().set_enabled(true);
    double wall = 0.0;
    const SearchResult traced = [&] {
        SpanLog::Scope op_span(spans, "pipeline", 1);
        return dist_layer(spec, spans, report, &wall);
    }();
    report.op_ok();
    check_ranking(traced, ranking_digest(traced), first, "traced op",
                  report);
    report.add("trace.overhead_s", wall - base_wall, "s");

    const auto config = search_config(spec.job, setup, threads);
    const SearchResult replayed = replay_search(
        setup.device, setup.bench.train, config, spans, report);
    report.op_ok();
    check_ranking(replayed, ranking_digest(replayed), first, "staged replay",
                  report);
    parallel_metrics(spans, base_wall, base_cpu, threads, report);
    noise_probe(setup.device, reference, config, spans, report);
    qml_layer(setup, reference, spec, spans, report);
    setup_layer_metrics(spans, report);
    WorkloadSpec job_spec = spec;
    job_spec.job.workers = spec.dist_workers;
    job_spec.threads = threads;
    check_job_result(server_probe(options, job_spec, spans, report),
                     reference, report);
    finish_trace(options, spans, report);
    report.print(kPerLayerMetrics);
}

} // namespace perfbench
